package btree

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"robustconf/internal/index"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Errorf("Len = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get(1, nil); ok {
		t.Error("Get on empty tree found a key")
	}
	if tr.Update(1, 2, nil) {
		t.Error("Update on empty tree succeeded")
	}
}

func TestInsertGet(t *testing.T) {
	tr := New()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		if !tr.Insert(i*7919%100000, i, nil) {
			t.Fatalf("Insert(%d) returned false", i*7919%100000)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		v, ok := tr.Get(i*7919%100000, nil)
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v want %d,true", i*7919%100000, v, ok, i)
		}
	}
	if _, ok := tr.Get(999999999, nil); ok {
		t.Error("Get of absent key succeeded")
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := New()
	if !tr.Insert(5, 1, nil) {
		t.Fatal("first insert failed")
	}
	if tr.Insert(5, 2, nil) {
		t.Error("duplicate insert succeeded")
	}
	if v, _ := tr.Get(5, nil); v != 1 {
		t.Errorf("duplicate insert modified value: %d", v)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestUpdateInPlace(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(i, i, nil)
	}
	var st index.OpStats
	for i := uint64(0); i < 1000; i++ {
		if !tr.Update(i, i*2, &st) {
			t.Fatalf("Update(%d) failed", i)
		}
	}
	if st.Splits != 0 {
		t.Error("updates caused splits")
	}
	for i := uint64(0); i < 1000; i++ {
		if v, _ := tr.Get(i, nil); v != i*2 {
			t.Fatalf("Get(%d) = %d after update", i, v)
		}
	}
	if tr.Update(5000, 1, nil) {
		t.Error("Update of absent key succeeded")
	}
}

func TestOrderedScan(t *testing.T) {
	tr := New()
	keys := rand.New(rand.NewSource(1)).Perm(5000)
	for _, k := range keys {
		tr.Insert(uint64(k), uint64(k)*10, nil)
	}
	var got []uint64
	n := tr.Scan(100, 199, func(k, v uint64) bool {
		if v != k*10 {
			t.Errorf("Scan value mismatch at %d: %d", k, v)
		}
		got = append(got, k)
		return true
	}, nil)
	if n != 100 || len(got) != 100 {
		t.Fatalf("Scan visited %d keys, want 100", n)
	}
	for i, k := range got {
		if k != uint64(100+i) {
			t.Fatalf("Scan out of order at %d: %d", i, k)
		}
	}
	// Early termination.
	n = tr.Scan(0, 4999, func(k, v uint64) bool { return k < 9 }, nil)
	if n != 10 {
		t.Errorf("early-terminated scan visited %d, want 10", n)
	}
}

func TestSplitsAndHeightGrow(t *testing.T) {
	tr := New()
	var st index.OpStats
	for i := uint64(0); i < 100000; i++ {
		tr.Insert(i, i, &st)
	}
	if st.Splits == 0 {
		t.Error("100k sequential inserts caused no splits")
	}
	if tr.Height() < 2 {
		t.Errorf("Height = %d, want ≥ 2 for 100k keys", tr.Height())
	}
	// All keys still reachable after deep splits.
	for i := uint64(0); i < 100000; i += 997 {
		if _, ok := tr.Get(i, nil); !ok {
			t.Fatalf("key %d lost after splits", i)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 10000; i++ {
		tr.Insert(i, i, nil)
	}
	var st index.OpStats
	tr.Get(5000, &st)
	if st.Ops != 1 {
		t.Errorf("Ops = %d, want 1", st.Ops)
	}
	if st.NodesVisited < 2 {
		t.Errorf("NodesVisited = %d, want ≥ 2 (inner + leaf)", st.NodesVisited)
	}
	if st.LinesTouched == 0 {
		t.Error("LinesTouched = 0")
	}
	if st.Depth == 0 {
		t.Error("Depth = 0, tree with 10k keys has inner levels")
	}
	var ist index.OpStats
	tr.Insert(999999, 1, &ist)
	if ist.LockAcquires != 1 {
		t.Errorf("insert LockAcquires = %d, want 1", ist.LockAcquires)
	}
}

func TestSchemeAndName(t *testing.T) {
	tr := New()
	if tr.Name() != "B-Tree" {
		t.Errorf("Name = %q", tr.Name())
	}
	if tr.Scheme() != index.SchemeAtomicRecord {
		t.Errorf("Scheme = %v", tr.Scheme())
	}
}

func TestConcurrentReadersWithWriter(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(i*2, i, nil) // even keys pre-loaded
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One writer inserting odd keys (global lock), many optimistic readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < 2000; i++ {
			tr.Insert(i*2+1, i, nil)
		}
		close(stop)
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := uint64(r.Intn(1000)) * 2
				if v, ok := tr.Get(k, nil); !ok || v != k/2 {
					t.Errorf("Get(%d) = %d,%v during concurrent inserts", k, v, ok)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if tr.Len() != 3000 {
		t.Errorf("Len = %d, want 3000", tr.Len())
	}
}

func TestConcurrentUpdaters(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 100; i++ {
		tr.Insert(i, 0, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(val uint64) {
			defer wg.Done()
			for i := uint64(0); i < 100; i++ {
				tr.Update(i, val, nil)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	// Every key must hold one of the written values (atomic, not torn).
	for i := uint64(0); i < 100; i++ {
		v, ok := tr.Get(i, nil)
		if !ok || v < 1 || v > 8 {
			t.Fatalf("Get(%d) = %d,%v — torn or lost update", i, v, ok)
		}
	}
}

func TestRandomisedAgainstMap(t *testing.T) {
	tr := New()
	oracle := map[uint64]uint64{}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 50000; i++ {
		k := uint64(r.Intn(20000))
		switch r.Intn(3) {
		case 0:
			_, exists := oracle[k]
			ok := tr.Insert(k, k+1, nil)
			if ok == exists {
				t.Fatalf("Insert(%d) = %v, oracle exists=%v", k, ok, exists)
			}
			if !exists {
				oracle[k] = k + 1
			}
		case 1:
			_, exists := oracle[k]
			ok := tr.Update(k, k+2, nil)
			if ok != exists {
				t.Fatalf("Update(%d) = %v, oracle exists=%v", k, ok, exists)
			}
			if exists {
				oracle[k] = k + 2
			}
		case 2:
			v, ok := tr.Get(k, nil)
			ov, exists := oracle[k]
			if ok != exists || (ok && v != ov) {
				t.Fatalf("Get(%d) = %d,%v, oracle %d,%v", k, v, ok, ov, exists)
			}
		}
	}
	if tr.Len() != len(oracle) {
		t.Errorf("Len = %d, oracle %d", tr.Len(), len(oracle))
	}
}

func TestScanPropertyMatchesSortedKeys(t *testing.T) {
	f := func(keys []uint16, lo8, hi8 uint8) bool {
		lo, hi := uint64(lo8)*100, uint64(hi8)*100+500
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := New()
		inSet := map[uint64]bool{}
		for _, k16 := range keys {
			k := uint64(k16)
			if tr.Insert(k, k, nil) {
				inSet[k] = true
			}
		}
		want := 0
		for k := range inSet {
			if k >= lo && k <= hi {
				want++
			}
		}
		got := tr.Scan(lo, hi, func(k, v uint64) bool { return true }, nil)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSortedAppendFastPath exercises the k > maxKey append path: a pure
// ascending load must leave a fully correct tree (every key retrievable,
// scan ordered and complete), and a subsequent mixed workload below the
// maximum — landing in the fully-packed nodes the fast path builds — must
// keep matching a map oracle through the generic split path.
func TestSortedAppendFastPath(t *testing.T) {
	tr := New()
	const n = 5000
	oracle := map[uint64]uint64{}
	for k := uint64(1); k <= n; k++ {
		if !tr.Insert(k, k*3, nil) {
			t.Fatalf("ascending insert %d rejected", k)
		}
		oracle[k] = k * 3
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	prev := uint64(0)
	got := 0
	tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		if v != oracle[k] {
			t.Fatalf("scan value for %d = %d, want %d", k, v, oracle[k])
		}
		prev = k
		got++
		return true
	}, nil)
	if got != n {
		t.Fatalf("scan saw %d keys, want %d", got, n)
	}
	// Mixed follow-up below the maximum: generic inserts split the packed
	// leaves; deletes and re-inserts around the (stale-high) maximum.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(2*n)) + 1
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			if tr.Insert(k, v, nil) {
				if _, dup := oracle[k]; dup {
					t.Fatalf("insert %d accepted a duplicate", k)
				}
				oracle[k] = v
			} else if _, dup := oracle[k]; !dup {
				t.Fatalf("insert %d rejected a fresh key", k)
			}
		case 1:
			_, present := oracle[k]
			if tr.Delete(k, nil) != present {
				t.Fatalf("delete %d disagreed with oracle (present=%v)", k, present)
			}
			delete(oracle, k)
		case 2:
			want, present := oracle[k]
			if v, ok := tr.Get(k, nil); ok != present || (ok && v != want) {
				t.Fatalf("Get(%d) = %d,%v, oracle %d,%v", k, v, ok, want, present)
			}
		}
	}
	if tr.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle %d", tr.Len(), len(oracle))
	}
	for k, want := range oracle {
		if v, ok := tr.Get(k, nil); !ok || v != want {
			t.Fatalf("Get(%d) = %d,%v, want %d,true", k, v, ok, want)
		}
	}
}

// TestSortedAppendPacksNodes pins what the fast path is for: an ascending
// load allocates one node per leafSlots records plus the thin inner spine —
// about half the median-split cost — and leaves leaves fully packed. Nodes
// are counted at the allocator: arena nodes are no heap allocations.
func TestSortedAppendPacksNodes(t *testing.T) {
	tr := New()
	const inserts = 16384
	for k := uint64(1); k <= inserts; k++ {
		tr.Insert(k, k, nil)
	}
	// One leaf per leafSlots (15) inserts plus spine inners: ~0.071 nodes
	// per op; the median-split path costs double. Guard with headroom.
	if n := float64(tr.nodes) / inserts; n > 0.1 {
		t.Errorf("ascending insert allocates %.3f nodes per op, want packed-append (< 0.1)", n)
	}
	full, leaves := 0, 0
	tr.Scan(0, ^uint64(0), func(uint64, uint64) bool { return true }, nil)
	for lf := leftmostLeaf(tr); lf != nil; lf = lf.next {
		leaves++
		if lf.num == leafSlots {
			full++
		}
	}
	runtime.KeepAlive(tr) // the leaf walk reads tr's nodes
	// Every leaf but the in-progress rightmost one is fully packed.
	if leaves == 0 || full < leaves-1 {
		t.Errorf("%d of %d leaves fully packed, want all but the last", full, leaves)
	}
}

// TestTailSplitThenAppend drives the tail fast path across its one way to go
// stale: an ascending run, a mid-range insert inside the tail leaf's range
// (first one that fits, then one that splits the full tail), and more
// appends, which must leave the split tail and walk the spine again. The
// tree is checked against a sorted oracle after every phase.
func TestTailSplitThenAppend(t *testing.T) {
	tr := New()
	var want []uint64
	appendRun := func(n int) {
		for i := 0; i < n; i++ {
			k := uint64(10)
			if len(want) > 0 {
				k = want[len(want)-1] + 10
			}
			if !tr.Insert(k, k*3, nil) {
				t.Fatalf("append %d rejected", k)
			}
			want = append(want, k)
		}
	}
	insertMid := func(k uint64) {
		if !tr.Insert(k, k*3, nil) {
			t.Fatalf("mid-range insert %d rejected", k)
		}
		i := sort.Search(len(want), func(i int) bool { return want[i] >= k })
		want = append(want[:i], append([]uint64{k}, want[i:]...)...)
	}
	check := func(phase string) {
		t.Helper()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		var got []uint64
		tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
			if v != k*3 {
				t.Fatalf("%s: key %d holds %d", phase, k, v)
			}
			got = append(got, k)
			return true
		}, nil)
		if len(got) != len(want) || tr.Len() != len(want) {
			t.Fatalf("%s: scan %d keys, Len %d, oracle %d", phase, len(got), tr.Len(), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d is %d, oracle %d", phase, i, got[i], want[i])
			}
		}
	}
	// 20 records: the tail holds 5 of 15, so a mid-range insert fits.
	appendRun(20)
	insertMid(want[len(want)-2] + 1)
	if tr.tail.next != nil {
		t.Fatal("insert into a tail with room split it")
	}
	appendRun(5)
	check("insert into the tail")
	// Fill the tail, then split it from the middle.
	appendRun(leafSlots - tr.tail.num)
	if tr.tail.num != leafSlots {
		t.Fatalf("tail holds %d records, want it full", tr.tail.num)
	}
	stale := tr.tail
	insertMid(want[len(want)-3] + 1)
	if stale.next == nil {
		t.Fatal("mid-range insert into the full tail did not split it")
	}
	check("tail split")
	appendRun(3*leafSlots + 1)
	if tr.tail == stale || tr.tail.next != nil {
		t.Fatal("appends after the split kept writing the split leaf")
	}
	check("appends after the tail split")
	// Deletes at the top leave maxKey stale-high; appends stay above it.
	for _, k := range want[len(want)-4:] {
		if !tr.Delete(k, nil) {
			t.Fatalf("delete %d rejected", k)
		}
	}
	want = want[:len(want)-4]
	appendRun(2)
	check("appends after deletes")
}

// leftmostLeaf descends the leftmost spine (test helper).
func leftmostLeaf(t *Tree) *leaf {
	p := t.root
	for d := 0; d < t.height; d++ {
		p = (*inner)(p).children[0]
	}
	return (*leaf)(p)
}
