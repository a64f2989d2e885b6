package fptree

import (
	"math/rand"
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

func TestInsertGetAcrossSplits(t *testing.T) {
	tr := New()
	const n = 20000
	for i := uint64(0); i < n; i++ {
		k := i * 6364136223846793005 % 1000003 // scatter keys
		if !tr.Insert(k, i, nil) {
			t.Fatalf("Insert(%d) returned false", k)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		k := i * 6364136223846793005 % 1000003
		v, ok := tr.Get(k, nil)
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v want %d,true", k, v, ok, i)
		}
	}
}

func TestDuplicateInsertRejected(t *testing.T) {
	tr := New()
	if !tr.Insert(7, 1, nil) {
		t.Fatal("first insert failed")
	}
	if tr.Insert(7, 2, nil) {
		t.Error("duplicate insert succeeded")
	}
	if v, _ := tr.Get(7, nil); v != 1 {
		t.Errorf("duplicate insert changed value to %d", v)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestUpdateInPlace(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 2000; i++ {
		tr.Insert(i, i, nil)
	}
	var st index.OpStats
	for i := uint64(0); i < 2000; i++ {
		if !tr.Update(i, i+100, &st) {
			t.Fatalf("Update(%d) failed", i)
		}
	}
	if st.Splits != 0 {
		t.Error("in-place updates caused splits")
	}
	for i := uint64(0); i < 2000; i++ {
		if v, _ := tr.Get(i, nil); v != i+100 {
			t.Fatalf("Get(%d) = %d", i, v)
		}
	}
	if tr.Update(99999, 0, nil) {
		t.Error("Update of absent key succeeded")
	}
}

func TestFingerprintProbesAccounted(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(i, i, nil)
	}
	var st index.OpStats
	tr.Get(500, &st)
	if st.FPProbes == 0 {
		t.Error("Get accounted no fingerprint probes")
	}
	if st.NodesVisited < 2 {
		t.Errorf("NodesVisited = %d, want ≥ 2", st.NodesVisited)
	}
	if st.Depth == 0 {
		t.Error("Depth = 0 on a split tree")
	}
}

func TestSplitAccounting(t *testing.T) {
	tr := New()
	var st index.OpStats
	for i := uint64(0); i < 10000; i++ {
		tr.Insert(i, i, &st)
	}
	if st.Splits == 0 {
		t.Error("10k inserts caused no splits")
	}
	if st.BytesCopied == 0 {
		t.Error("splits copied no bytes")
	}
}

func TestScanSortedAcrossUnsortedLeaves(t *testing.T) {
	tr := New()
	keys := rand.New(rand.NewSource(7)).Perm(3000)
	for _, k := range keys {
		tr.Insert(uint64(k), uint64(k)+1, nil)
	}
	var got []uint64
	n := tr.Scan(1000, 1099, func(k, v uint64) bool {
		if v != k+1 {
			t.Errorf("value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	}, nil)
	if n != 100 {
		t.Fatalf("Scan visited %d, want 100", n)
	}
	for i, k := range got {
		if k != uint64(1000+i) {
			t.Fatalf("out of order at %d: %d", i, k)
		}
	}
}

func TestScanEarlyTermination(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 500; i++ {
		tr.Insert(i, i, nil)
	}
	count := 0
	tr.Scan(0, 499, func(k, v uint64) bool {
		count++
		return count < 10
	}, nil)
	if count != 10 {
		t.Errorf("fn called %d times, want 10", count)
	}
}

func TestHTMStatsExposed(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 100; i++ {
		tr.Insert(i, i, nil)
	}
	if tr.HTMStats().Commits.Load() == 0 {
		t.Error("no HTM commits recorded for 100 single-threaded inserts")
	}
	if tr.HTMStats().Fallbacks.Load() != 0 {
		t.Error("single-threaded inserts should not fall back")
	}
}

func TestSchemeAndName(t *testing.T) {
	tr := New()
	if tr.Name() != "FP-Tree" {
		t.Errorf("Name = %q", tr.Name())
	}
	if tr.Scheme() != index.SchemeHTM {
		t.Errorf("Scheme = %v", tr.Scheme())
	}
}

func TestConcurrentInsertersDisjointRanges(t *testing.T) {
	tr := New()
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			for i := uint64(0); i < perG; i++ {
				if !tr.Insert(base+i, base+i, nil) {
					t.Errorf("Insert(%d) failed", base+i)
					return
				}
			}
		}(uint64(g) * 1_000_000)
	}
	wg.Wait()
	if tr.Len() != goroutines*perG {
		t.Fatalf("Len = %d, want %d", tr.Len(), goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		base := uint64(g) * 1_000_000
		for i := uint64(0); i < perG; i += 97 {
			if v, ok := tr.Get(base+i, nil); !ok || v != base+i {
				t.Fatalf("Get(%d) = %d,%v", base+i, v, ok)
			}
		}
	}
}

func TestConcurrentMixedReadUpdate(t *testing.T) {
	tr := New()
	const n = 5000
	for i := uint64(0); i < n; i++ {
		tr.Insert(i, i, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(seed int64) { // updater
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				k := uint64(r.Intn(n))
				if !tr.Update(k, k+7, nil) {
					t.Errorf("Update(%d) failed", k)
					return
				}
			}
		}(int64(g))
		go func(seed int64) { // reader
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + 100))
			for i := 0; i < 3000; i++ {
				k := uint64(r.Intn(n))
				v, ok := tr.Get(k, nil)
				if !ok || (v != k && v != k+7) {
					t.Errorf("Get(%d) = %d,%v — torn read", k, v, ok)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestConcurrentContendedInsertsNoLostKeys(t *testing.T) {
	// All goroutines race on the same key range; exactly one Insert per key
	// must win.
	tr := New()
	const n = 2000
	wins := make([]int32, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := uint64(0); k < n; k++ {
				if tr.Insert(k, k, nil) {
					mu.Lock()
					wins[k]++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for k, w := range wins {
		if w != 1 {
			t.Fatalf("key %d won %d times, want 1", k, w)
		}
	}
	if tr.Len() != n {
		t.Errorf("Len = %d, want %d", tr.Len(), n)
	}
}

func TestRandomisedAgainstMap(t *testing.T) {
	tr := New()
	oracle := map[uint64]uint64{}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 50000; i++ {
		k := uint64(r.Intn(15000))
		switch r.Intn(3) {
		case 0:
			_, exists := oracle[k]
			if ok := tr.Insert(k, k+1, nil); ok == exists {
				t.Fatalf("Insert(%d) = %v, exists=%v", k, ok, exists)
			}
			if !exists {
				oracle[k] = k + 1
			}
		case 1:
			_, exists := oracle[k]
			if ok := tr.Update(k, k+2, nil); ok != exists {
				t.Fatalf("Update(%d) = %v, exists=%v", k, ok, exists)
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

func TestScanCountProperty(t *testing.T) {
	f := func(keys []uint16, a, b uint16) bool {
		lo, hi := uint64(a), uint64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := New()
		set := map[uint64]bool{}
		for _, k16 := range keys {
			k := uint64(k16)
			if tr.Insert(k, k, nil) {
				set[k] = true
			}
		}
		want := 0
		for k := range set {
			if k >= lo && k <= hi {
				want++
			}
		}
		return tr.Scan(lo, hi, func(k, v uint64) bool { return true }, nil) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestFingerprintDeterministicAndByteSized(t *testing.T) {
	f := func(k uint64) bool {
		fp := fingerprint(k)
		return fp == fingerprint(k) && fp < 256
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// addArg is a pure Modify step: old + arg.
func addArg(old, arg uint64) uint64 { return old + arg }

func TestModifyAbsentKeyWritesNothing(t *testing.T) {
	tr := New()
	for k := uint64(0); k < 10; k += 2 {
		tr.Insert(k, k, nil)
	}
	lf := tr.root.Load().node.(*leaf) // ten keys: the root is the one leaf
	before, commits := lf.cell.Version(), tr.HTMStats().Commits.Load()
	if v, ok := tr.Modify(3, addArg, 5, nil); ok || v != 0 {
		t.Fatalf("Modify(absent) = %d,%v, want 0,false", v, ok)
	}
	if got := lf.cell.Version(); got != before {
		t.Errorf("Modify(absent) moved the leaf version %d → %d", before, got)
	}
	if tr.HTMStats().Commits.Load() != commits+1 {
		t.Error("Modify(absent) did not commit as one read-only transaction")
	}
	if v, ok := tr.Modify(4, addArg, 5, nil); !ok || v != 9 {
		t.Fatalf("Modify(4, +5) = %d,%v, want 9,true", v, ok)
	}
	if got := lf.cell.Version(); got != before+2 {
		t.Errorf("Modify(present) moved the leaf version %d → %d, want one write", before, got)
	}
	if v, _ := tr.Get(4, nil); v != 9 {
		t.Errorf("Get after Modify = %d, want 9", v)
	}
}

// TestConcurrentModifyExact: goroutines increment one key with Modify while
// inserters split the leaves around it; every increment must land once, so
// a retried transaction re-runs the step on the value it commits against.
func TestConcurrentModifyExact(t *testing.T) {
	tr := New()
	const hot, goroutines, n = 500, 4, 2000
	for k := uint64(0); k < 1000; k += 2 {
		tr.Insert(k, 0, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, ok := tr.Modify(hot, addArg, 1, nil); !ok {
					t.Errorf("Modify(%d) missed a present key", hot)
					return
				}
			}
		}()
		go func(g uint64) {
			defer wg.Done()
			for k := g*2 + 1; k < 1000; k += 2 * goroutines {
				tr.Insert(k, 0, nil)
			}
		}(uint64(g))
	}
	wg.Wait()
	if v, _ := tr.Get(hot, nil); v != goroutines*n {
		t.Fatalf("after %d×%d concurrent increments the key holds %d", goroutines, n, v)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
