package btree

import (
	"math/rand"
	"sync"
	"testing"
	"unsafe"

	"robustconf/internal/index"
)

// stagedKeys is a preload just past residentKeys, so ExecBatch takes the
// level-synchronous prefetching path; smaller trees run op-at-a-time.
const stagedKeys = residentKeys + 4096

func TestNodeLayout(t *testing.T) {
	if s := unsafe.Sizeof(inner{}); s != 256 {
		t.Errorf("inner is %d bytes, want 256 (four cache lines)", s)
	}
	if s := unsafe.Sizeof(leaf{}); s != 256 {
		t.Errorf("leaf is %d bytes, want 256 (four cache lines)", s)
	}
	if o := unsafe.Offsetof(inner{}.children); o != 128 {
		t.Errorf("inner children start at byte %d, want 128 (count and keys on the first two lines)", o)
	}
	if o := unsafe.Offsetof(leaf{}.values); o != 128 {
		t.Errorf("leaf values start at byte %d, want 128", o)
	}
}

func TestKernelAllocs(t *testing.T) {
	for _, n := range []uint64{4096, stagedKeys} {
		tr := loadAscending(n)
		const width = 14
		kinds := make([]uint8, width)
		keys := make([]uint64, width)
		vals := make([]uint64, width)
		outVals := make([]uint64, width)
		outOKs := make([]bool, width)
		rng := uint64(1)
		for _, kind := range []uint8{index.BatchGet, index.BatchUpdate} {
			allocs := testing.AllocsPerRun(100, func() {
				for j := range keys {
					rng = xorshift(rng)
					kinds[j], keys[j], vals[j] = kind, rng%n+1, rng
				}
				tr.ExecBatch(kinds, keys, vals, outVals, outOKs)
			})
			if allocs != 0 {
				t.Errorf("%d keys: ExecBatch of kind %d allocates %.1f per group, want 0", n, kind, allocs)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { tr.Get(n/2, nil) }); allocs != 0 {
			t.Errorf("%d keys: Get allocates %.1f per op, want 0", n, allocs)
		}
	}
}

// stagedBase is the preloaded tree the staged-mode fuzz inputs start from,
// built once and deep-copied per input (a copy is ~20× cheaper than a load).
var (
	stagedBaseOnce sync.Once
	stagedBase     *Tree
)

// clone deep-copies a quiescent tree, re-linking the leaf chain. The copy's
// nodes come from its own allocator, so they live as long as it does.
func (t *Tree) clone() *Tree {
	c := &Tree{height: t.height, count: t.count, maxKey: t.maxKey, hasMax: t.hasMax}
	var prev *leaf
	var cp func(p unsafe.Pointer, level int) unsafe.Pointer
	cp = func(p unsafe.Pointer, level int) unsafe.Pointer {
		if level == 0 {
			src := (*leaf)(p)
			lf := newNode[leaf](c)
			*lf = *src
			lf.next = nil
			if prev != nil {
				prev.next = lf
			}
			prev = lf
			return unsafe.Pointer(lf)
		}
		src := (*inner)(p)
		in := newNode[inner](c)
		in.num, in.keys = src.num, src.keys
		for i := 0; i <= src.num; i++ {
			in.children[i] = cp(src.children[i], level-1)
		}
		return unsafe.Pointer(in)
	}
	if t.root != nil {
		c.root = cp(t.root, t.height)
	}
	return c
}

// runDifferential decodes data into groups of mixed point operations and
// drives one tree through ExecBatch and a twin through the public methods in
// index order, comparing every result, then the full contents.
//
//	data[0]         bit 0: preload stagedKeys records (keys 3i) so the staged
//	                path runs; otherwise both trees start empty
//	then per group: one width byte (1..40 ops), then two bytes per op —
//	                kind and value bits, key selector
//
// The key space is 256 keys (64 on the empty start), so a group regularly
// holds duplicates and reads its own inserts.
func runDifferential(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	if len(data) > 4096 {
		data = data[:4096]
	}
	staged := data[0]&1 == 1
	data = data[1:]
	batched, serial := New(), New()
	if staged {
		stagedBaseOnce.Do(func() {
			stagedBase = New()
			for i := uint64(0); i < stagedKeys; i++ {
				stagedBase.Insert(3*i, i, nil)
			}
		})
		batched, serial = stagedBase.clone(), stagedBase.clone()
	}
	var (
		kinds            [40]uint8
		keys, vals, outs [40]uint64
		oks              [40]bool
	)
	counter := uint64(0)
	for len(data) >= 3 {
		width := int(data[0])%40 + 1
		data = data[1:]
		if width > len(data)/2 {
			width = len(data) / 2
		}
		for i := 0; i < width; i++ {
			counter++
			kinds[i] = index.BatchGet + data[2*i]&3
			vals[i] = uint64(data[2*i])<<32 | counter
			if staged {
				// 256 keys spread over the preloaded range, one in three present.
				keys[i] = uint64(data[2*i+1]) * (3 * stagedKeys / 256)
			} else {
				keys[i] = uint64(data[2*i+1] & 63)
			}
		}
		data = data[2*width:]
		batched.ExecBatch(kinds[:width], keys[:width], vals[:width], outs[:width], oks[:width])
		for i := 0; i < width; i++ {
			var v uint64
			var ok bool
			switch kinds[i] {
			case index.BatchGet:
				v, ok = serial.Get(keys[i], nil)
			case index.BatchInsert:
				ok = serial.Insert(keys[i], vals[i], nil)
			case index.BatchUpdate:
				ok = serial.Update(keys[i], vals[i], nil)
			case index.BatchDelete:
				ok = serial.Delete(keys[i], nil)
			}
			if outs[i] != v || oks[i] != ok {
				t.Fatalf("op %d of a %d-wide group (kind %d key %d): batch %d,%v serial %d,%v",
					i, width, kinds[i], keys[i], outs[i], oks[i], v, ok)
			}
		}
	}
	if batched.Len() != serial.Len() {
		t.Fatalf("Len: batch %d serial %d", batched.Len(), serial.Len())
	}
	type kv struct{ k, v uint64 }
	var want []kv
	serial.Scan(0, ^uint64(0), func(k, v uint64) bool { want = append(want, kv{k, v}); return true }, nil)
	i := 0
	batched.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if i >= len(want) || want[i] != (kv{k, v}) {
			t.Fatalf("scan diverges at record %d: batch has %d=%d", i, k, v)
		}
		i++
		return true
	}, nil)
	if i != len(want) {
		t.Fatalf("scan: batch has %d records, serial %d", i, len(want))
	}
	for name, tr := range map[string]*Tree{"batch": batched, "serial": serial} {
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s tree: %v", name, err)
		}
	}
}

// FuzzExecBatchVsSerial is the differential guard of the BatchKernel
// contract. Its seed corpus (testdata/fuzz) runs as a plain test in tier-1;
// `make fuzz-smoke` mutates from it for ten seconds.
func FuzzExecBatchVsSerial(f *testing.F) {
	f.Fuzz(runDifferential)
}

// TestExecBatchRacesStructuralOps is the pooled-session situation: two
// workers run GET/UPDATE groups through ExecBatch — whose in-place execute
// stage touches leaves located earlier in the same lock hold — while a third
// goroutine inserts and deletes through the public methods. Every stored
// value keeps v%7 == k%7, so a store that lands on a slot another key moved
// into, or a torn one, is visible to any later read. Run under -race.
func TestExecBatchRacesStructuralOps(t *testing.T) {
	const stable = stagedKeys // keys 2i are never deleted; odd keys churn
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	tr := New()
	for i := uint64(0); i < stable; i++ {
		tr.Insert(2*i, 2*i%7, nil)
	}
	var workers, churn sync.WaitGroup
	for g := 0; g < 2; g++ {
		workers.Add(1)
		go func(seed int64) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(seed))
			const width = 14
			var kinds [width]uint8
			var keys, vals, outs [width]uint64
			var oks [width]bool
			for r := 0; r < rounds; r++ {
				for j := range keys {
					k := uint64(rng.Intn(2 * stable))
					kinds[j], keys[j] = index.BatchGet, k
					if rng.Intn(2) == 0 {
						kinds[j], vals[j] = index.BatchUpdate, k%7+7*uint64(rng.Intn(1000))
					}
				}
				tr.ExecBatch(kinds[:], keys[:], vals[:], outs[:], oks[:])
				for j, k := range keys {
					if k%2 == 0 && !oks[j] {
						t.Errorf("stable key %d not found (kind %d)", k, kinds[j])
						return
					}
					if kinds[j] == index.BatchGet && oks[j] && outs[j]%7 != k%7 {
						t.Errorf("Get(%d) = %d: a store meant for another key", k, outs[j])
						return
					}
				}
			}
		}(int64(g + 1))
	}
	done := make(chan struct{})
	churn.Add(1)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewSource(3))
		for {
			select {
			case <-done:
				return
			default:
			}
			k := uint64(rng.Intn(stable))*2 + 1
			if rng.Intn(2) == 0 {
				tr.Insert(k, k%7, nil)
			} else {
				tr.Delete(k, nil)
			}
		}
	}()
	workers.Wait()
	close(done)
	churn.Wait()
	tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if v%7 != k%7 {
			t.Errorf("final state: key %d holds %d", k, v)
			return false
		}
		return true
	}, nil)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
