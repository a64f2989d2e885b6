package fptree

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"robustconf/internal/index"
)

// rawPath descends to the leaf covering k without a transaction (quiesced
// trees only).
func rawPath(tr *Tree, k uint64) (*leaf, []step) {
	var path []step
	node := tr.root.Load().node
	for {
		switch n := node.(type) {
		case *inner:
			c := n.content.Load()
			i := searchSeparators(c.keys, k)
			path = append(path, step{n, c, i})
			node = c.children[i]
		case *leaf:
			return n, path
		}
	}
}

// Height returns the number of nodes on the root-to-leaf path through the
// leftmost leaf (1 for a lone root leaf); every leaf sits at this depth.
func (t *Tree) Height() int {
	h := 1
	for node := t.root.Load().node; ; h++ {
		n, ok := node.(*inner)
		if !ok {
			return h
		}
		node = n.content.Load().children[0]
	}
}

// leafKeys returns a leaf's live keys in ascending order.
func leafKeys(lf *leaf) []uint64 {
	var ks []uint64
	bm := lf.bitmap.Load()
	for i := 0; i < leafCap; i++ {
		if bm&(1<<uint(i)) != 0 {
			ks = append(ks, lf.keys[i].Load())
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// firstLeaf follows child 0 from the root.
func firstLeaf(node any) *leaf {
	for {
		switch n := node.(type) {
		case *inner:
			node = n.content.Load().children[0]
		case *leaf:
			return n
		}
	}
}

// onChain reports whether lf is on the leaf chain; CheckInvariants makes
// the chain the exact set of reachable leaves.
func onChain(tr *Tree, lf *leaf) bool {
	for l := firstLeaf(tr.root.Load().node); l != nil; l = l.next.Load() {
		if l == lf {
			return true
		}
	}
	return false
}

// ascending builds a tree of keys 0..n-1 inserted in order (half-full
// leaves of 16 keys each).
func ascending(t *testing.T, n uint64) *Tree {
	t.Helper()
	tr := New()
	for k := uint64(0); k < n; k++ {
		tr.Insert(k, k+1, nil)
	}
	if tr.Height() < 3 {
		t.Fatalf("Height = %d, want ≥ 3", tr.Height())
	}
	return tr
}

// drain deletes every key in [lo, hi] and checks the tree afterwards.
func drain(t *testing.T, tr *Tree, lo, hi uint64) {
	t.Helper()
	for k := lo; k <= hi; k++ {
		tr.Delete(k, nil)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// checkContents compares Get, Len and a full Scan against the keys 0..n-1
// minus [lo, hi].
func checkContents(t *testing.T, tr *Tree, n, lo, hi uint64) {
	t.Helper()
	want := 0
	for k := uint64(0); k < n; k++ {
		v, ok := tr.Get(k, nil)
		gone := k >= lo && k <= hi
		if ok == gone || (ok && v != k+1) {
			t.Fatalf("Get(%d) = %d,%v (deleted: %v)", k, v, ok, gone)
		}
		if !gone {
			want++
		}
	}
	if tr.Len() != want {
		t.Fatalf("Len = %d, want %d", tr.Len(), want)
	}
	prev, got := int64(-1), 0
	tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
		if int64(k) <= prev || (k >= lo && k <= hi) {
			t.Fatalf("Scan yielded %d after %d", k, prev)
		}
		prev, got = int64(k), got+1
		return true
	}, nil)
	if got != want {
		t.Fatalf("Scan yielded %d keys, want %d", got, want)
	}
}

func TestReclaimEmptiedLeafByPosition(t *testing.T) {
	const n = 20000
	for _, tc := range []struct {
		name string
		pick func(children int) int
	}{
		{"first child", func(int) int { return 0 }},
		{"middle child", func(c int) int { return c / 2 }},
		{"last child", func(c int) int { return c - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := ascending(t, n)
			_, path := rawPath(tr, n/2)
			parent := path[len(path)-1]
			before := len(parent.c.children)
			lf := parent.c.children[tc.pick(before)].(*leaf)
			ks := leafKeys(lf)
			lo, hi := ks[0], ks[len(ks)-1]
			drain(t, tr, lo, hi)
			if onChain(tr, lf) {
				t.Fatal("emptied leaf still on the leaf chain")
			}
			if got := len(parent.n.content.Load().children); got != before-1 {
				t.Fatalf("parent has %d children, want %d", got, before-1)
			}
			checkContents(t, tr, n, lo, hi)
			// Re-inserting into the reclaimed range routes to live leaves.
			for k := lo; k <= hi; k++ {
				if !tr.Insert(k, k+1, nil) {
					t.Fatalf("re-Insert(%d) failed", k)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			checkContents(t, tr, n, 1, 0)
		})
	}
}

func TestReclaimCascadesThroughEmptiedInnerNodes(t *testing.T) {
	const n = 20000
	tr := ascending(t, n)
	if tr.Height() < 4 {
		t.Fatalf("Height = %d, want ≥ 4 for a two-level cascade", tr.Height())
	}
	// Drain every key under one inner node above the leaves, then under
	// one a level higher: each leaves its parent when its last leaf goes.
	for _, up := range []int{1, 2} {
		_, path := rawPath(tr, n/2)
		victim, holder := path[len(path)-up], path[len(path)-up-1]
		before := len(holder.n.content.Load().children)
		start := firstLeaf(victim.n)
		first := leafKeys(start)[0]
		var last uint64
		for l := start; l != nil; l = l.next.Load() {
			if _, p := rawPath(tr, leafKeys(l)[0]); p[len(p)-up].n != victim.n {
				break
			}
			ks := leafKeys(l)
			last = ks[len(ks)-1]
		}
		drain(t, tr, first, last)
		c := holder.n.content.Load()
		if len(c.children) != before-1 {
			t.Fatalf("up=%d: holder has %d children, want %d", up, len(c.children), before-1)
		}
		for _, ch := range c.children {
			if ch == any(victim.n) {
				t.Fatalf("up=%d: emptied inner node still a child", up)
			}
		}
		checkContents(t, tr, n, first, last)
		for k := first; k <= last; k++ {
			tr.Insert(k, k+1, nil)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLeftmostLeafStaysWhenEmptied(t *testing.T) {
	tr := ascending(t, 5000)
	left := firstLeaf(tr.root.Load().node)
	ks := leafKeys(left)
	h := tr.Height()
	drain(t, tr, ks[0], ks[len(ks)-1])
	if firstLeaf(tr.root.Load().node) != left || left.bitmap.Load() != 0 {
		t.Fatal("leftmost leaf was replaced or is not empty")
	}
	if tr.Height() != h {
		t.Fatalf("Height %d → %d", h, tr.Height())
	}
	checkContents(t, tr, 5000, ks[0], ks[len(ks)-1])
	// A lone root leaf also stays.
	single := New()
	single.Insert(1, 1, nil)
	single.Delete(1, nil)
	if err := single.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !single.Insert(2, 3, nil) {
		t.Fatal("insert into drained root leaf failed")
	}
}

// TestDrainedQueueMinScan is Delivery's access pattern: a queue consumed
// from its low end, then "give me the oldest". Emptied leaves are gone, so
// the min-scan reads one root-to-leaf path plus the next leaf.
func TestDrainedQueueMinScan(t *testing.T) {
	tr := New()
	for k := uint64(1); k <= 20000; k++ {
		tr.Insert(k, k, nil)
	}
	for k := uint64(1); k <= 19000; k++ {
		tr.Delete(k, nil)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var st index.OpStats
	var got uint64
	tr.Scan(0, ^uint64(0), func(k, v uint64) bool { got = k; return false }, &st)
	if got != 19001 {
		t.Fatalf("min = %d, want 19001", got)
	}
	if limit := uint64(tr.Height() + 2); st.NodesVisited > limit {
		t.Fatalf("stop-after-first scan visited %d nodes, want ≤ Height()+2 = %d", st.NodesVisited, limit)
	}
}

// TestShortScanIsOneTransaction: a range that ends below the descended
// leaf's upper fence is answered by one transaction reading one path.
func TestShortScanIsOneTransaction(t *testing.T) {
	tr := ascending(t, 5000) // leaves hold [16i, 16i+16)
	tr.Delete(1005, nil)     // so the range's last key is not hi
	var st index.OpStats
	c0 := tr.HTMStats().Commits.Load()
	if n := tr.Scan(1000, 1005, func(k, v uint64) bool { return true }, &st); n != 5 {
		t.Fatalf("Scan yielded %d, want 5", n)
	}
	if c := tr.HTMStats().Commits.Load() - c0; c != 1 {
		t.Errorf("short scan took %d transactions, want 1", c)
	}
	if st.NodesVisited != uint64(tr.Height()) {
		t.Errorf("short scan visited %d nodes, want Height() = %d", st.NodesVisited, tr.Height())
	}
}

// TestFullScanStaysTransactional: chunks keep every read set below the HTM
// capacity, so a scan of the whole tree never aborts or takes the lock —
// also at a size where one uncapped chunk would overflow it many times.
func TestFullScanStaysTransactional(t *testing.T) {
	for _, size := range []uint64{20000, 60000} {
		tr := New()
		for k := uint64(0); k < size; k++ {
			tr.Insert(k*3, k, nil)
		}
		s := tr.HTMStats()
		a0, f0 := s.Aborts.Load(), s.Fallbacks.Load()
		next := uint64(0)
		n := tr.Scan(0, ^uint64(0), func(k, v uint64) bool {
			if k != next*3 || v != next {
				t.Fatalf("Scan yielded (%d, %d), want (%d, %d)", k, v, next*3, next)
			}
			next++
			return true
		}, nil)
		if uint64(n) != size || next != size {
			t.Fatalf("Scan returned %d, yielded %d, want %d", n, next, size)
		}
		if a, f := s.Aborts.Load()-a0, s.Fallbacks.Load()-f0; a != 0 || f != 0 {
			t.Fatalf("%d-key scan: %d aborts, %d fallbacks, want 0 and 0", size, a, f)
		}
		// A range ending exactly on the largest key terminates.
		if got := tr.Scan(3*(size-10), ^uint64(0), func(k, v uint64) bool { return true }, nil); got != 10 {
			t.Fatalf("tail scan yielded %d, want 10", got)
		}
	}
}

// TestChurnEmptiesAndRefillsLeaves runs deleters that empty whole leaves
// while inserters refill them, readers Get and scanners stop at random
// points; run it under -race.
func TestChurnEmptiesAndRefillsLeaves(t *testing.T) {
	const span = 4096
	rounds := 400
	if testing.Short() {
		rounds = 60
	}
	tr := New()
	for k := uint64(0); k < span; k++ {
		tr.Insert(k, k*7+1, nil)
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		if failed.CompareAndSwap(false, true) {
			t.Errorf(format, args...)
		}
	}
	for g := 0; g < 2; g++ {
		wg.Add(4)
		go func(seed int64) { // deleter: empties 64-key blocks (≥ 2 leaves)
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				base := uint64(r.Intn(span/64)) * 64
				for k := base; k < base+64; k++ {
					tr.Delete(k, nil)
				}
			}
		}(int64(g))
		go func(seed int64) { // inserter: refills blocks
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + 10))
			for i := 0; i < rounds; i++ {
				base := uint64(r.Intn(span/64)) * 64
				for k := base; k < base+64; k++ {
					tr.Insert(k, k*7+1, nil)
				}
			}
		}(int64(g))
		go func(seed int64) { // reader
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + 20))
			for i := 0; i < rounds*64; i++ {
				k := uint64(r.Intn(span))
				if v, ok := tr.Get(k, nil); ok && v != k*7+1 {
					fail("Get(%d) = %d", k, v)
				}
			}
		}(int64(g))
		go func(seed int64) { // scanner with random stops
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + 30))
			for i := 0; i < rounds; i++ {
				lo := uint64(r.Intn(span))
				hi := lo + uint64(r.Intn(span))
				stop := r.Intn(300) + 1
				prev, seen := int64(lo)-1, 0
				n := tr.Scan(lo, hi, func(k, v uint64) bool {
					if int64(k) <= prev || k > hi || v != k*7+1 {
						fail("Scan(%d, %d) yielded (%d, %d) after %d", lo, hi, k, v, prev)
					}
					prev, seen = int64(k), seen+1
					return seen < stop
				}, nil)
				if n != seen {
					fail("Scan returned %d, yielded %d", n, seen)
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	present := 0
	for k := uint64(0); k < span; k++ {
		if _, ok := tr.Get(k, nil); ok {
			present++
		}
	}
	if tr.Len() != present {
		t.Fatalf("Len = %d, Get finds %d", tr.Len(), present)
	}
}
