package btree

import (
	"strings"
	"testing"
)

func TestCheckInvariantsAcceptsHealthyTree(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 30000; i++ {
		tr.Insert(i*13%65537, i, nil)
	}
	for i := uint64(0); i < 30000; i += 4 {
		tr.Delete(i*13%65537, nil)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := New().CheckInvariants(); err != nil {
		t.Fatalf("empty tree: %v", err)
	}
}

// TestCheckInvariantsAcceptsAscendingLoads checks every prefix of an
// ascending load: the tree after n inserts is the tree a load of 1..n builds.
// When a rightmost-spine node is full, appendMax leaves a keyless
// single-child sibling on the spine until the next leaf arrives — first at
// n = leafSlots*(innerSlots+1)+1 — and the checker must accept that shape.
func TestCheckInvariantsAcceptsAscendingLoads(t *testing.T) {
	tr := New()
	for n := uint64(1); n <= 5000; n++ {
		tr.Insert(n, n, nil)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("ascending load of 1..%d: %v", n, err)
		}
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() *Tree {
		tr := New()
		for i := uint64(0); i < 5000; i++ {
			tr.Insert(i, i, nil)
		}
		return tr
	}

	t.Run("unsorted leaf", func(t *testing.T) {
		tr := build()
		lf := tr.findLeaf(100, nil)
		if lf.num < 2 {
			t.Skip("leaf too small")
		}
		lf.keys[0], lf.keys[1] = lf.keys[1], lf.keys[0]
		err := tr.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "unsorted") {
			t.Errorf("unsorted leaf not detected: %v", err)
		}
	})

	t.Run("count drift", func(t *testing.T) {
		tr := build()
		tr.count -= 3
		err := tr.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "count") {
			t.Errorf("count drift not detected: %v", err)
		}
	})

	t.Run("separator violation", func(t *testing.T) {
		tr := build()
		// Put a key above the leaf's separator range.
		lf := tr.findLeaf(0, nil)
		lf.keys[lf.num-1] = 1 << 50
		err := tr.CheckInvariants()
		if err == nil {
			t.Error("separator violation not detected")
		}
	})

	t.Run("broken leaf chain", func(t *testing.T) {
		tr := build()
		lf := tr.findLeaf(0, nil)
		// Skip a leaf in the chain: keys disappear from the chain walk.
		if lf.next == nil || lf.next.next == nil {
			t.Skip("chain too short")
		}
		lf.next = lf.next.next
		err := tr.CheckInvariants()
		if err == nil {
			t.Error("broken chain not detected")
		}
	})

	t.Run("keyless inner off the rightmost spine", func(t *testing.T) {
		tr := build()
		in := (*inner)(tr.root)
		for d := 1; d < tr.height; d++ {
			in = (*inner)(in.children[0])
		}
		in.num = 0
		err := tr.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "0 keys") {
			t.Errorf("keyless inner node not detected: %v", err)
		}
	})

	t.Run("tail off the rightmost leaf", func(t *testing.T) {
		tr := build()
		tr.tail = newNode[leaf](tr) // a chain end that is not the tree's
		err := tr.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "tail") {
			t.Errorf("stray tail not detected: %v", err)
		}
	})

	t.Run("empty tree with count", func(t *testing.T) {
		tr := New()
		tr.count++
		if err := tr.CheckInvariants(); err == nil {
			t.Error("phantom count on empty tree not detected")
		}
	})
}
