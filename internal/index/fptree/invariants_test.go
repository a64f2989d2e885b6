package fptree

import (
	"strings"
	"testing"
)

func TestCheckInvariantsAcceptsHealthyTree(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 20000; i++ {
		tr.Insert(i*31%49999, i, nil)
	}
	for i := uint64(0); i < 20000; i += 5 {
		tr.Delete(i*31%49999, nil)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := New().CheckInvariants(); err != nil {
		t.Fatalf("empty tree: %v", err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	build := func() *Tree {
		tr := New()
		for i := uint64(0); i < 3000; i++ {
			tr.Insert(i, i, nil)
		}
		return tr
	}

	// findLeafRaw descends without transactions (test-only).
	findLeafRaw := func(tr *Tree, k uint64) *leaf {
		node := tr.root.Load().node
		for {
			switch n := node.(type) {
			case *inner:
				c := n.content.Load()
				node = c.children[searchSeparators(c.keys, k)]
			case *leaf:
				return n
			}
		}
	}

	t.Run("fingerprint mismatch", func(t *testing.T) {
		tr := build()
		lf := findLeafRaw(tr, 100)
		bm := lf.bitmap.Load()
		for i := 0; i < leafCap; i++ {
			if bm&(1<<uint(i)) != 0 {
				lf.fps[i].Store(lf.fps[i].Load() ^ 0xFF)
				break
			}
		}
		err := tr.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("fingerprint mismatch not detected: %v", err)
		}
	})

	t.Run("count drift", func(t *testing.T) {
		tr := build()
		tr.count.Add(2)
		err := tr.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "count") {
			t.Errorf("count drift not detected: %v", err)
		}
	})

	t.Run("duplicate key in leaf", func(t *testing.T) {
		tr := build()
		lf := findLeafRaw(tr, 100)
		bm := lf.bitmap.Load()
		var slots []int
		for i := 0; i < leafCap && len(slots) < 2; i++ {
			if bm&(1<<uint(i)) != 0 {
				slots = append(slots, i)
			}
		}
		if len(slots) < 2 {
			t.Skip("leaf too empty")
		}
		k := lf.keys[slots[0]].Load()
		lf.keys[slots[1]].Store(k)
		lf.fps[slots[1]].Store(fingerprint(k))
		err := tr.CheckInvariants()
		if err == nil {
			t.Error("duplicate key not detected")
		}
	})

	t.Run("key outside separator range", func(t *testing.T) {
		tr := build()
		lf := findLeafRaw(tr, 0)
		bm := lf.bitmap.Load()
		for i := 0; i < leafCap; i++ {
			if bm&(1<<uint(i)) != 0 {
				k := uint64(1 << 50)
				lf.keys[i].Store(k)
				lf.fps[i].Store(fingerprint(k))
				break
			}
		}
		err := tr.CheckInvariants()
		if err == nil {
			t.Error("out-of-range key not detected")
		}
	})

	// middle returns a leaf well inside the tree with its parent step.
	middle := func(tr *Tree) (*leaf, step) {
		lf, path := rawPath(tr, 1500)
		return lf, path[len(path)-1]
	}

	t.Run("unlinked leaf still on the chain", func(t *testing.T) {
		tr := build()
		lf, parent := middle(tr)
		n := uint64(len(leafKeys(lf)))
		c := parent.c
		fresh := &innerContent{
			keys:     append(append([]uint64(nil), c.keys[:parent.i-1]...), c.keys[parent.i:]...),
			children: append(append([]any(nil), c.children[:parent.i]...), c.children[parent.i+1:]...),
		}
		parent.n.content.Store(fresh)
		tr.count.Add(-int64(n))
		err := tr.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "chain") {
			t.Errorf("unlinked leaf on the chain not detected: %v", err)
		}
	})

	t.Run("reachable leaf missing from the chain", func(t *testing.T) {
		tr := build()
		lf, parent := middle(tr)
		pred := parent.c.children[parent.i-1].(*leaf)
		pred.next.Store(lf.next.Load())
		err := tr.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "chain") {
			t.Errorf("leaf missing from the chain not detected: %v", err)
		}
	})

	t.Run("empty reachable leaf", func(t *testing.T) {
		tr := build()
		lf, _ := middle(tr)
		tr.count.Add(-int64(len(leafKeys(lf))))
		lf.bitmap.Store(0)
		err := tr.CheckInvariants()
		if err == nil || !strings.Contains(err.Error(), "empty leaf") {
			t.Errorf("empty reachable leaf not detected: %v", err)
		}
	})
}
