package fptree

import "fmt"

// CheckInvariants verifies the tree's structural invariants from a quiesced
// state: every occupied leaf slot's fingerprint matches its key, leaf
// contents respect the inner separators, inner keys are sorted, no
// reachable leaf but the leftmost is empty, the leaf chain from the
// leftmost leaf is exactly the in-order sequence of reachable leaves, and
// the leaves hold exactly Len() keys in ascending range order. For tests
// and debugging.
func (t *Tree) CheckInvariants() error {
	ref := t.root.Load()
	if ref == nil {
		return fmt.Errorf("fptree: nil root")
	}
	counted := 0
	var leaves []*leaf
	var walk func(node any, lo, hi uint64, hasLo, hasHi bool) error
	walk = func(node any, lo, hi uint64, hasLo, hasHi bool) error {
		switch n := node.(type) {
		case *inner:
			c := n.content.Load()
			if c == nil {
				return fmt.Errorf("fptree: inner node without content")
			}
			if len(c.children) != len(c.keys)+1 {
				return fmt.Errorf("fptree: inner has %d children for %d keys", len(c.children), len(c.keys))
			}
			for i := 1; i < len(c.keys); i++ {
				if c.keys[i-1] >= c.keys[i] {
					return fmt.Errorf("fptree: inner keys unsorted at %d", i)
				}
			}
			for i, child := range c.children {
				cLo, cHasLo := lo, hasLo
				cHi, cHasHi := hi, hasHi
				if i > 0 {
					cLo, cHasLo = c.keys[i-1], true
				}
				if i < len(c.keys) {
					cHi, cHasHi = c.keys[i], true
				}
				if err := walk(child, cLo, cHi, cHasLo, cHasHi); err != nil {
					return err
				}
			}
			return nil
		case *leaf:
			bm := n.bitmap.Load()
			if bm == 0 && len(leaves) > 0 {
				return fmt.Errorf("fptree: reachable empty leaf %d in key order (only the leftmost may be empty)", len(leaves))
			}
			leaves = append(leaves, n)
			seen := map[uint64]bool{}
			for i := 0; i < leafCap; i++ {
				if bm&(1<<uint(i)) == 0 {
					continue
				}
				k := n.keys[i].Load()
				if got := n.fps[i].Load(); got != fingerprint(k) {
					return fmt.Errorf("fptree: slot %d fingerprint %d ≠ fingerprint(%d) = %d", i, got, k, fingerprint(k))
				}
				if hasLo && k < lo {
					return fmt.Errorf("fptree: leaf key %d below separator %d", k, lo)
				}
				if hasHi && k >= hi {
					return fmt.Errorf("fptree: leaf key %d not below separator %d", k, hi)
				}
				if seen[k] {
					return fmt.Errorf("fptree: duplicate key %d within a leaf", k)
				}
				seen[k] = true
				counted++
			}
			return nil
		default:
			return fmt.Errorf("fptree: unknown node type %T", node)
		}
	}
	if err := walk(ref.node, 0, 0, false, false); err != nil {
		return err
	}
	if int64(counted) != t.count.Load() {
		return fmt.Errorf("fptree: %d occupied slots, count says %d", counted, t.count.Load())
	}
	// The chain from the leftmost leaf must visit exactly the reachable
	// leaves, in order: an unlinked leaf still on the chain, or a
	// reachable leaf missing from it, breaks the match. Leaf ranges must
	// ascend along it (leaves are internally unsorted but range-disjoint).
	var prevMax uint64
	seenKey := false
	i := 0
	for lf := leaves[0]; lf != nil; lf, i = lf.next.Load(), i+1 {
		if i >= len(leaves) || lf != leaves[i] {
			return fmt.Errorf("fptree: leaf chain position %d is not reachable leaf %d", i, i)
		}
		bm := lf.bitmap.Load()
		var mn, mx uint64
		for s, first := 0, true; s < leafCap; s++ {
			if bm&(1<<uint(s)) == 0 {
				continue
			}
			k := lf.keys[s].Load()
			if first || k < mn {
				mn = k
			}
			if first || k > mx {
				mx = k
			}
			first = false
		}
		if bm != 0 {
			if seenKey && mn <= prevMax {
				return fmt.Errorf("fptree: leaf chain ranges overlap (%d ≤ %d)", mn, prevMax)
			}
			prevMax, seenKey = mx, true
		}
	}
	if i != len(leaves) {
		return fmt.Errorf("fptree: leaf chain holds %d leaves, tree walk found %d", i, len(leaves))
	}
	return nil
}
