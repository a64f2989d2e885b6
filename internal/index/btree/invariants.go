package btree

import (
	"fmt"
	"unsafe"
)

// CheckInvariants walks the whole tree and verifies its structural
// invariants: sorted keys within every node, separator consistency between
// inner nodes and their subtrees, an ascending leaf chain that contains
// exactly the tree's keys, and a tail that, while its chain link is nil, is
// the chain's last leaf. Intended for tests and debugging; it takes the
// structural lock, so do not call it on a hot path.
func (t *Tree) CheckInvariants() error {
	t.structLock.Lock()
	defer t.structLock.Unlock()
	if t.root == nil {
		if t.count != 0 {
			return fmt.Errorf("btree: empty tree reports %d keys", t.count)
		}
		return nil
	}
	var leftmost *leaf
	counted := 0
	var check func(node unsafe.Pointer, lo, hi uint64, hasLo, hasHi bool, depth int) error
	check = func(node unsafe.Pointer, lo, hi uint64, hasLo, hasHi bool, depth int) error {
		if depth < t.height {
			n := (*inner)(node)
			// appendMax leaves a fresh single-child sibling (no keys yet) on
			// the rightmost spine — the only place without an upper bound.
			if n.num < 0 || n.num > innerSlots || (n.num == 0 && hasHi) {
				return fmt.Errorf("btree: inner node with %d keys", n.num)
			}
			for i := 1; i < n.num; i++ {
				if n.keys[i-1] >= n.keys[i] {
					return fmt.Errorf("btree: inner keys unsorted at %d", i)
				}
			}
			if n.num > 0 && hasLo && n.keys[0] < lo {
				return fmt.Errorf("btree: inner key %d below bound %d", n.keys[0], lo)
			}
			if n.num > 0 && hasHi && n.keys[n.num-1] > hi {
				return fmt.Errorf("btree: inner key %d above bound %d", n.keys[n.num-1], hi)
			}
			for i := 0; i <= n.num; i++ {
				cLo, cHasLo := lo, hasLo
				cHi, cHasHi := hi, hasHi
				if i > 0 {
					cLo, cHasLo = n.keys[i-1], true
				}
				if i < n.num {
					cHi, cHasHi = n.keys[i], true
				}
				if n.children[i] == nil {
					return fmt.Errorf("btree: nil child %d of inner node", i)
				}
				if err := check(n.children[i], cLo, cHi, cHasLo, cHasHi, depth+1); err != nil {
					return err
				}
			}
			return nil
		}
		n := (*leaf)(node)
		if n.num < 0 || n.num > leafSlots {
			return fmt.Errorf("btree: leaf with %d records", n.num)
		}
		for i := 1; i < n.num; i++ {
			if n.keys[i-1] >= n.keys[i] {
				return fmt.Errorf("btree: leaf keys unsorted at %d", i)
			}
		}
		if n.num > 0 {
			if hasLo && n.keys[0] < lo {
				return fmt.Errorf("btree: leaf key %d below separator %d", n.keys[0], lo)
			}
			if hasHi && n.keys[n.num-1] >= hi {
				return fmt.Errorf("btree: leaf key %d not below separator %d", n.keys[n.num-1], hi)
			}
		}
		if leftmost == nil {
			leftmost = n
		}
		counted += n.num
		return nil
	}
	if err := check(t.root, 0, 0, false, false, 0); err != nil {
		return err
	}
	if int64(counted) != t.count {
		return fmt.Errorf("btree: %d keys in leaves, count says %d", counted, t.count)
	}
	// The leaf chain must be ascending and cover the same keys.
	chain := 0
	var prev uint64
	first := true
	last := leftmost
	for lf := leftmost; lf != nil; lf = lf.next {
		last = lf
		for i := 0; i < lf.num; i++ {
			if !first && lf.keys[i] <= prev {
				return fmt.Errorf("btree: leaf chain unsorted at key %d", lf.keys[i])
			}
			prev, first = lf.keys[i], false
			chain++
		}
	}
	if chain != counted {
		return fmt.Errorf("btree: leaf chain has %d keys, tree walk found %d", chain, counted)
	}
	if t.tail != nil && t.tail.next == nil && t.tail != last {
		return fmt.Errorf("btree: tail has no next leaf but is not the rightmost leaf")
	}
	return nil
}
