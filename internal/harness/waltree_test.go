package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"robustconf/internal/index/kinds"
)

// mustWALTree builds the durable wrapper over a kind that has an ordered scan.
func mustWALTree(t testing.TB, kind kinds.Kind) *WALTree {
	t.Helper()
	wt, err := NewWALTree(kind)
	if err != nil {
		t.Fatal(err)
	}
	return wt
}

// TestWALTreeAdapters pins each durable adapter's inner index (the one its
// robustconf -structure names), its read-safety (the inner index's own) and
// its checkpoint contract: a snapshot restored into a fresh adapter,
// followed by the records committed after it, reproduces the source's
// contents. The Hash Map has no ordered scan to snapshot with and is
// refused.
func TestWALTreeAdapters(t *testing.T) {
	if _, err := NewWALTree(kinds.HashMap); err == nil || !strings.Contains(err.Error(), "ordered scan") {
		t.Errorf("NewWALTree(HashMap) = %v, want the missing ordered scan named", err)
	}
	for _, c := range []struct {
		kind  kinds.Kind
		inner string
		crs   bool
	}{
		{kinds.BTree, "*btree.Tree", false},
		{kinds.FPTree, "*fptree.Tree", true},
		{kinds.BWTree, "*bwtree.Tree", true},
	} {
		t.Run(c.inner, func(t *testing.T) {
			src := mustWALTree(t, c.kind)
			if got := fmt.Sprintf("%T", src.inner()); got != c.inner {
				t.Fatalf("inner index is %s", got)
			}
			if src.ConcurrentReadSafe() != c.crs {
				t.Errorf("ConcurrentReadSafe = %v, want %v", !c.crs, c.crs)
			}
			for k := uint64(1); k <= 500; k++ {
				src.Set(k, 3*k)
			}
			var snap bytes.Buffer
			if err := src.WALSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			var tail [][]byte
			for k := uint64(1000); k < 1100; k++ {
				tail = append(tail, AppendWALSet(nil, k, k+1))
			}
			tail = append(tail, AppendWALDelete(nil, 5), AppendWALPair(nil, 7, 8, 99), AppendWALSet(nil, 9, 1))
			for _, rec := range tail {
				if err := src.WALApply(rec); err != nil {
					t.Fatal(err)
				}
			}

			dst := mustWALTree(t, c.kind)
			dst.Set(123456, 1) // state the restore must replace
			if err := dst.WALRestore(&snap); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", dst.inner()); got != c.inner {
				t.Fatalf("restored inner index is %s", got)
			}
			for _, rec := range tail {
				if err := dst.WALApply(rec); err != nil {
					t.Fatal(err)
				}
			}
			if dst.Hash() != src.Hash() {
				t.Error("snapshot → restore → replay does not reproduce the source")
			}
			if _, ok := dst.Get(5); ok {
				t.Error("deleted key 5 survived replay")
			}
			if v, _ := dst.Get(8); v != 99 {
				t.Errorf("pair record left key 8 at %d, want 99", v)
			}
		})
	}
}
