package harness

import (
	"bytes"
	"fmt"
	"testing"
)

// TestWALTreeAdapters pins each durable adapter's inner index (the one its
// robustconf -structure names) and its checkpoint contract: a snapshot
// restored into a fresh adapter, followed by the records committed after
// it, reproduces the source's contents.
func TestWALTreeAdapters(t *testing.T) {
	for _, c := range []struct {
		build func() *WALTree
		inner string
		crs   bool
	}{
		{NewWALTree, "*btree.Tree", false},
		{NewWALFPTree, "*fptree.Tree", true},
		{NewWALBwTree, "*bwtree.Tree", true},
	} {
		t.Run(c.inner, func(t *testing.T) {
			src := c.build()
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

			dst := c.build()
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
