//go:build !race

// The race detector makes sync.Pool drop items on purpose, so allocation
// pins on pooled paths only hold without it.

package fptree

import "testing"

// TestSteadyStateOpsAllocateNothing pins the package doc's promise: no op
// allocates at steady state unless it changes the tree's structure.
func TestSteadyStateOpsAllocateNothing(t *testing.T) {
	tr := New()
	for k := uint64(0); k < 8192; k++ {
		tr.Insert(k*4, k, nil) // 16 keys per leaf, each leaf spanning 64
	}
	// Fresh keys one per leaf: inserting them splits nothing, deleting
	// them again empties nothing.
	fresh := make([]uint64, 0, 128)
	for i := uint64(0); i < 128; i++ {
		fresh = append(fresh, i*64*3+1)
	}
	var i int
	var sink uint64
	pins := []struct {
		name string
		op   func()
	}{
		{"Get", func() { v, _ := tr.Get(4000, nil); sink += v }},
		{"Update", func() { tr.Update(4000, 9, nil) }},
		{"Modify", func() { v, _ := tr.Modify(4000, addArg, 1, nil); sink += v }},
		{"Insert", func() { tr.Insert(fresh[i], 1, nil); i++ }},
		{"Delete", func() { tr.Delete(fresh[i], nil); i++ }},
		{"Scan", func() {
			tr.Scan(0, 8000, func(k, v uint64) bool { sink += v; return true }, nil)
		}},
	}
	for _, p := range pins {
		i = 0
		if got := testing.AllocsPerRun(100, p.op); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", p.name, got)
		}
	}
	if tr.Len() != 8192 {
		t.Fatalf("Len = %d after insert/delete pins, want 8192", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = sink
}
