//go:build !race

// The race detector makes sync.Pool drop items, so the FP-Tree's pooled
// scan scratch allocates under -race; allocation pins run without it.

package oltp

import (
	"testing"

	"robustconf/internal/tpcc"
	"robustconf/internal/wal"
)

// TestWarehouseSnapshotAllocsConstant pins the steady-state checkpoint of an
// unchanged warehouse at zero allocations, for a near-empty warehouse and a
// loaded one alike: the frame buffer, its scan collector and the slot writer
// are retained, and frame headers are built in the slot writer's scratch.
func TestWarehouseSnapshotAllocsConstant(t *testing.T) {
	allocs := map[int]float64{}
	for _, keys := range []int{1, 50000} {
		w := NewWarehouse(newFPTree)
		for _, tb := range tpcc.Tables {
			for k := 0; k < keys; k++ {
				w.Table(tb).Insert(uint64(k), uint64(k), nil)
			}
		}
		d, err := wal.OpenDomain(t.TempDir(), 1, wal.FsyncNone)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ { // both slots grown, buffer at size
			if err := d.Checkpoint(w.WALSnapshot); err != nil {
				t.Fatal(err)
			}
		}
		allocs[keys] = testing.AllocsPerRun(10, func() {
			if err := d.Checkpoint(w.WALSnapshot); err != nil {
				t.Fatal(err)
			}
		})
		d.Close()
	}
	if allocs[1] != 0 || allocs[50000] != 0 {
		t.Fatalf("snapshot allocations by table size: %v, want 0", allocs)
	}
	t.Logf("allocations per warehouse checkpoint: %v", allocs)
}
