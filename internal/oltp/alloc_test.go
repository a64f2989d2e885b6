//go:build !race

// The race detector makes sync.Pool drop items, so the FP-Tree's pooled
// scan scratch allocates under -race; allocation pins run without it.

package oltp

import (
	"slices"
	"testing"

	"robustconf/internal/core"
	"robustconf/internal/index"
	"robustconf/internal/topology"
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

// flatIndex is an ordered test index that allocates nothing at steady
// state: a presized map, and a reusable key buffer its scans sort. A tree
// allocates nodes as New-Order's inserts grow it; this index keeps that
// growth out of the engine's allocation count.
type flatIndex struct {
	m    map[uint64]uint64
	keys []uint64
}

func newFlatIndex() index.Index {
	return &flatIndex{m: make(map[uint64]uint64, 1<<15), keys: make([]uint64, 0, 1<<15)}
}

func (x *flatIndex) Name() string         { return "flat" }
func (x *flatIndex) Scheme() index.Scheme { return index.SchemeAtomicRecord }
func (x *flatIndex) Len() int             { return len(x.m) }

func (x *flatIndex) Get(k uint64, _ *index.OpStats) (uint64, bool) {
	v, ok := x.m[k]
	return v, ok
}

func (x *flatIndex) Insert(k, v uint64, _ *index.OpStats) bool {
	if _, ok := x.m[k]; ok {
		return false
	}
	x.m[k] = v
	return true
}

func (x *flatIndex) Update(k, v uint64, _ *index.OpStats) bool {
	if _, ok := x.m[k]; !ok {
		return false
	}
	x.m[k] = v
	return true
}

func (x *flatIndex) Delete(k uint64, _ *index.OpStats) bool {
	_, ok := x.m[k]
	delete(x.m, k)
	return ok
}

func (x *flatIndex) Scan(lo, hi uint64, fn func(k, v uint64) bool, _ *index.OpStats) int {
	x.keys = x.keys[:0]
	for k := range x.m {
		if lo <= k && k <= hi {
			x.keys = append(x.keys, k)
		}
	}
	slices.Sort(x.keys)
	n := 0
	for _, k := range x.keys {
		n++
		if !fn(k, x.m[k]) {
			break
		}
	}
	return n
}

// TestCrossWarehouseTxnZeroAlloc pins the split path at zero allocations
// per transaction at steady state: a terminal whose every Payment and
// New-Order crosses warehouses posts one task per warehouse through pooled
// futures and per-part scratch. The tables are flatIndex, so the count is
// the engine's own. Both engines are checked, the logged one included.
func TestCrossWarehouseTxnZeroAlloc(t *testing.T) {
	for _, logged := range []bool{false, true} {
		m, _ := topology.Restricted(1)
		rc, err := EvenConfig(smallCfg, m)
		if err != nil {
			t.Fatal(err)
		}
		if logged {
			rc.WAL = core.WALConfig{Dir: t.TempDir(), Fsync: wal.FsyncNone}
		}
		e, err := NewEngineWithConfig(smallCfg, newFlatIndex, rc)
		if err != nil {
			t.Fatal(err)
		}
		store, err := e.NewStore(0, 14)
		if err != nil {
			t.Fatal(err)
		}
		loader, _ := tpcc.NewLoader(smallCfg, 1)
		if err := loader.Load(store); err != nil {
			t.Fatal(err)
		}
		term, err := tpcc.NewTerminal(smallCfg, store, 1, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		for name, txn := range map[string]func() error{"new-order": term.NewOrder, "payment": term.Payment} {
			for i := 0; i < 200; i++ { // warm pools and scratch
				if err := txn(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if err := txn(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("logged=%v: cross-warehouse %s allocates %v per transaction, want 0", logged, name, allocs)
			}
		}
		store.Close()
		e.Stop()
	}
}

// TestDomainStoreRMWZeroAlloc pins a whole-transaction task's RMW on an
// FP-Tree table at zero allocations, unlogged and logged: index.Modify runs
// the tree's native Modify with the kind's static func, and the effect
// lands in the part's retained buffer.
func TestDomainStoreRMWZeroAlloc(t *testing.T) {
	effects := make([]byte, 0, 64)
	for _, eff := range []*[]byte{nil, &effects} {
		d := &domainStore{wh: NewWarehouse(newFPTree), w: 1, eff: eff}
		for i := 1; i <= 100; i++ {
			d.Insert(1, tpcc.StockQuantity, tpcc.StockKey(i), 50)
		}
		effects = effects[:0]
		allocs := testing.AllocsPerRun(200, func() {
			effects = effects[:0]
			if _, ok, err := d.RMW(1, tpcc.StockQuantity, tpcc.StockKey(7), tpcc.RMWStockDecr, 3); !ok || err != nil {
				t.Fatalf("RMW = %v, %v", ok, err)
			}
		})
		if allocs != 0 {
			t.Errorf("logged=%v: domainStore RMW allocates %v, want 0", eff != nil, allocs)
		}
	}
}
