package oltp

import (
	"testing"

	"robustconf/internal/topology"
	"robustconf/internal/tpcc"
)

// SessionStore correctness: whole-transaction delegation must leave the
// exact same database state as the direct baseline when driven by the same
// deterministic terminal stream — including cross-warehouse transactions
// (remote Payment, remote-item New-Order), which run as one task per
// warehouse. Exact equality holds because every conflicting write is
// expressed as a commutative RMW, so the parts' interleaving with other
// tasks cannot diverge.

// tableChecksum order-insensitively folds a table's contents (FNV over
// key/value pairs, combined by addition so scan order is irrelevant).
func tableChecksum(t *testing.T, wh *Warehouse, tb tpcc.Table) (uint64, int) {
	t.Helper()
	sum := uint64(0)
	n := 0
	if _, err := wh.scan(tb, 0, ^uint64(0), func(k, v uint64) bool {
		h := uint64(14695981039346656037)
		h = (h ^ k) * 1099511628211
		h = (h ^ v) * 1099511628211
		sum += h
		n++
		return true
	}); err != nil {
		t.Fatalf("checksum scan %s: %v", tb, err)
	}
	return sum, n
}

// engineState snapshots every table of every warehouse.
type engineState map[tpcc.Table][]uint64

func snapshotState(t *testing.T, warehouses []*Warehouse) engineState {
	t.Helper()
	st := engineState{}
	for _, tb := range tpcc.Tables {
		for _, wh := range warehouses {
			sum, _ := tableChecksum(t, wh, tb)
			st[tb] = append(st[tb], sum)
		}
	}
	return st
}

func diffStates(t *testing.T, label string, want, got engineState) {
	t.Helper()
	for _, tb := range tpcc.Tables {
		for w := range want[tb] {
			if want[tb][w] != got[tb][w] {
				t.Errorf("%s: table %s warehouse %d diverged from direct baseline", label, tb, w+1)
			}
		}
	}
}

// runDirectTrace drives the direct baseline and returns its final state.
func runDirectTrace(t *testing.T, remote float64, seed int64, txns int, fullMix bool) (engineState, *tpcc.Terminal) {
	t.Helper()
	e := loadDirect(t, newFPTree)
	term, err := tpcc.NewTerminal(smallCfg, e, 1, remote, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < txns; i++ {
		var err error
		if fullMix {
			err = term.NextFullMix()
		} else {
			err = term.NextTransaction()
		}
		if err != nil {
			t.Fatalf("direct txn %d: %v", i, err)
		}
	}
	return snapshotState(t, e.warehouses), term
}

// runStoreTrace drives the delegated engine through one SessionStore.
func runStoreTrace(t *testing.T, remote float64, seed int64, txns int, fullMix bool) (engineState, *tpcc.Terminal) {
	t.Helper()
	m, _ := topology.Restricted(1)
	e, err := NewEngine(smallCfg, newFPTree, m)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	loader, _ := tpcc.NewLoader(smallCfg, 1)
	store, err := e.NewStore(0, 14)
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.Load(store); err != nil {
		t.Fatal(err)
	}
	term, err := tpcc.NewTerminal(smallCfg, store, 1, remote, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < txns; i++ {
		var err error
		if fullMix {
			err = term.NextFullMix()
		} else {
			err = term.NextTransaction()
		}
		if err != nil {
			t.Fatalf("delegated txn %d: %v", i, err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return snapshotState(t, e.warehouses), term
}

func TestModesCrossWarehouseAgainstDirect(t *testing.T) {
	// Remote fraction 0.4 over 250 New-Order/Payment transactions forces
	// plenty of remote Payments (customer in the other warehouse) and
	// remote-item New-Orders through the one-task-per-warehouse split.
	const remote, seed, txns = 0.4, int64(99), 250
	want, dTerm := runDirectTrace(t, remote, seed, txns, false)

	// Proof the trace crossed warehouses: remote New-Orders decremented
	// warehouse 2's stock YTD and remote Payments moved a warehouse-2
	// customer balance (terminal 1 is homed at warehouse 1).
	if len(want[tpcc.StockYTD]) < 2 {
		t.Fatal("missing warehouse snapshots")
	}
	fresh := loadDirect(t, newFPTree)
	base := snapshotState(t, fresh.warehouses)
	if base[tpcc.StockYTD][1] == want[tpcc.StockYTD][1] {
		t.Fatal("trace never ran a remote-item New-Order; raise the remote fraction")
	}
	if base[tpcc.CustomerBalance][1] == want[tpcc.CustomerBalance][1] {
		t.Fatal("trace never ran a remote Payment; raise the remote fraction")
	}

	got, gTerm := runStoreTrace(t, remote, seed, txns, false)
	if dTerm.NewOrders != gTerm.NewOrders || dTerm.Payments != gTerm.Payments {
		t.Errorf("mix diverged: NO=%d/%d P=%d/%d",
			dTerm.NewOrders, gTerm.NewOrders, dTerm.Payments, gTerm.Payments)
	}
	diffStates(t, "delegated", want, got)
}

func TestModesFullMixAgainstDirect(t *testing.T) {
	// The full five-transaction mix (Delivery's consume/credit, the
	// read-only scans) with cross-warehouse traffic.
	const remote, seed, txns = 0.3, int64(31), 300
	want, dTerm := runDirectTrace(t, remote, seed, txns, true)
	if dTerm.Deliveries == 0 || dTerm.OrderStatuses == 0 || dTerm.StockLevels == 0 {
		t.Fatalf("trace incomplete: %+v", dTerm)
	}
	got, gTerm := runStoreTrace(t, remote, seed, txns, true)
	if dTerm.NewOrders != gTerm.NewOrders || dTerm.Deliveries != gTerm.Deliveries ||
		dTerm.OrderStatuses != gTerm.OrderStatuses || dTerm.StockLevels != gTerm.StockLevels {
		t.Errorf("mix diverged: direct %+v vs %+v", dTerm, gTerm)
	}
	diffStates(t, "delegated", want, got)
}
