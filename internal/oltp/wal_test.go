package oltp

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"robustconf/internal/core"
	"robustconf/internal/delegation"
	"robustconf/internal/faultinject"
	"robustconf/internal/index"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/metrics"
	"robustconf/internal/topology"
	"robustconf/internal/tpcc"
	"robustconf/internal/wal"
)

// TestWarehouseDurableRoundTrip pins the Durable implementation in
// isolation: snapshot → restore reproduces every table, and effect records
// replay idempotently on top.
func TestWarehouseDurableRoundTrip(t *testing.T) {
	src := NewWarehouse(newFPTree)
	src.Table(tpcc.WarehouseTax).Insert(1, 42, nil)
	src.Table(tpcc.CustomerBalance).Insert(7, 700, nil)
	src.Table(tpcc.CustomerBalance).Insert(8, 800, nil)
	src.Table(tpcc.Orders).Insert(3, 30, nil)

	var snap bytes.Buffer
	if err := src.WALSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	dst := NewWarehouse(newFPTree)
	if err := dst.WALRestore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, tb := range tpcc.Tables {
		if got, want := dst.Table(tb).Len(), src.Table(tb).Len(); got != want {
			t.Errorf("table %s restored %d keys, want %d", tb, got, want)
		}
	}
	if v, ok := dst.Table(tpcc.CustomerBalance).Get(7, nil); !ok || v != 700 {
		t.Fatalf("restored balance = %d,%v", v, ok)
	}

	// Effects: an update to a present key, an upsert of an absent one, a
	// delete — applied twice to confirm idempotence.
	var rec []byte
	rec = appendEffSet(rec, tpcc.CustomerBalance, 7, 750)
	rec = appendEffSet(rec, tpcc.CustomerBalance, 9, 900)
	rec = appendEffDelete(rec, tpcc.Orders, 3)
	for i := 0; i < 2; i++ {
		if err := dst.WALApply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if v, _ := dst.Table(tpcc.CustomerBalance).Get(7, nil); v != 750 {
		t.Errorf("updated balance = %d, want 750", v)
	}
	if v, _ := dst.Table(tpcc.CustomerBalance).Get(9, nil); v != 900 {
		t.Errorf("upserted balance = %d, want 900", v)
	}
	if _, ok := dst.Table(tpcc.Orders).Get(3, nil); ok {
		t.Error("deleted order still present")
	}

	// Corrupt effects fail loudly rather than applying garbage.
	if err := dst.WALApply([]byte{99}); err == nil {
		t.Error("unknown opcode accepted")
	}
	if err := dst.WALApply(rec[:5]); err == nil {
		t.Error("truncated effect accepted")
	}
}

// TestWarehouseSnapshotNeedsOrderedIndex pins the documented limitation:
// hash-map-backed warehouses cannot checkpoint (no ordered traversal), and
// the error surfaces at snapshot time — i.e. at the engine's initial
// checkpoint, not mid-run.
func TestWarehouseSnapshotNeedsOrderedIndex(t *testing.T) {
	w := NewWarehouse(func() index.Index { return hashmap.New() })
	if err := w.WALSnapshot(&bytes.Buffer{}); err == nil {
		t.Fatal("hash map snapshot succeeded")
	}
}

// TestTableIDsPinned: WAL effects and checkpoint frames name a table by its
// one-byte id, so a log written before a table was added must still replay
// into the same tables. New tables go at the end.
func TestTableIDsPinned(t *testing.T) {
	want := []tpcc.Table{
		tpcc.WarehouseTax, tpcc.WarehouseYTD, tpcc.DistrictTax, tpcc.DistrictYTD,
		tpcc.DistrictNextOID, tpcc.CustomerBalance, tpcc.CustomerByName, tpcc.ItemPrice,
		tpcc.StockQuantity, tpcc.StockYTD, tpcc.Orders, tpcc.NewOrders, tpcc.OrderLines,
		tpcc.History, tpcc.CustomerLastOrder,
	}
	for id, tb := range want {
		if int(tb) != id {
			t.Errorf("table %s has id %d, want %d", tb, int(tb), id)
		}
	}
	if len(tpcc.Tables) != len(want) {
		t.Errorf("%d tables, want %d", len(tpcc.Tables), len(want))
	}
}

// TestCustomerLastOrderDurable: New-Order's first-order Insert and later
// Update of a customer's last-order row log set effects that replay onto an
// empty warehouse, and a checkpoint of the result restores the row.
func TestCustomerLastOrderDurable(t *testing.T) {
	var effects []byte
	live := &domainStore{wh: NewWarehouse(newFPTree), w: 1, eff: &effects}
	key := tpcc.CustomerKey(3, 42)
	if ok, _ := live.Update(1, tpcc.CustomerLastOrder, key, 3001); ok {
		t.Fatal("Update of a customer with no order applied")
	}
	live.Insert(1, tpcc.CustomerLastOrder, key, 3001)
	live.Update(1, tpcc.CustomerLastOrder, key, 3007)

	replayed := NewWarehouse(newFPTree)
	if err := replayed.WALApply(effects); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := replayed.WALSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored := NewWarehouse(newFPTree)
	if err := restored.WALRestore(&snap); err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*Warehouse{"replayed": replayed, "restored": restored} {
		tb := w.Table(tpcc.CustomerLastOrder)
		if v, ok := tb.Get(key, nil); !ok || v != 3007 || tb.Len() != 1 {
			t.Errorf("%s: last order %d,%v over %d rows, want 3007 in 1", name, v, ok, tb.Len())
		}
	}
}

// newWALEngine starts a WAL-enabled delegated engine on dir.
func newWALEngine(t *testing.T, dir string, hook delegation.FaultHook) *Engine {
	t.Helper()
	m, _ := topology.Restricted(1)
	rc, err := EvenConfig(smallCfg, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rc.Domains {
		rc.Domains[i].RestartBudget = 1 << 20
	}
	rc.WAL = core.WALConfig{Dir: dir, Fsync: wal.FsyncBatch, CheckpointEvery: 25 * time.Millisecond}
	rc.FaultHook = hook
	rc.Faults = &metrics.FaultCounters{}
	e, err := NewEngineWithConfig(smallCfg, newFPTree, rc)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineWALModesMatchDirect asserts WAL-enabled execution is
// behaviour-preserving: the same deterministic terminal stream, with
// cross-warehouse transactions split one task per warehouse, leaves the same
// district sequences as the direct engine, and the WAL actually saw the
// mutations.
func TestEngineWALModesMatchDirect(t *testing.T) {
	direct := loadDirect(t, newFPTree)
	dTerm, _ := tpcc.NewTerminal(smallCfg, direct, 1, 0.2, 99)

	e := newWALEngine(t, t.TempDir(), nil)
	loader, _ := tpcc.NewLoader(smallCfg, 1)
	store, err := e.NewStore(0, 14)
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.Load(store); err != nil {
		t.Fatal(err)
	}
	gTerm, _ := tpcc.NewTerminal(smallCfg, store, 1, 0.2, 99)

	for i := 0; i < 120; i++ {
		if err := dTerm.NextTransaction(); err != nil {
			t.Fatal(err)
		}
		if err := gTerm.NextTransaction(); err != nil {
			t.Fatal(err)
		}
	}
	for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
		dv, _, _ := direct.Get(1, tpcc.DistrictNextOID, tpcc.DistrictKey(d))
		gv, _, _ := store.Get(1, tpcc.DistrictNextOID, tpcc.DistrictKey(d))
		if dv != gv {
			t.Errorf("district %d sequence differs: direct %d vs WAL-enabled %d", d, dv, gv)
		}
	}
	store.Close()
	var committed uint64
	for _, d := range e.Runtime().Domains() {
		committed += d.WALStats().Committed
	}
	e.Stop()
	if committed == 0 {
		t.Error("no WAL record was ever committed")
	}
}

// armedHook gates a fault injector behind a switch so the data load runs
// clean and only the measured phase sees crashes. It forwards the WAL
// commit-fault decision too (core discovers DecideWALFault structurally).
type armedHook struct {
	inner *faultinject.Injector
	armed atomic.Bool
}

func (h *armedHook) BeforeSweep(worker int) {
	if h.armed.Load() {
		h.inner.BeforeSweep(worker)
	}
}

func (h *armedHook) BeforeTask(worker int) {
	if h.armed.Load() {
		h.inner.BeforeTask(worker)
	}
}

func (h *armedHook) DecideWALFault(worker int) int {
	if !h.armed.Load() {
		return 0
	}
	return h.inner.DecideWALFault(worker)
}

// TestEngineWALCrashRecovery runs acknowledged writes against a WAL-enabled
// engine while the injector kills workers inside group commits. Every write
// whose future resolved nil is durable by contract, so after the storm the
// live (recovered) state must hold each one's latest acknowledged value.
func TestEngineWALCrashRecovery(t *testing.T) {
	writes := 3000
	if testing.Short() {
		writes = 800
	}
	injector := faultinject.New(11,
		faultinject.Rule{Kind: faultinject.WALKillCommit, Worker: -1, EveryNth: 60},
		faultinject.Rule{Kind: faultinject.WALTornTail, Worker: -1, EveryNth: 75},
	)
	hook := &armedHook{inner: injector}
	e := newWALEngine(t, t.TempDir(), hook)
	defer e.Stop()
	loader, _ := tpcc.NewLoader(smallCfg, 1)
	store, err := e.NewStore(0, 14)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := loader.Load(store); err != nil {
		t.Fatal(err)
	}
	hook.armed.Store(true)

	// Acknowledged balances per customer key, written with retry: a failed
	// write crashed before its commit and may or may not survive recovery,
	// so only nil-error writes create expectations.
	want := map[uint64]uint64{}
	retries := 0
	for i := 0; i < writes; i++ {
		w := 1 + i%smallCfg.Warehouses
		key := tpcc.CustomerKey(1+i%tpcc.DistrictsPerWarehouse, 1+i%smallCfg.Customers)
		val := uint64(i + 1)
		for attempt := 0; ; attempt++ {
			ok, err := store.Update(w, tpcc.CustomerBalance, key, val)
			if err == nil {
				if !ok {
					t.Fatalf("write %d: customer %d absent", i, key)
				}
				if w == 1 {
					want[key] = val
				}
				break
			}
			retries++
			if attempt > 1000 {
				t.Fatalf("write %d never committed: %v", i, err)
			}
		}
	}

	// Disarm before verification: the gate is taken on any logged-domain
	// sweep, so even read-only verification sweeps would keep drawing
	// commit faults.
	hook.armed.Store(false)

	var recoveries, replayed uint64
	for _, d := range e.Runtime().Domains() {
		st := d.WALStats()
		recoveries += st.Recoveries
		replayed += st.Replayed
	}
	t.Logf("writes=%d retries=%d recoveries=%d replayed=%d injected=%v",
		writes, retries, recoveries, replayed, injector.Counts())
	if recoveries == 0 {
		t.Skip("no commit fault fired on this machine's sweep rate")
	}

	for key, val := range want {
		got, ok, err := store.Get(1, tpcc.CustomerBalance, key)
		if err != nil || !ok || got != val {
			t.Fatalf("customer %d: balance %d,%v,%v; want acknowledged %d", key, got, ok, err, val)
		}
	}
	if retries == 0 {
		t.Error("recoveries ran but no client retry was ever observed")
	}
}
