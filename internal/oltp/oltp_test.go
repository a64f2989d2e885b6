package oltp

import (
	"sync"
	"testing"

	"robustconf/internal/index"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/topology"
	"robustconf/internal/tpcc"
)

// smallCfg is a scaled-down TPC-C database for fast tests.
var smallCfg = tpcc.Config{Warehouses: 2, Customers: 100, Items: 500}

func newFPTree() index.Index { return fptree.New() }
func newBWTree() index.Index { return bwtree.New() }

func loadDirect(t *testing.T, newIndex func() index.Index) *DirectEngine {
	t.Helper()
	e, err := NewDirectEngine(smallCfg, newIndex)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := tpcc.NewLoader(smallCfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.Load(e); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDirectEngineLoadAndVerify(t *testing.T) {
	e := loadDirect(t, newFPTree)
	// Warehouse 1, district 1 must have its next order id.
	oid, ok, err := e.Get(1, tpcc.DistrictNextOID, tpcc.DistrictKey(1))
	if err != nil || !ok || oid != 3001 {
		t.Fatalf("next_o_id = %d,%v,%v", oid, ok, err)
	}
	// All customers present.
	if got := e.Warehouse(1).Table(tpcc.CustomerBalance).Len(); got != smallCfg.Customers*tpcc.DistrictsPerWarehouse {
		t.Errorf("customers = %d", got)
	}
	if got := e.Warehouse(2).Table(tpcc.ItemPrice).Len(); got != smallCfg.Items {
		t.Errorf("items in wh2 = %d", got)
	}
	if _, _, err := e.Get(9, tpcc.WarehouseTax, 9); err == nil {
		t.Error("out-of-range warehouse accepted")
	}
}

func TestDirectEngineTransactions(t *testing.T) {
	e := loadDirect(t, newFPTree)
	term, err := tpcc.NewTerminal(smallCfg, e, 1, 0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := term.NextTransaction(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if term.NewOrders == 0 || term.Payments == 0 {
		t.Fatalf("mix skipped a type: NO=%d P=%d", term.NewOrders, term.Payments)
	}
	// New orders advanced district sequences and inserted rows.
	total := uint64(0)
	for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
		oid, _, _ := e.Get(1, tpcc.DistrictNextOID, tpcc.DistrictKey(d))
		total += oid - 3001
	}
	if total != term.NewOrders {
		t.Errorf("district sequences advanced %d, terminal made %d orders", total, term.NewOrders)
	}
	if got := e.Warehouse(1).Table(tpcc.Orders).Len(); uint64(got) != term.NewOrders {
		t.Errorf("orders rows = %d, want %d", got, term.NewOrders)
	}
	if got := e.Warehouse(1).Table(tpcc.History).Len(); uint64(got) != term.Payments {
		t.Errorf("history rows = %d, want %d", got, term.Payments)
	}
}

func TestPaymentByNameUsesSecondaryIndex(t *testing.T) {
	e := loadDirect(t, newBWTree)
	// Directly exercise the scan path: every customer must be findable by
	// the name index.
	lo, hi := tpcc.CustomerNameRange(1, tpcc.NameHash(tpcc.LastName(1%smallCfg.Customers)))
	n, err := e.Scan(1, tpcc.CustomerByName, lo, hi, func(k, v uint64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("secondary index scan found no customers")
	}
}

func TestDelegatedEngineTransactions(t *testing.T) {
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
	term, err := tpcc.NewTerminal(smallCfg, store, 1, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := term.NextTransaction(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	// The work must have executed inside the warehouse domains.
	executed := uint64(0)
	for _, d := range e.Runtime().Domains() {
		for _, b := range d.Inbox().Buffers() {
			executed += b.Executed.Load()
		}
	}
	if executed == 0 {
		t.Error("no tasks executed by domain workers")
	}
	if got := e.Warehouse(1).Table(tpcc.Orders).Len(); uint64(got) != term.NewOrders {
		t.Errorf("orders rows = %d, want %d", got, term.NewOrders)
	}
}

func TestDelegatedEngineConcurrentTerminals(t *testing.T) {
	m, _ := topology.Restricted(1)
	e, err := NewEngine(smallCfg, newBWTree, m)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	loader, _ := tpcc.NewLoader(smallCfg, 1)
	boot, _ := e.NewStore(0, 14)
	if err := loader.Load(boot); err != nil {
		t.Fatal(err)
	}
	boot.Close()

	const terminals, txns = 4, 100
	var wg sync.WaitGroup
	errs := make(chan error, terminals)
	for g := 0; g < terminals; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			store, err := e.NewStore(g%48, 8)
			if err != nil {
				errs <- err
				return
			}
			defer store.Close()
			term, err := tpcc.NewTerminal(smallCfg, store, 1+g%smallCfg.Warehouses, 0.1, int64(g+100))
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < txns; i++ {
				if err := term.NextTransaction(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewDirectEngine(tpcc.Config{}, newFPTree); err == nil {
		t.Error("zero warehouses accepted")
	}
	m, _ := topology.Restricted(1)
	if _, err := NewEngine(tpcc.Config{Warehouses: 100}, newFPTree, m); err == nil {
		t.Error("more warehouses than CPUs accepted")
	}
}

func TestBothEnginesAgreeOnState(t *testing.T) {
	// The same deterministic terminal stream against both engines must
	// leave identical district sequences (single terminal → no races).
	direct := loadDirect(t, newFPTree)
	dTerm, _ := tpcc.NewTerminal(smallCfg, direct, 1, 0.2, 99)
	m, _ := topology.Restricted(1)
	deleg, err := NewEngine(smallCfg, newFPTree, m)
	if err != nil {
		t.Fatal(err)
	}
	defer deleg.Stop()
	loader, _ := tpcc.NewLoader(smallCfg, 1)
	store, _ := deleg.NewStore(0, 14)
	defer store.Close()
	if err := loader.Load(store); err != nil {
		t.Fatal(err)
	}
	gTerm, _ := tpcc.NewTerminal(smallCfg, store, 1, 0.2, 99)

	for i := 0; i < 150; i++ {
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
			t.Errorf("district %d sequence differs: direct %d vs delegated %d", d, dv, gv)
		}
	}
}

func TestFullMixOnBothEngines(t *testing.T) {
	// The full five-transaction TPC-C mix (incl. Delivery's deletes and the
	// read-only scans) must run on both the direct and the delegated engine.
	direct := loadDirect(t, newFPTree)
	dTerm, _ := tpcc.NewTerminal(smallCfg, direct, 1, 0.05, 31)
	for i := 0; i < 300; i++ {
		if err := dTerm.NextFullMix(); err != nil {
			t.Fatalf("direct txn %d: %v", i, err)
		}
	}
	if dTerm.Deliveries == 0 || dTerm.StockLevels == 0 || dTerm.OrderStatuses == 0 {
		t.Errorf("direct full mix incomplete: %+v", dTerm)
	}

	m, _ := topology.Restricted(1)
	deleg, err := NewEngine(smallCfg, newBWTree, m)
	if err != nil {
		t.Fatal(err)
	}
	defer deleg.Stop()
	loader, _ := tpcc.NewLoader(smallCfg, 1)
	store, _ := deleg.NewStore(0, 14)
	defer store.Close()
	if err := loader.Load(store); err != nil {
		t.Fatal(err)
	}
	gTerm, _ := tpcc.NewTerminal(smallCfg, store, 1, 0.05, 31)
	for i := 0; i < 300; i++ {
		if err := gTerm.NextFullMix(); err != nil {
			t.Fatalf("delegated txn %d: %v", i, err)
		}
	}
	// Same seed → same mix counts on both engines.
	if dTerm.NewOrders != gTerm.NewOrders || dTerm.Deliveries != gTerm.Deliveries {
		t.Errorf("mix diverged: direct NO=%d D=%d vs delegated NO=%d D=%d",
			dTerm.NewOrders, dTerm.Deliveries, gTerm.NewOrders, gTerm.Deliveries)
	}
}
