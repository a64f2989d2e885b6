package tpcc

import (
	"testing"
	"testing/quick"
)

func TestKeyEncodingsDisjoint(t *testing.T) {
	// Within one table, distinct logical coordinates must encode to
	// distinct keys.
	seen := map[uint64]bool{}
	for d := 1; d <= DistrictsPerWarehouse; d++ {
		for c := 1; c <= 100; c++ {
			k := CustomerKey(d, c)
			if seen[k] {
				t.Fatalf("CustomerKey collision at %d/%d", d, c)
			}
			seen[k] = true
		}
	}
	seen = map[uint64]bool{}
	for d := 1; d <= 10; d++ {
		for o := 3000; o < 3050; o++ {
			for l := 1; l <= MaxItemsPerOrder; l++ {
				k := OrderLineKey(d, o, l)
				if seen[k] {
					t.Fatalf("OrderLineKey collision at %d/%d/%d", d, o, l)
				}
				seen[k] = true
			}
		}
	}
}

func TestCustomerNameRangeCoversKeys(t *testing.T) {
	f := func(d8 uint8, hash uint32, c16 uint16) bool {
		d := int(d8%DistrictsPerWarehouse) + 1
		c := int(c16) + 1
		k := CustomerNameKey(d, hash, c)
		lo, hi := CustomerNameRange(d, hash)
		return k >= lo && k <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCustomerNameRangeExcludesOtherNames(t *testing.T) {
	loA, hiA := CustomerNameRange(1, NameHash("BARBAR"))
	kB := CustomerNameKey(1, NameHash("OUGHTPRES"), 5)
	if kB >= loA && kB <= hiA {
		t.Error("different name's key falls inside range")
	}
}

func TestPackUnpackLine(t *testing.T) {
	const maxItem, maxAmount = 1<<24 - 1, 9999 * 10 // largest price × quantity
	f := func(item32 uint32, qty8 uint8, amount32 uint32) bool {
		item, qty, amount := int(item32&maxItem), int(qty8%100), int(amount32%(maxAmount+1))
		i, q, a := UnpackLine(PackLine(item, qty, amount))
		return i == item && q == qty && a == amount
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, c := range [][3]int{{maxItem, 99, maxAmount}, {maxItem, 0, 0}, {0, 99, maxAmount}, {1, 1, 1}} {
		if i, q, a := UnpackLine(PackLine(c[0], c[1], c[2])); i != c[0] || q != c[1] || a != c[2] {
			t.Errorf("PackLine%v unpacks to (%d, %d, %d)", c, i, q, a)
		}
	}
}

func TestBalanceEncoding(t *testing.T) {
	for _, cents := range []int64{0, -1000, 1000, -99999999, 99999999} {
		if got := DecodeBalance(EncodeBalance(cents)); got != cents {
			t.Errorf("balance %d round-trips to %d", cents, got)
		}
	}
}

func TestLastNames(t *testing.T) {
	if got := LastName(0); got != "BARBARBAR" {
		t.Errorf("LastName(0) = %q", got)
	}
	if got := LastName(371); got != "PRICALLYOUGHT" {
		t.Errorf("LastName(371) = %q", got)
	}
	// 1000 distinct names.
	seen := map[string]bool{}
	for n := 0; n < 1000; n++ {
		seen[LastName(n)] = true
	}
	if len(seen) != 1000 {
		t.Errorf("distinct names = %d, want 1000", len(seen))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Warehouses: 3}.WithDefaults()
	if c.Customers != DefaultCustomers || c.Items != DefaultItems {
		t.Errorf("defaults not applied: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config accepted")
	}
	if err := (Config{Warehouses: 1, Customers: -1, Items: 5}).Validate(); err == nil {
		t.Error("negative customers accepted")
	}
}

// memStore is an in-memory Store for loader/terminal tests without engines.
type memStore struct {
	m map[int]map[Table]map[uint64]uint64
}

func newMemStore() *memStore { return &memStore{m: map[int]map[Table]map[uint64]uint64{}} }

func (s *memStore) table(w int, t Table) map[uint64]uint64 {
	if s.m[w] == nil {
		s.m[w] = map[Table]map[uint64]uint64{}
	}
	if s.m[w][t] == nil {
		s.m[w][t] = map[uint64]uint64{}
	}
	return s.m[w][t]
}

func (s *memStore) Get(w int, t Table, k uint64) (uint64, bool, error) {
	v, ok := s.table(w, t)[k]
	return v, ok, nil
}

func (s *memStore) Update(w int, t Table, k, v uint64) (bool, error) {
	tab := s.table(w, t)
	if _, ok := tab[k]; !ok {
		return false, nil
	}
	tab[k] = v
	return true, nil
}

func (s *memStore) Insert(w int, t Table, k, v uint64) (bool, error) {
	tab := s.table(w, t)
	if _, ok := tab[k]; ok {
		return false, nil
	}
	tab[k] = v
	return true, nil
}

func (s *memStore) Delete(w int, t Table, k uint64) (bool, error) {
	tab := s.table(w, t)
	if _, ok := tab[k]; !ok {
		return false, nil
	}
	delete(tab, k)
	return true, nil
}

func (s *memStore) RMW(w int, t Table, k uint64, kind RMWKind, delta uint64) (uint64, bool, error) {
	tab := s.table(w, t)
	old, ok := tab[k]
	if !ok {
		return 0, false, nil
	}
	nv := kind.Func()(old, delta)
	tab[k] = nv
	return nv, true, nil
}

func (s *memStore) Scan(w int, t Table, lo, hi uint64, fn func(k, v uint64) bool) (int, error) {
	tab := s.table(w, t)
	// Order by key for determinism.
	var keys []uint64
	for k := range tab {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	for i := 0; i < len(keys); i++ {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	n := 0
	for _, k := range keys {
		n++
		if !fn(k, tab[k]) {
			break
		}
	}
	return n, nil
}

func TestLoaderPopulatesEverything(t *testing.T) {
	cfg := Config{Warehouses: 2, Customers: 50, Items: 100}
	l, err := NewLoader(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if l.Config().Customers != 50 {
		t.Errorf("Config = %+v", l.Config())
	}
	store := newMemStore()
	if err := l.Load(store); err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 2; w++ {
		if got := len(store.table(w, CustomerBalance)); got != 50*DistrictsPerWarehouse {
			t.Errorf("wh %d customers = %d", w, got)
		}
		if got := len(store.table(w, StockQuantity)); got != 100 {
			t.Errorf("wh %d stock = %d", w, got)
		}
		for d := 1; d <= DistrictsPerWarehouse; d++ {
			if v, ok, _ := store.Get(w, DistrictNextOID, DistrictKey(d)); !ok || v != 3001 {
				t.Errorf("wh %d district %d next_o_id = %d,%v", w, d, v, ok)
			}
		}
	}
}

func TestLoaderValidation(t *testing.T) {
	if _, err := NewLoader(Config{}, 1); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestTerminalValidation(t *testing.T) {
	cfg := Config{Warehouses: 2, Customers: 10, Items: 10}
	store := newMemStore()
	if _, err := NewTerminal(cfg, store, 0, 0, 1); err == nil {
		t.Error("warehouse 0 accepted")
	}
	if _, err := NewTerminal(cfg, store, 3, 0, 1); err == nil {
		t.Error("out-of-range warehouse accepted")
	}
	if _, err := NewTerminal(cfg, store, 1, 1.5, 1); err == nil {
		t.Error("bad remote fraction accepted")
	}
}

func TestTerminalAgainstMemStore(t *testing.T) {
	cfg := Config{Warehouses: 3, Customers: 60, Items: 80}
	l, _ := NewLoader(cfg, 3)
	store := newMemStore()
	if err := l.Load(store); err != nil {
		t.Fatal(err)
	}
	term, err := NewTerminal(cfg, store, 2, 0.3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := term.NextTransaction(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	if term.NewOrders+term.Payments != 500 {
		t.Errorf("txn counts: NO=%d P=%d", term.NewOrders, term.Payments)
	}
	// Order lines exist for the orders made.
	if len(store.table(2, OrderLines)) == 0 {
		t.Error("no order lines inserted")
	}
	// Warehouse YTD grew with payments.
	ytd, _, _ := store.Get(2, WarehouseYTD, 2)
	if ytd <= 300000_00 {
		t.Error("warehouse YTD did not grow")
	}
	// Remote activity: with 30% remote and 500 txns, other warehouses'
	// stock YTD or balances must have been touched.
	touched := false
	for _, w := range []int{1, 3} {
		for _, v := range store.table(w, StockYTD) {
			if v != 0 {
				touched = true
			}
		}
	}
	if !touched {
		t.Error("no remote warehouse was ever touched at 30% remote")
	}
}

func TestTableStrings(t *testing.T) {
	for _, tab := range Tables {
		if tab.String() == "" || tab.String()[0] == 'T' && tab.String()[1] == 'a' {
			t.Errorf("table %d has placeholder name %q", tab, tab.String())
		}
	}
	if Table(99).String() != "Table(99)" {
		t.Error("unknown table name")
	}
}

func TestFullMixAgainstMemStore(t *testing.T) {
	cfg := Config{Warehouses: 2, Customers: 80, Items: 100}
	l, _ := NewLoader(cfg, 3)
	store := newMemStore()
	if err := l.Load(store); err != nil {
		t.Fatal(err)
	}
	term, err := NewTerminal(cfg, store, 1, 0.1, 21)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := term.NextFullMix(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
	total := term.NewOrders + term.Payments + term.Deliveries + term.OrderStatuses + term.StockLevels
	if total != 1000 {
		t.Fatalf("transactions accounted = %d", total)
	}
	// Full-mix weights: New-Order ≈ 45%, Payment ≈ 43%, 4% each rest.
	if term.NewOrders < 350 || term.NewOrders > 550 {
		t.Errorf("NewOrders = %d, want ≈450", term.NewOrders)
	}
	if term.Deliveries == 0 || term.OrderStatuses == 0 || term.StockLevels == 0 {
		t.Errorf("full mix skipped a type: D=%d OS=%d SL=%d",
			term.Deliveries, term.OrderStatuses, term.StockLevels)
	}
}

func TestDeliveryConsumesOldestNewOrders(t *testing.T) {
	cfg := Config{Warehouses: 1, Customers: 20, Items: 30}
	l, _ := NewLoader(cfg, 3)
	store := newMemStore()
	if err := l.Load(store); err != nil {
		t.Fatal(err)
	}
	term, _ := NewTerminal(cfg, store, 1, 0, 5)
	// Create some orders first.
	for i := 0; i < 40; i++ {
		if err := term.NewOrder(); err != nil {
			t.Fatal(err)
		}
	}
	pending := len(store.table(1, NewOrders))
	if pending == 0 {
		t.Fatal("no pending new orders")
	}
	if err := term.Delivery(); err != nil {
		t.Fatal(err)
	}
	after := len(store.table(1, NewOrders))
	// One order delivered per district that had any.
	if after >= pending {
		t.Errorf("delivery consumed nothing: %d → %d", pending, after)
	}
	if term.Deliveries != 1 {
		t.Errorf("Deliveries = %d", term.Deliveries)
	}
	// The orders themselves remain (only the NewOrders marker goes away).
	if len(store.table(1, Orders)) == 0 {
		t.Error("orders table emptied by delivery")
	}
}

func TestDeliveryOnEmptyDistrictsIsNoop(t *testing.T) {
	cfg := Config{Warehouses: 1, Customers: 10, Items: 10}
	l, _ := NewLoader(cfg, 3)
	store := newMemStore()
	if err := l.Load(store); err != nil {
		t.Fatal(err)
	}
	term, _ := NewTerminal(cfg, store, 1, 0, 5)
	if err := term.Delivery(); err != nil {
		t.Fatalf("delivery with no pending orders failed: %v", err)
	}
}

func TestOrderStatusAndStockLevelReadOnly(t *testing.T) {
	cfg := Config{Warehouses: 1, Customers: 30, Items: 40}
	l, _ := NewLoader(cfg, 3)
	store := newMemStore()
	if err := l.Load(store); err != nil {
		t.Fatal(err)
	}
	term, _ := NewTerminal(cfg, store, 1, 0, 5)
	for i := 0; i < 20; i++ {
		if err := term.NewOrder(); err != nil {
			t.Fatal(err)
		}
	}
	snapshotOrders := len(store.table(1, Orders))
	snapshotStock := map[uint64]uint64{}
	for k, v := range store.table(1, StockQuantity) {
		snapshotStock[k] = v
	}
	for i := 0; i < 20; i++ {
		if err := term.OrderStatus(); err != nil {
			t.Fatal(err)
		}
		if err := term.StockLevel(); err != nil {
			t.Fatal(err)
		}
	}
	if len(store.table(1, Orders)) != snapshotOrders {
		t.Error("read-only transactions modified orders")
	}
	for k, v := range store.table(1, StockQuantity) {
		if snapshotStock[k] != v {
			t.Errorf("stock %d changed from %d to %d", k, snapshotStock[k], v)
		}
	}
}
