// Package tpcc implements TPC-C for the paper's Experiment 3: the schema, a
// deterministic data generator, and the transaction logic, expressed against
// an abstract per-warehouse Store so the same logic runs on both the
// delegated engine and the direct-execution baseline (package oltp). The
// paper evaluates New-Order + Payment (88% of the mix, transactions.go);
// Delivery, Order-Status and Stock-Level complete the full five-transaction
// mix as an extension (fullmix.go).
//
// Rows are decomposed into per-column index entries over 64-bit keys and
// values — the "tables and their indexes as data structures" view the
// paper's light-weight engine takes. Following Section 3.3, the engines
// implement no concurrency control beyond the structures' own latches:
// anomalies such as lost updates are permitted, exactly as in the paper's
// evaluation setup.
package tpcc

import (
	"fmt"
	"math/rand"
)

// Scale parameters (TPC-C defaults; tests shrink them via Config).
const (
	DistrictsPerWarehouse = 10
	DefaultCustomers      = 3000 // per district
	DefaultItems          = 100000
	MaxItemsPerOrder      = 15
)

// Table identifies one column-index of the decomposed schema.
type Table int

const (
	WarehouseTax      Table = iota // w_id → tax (fixed-point 1e4)
	WarehouseYTD                   // w_id → ytd cents
	DistrictTax                    // (d) → tax
	DistrictYTD                    // (d) → ytd cents
	DistrictNextOID                // (d) → next order id
	CustomerBalance                // (d, c) → balance cents (offset-encoded)
	CustomerByName                 // (d, name hash, c) → c
	ItemPrice                      // i_id → price cents
	StockQuantity                  // (w local, i) → quantity
	StockYTD                       // (w local, i) → ytd
	Orders                         // (d, o) → c
	NewOrders                      // (d, o) → 1
	OrderLines                     // (d, o, line) → packed amount/item/qty (PackLine)
	History                        // (d, seq) → amount
	CustomerLastOrder              // (d, c) → the customer's latest order id
	NumTables                      // the table count; not a table
)

// Tables lists every table index in declaration order.
var Tables = func() []Table {
	out := make([]Table, NumTables)
	for i := range out {
		out[i] = Table(i)
	}
	return out
}()

// String names the table.
func (t Table) String() string {
	names := [...]string{
		"warehouse.tax", "warehouse.ytd", "district.tax", "district.ytd",
		"district.next_o_id", "customer.balance", "customer.by_name",
		"item.price", "stock.quantity", "stock.ytd",
		"orders", "new_orders", "order_lines", "history",
		"customer.last_order",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("Table(%d)", int(t))
}

// Key encoding: within a warehouse's store, keys pack district, customer,
// item and order components into 64 bits.

// DistrictKey encodes a district id (1..10).
func DistrictKey(d int) uint64 { return uint64(d) }

// CustomerKey encodes (district, customer).
func CustomerKey(d, c int) uint64 { return uint64(d)<<32 | uint64(c) }

// CustomerNameKey encodes (district, last-name hash, customer) for the
// secondary index; ordered so a range scan enumerates one name's customers.
func CustomerNameKey(d int, nameHash uint32, c int) uint64 {
	return uint64(d)<<56 | uint64(nameHash&0xFFFFFF)<<32 | uint64(c)
}

// CustomerNameRange bounds the scan for (district, name hash).
func CustomerNameRange(d int, nameHash uint32) (lo, hi uint64) {
	lo = uint64(d)<<56 | uint64(nameHash&0xFFFFFF)<<32
	return lo, lo | 0xFFFFFFFF
}

// ItemKey encodes an item id.
func ItemKey(i int) uint64 { return uint64(i) }

// StockKey encodes an item's stock entry (the warehouse is implicit in the
// store the key is used against).
func StockKey(i int) uint64 { return uint64(i) }

// OrderKey encodes (district, order).
func OrderKey(d, o int) uint64 { return uint64(d)<<40 | uint64(o) }

// OrderLineKey encodes (district, order, line).
func OrderLineKey(d, o, line int) uint64 {
	return uint64(d)<<56 | uint64(o)<<8 | uint64(line)
}

// HistoryKey encodes (district, sequence).
func HistoryKey(d int, seq uint64) uint64 { return uint64(d)<<48 | seq }

// PackLine packs an order line's amount (OL_AMOUNT: price × quantity, in
// cents), item (24 bits) and quantity (8 bits) as amount<<32 | item<<8 | qty.
func PackLine(item, qty, amount int) uint64 {
	return uint64(amount)<<32 | uint64(item)<<8 | uint64(qty)
}

// UnpackLine reverses PackLine.
func UnpackLine(v uint64) (item, qty, amount int) {
	return int(v >> 8 & 0xFFFFFF), int(v & 0xFF), int(v >> 32)
}

// balanceOffset keeps customer balances (which go negative) in uint64 space.
const balanceOffset = uint64(1) << 40

// EncodeBalance / DecodeBalance map signed cents into uint64.
func EncodeBalance(cents int64) uint64 { return uint64(cents + int64(balanceOffset)) }

// DecodeBalance reverses EncodeBalance.
func DecodeBalance(v uint64) int64 { return int64(v) - int64(balanceOffset) }

// NameHash hashes a TPC-C last name into the secondary-index key space.
func NameHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h & 0xFFFFFF
}

// lastNameSyllables per the TPC-C specification.
var lastNameSyllables = [...]string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// lastNames interns all 1000 possible TPC-C last names so drawing one on
// the transaction hot path never allocates.
var lastNames = func() (t [1000]string) {
	for n := range t {
		t[n] = lastNameSyllables[n/100%10] + lastNameSyllables[n/10%10] + lastNameSyllables[n%10]
	}
	return
}()

// LastName returns the TPC-C last name for a number (0-999).
func LastName(n int) string { return lastNames[n%1000] }

// Config sizes a generated database.
type Config struct {
	Warehouses int
	Customers  int // per district (default 3000)
	Items      int // default 100000
}

// WithDefaults fills zero fields.
func (c Config) WithDefaults() Config {
	if c.Customers == 0 {
		c.Customers = DefaultCustomers
	}
	if c.Items == 0 {
		c.Items = DefaultItems
	}
	return c
}

// Validate checks the scale.
func (c Config) Validate() error {
	if c.Warehouses < 1 {
		return fmt.Errorf("tpcc: need at least one warehouse")
	}
	if c.Customers < 1 || c.Items < 1 {
		return fmt.Errorf("tpcc: customers and items must be positive")
	}
	return nil
}

// Store is the per-warehouse statement executor the transactions run
// against. Implementations route each call either directly to the owning
// structures (the baseline) or as a delegated task (the paper's engine).
// The warehouse argument selects the partition; keys are warehouse-local.
type Store interface {
	Get(warehouse int, table Table, key uint64) (uint64, bool, error)
	Update(warehouse int, table Table, key, val uint64) (bool, error)
	Insert(warehouse int, table Table, key, val uint64) (bool, error)
	// Delete removes a row (Delivery consumes NewOrders entries).
	Delete(warehouse int, table Table, key uint64) (bool, error)
	// Scan visits [lo, hi] of an ordered table in ascending key order.
	Scan(warehouse int, table Table, lo, hi uint64, fn func(k, v uint64) bool) (int, error)
	// RMW applies a typed read-modify-write (RMWKind.Func) to a row as ONE
	// statement, returning the new value. On the delegated engine the whole
	// read-modify-write executes inside the owning domain, so pipelined
	// transactions can keep several same-key RMWs in flight without the
	// lost-update window a Get+Update pair would open.
	RMW(warehouse int, table Table, key uint64, kind RMWKind, delta uint64) (uint64, bool, error)
}

// RMWKind selects the modify step of Store.RMW.
type RMWKind uint8

const (
	// RMWAdd adds delta with wrapping arithmetic; subtraction passes the
	// two's complement (uint64(-int64(x))). Offset-encoded balances work
	// unchanged: EncodeBalance(b+δ) = EncodeBalance(b)+δ.
	RMWAdd RMWKind = iota
	// RMWStockDecr is New-Order's stock decrement: v -= delta, then
	// v += 91 while v < 10 — the spec's wrap keeping quantities in
	// [10, 100]. With quantities starting in [10, 100] and deltas in
	// [1, 10] the result is the unique representative of (v−delta) mod 91
	// in [10, 100], so concurrent and reordered stock decrements commute.
	RMWStockDecr
	// RMWMax keeps the larger of v and delta: New-Order's last-order
	// record, which then holds the highest order id however New-Orders
	// on one district interleave.
	RMWMax
)

// Func returns the modify step of Store.RMW as a static func of (old,
// delta), the shape index.Modify takes: passing it builds no closure.
func (k RMWKind) Func() func(old, delta uint64) uint64 {
	switch k {
	case RMWStockDecr:
		return stockDecr
	case RMWMax:
		return larger
	}
	return add
}

func add(old, delta uint64) uint64 { return old + delta }

func larger(old, delta uint64) uint64 { return max(old, delta) }

func stockDecr(old, delta uint64) uint64 {
	v := int64(old) - int64(delta)
	for v < 10 {
		v += 91
	}
	return uint64(v)
}

// Loader populates a Store with the generated database.
type Loader struct {
	cfg Config
	rng *rand.Rand
}

// NewLoader builds a deterministic loader.
func NewLoader(cfg Config, seed int64) (*Loader, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Loader{cfg: cfg, rng: rand.New(rand.NewSource(seed))}, nil
}

// Config returns the (defaulted) scale.
func (l *Loader) Config() Config { return l.cfg }

// Load populates every warehouse partition.
func (l *Loader) Load(store Store) error {
	c := l.cfg
	for w := 1; w <= c.Warehouses; w++ {
		if _, err := store.Insert(w, WarehouseTax, uint64(w), uint64(l.rng.Intn(2000))); err != nil {
			return err
		}
		if _, err := store.Insert(w, WarehouseYTD, uint64(w), 300000_00); err != nil {
			return err
		}
		for d := 1; d <= DistrictsPerWarehouse; d++ {
			if _, err := store.Insert(w, DistrictTax, DistrictKey(d), uint64(l.rng.Intn(2000))); err != nil {
				return err
			}
			if _, err := store.Insert(w, DistrictYTD, DistrictKey(d), 30000_00); err != nil {
				return err
			}
			if _, err := store.Insert(w, DistrictNextOID, DistrictKey(d), 3001); err != nil {
				return err
			}
			for cu := 1; cu <= c.Customers; cu++ {
				if _, err := store.Insert(w, CustomerBalance, CustomerKey(d, cu), EncodeBalance(-10_00)); err != nil {
					return err
				}
				name := LastName(nameNumber(cu, c.Customers))
				if _, err := store.Insert(w, CustomerByName, CustomerNameKey(d, NameHash(name), cu), uint64(cu)); err != nil {
					return err
				}
			}
		}
		for i := 1; i <= c.Items; i++ {
			if w == 1 {
				// Items are global; load them once into warehouse 1's
				// partition and mirror the price into every warehouse so
				// item reads stay partition-local (the usual TPC-C
				// replication trick for read-only tables).
			}
			if _, err := store.Insert(w, ItemPrice, ItemKey(i), uint64(100+l.rng.Intn(9900))); err != nil {
				return err
			}
			if _, err := store.Insert(w, StockQuantity, StockKey(i), uint64(10+l.rng.Intn(91))); err != nil {
				return err
			}
			if _, err := store.Insert(w, StockYTD, StockKey(i), 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// nameNumber maps customer ids to TPC-C name numbers (first 1000 customers
// get distinct names, the rest follow the NURand-ish distribution).
func nameNumber(c, customers int) int {
	if customers >= 1000 {
		return c % 1000
	}
	return c % customers
}
