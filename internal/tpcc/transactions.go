package tpcc

import (
	"fmt"
	"math/rand"
)

// Terminal generates and executes New-Order and Payment transactions
// against a Store, as one client terminal. Terminals are single-goroutine;
// run one per client thread.
//
// Each transaction first draws every random parameter (the same rng stream
// as the historical interleaved code — store calls never consume the rng),
// then runs its body. When the store can run whole transactions in the
// owning domain (TxnRunner), a single-warehouse transaction ships there as
// one task, and a cross-warehouse one — remote-customer Payment,
// remote-supplier New-Order — as one task per warehouse: a home part and a
// remote part, both posted before either is awaited (RunSplit). Any other
// store runs the same bodies directly, the home part before the remote
// part. The two parts of one transaction share the terminal, so they touch
// disjoint scratch: neither takes the eager adapter (wrap, used by
// Delivery and Stock-Level), only Payment's remote part uses the match
// buffer, and the history sequence is taken before either runs.
type Terminal struct {
	cfg    Config
	store  Store
	as     AsyncStore // async view of store (native or eager adapter)
	runner TxnRunner  // non-nil when store delegates whole transactions
	rng    *rand.Rand
	home   int    // home warehouse
	id     uint64 // terminal id, namespaces history rows
	// RemoteFrac is the probability a transaction touches a remote
	// warehouse (the paper sweeps 0–75%).
	RemoteFrac float64
	seq        uint64 // history sequence

	// Prebuilt whole-transaction closures (no per-transaction closure
	// allocation) and the reusable adapter they aim at the domain-local
	// store. noFn and payHomeFn are the home parts of New-Order and
	// Payment, noRemoteFn and payRemoteFn their remote parts; payFn is a
	// home-customer Payment, both parts in one task.
	wrap        immediateAsync
	noFn        func(local Store) error
	noRemoteFn  func(local Store) error
	payFn       func(local Store) error
	payHomeFn   func(local Store) error
	payRemoteFn func(local Store) error
	delFn       func(local Store) error
	osFn        func(local Store) error
	slFn        func(local Store) error

	// Per-transaction parameter blocks and statement scratch, reused
	// across transactions.
	no       noParams
	pay      payParams
	osp      osParams
	sld      int // Stock-Level district
	matches  []int
	lines    []uint64 // order-line values a scan collected
	items    []int    // Stock-Level's distinct items
	futExtra []StmtFuture

	// Prebuilt scan callbacks and the scratch cells they write through,
	// so no statement body builds a capturing closure per call (a
	// captured local escapes to the heap). Terminals are
	// single-goroutine and bodies run one scan at a time, so one cell
	// set suffices.
	matchCB   func(k, v uint64) bool // appends to matches
	delMinCB  func(k, v uint64) bool // records first (minimum) NewOrders key
	linesCB   func(k, v uint64) bool // appends to lines
	delOldest uint64
	delFound  bool

	// Stats.
	NewOrders     uint64
	Payments      uint64
	Deliveries    uint64
	OrderStatuses uint64
	StockLevels   uint64
}

// noParams is one New-Order's pre-drawn parameter block.
type noParams struct {
	w, d, c, lines int
	items          [MaxItemsPerOrder]int
	qtys           [MaxItemsPerOrder]int
	suppliers      [MaxItemsPerOrder]int
}

// payParams is one Payment's pre-drawn parameter block.
type payParams struct {
	w, d, cw, cd, cu int
	amount           uint64
	byName           bool
	name             string
	nameHash         uint32
}

// osParams is one Order-Status' pre-drawn parameter block.
type osParams struct {
	d, cu    int
	byName   bool
	name     string
	nameHash uint32
}

// NewTerminal creates a terminal bound to a home warehouse.
func NewTerminal(cfg Config, store Store, home int, remoteFrac float64, seed int64) (*Terminal, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if home < 1 || home > cfg.Warehouses {
		return nil, fmt.Errorf("tpcc: home warehouse %d out of range", home)
	}
	if remoteFrac < 0 || remoteFrac > 1 {
		return nil, fmt.Errorf("tpcc: remote fraction %v out of [0,1]", remoteFrac)
	}
	t := &Terminal{
		cfg: cfg, store: store, as: AsyncView(store), rng: rand.New(rand.NewSource(seed)),
		home: home, id: uint64(seed) & 0xFFFF, RemoteFrac: remoteFrac,
	}
	t.runner, _ = store.(TxnRunner)
	t.noFn = func(local Store) error { return t.newOrderHome(local, &t.no) }
	t.noRemoteFn = func(local Store) error { return newOrderRemote(local, &t.no) }
	t.payHomeFn = func(local Store) error { return t.paymentHome(local, &t.pay) }
	t.payRemoteFn = func(local Store) error { return t.paymentCustomer(local, &t.pay) }
	t.payFn = func(local Store) error {
		return firstErr(t.paymentHome(local, &t.pay), t.paymentCustomer(local, &t.pay))
	}
	t.delFn = func(local Store) error { return t.execDelivery(t.asyncOn(local)) }
	t.osFn = func(local Store) error { return t.execOrderStatus(local, &t.osp) }
	t.slFn = func(local Store) error { return t.execStockLevel(t.asyncOn(local), t.sld) }
	t.matchCB = func(k, v uint64) bool {
		t.matches = append(t.matches, int(v))
		return true
	}
	t.delMinCB = func(k, v uint64) bool {
		t.delOldest = k
		t.delFound = true
		return false // first key is the minimum
	}
	t.linesCB = func(k, v uint64) bool {
		t.lines = append(t.lines, v)
		return true
	}
	return t, nil
}

// asyncOn returns the AsyncStore view of the store a transaction body should
// run against: the terminal's own pipelined view for its engine store, the
// native view for async-capable local stores, or the terminal's reusable
// eager adapter for the plain warehouse-local store a whole-transaction
// closure receives. Only single-warehouse bodies take the adapter, and a
// terminal runs one transaction at a time, so reusing one adapter is safe.
func (t *Terminal) asyncOn(local Store) AsyncStore {
	if local == t.store {
		return t.as
	}
	if as, ok := local.(AsyncStore); ok {
		return as
	}
	t.wrap.s = local
	return &t.wrap
}

// remoteWarehouse picks a warehouse ≠ home (or home when there is only one).
func (t *Terminal) remoteWarehouse() int {
	if t.cfg.Warehouses == 1 {
		return t.home
	}
	for {
		w := 1 + t.rng.Intn(t.cfg.Warehouses)
		if w != t.home {
			return w
		}
	}
}

// NextTransaction runs one transaction of the paper's NO+P mix (roughly
// equal shares of the 88% the two represent in full TPC-C).
func (t *Terminal) NextTransaction() error {
	if t.rng.Intn(2) == 0 {
		return t.NewOrder()
	}
	return t.Payment()
}

// drawNewOrder pre-draws one New-Order's parameters, consuming the rng in
// the same order as the historical statement-interleaved code.
func (t *Terminal) drawNewOrder() {
	p := &t.no
	p.w = t.home
	p.d = 1 + t.rng.Intn(DistrictsPerWarehouse)
	p.c = 1 + t.rng.Intn(t.cfg.Customers)
	remote := t.rng.Float64() < t.RemoteFrac
	p.lines = 5 + t.rng.Intn(11) // 5–15 lines per the spec
	for i := 0; i < p.lines; i++ {
		p.items[i] = 1 + t.rng.Intn(t.cfg.Items)
		p.qtys[i] = 1 + t.rng.Intn(10)
		p.suppliers[i] = p.w
		if remote && i == 0 {
			p.suppliers[i] = t.remoteWarehouse()
		}
	}
}

// NewOrder executes the TPC-C New-Order transaction: reads warehouse and
// district tax, assigns the order id, inserts the order, records it as the
// customer's latest, inserts its lines with their amounts, and updates
// stock for each line — possibly at a remote supplier warehouse.
// A remote-supplier order runs as a home part and a remote part (the
// remote stock updates), one task per warehouse under a TxnRunner.
func (t *Terminal) NewOrder() error {
	t.drawNewOrder()
	p := &t.no
	var err error
	if sup := p.suppliers[0]; sup != p.w {
		err = t.runSplit(p.w, t.noFn, sup, t.noRemoteFn)
	} else {
		err = t.run(p.w, t.noFn)
	}
	if err == nil {
		t.NewOrders++
	}
	return err
}

// run executes a single-warehouse transaction body: as one task in the
// warehouse's domain under a TxnRunner, directly against the store
// otherwise.
func (t *Terminal) run(w int, fn func(local Store) error) error {
	if t.runner != nil && t.runner.RunsWhole(w) {
		return t.runner.RunTxn(w, fn)
	}
	return fn(t.store)
}

// runSplit executes a cross-warehouse transaction as its home part on w and
// its remote part on rw: one task per warehouse, both in flight at once,
// under a TxnRunner; otherwise directly, the home part first. Both parts run
// either way, and the home part's error wins.
func (t *Terminal) runSplit(w int, home func(local Store) error, rw int, remote func(local Store) error) error {
	if t.runner != nil && t.runner.RunsWhole(w) && t.runner.RunsWhole(rw) {
		return t.runner.RunSplit(w, home, rw, remote)
	}
	return firstErr(home(t.store), remote(t.store))
}

// newOrderHome is New-Order's home part: everything but the stock updates
// of remote-supplier lines. Every statement is issued even after a failure,
// and the first failure in statement order is returned.
func (t *Terminal) newOrderHome(s Store, p *noParams) error {
	w, d := p.w, p.d
	_, okW, errW := s.Get(w, WarehouseTax, uint64(w))
	_, okD, errD := s.Get(w, DistrictTax, DistrictKey(d))
	noid, okO, errO := s.RMW(w, DistrictNextOID, DistrictKey(d), RMWAdd, 1)
	if errW != nil || !okW {
		return orFmt(errW, "new-order: warehouse %d tax missing", w)
	}
	if errD != nil || !okD {
		return orFmt(errD, "new-order: district %d tax missing", d)
	}
	if errO != nil || !okO {
		return orFmt(errO, "new-order: district %d next_o_id missing", d)
	}
	o := int(noid) - 1 // RMW returned the incremented id; this order gets the old one

	_, err := s.Insert(w, Orders, OrderKey(d, o), uint64(p.c))
	if _, e := s.Insert(w, NewOrders, OrderKey(d, o), 1); err == nil {
		err = e
	}
	// The customer's first order inserts its last-order row; the loader
	// adds none.
	_, ok, e := s.RMW(w, CustomerLastOrder, CustomerKey(d, p.c), RMWMax, uint64(o))
	if e == nil && !ok {
		_, e = s.Insert(w, CustomerLastOrder, CustomerKey(d, p.c), uint64(o))
	}
	err = firstErr(err, e)
	for i := 0; i < p.lines; i++ {
		item, qty := p.items[i], p.qtys[i]
		price, okP, eP := s.Get(w, ItemPrice, ItemKey(item))
		var eS error
		if p.suppliers[i] == w {
			eS = updateStock(s, p, i)
		}
		_, eL := s.Insert(w, OrderLines, OrderLineKey(d, o, i+1), PackLine(item, qty, int(price)*qty))
		if err == nil {
			switch {
			case eP != nil:
				err = eP
			case !okP:
				err = fmt.Errorf("new-order: item %d missing", item)
			case eS != nil:
				err = eS
			case eL != nil:
				err = eL
			}
		}
	}
	return err
}

// newOrderRemote is New-Order's remote part: the stock updates of the lines
// a remote warehouse supplies (drawNewOrder gives them one supplier).
func newOrderRemote(s Store, p *noParams) error {
	var err error
	for i := 0; i < p.lines; i++ {
		if p.suppliers[i] != p.w {
			if e := updateStock(s, p, i); err == nil {
				err = e
			}
		}
	}
	return err
}

// updateStock applies line i's two commutative stock updates at its
// supplier: the quantity decrement and the year-to-date credit.
func updateStock(s Store, p *noParams, i int) error {
	sup, item, qty := p.suppliers[i], p.items[i], uint64(p.qtys[i])
	_, ok, err := s.RMW(sup, StockQuantity, StockKey(item), RMWStockDecr, qty)
	_, _, errY := s.RMW(sup, StockYTD, StockKey(item), RMWAdd, qty)
	if err == nil && !ok {
		err = fmt.Errorf("new-order: stock %d/%d missing", sup, item)
	}
	return firstErr(err, errY)
}

// drawPayment pre-draws one Payment's parameters in the historical rng
// order: district, amount, remote customer, name-or-id resolution.
func (t *Terminal) drawPayment() {
	p := &t.pay
	p.w = t.home
	p.d = 1 + t.rng.Intn(DistrictsPerWarehouse)
	p.amount = uint64(100 + t.rng.Intn(500000))
	p.cw, p.cd = p.w, p.d
	if t.rng.Float64() < t.RemoteFrac {
		p.cw = t.remoteWarehouse()
		p.cd = 1 + t.rng.Intn(DistrictsPerWarehouse)
	}
	p.byName = t.rng.Intn(100) < 60
	if p.byName {
		p.name = LastName(nameNumber(1+t.rng.Intn(t.cfg.Customers), t.cfg.Customers))
		p.nameHash = NameHash(p.name)
	} else {
		p.cu = 1 + t.rng.Intn(t.cfg.Customers)
	}
}

// Payment executes the TPC-C Payment transaction: updates warehouse and
// district YTD, appends a history row, resolves the customer (60% by last
// name via the secondary index) and debits the balance. The customer is
// remote with the configured probability; a remote-customer payment runs
// as a home part and a remote part (the customer), one task per warehouse
// under a TxnRunner.
func (t *Terminal) Payment() error {
	t.drawPayment()
	p := &t.pay
	t.seq++ // taken once, before either part runs
	var err error
	if p.cw != p.w {
		err = t.runSplit(p.w, t.payHomeFn, p.cw, t.payRemoteFn)
	} else {
		err = t.run(p.w, t.payFn)
	}
	if err == nil {
		t.Payments++
	}
	return err
}

// paymentHome is Payment's home part: the two YTD credits and the history
// row.
func (t *Terminal) paymentHome(s Store, p *payParams) error {
	_, okW, errW := s.RMW(p.w, WarehouseYTD, uint64(p.w), RMWAdd, p.amount)
	_, okD, errD := s.RMW(p.w, DistrictYTD, DistrictKey(p.d), RMWAdd, p.amount)
	_, errH := s.Insert(p.w, History, HistoryKey(p.d, t.seq<<16|t.id), p.amount)
	switch {
	case errW != nil:
		return errW
	case !okW:
		return fmt.Errorf("payment: warehouse %d ytd missing", p.w)
	case errD != nil:
		return errD
	case !okD:
		return fmt.Errorf("payment: district %d ytd missing", p.d)
	}
	return errH
}

// paymentCustomer is Payment's customer part: resolve the customer — by
// last name, the middle match of the secondary index per the TPC-C
// specification — and debit the balance.
func (t *Terminal) paymentCustomer(s Store, p *payParams) error {
	cu := p.cu
	if p.byName {
		lo, hi := CustomerNameRange(p.cd, p.nameHash)
		t.matches = t.matches[:0]
		if _, err := s.Scan(p.cw, CustomerByName, lo, hi, t.matchCB); err != nil {
			return err
		}
		if len(t.matches) == 0 {
			return fmt.Errorf("payment: no customer named %s in %d/%d", p.name, p.cw, p.cd)
		}
		cu = t.matches[len(t.matches)/2]
	}
	_, ok, err := s.RMW(p.cw, CustomerBalance, CustomerKey(p.cd, cu), RMWAdd, uint64(-int64(p.amount)))
	if err == nil && !ok {
		err = fmt.Errorf("payment: customer %d/%d/%d missing", p.cw, p.cd, cu)
	}
	return err
}

// firstErr returns a if it is non-nil, else b.
func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// orFmt wraps a store error or formats a missing-row failure.
func orFmt(err error, format string, args ...any) error {
	if err != nil {
		return err
	}
	return fmt.Errorf(format, args...)
}
