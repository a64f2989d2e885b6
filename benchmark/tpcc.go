package main

import (
	"fmt"
	"os"
	"sync/atomic"

	"robustconf"
	"robustconf/internal/index"
	"robustconf/internal/index/fptree"
	"robustconf/internal/oltp"
	"robustconf/internal/tpcc"
)

// tpccWorkload runs the full five-transaction mix through the delegated
// engine in whole-transaction mode: two warehouses, one domain of one
// worker each, two terminals (one homed at each warehouse), 5 % of
// transactions remote. With walRoot set every mutation is logged to a
// batch-fsynced write-ahead log under it, checkpointed at the default
// 200 ms cadence.
type tpccWorkload struct {
	walRoot string

	walDir  string
	engine  *oltp.Engine
	stores  [tpccTerminals]*oltp.SessionStore
	traced  [tpccTerminals]*tracedStore
	terms   [tpccTerminals]*tpcc.Terminal
	draws   [tpccTerminals]rng
	cbufs   [tpccTerminals]*spanBuf
	sampled []*sampledIndex
}

const (
	tpccTerminals    = 2
	tpccRemote       = 0.05
	preflightTxns    = 2000
	indexSampleEvery = 8
	// tpccBurst is each terminal's slot window per domain. Both terminals
	// reach both domains (remote transactions), and a one-worker domain has
	// 15 slots, so 7 is the widest window two terminals can both hold.
	tpccBurst = 7
)

var tpccScale = tpcc.Config{Warehouses: tpccTerminals, Customers: 300, Items: 1000}

// Transaction types, in the order of the specification's mix; the window
// tag, so latencies can be grouped by type.
const (
	txnNewOrder uint8 = iota
	txnPayment
	txnOrderStatus
	txnDelivery
	txnStockLevel
	numTxnTypes
)

var txnNames = [numTxnTypes]string{"new_order", "payment", "order_status", "delivery", "stock_level"}

// drawTxn picks a transaction type with the specification's weights
// (45/43/4/4/4) from the benchmark's own seeded stream.
func drawTxn(r *rng) uint8 {
	switch p := r.below(100); {
	case p < 45:
		return txnNewOrder
	case p < 88:
		return txnPayment
	case p < 92:
		return txnOrderStatus
	case p < 96:
		return txnDelivery
	}
	return txnStockLevel
}

func runTxn(t *tpcc.Terminal, typ uint8) error {
	switch typ {
	case txnNewOrder:
		return t.NewOrder()
	case txnPayment:
		return t.Payment()
	case txnOrderStatus:
		return t.OrderStatus()
	case txnDelivery:
		return t.Delivery()
	}
	return t.StockLevel()
}

// terminalSeed gives every terminal of a run its own stream and its own low
// 16 bits, which the terminal uses as the id that namespaces its history
// rows. lane 0 is the preflight terminal.
func terminalSeed(seed uint64, lane int) int64 { return int64(seed&(1<<40-1))<<16 | int64(lane) }

func (w *tpccWorkload) generators() int   { return tpccTerminals }
func (w *tpccWorkload) opsPerWindow() int { return 1 }

func (w *tpccWorkload) describe() workloadShape {
	return workloadShape{Clients: tpccTerminals, Workers: tpccTerminals, Window: 1, Structure: "FP-Tree",
		Records: uint64(tpccScale.Warehouses * (10*tpccScale.Customers*2 + tpccScale.Items*3)),
		Mix:     "TPC-C full mix 45/43/4/4/4, 5% remote, whole-transaction mode"}
}

func newFPTree() index.Index { return fptree.New() }

// engineConfig is oltp.EvenConfig with each warehouse domain cut to one
// worker, arenas and interleaved sweeps on.
func (w *tpccWorkload) engineConfig() (robustconf.Config, error) {
	rc, err := oltp.EvenConfig(tpccScale, robustconf.Machine(1))
	if err != nil {
		return rc, err
	}
	for i := range rc.Domains {
		rc.Domains[i].CPUs = robustconf.CPUs(rc.Domains[i].CPUs.IDs()[0])
	}
	rc.Arena = robustconf.ArenaConfig{Enabled: true}
	rc.BatchExec = robustconf.BatchExecConfig{Enabled: true, Width: batchWidth}
	if w.walRoot != "" {
		if err := os.MkdirAll(w.walRoot, 0o755); err != nil {
			return rc, err
		}
		if w.walDir, err = os.MkdirTemp(w.walRoot, "wal-"); err != nil {
			return rc, err
		}
		rc.WAL = robustconf.WALConfig{Dir: w.walDir, Fsync: robustconf.FsyncBatch}
	}
	return rc, nil
}

func (w *tpccWorkload) setup(seed uint64, tr *tracing) error {
	rc, err := w.engineConfig()
	if err != nil {
		return err
	}
	newIndex := newFPTree
	if tr != nil {
		newIndex = func() index.Index {
			x := &sampledIndex{inner: fptree.New()}
			w.sampled = append(w.sampled, x)
			return x
		}
	}
	if w.engine, err = oltp.NewEngineWithConfig(tpccScale, newIndex, rc); err != nil {
		return err
	}
	boot, err := w.engine.NewStoreMode(0, tpccBurst, oltp.ModeWholeTxn)
	if err != nil {
		return err
	}
	load := &pipelinedLoad{SessionStore: boot}
	if err := loadTPCC(load, seed); err != nil {
		return err
	}
	if err := load.drain(); err != nil {
		return err
	}
	if err := w.preflight(boot, seed); err != nil {
		return err
	}
	if err := boot.Close(); err != nil {
		return err
	}
	for g := range w.terms {
		if w.stores[g], err = w.engine.NewStoreMode(g, tpccBurst, oltp.ModeWholeTxn); err != nil {
			return err
		}
		var store tpcc.Store = w.stores[g]
		if tr != nil {
			w.traced[g] = newTracedStore(w.stores[g], tr)
			store = w.traced[g]
		}
		if w.terms[g], err = tpcc.NewTerminal(tpccScale, store, g+1, tpccRemote, terminalSeed(seed, g+1)); err != nil {
			return err
		}
		w.draws[g] = newRNG(seed, uint64(g))
		w.cbufs[g] = tr.clientBuf(g)
	}
	return nil
}

// loadTPCC populates a store with the seeded initial database.
func loadTPCC(store tpcc.Store, seed uint64) error {
	loader, err := tpcc.NewLoader(tpccScale, int64(seed))
	if err != nil {
		return err
	}
	return loader.Load(store)
}

// pipelinedLoad feeds the loader's inserts through the store's pipelined
// statements, a burst in flight at a time; drain waits for the last burst. On the logged engine one group
// commit then covers a burst of rows; issued one by one, each of the
// ~20 000 rows would wait for its own fsync.
type pipelinedLoad struct {
	*oltp.SessionStore
	pending [tpccBurst]tpcc.StmtFuture
	n       int
}

func (p *pipelinedLoad) Insert(w int, t tpcc.Table, key, val uint64) (bool, error) {
	if p.n == len(p.pending) {
		if err := p.drain(); err != nil {
			return false, err
		}
	}
	p.pending[p.n] = p.SessionStore.InsertAsync(w, t, key, val)
	p.n++
	return true, nil
}

func (p *pipelinedLoad) drain() error {
	var first error
	for _, f := range p.pending[:p.n] {
		if _, ok, err := f.Value(); first == nil && (err != nil || !ok) {
			first = fmt.Errorf("load insert: inserted %v err %v", ok, err)
		}
	}
	p.n = 0
	return first
}

// preflight is the correctness check of the transaction path: the same
// seeded single-terminal trace runs on the engine about to be measured and
// on the direct (undelegated) engine, and every table of every warehouse
// must end up with the same contents. Every conflicting write is a
// commutative read-modify-write, so equality is exact.
func (w *tpccWorkload) preflight(store *oltp.SessionStore, seed uint64) error {
	direct, err := oltp.NewDirectEngine(tpccScale, newFPTree)
	if err != nil {
		return err
	}
	if err := loadTPCC(direct, seed); err != nil {
		return err
	}
	draw := [2]rng{newRNG(seed, 99), newRNG(seed, 99)}
	for i, s := range []tpcc.Store{store, direct} {
		term, err := tpcc.NewTerminal(tpccScale, s, 1, 0.3, terminalSeed(seed, 0))
		if err != nil {
			return err
		}
		for n := 0; n < preflightTxns; n++ {
			if err := runTxn(term, drawTxn(&draw[i])); err != nil {
				return fmt.Errorf("preflight txn %d: %w", n, err)
			}
		}
	}
	for wh := 1; wh <= tpccScale.Warehouses; wh++ {
		for _, tb := range tpcc.Tables {
			got, n := tableChecksum(w.engine.Warehouse(wh).Table(tb))
			want, m := tableChecksum(direct.Warehouse(wh).Table(tb))
			if got != want || n != m {
				return fmt.Errorf("preflight: table %s of warehouse %d diverged from the direct engine (%d vs %d rows)", tb, wh, n, m)
			}
		}
	}
	return nil
}

// tableChecksum folds a table's contents order-insensitively.
func tableChecksum(tb index.Index) (sum uint64, rows int) {
	tb.(index.Ranger).Scan(0, ^uint64(0), func(k, v uint64) bool {
		h := uint64(14695981039346656037)
		h = (h ^ k) * 1099511628211
		h = (h ^ v) * 1099511628211
		sum += h
		rows++
		return true
	}, nil)
	return sum, rows
}

func (w *tpccWorkload) teardown() {
	for _, s := range w.stores {
		if s != nil {
			s.Close()
		}
	}
	if w.engine != nil {
		w.engine.Stop()
	}
	if w.walDir != "" {
		os.RemoveAll(w.walDir)
	}
	*w = tpccWorkload{walRoot: w.walRoot}
}

func (w *tpccWorkload) window(g int, id int32, sampled bool, t0 int64) (int64, int, uint8) {
	typ := drawTxn(&w.draws[g])
	ts := w.traced[g]
	if ts != nil {
		ts.window, ts.sampled, ts.ran = id, sampled, false
	}
	failed := 0
	if err := runTxn(w.terms[g], typ); err != nil {
		failed = 1
	}
	t1 := nanos()
	if ts != nil && sampled {
		w.cbufs[g].add(spanWindow, id, t0, t1)
		if ts.ran {
			w.cbufs[g].add(spanIssue, id, t0, ts.entered)
			w.cbufs[g].add(spanAwait, id, ts.entered, ts.left)
		}
	}
	return t1, failed, typ
}

// walCommitted sums the group-committed record count over the domains.
func (w *tpccWorkload) walCommitted() uint64 {
	var n uint64
	for _, d := range w.engine.Runtime().Domains() {
		n += d.WALStats().Committed
	}
	return n
}

// tracedStore stands between a terminal and its session store and records
// the whole-transaction round trip (await) and, from the worker's side, the
// transaction body it waits for (exec). Every other statement passes
// through the embedded store untouched.
type tracedStore struct {
	*oltp.SessionStore
	window  int32
	sampled bool
	ran     bool
	entered int64
	left    int64
	fn      func(local tpcc.Store) error
	body    func(local tpcc.Store) error
	wbuf    *spanBuf
}

func newTracedStore(inner *oltp.SessionStore, tr *tracing) *tracedStore {
	s := &tracedStore{SessionStore: inner, wbuf: tr.workerBuf()}
	s.body = func(local tpcc.Store) error {
		t0 := nanos()
		err := s.fn(local)
		s.wbuf.add(spanExec, s.window, t0, nanos())
		return err
	}
	return s
}

func (s *tracedStore) RunTxn(w int, fn func(local tpcc.Store) error) error {
	if !s.sampled {
		return s.SessionStore.RunTxn(w, fn)
	}
	s.fn = fn
	s.entered = nanos()
	err := s.SessionStore.RunTxn(w, s.body)
	s.left = nanos()
	s.ran = true
	return err
}

// sampledIndex times every indexSampleEvery-th call into a table's index.
// A transaction makes some thirty index calls of ~100 ns each; stamping all
// of them would cost more than the 10 % the trace is allowed, so the index
// share on tpcc.* comes from this sampled count, taken at the boundary.
// Each timed call is credited net of one clock read, which at these call
// lengths would otherwise be a fifth of the figure.
type sampledIndex struct {
	inner index.Index
	calls atomic.Uint64
	ns    atomic.Int64
}

// begin returns the start clock of a sampled call, or 0 for a call that is
// not sampled.
func (x *sampledIndex) begin() int64 {
	if x.calls.Add(1)%indexSampleEvery != 0 {
		return 0
	}
	return nanos()
}

func (x *sampledIndex) end(t0 int64) {
	if t0 != 0 {
		x.ns.Add(nanos() - t0 - clockReadNs)
	}
}

func (x *sampledIndex) Name() string         { return x.inner.Name() }
func (x *sampledIndex) Scheme() index.Scheme { return x.inner.Scheme() }
func (x *sampledIndex) Len() int             { return x.inner.Len() }

func (x *sampledIndex) Get(k uint64, st *index.OpStats) (uint64, bool) {
	t0 := x.begin()
	v, ok := x.inner.Get(k, st)
	x.end(t0)
	return v, ok
}

func (x *sampledIndex) Insert(k, v uint64, st *index.OpStats) bool {
	t0 := x.begin()
	ok := x.inner.Insert(k, v, st)
	x.end(t0)
	return ok
}

func (x *sampledIndex) Update(k, v uint64, st *index.OpStats) bool {
	t0 := x.begin()
	ok := x.inner.Update(k, v, st)
	x.end(t0)
	return ok
}

func (x *sampledIndex) Delete(k uint64, st *index.OpStats) bool {
	t0 := x.begin()
	ok := x.inner.Delete(k, st)
	x.end(t0)
	return ok
}

func (x *sampledIndex) Scan(lo, hi uint64, fn func(k, v uint64) bool, st *index.OpStats) int {
	t0 := x.begin()
	n := x.inner.(index.Ranger).Scan(lo, hi, fn, st)
	x.end(t0)
	return n
}

// indexNanos estimates the time spent inside index calls since the
// counters were last reset: the sampled time scaled by the sampling rate.
func (w *tpccWorkload) indexNanos() int64 {
	var ns int64
	for _, x := range w.sampled {
		ns += x.ns.Load() * indexSampleEvery
	}
	return ns
}

func (w *tpccWorkload) resetIndexNanos() {
	for _, x := range w.sampled {
		x.ns.Store(0)
	}
}
