// Package oltp provides the two OLTP engines of the paper's Experiment 3,
// both executing the tpcc package's transaction logic over per-warehouse
// partitions of index structures:
//
//   - Engine (the paper's light-weight engine): every statement is an
//     asynchronous data-aware task delegated through the core runtime to
//     the virtual domain owning the warehouse's composite data structure.
//
//   - DirectEngine (the SN-NUMA baseline in the style of Porobic et al.):
//     transaction manager threads execute statements directly against the
//     partitioned structures, with no delegation.
//
// Neither engine implements concurrency control beyond the structures'
// latches, matching the paper's setup (Section 3.3): data races are
// prevented, higher anomalies (e.g. lost updates) are not.
package oltp

import (
	"encoding/binary"
	"fmt"

	"robustconf/internal/config"
	"robustconf/internal/core"
	"robustconf/internal/index"
	"robustconf/internal/sim"
	"robustconf/internal/topology"
	"robustconf/internal/tpcc"
	"robustconf/internal/workload"
)

// Warehouse is the composite data structure of one warehouse: its tables
// and indexes, co-located so transactions rarely cross domains (the
// co-location constraint of Section 5.2). It implements core.Durable (see
// wal.go), so a WAL-enabled runtime checkpoints and replays it.
type Warehouse struct {
	tables   [tpcc.NumTables]index.Index
	newIndex func() index.Index     // retained for WALRestore rebuilds
	snap     []byte                 // WALSnapshot's frame buffer, retained
	snapKV   func(k, v uint64) bool // appendSnap, bound once so snapshots allocate nothing
}

// NewWarehouse builds the composite structure with one index per table.
func NewWarehouse(newIndex func() index.Index) *Warehouse {
	w := &Warehouse{newIndex: newIndex}
	w.snapKV = w.appendSnap
	for _, t := range tpcc.Tables {
		w.tables[t] = newIndex()
	}
	return w
}

// appendSnap is WALSnapshot's scan collector: it appends one record to
// the frame buffer.
func (w *Warehouse) appendSnap(k, v uint64) bool {
	w.snap = binary.LittleEndian.AppendUint64(w.snap, k)
	w.snap = binary.LittleEndian.AppendUint64(w.snap, v)
	return true
}

// Table returns the index backing one table.
func (w *Warehouse) Table(t tpcc.Table) index.Index { return w.tables[t] }

// ranger returns table t as an ordered index, or an error naming the
// structure that backs it when it has no range scan.
func (w *Warehouse) ranger(t tpcc.Table) (index.Ranger, error) {
	r, ok := w.tables[t].(index.Ranger)
	if !ok {
		return nil, fmt.Errorf("oltp: table %s is a %s, not an ordered index", t, w.tables[t].Name())
	}
	return r, nil
}

// scan runs a range scan on an ordered table.
func (w *Warehouse) scan(t tpcc.Table, lo, hi uint64, fn func(k, v uint64) bool) (int, error) {
	r, err := w.ranger(t)
	if err != nil {
		return 0, err
	}
	return r.Scan(lo, hi, fn, nil), nil
}

// DirectEngine is the shared-nothing baseline: statements execute in the
// calling goroutine, directly on the warehouse partition.
type DirectEngine struct {
	cfg        tpcc.Config
	warehouses []*Warehouse
}

// NewDirectEngine builds the baseline engine.
func NewDirectEngine(cfg tpcc.Config, newIndex func() index.Index) (*DirectEngine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &DirectEngine{cfg: cfg}
	for w := 0; w < cfg.Warehouses; w++ {
		e.warehouses = append(e.warehouses, NewWarehouse(newIndex))
	}
	return e, nil
}

// Warehouse exposes a partition (1-based id) for verification.
func (e *DirectEngine) Warehouse(w int) *Warehouse { return e.warehouses[w-1] }

func (e *DirectEngine) at(w int) (*Warehouse, error) {
	if w < 1 || w > len(e.warehouses) {
		return nil, fmt.Errorf("oltp: warehouse %d out of range", w)
	}
	return e.warehouses[w-1], nil
}

// Get implements tpcc.Store.
func (e *DirectEngine) Get(w int, t tpcc.Table, key uint64) (uint64, bool, error) {
	wh, err := e.at(w)
	if err != nil {
		return 0, false, err
	}
	v, ok := wh.tables[t].Get(key, nil)
	return v, ok, nil
}

// Update implements tpcc.Store.
func (e *DirectEngine) Update(w int, t tpcc.Table, key, val uint64) (bool, error) {
	wh, err := e.at(w)
	if err != nil {
		return false, err
	}
	return wh.tables[t].Update(key, val, nil), nil
}

// Insert implements tpcc.Store.
func (e *DirectEngine) Insert(w int, t tpcc.Table, key, val uint64) (bool, error) {
	wh, err := e.at(w)
	if err != nil {
		return false, err
	}
	return wh.tables[t].Insert(key, val, nil), nil
}

// Delete implements tpcc.Store.
func (e *DirectEngine) Delete(w int, t tpcc.Table, key uint64) (bool, error) {
	wh, err := e.at(w)
	if err != nil {
		return false, err
	}
	return wh.tables[t].Delete(key, nil), nil
}

// Scan implements tpcc.Store.
func (e *DirectEngine) Scan(w int, t tpcc.Table, lo, hi uint64, fn func(k, v uint64) bool) (int, error) {
	wh, err := e.at(w)
	if err != nil {
		return 0, err
	}
	return wh.scan(t, lo, hi, fn)
}

// RMW implements tpcc.Store. Like every baseline statement it runs in the
// calling goroutine through index.Modify: on a structure with a native
// Modify (the FP-Tree) the read-modify-write is atomic under the structure's
// own synchronisation; elsewhere it is a Get then an Update, which
// concurrent manager threads may interleave. Either way there is no
// concurrency control across statements, as in the paper's baseline.
func (e *DirectEngine) RMW(w int, t tpcc.Table, key uint64, kind tpcc.RMWKind, delta uint64) (uint64, bool, error) {
	wh, err := e.at(w)
	if err != nil {
		return 0, false, err
	}
	nv, ok := index.Modify(wh.tables[t], key, kind.Func(), delta, nil)
	return nv, ok, nil
}

// Engine is the paper's light-weight OLTP engine: warehouses are registered
// as composite structures with the runtime, and every statement is executed
// as a delegated task inside the owning virtual domain.
type Engine struct {
	cfg        tpcc.Config
	rt         *core.Runtime
	warehouses []*Warehouse
	names      []string // cached structureName(w) per warehouse (hot path)
	logged     bool     // runtime has a WAL: mutating statements carry effect records
}

// name returns the cached structure name of a (validated) warehouse id.
func (e *Engine) name(w int) string { return e.names[w-1] }

// structureName names a warehouse's composite structure in the runtime.
func structureName(w int) string { return fmt.Sprintf("warehouse-%d", w) }

// EvenConfig builds the even-split runtime configuration NewEngine uses:
// one virtual domain per warehouse over an even CPU partition. Callers that
// need to adjust the config before starting (attach an observer, inject
// fault counters) build it here and pass it to NewEngineWithConfig.
func EvenConfig(cfg tpcc.Config, m *topology.Machine) (core.Config, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	domains := cfg.Warehouses
	if domains > m.LogicalCPUs() {
		return core.Config{}, fmt.Errorf("oltp: %d warehouses need at least as many CPUs (machine has %d)", domains, m.LogicalCPUs())
	}
	parts, err := topology.PartitionEven(m, m.LogicalCPUs(), m.LogicalCPUs()/domains)
	if err != nil {
		return core.Config{}, err
	}
	rc := core.Config{Machine: m, Assignment: map[string]int{}}
	for i := 0; i < domains; i++ {
		rc.Domains = append(rc.Domains, core.DomainSpec{
			Name: fmt.Sprintf("wh-domain-%d", i),
			CPUs: parts[i],
		})
		rc.Assignment[structureName(i+1)] = i
	}
	return rc, nil
}

// NewEngine starts the delegated engine on the machine, spreading the
// warehouse composites over one virtual domain per warehouse (even CPU
// split). For finer control, build a core.Config with the config package
// (or EvenConfig) and use NewEngineWithConfig.
func NewEngine(cfg tpcc.Config, newIndex func() index.Index, m *topology.Machine) (*Engine, error) {
	rc, err := EvenConfig(cfg, m)
	if err != nil {
		return nil, err
	}
	return NewEngineWithConfig(cfg, newIndex, rc)
}

// NewEngineComposed starts the delegated engine with a configuration
// produced by the paper's configuration procedure (Section 3.3: "configure
// tables into virtual domains with the procedure outlined in Section 5"):
// each warehouse is one composite instance whose tables and indexes are
// co-located, calibrated for the structure kind under the TPC-C-like
// read-update mix, and composed into optimally sized domains.
func NewEngineComposed(cfg tpcc.Config, newIndex func() index.Index, kind sim.StructureKind, m *topology.Machine) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	instances := make([]config.Instance, cfg.Warehouses)
	for w := 1; w <= cfg.Warehouses; w++ {
		instances[w-1] = config.Instance{
			Name: structureName(w),
			Kind: kind,
			Mix:  workload.A, // TPC-C statements are a read-update-heavy mix
			Load: 1,
		}
	}
	plan, err := config.Compose(instances, m.LogicalCPUs(), nil)
	if err != nil {
		return nil, err
	}
	rc, err := config.Materialise(plan, m)
	if err != nil {
		return nil, err
	}
	return NewEngineWithConfig(cfg, newIndex, rc)
}

// NewEngineWithConfig starts the delegated engine under an explicit runtime
// configuration; the configuration must assign structureName(w) for every
// warehouse w in 1..cfg.Warehouses.
func NewEngineWithConfig(cfg tpcc.Config, newIndex func() index.Index, rc core.Config) (*Engine, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, logged: rc.WAL.Enabled()}
	structures := map[string]any{}
	for w := 1; w <= cfg.Warehouses; w++ {
		wh := NewWarehouse(newIndex)
		e.warehouses = append(e.warehouses, wh)
		e.names = append(e.names, structureName(w))
		structures[structureName(w)] = wh
	}
	rt, err := core.Start(rc, structures)
	if err != nil {
		return nil, err
	}
	e.rt = rt
	return e, nil
}

// Runtime exposes the underlying runtime (for stats and reconfiguration).
func (e *Engine) Runtime() *core.Runtime { return e.rt }

// Warehouse exposes a partition (1-based id) for verification.
func (e *Engine) Warehouse(w int) *Warehouse { return e.warehouses[w-1] }

// Stop drains and stops the runtime.
func (e *Engine) Stop() { e.rt.Stop() }

// ExecMode once selected how a SessionStore mapped statements onto
// delegated tasks.
//
// Deprecated: whole-transaction delegation is the only mapping; ExecMode is
// kept so existing callers of NewStoreMode still compile.
type ExecMode int

// ModeWholeTxn is the one execution mode.
//
// Deprecated: see ExecMode.
const ModeWholeTxn ExecMode = 2

// NewStore opens a session-backed store for one terminal goroutine. The
// returned store is not safe for concurrent use (one per terminal, as one
// client thread); close it when the terminal finishes.
func (e *Engine) NewStore(cpu, burst int) (*SessionStore, error) {
	sess, err := e.rt.NewSession(cpu, burst)
	if err != nil {
		return nil, err
	}
	s := &SessionStore{engine: e, session: sess}
	// Prebuilt in-domain scan closures, one pair per store lifetime, so
	// the hot paths allocate nothing per call (whole-transaction tasks
	// need none: runPart takes its part as the task argument).
	s.scanCB = func(k, v uint64) bool {
		s.scanBuf = append(s.scanBuf, kvPair{k, v})
		return true
	}
	s.scanOp = func(ds any) any {
		wh := ds.(*Warehouse)
		s.scanBuf = s.scanBuf[:0]
		if _, err := wh.scan(s.scanT, s.scanLo, s.scanHi, s.scanCB); err != nil {
			return err
		}
		return nil
	}
	if e.logged {
		// A part's writes accumulate effects; encPart reads them after the
		// part returns, on the same worker within the same sweep.
		s.home.local.eff = &s.home.effects
		s.remote.local.eff = &s.remote.effects
	}
	return s, nil
}

// NewStoreMode opens a store exactly like NewStore; mode is ignored.
//
// Deprecated: use NewStore.
func (e *Engine) NewStoreMode(cpu, burst int, _ ExecMode) (*SessionStore, error) {
	return e.NewStore(cpu, burst)
}

// SessionStore adapts one runtime session to the tpcc statement interfaces
// (DESIGN.md §11). It implements tpcc.TxnRunner: a single-warehouse
// transaction ships into the owning domain as one task, a cross-warehouse
// one as one task per warehouse (RunSplit). Its tpcc.AsyncStore statements
// serve callers outside transactions, such as a pipelined bulk load.
type SessionStore struct {
	engine  *Engine
	session *core.Session

	pool *stmtFuture // recycled statement futures

	// Scan scratch: the in-domain collector appends into scanBuf, the
	// client replays it; both sides reuse the buffer across calls.
	scanBuf        []kvPair
	scanT          tpcc.Table
	scanLo, scanHi uint64
	scanCB         func(k, v uint64) bool
	scanOp         func(ds any) any

	// Whole-transaction tasks: RunTxn posts home, RunSplit home and
	// remote, which may then run concurrently on two domains' workers.
	home, remote txnPart
}

// txnPart is one whole-transaction task's state, valid while the task is
// in flight: the closure, the warehouse-local store it runs against and,
// on a logged engine, the effect records its writes accumulate (worker
// side, inside the task) for encPart to copy into the WAL staging buffer.
type txnPart struct {
	fn      func(local tpcc.Store) error
	local   domainStore
	effects []byte
}

// runPart is the one task op of whole-transaction delegation: the part
// travels as the task argument, so posting allocates nothing.
func runPart(ds, arg any) any {
	p := arg.(*txnPart)
	p.local.wh = ds.(*Warehouse)
	p.effects = p.effects[:0]
	err := p.fn(&p.local)
	p.local.wh = nil
	return err // a nil error converts to a nil any
}

// encPart is runPart's WAL encoder: one record carries every effect of the
// part.
func encPart(dst []byte, arg any) []byte { return append(dst, arg.(*txnPart).effects...) }

// kvPair is one collected scan match.
type kvPair struct{ k, v uint64 }

// stmtKind tags the operation a stmtFuture carries.
type stmtKind uint8

const (
	stGet stmtKind = iota
	stUpdate
	stInsert
	stDelete
	stRMW
)

// stmtFuture is one issued statement: the argument block the worker reads
// and the result block it writes. It doubles as the tpcc.StmtFuture handle;
// Value recycles it into the store's pool (consume-once).
type stmtFuture struct {
	store *SessionStore
	af    *core.AsyncFuture // nil once consumed
	kind  stmtKind
	table tpcc.Table
	key   uint64
	arg   uint64 // value for writes, delta for RMW
	rmw   tpcc.RMWKind
	val   uint64
	ok    bool
	err   error
	next  *stmtFuture
}

// exec runs the statement inside the owning domain.
func (f *stmtFuture) exec(wh *Warehouse) {
	tb := wh.tables[f.table]
	switch f.kind {
	case stGet:
		f.val, f.ok = tb.Get(f.key, nil)
	case stUpdate:
		f.ok = tb.Update(f.key, f.arg, nil)
	case stInsert:
		f.ok = tb.Insert(f.key, f.arg, nil)
	case stDelete:
		f.ok = tb.Delete(f.key, nil)
	case stRMW:
		f.val, f.ok = index.Modify(tb, f.key, f.rmw.Func(), f.arg, nil)
	}
}

// execStmt is the one shared task op of the pipelined path: the statement
// travels as the task argument, so posting allocates nothing.
func execStmt(ds, arg any) any {
	arg.(*stmtFuture).exec(ds.(*Warehouse))
	return nil
}

// getStmt takes a statement future from the pool.
func (s *SessionStore) getStmt() *stmtFuture {
	f := s.pool
	if f == nil {
		f = &stmtFuture{store: s}
	} else {
		s.pool = f.next
	}
	f.af, f.next = nil, nil
	f.val, f.ok, f.err = 0, false, nil
	return f
}

// issue posts one statement as a pipelined task and returns its future.
// Routing errors are carried in the future (Value surfaces them), so
// transaction code consumes every future uniformly.
func (s *SessionStore) issue(w int, kind stmtKind, t tpcc.Table, key, arg uint64, rmw tpcc.RMWKind) *stmtFuture {
	f := s.getStmt()
	f.kind, f.table, f.key, f.arg, f.rmw = kind, t, key, arg, rmw
	if w < 1 || w > s.engine.cfg.Warehouses {
		f.err = fmt.Errorf("oltp: warehouse %d out of range", w)
		return f
	}
	var af *core.AsyncFuture
	var err error
	if s.engine.logged && kind != stGet {
		// Logged mutation: the future completes only after the effect
		// record's group commit, so Value returning nil means durable.
		af, err = s.session.SubmitAsyncLogged(s.engine.name(w), execStmt, f, encStmtEffect)
	} else {
		af, err = s.session.SubmitAsync(s.engine.name(w), execStmt, f)
	}
	if err != nil {
		f.err = err
		return f
	}
	f.af = af
	return f
}

// Value implements tpcc.StmtFuture: it waits for the statement, returns the
// result and recycles the handle.
func (f *stmtFuture) Value() (uint64, bool, error) {
	s := f.store
	if f.af != nil {
		if _, err := f.af.Wait(); err != nil && f.err == nil {
			f.err = err
		}
		f.af = nil
	}
	v, ok, err := f.val, f.ok, f.err
	f.next = s.pool
	s.pool = f
	return v, ok, err
}

// syncWrites makes every already-issued write for a warehouse visible before
// an operation that must observe it (Scan, a whole-transaction task).
func (s *SessionStore) syncWrites(w int) error {
	return s.session.Barrier(s.engine.name(w))
}

// Get implements tpcc.Store.
func (s *SessionStore) Get(w int, t tpcc.Table, key uint64) (uint64, bool, error) {
	return s.issue(w, stGet, t, key, 0, 0).Value()
}

// Update implements tpcc.Store.
func (s *SessionStore) Update(w int, t tpcc.Table, key, val uint64) (bool, error) {
	_, ok, err := s.issue(w, stUpdate, t, key, val, 0).Value()
	return ok, err
}

// Insert implements tpcc.Store.
func (s *SessionStore) Insert(w int, t tpcc.Table, key, val uint64) (bool, error) {
	_, ok, err := s.issue(w, stInsert, t, key, val, 0).Value()
	return ok, err
}

// Delete implements tpcc.Store.
func (s *SessionStore) Delete(w int, t tpcc.Table, key uint64) (bool, error) {
	_, ok, err := s.issue(w, stDelete, t, key, 0, 0).Value()
	return ok, err
}

// RMW implements tpcc.Store: the whole read-modify-write is one task inside
// the owning domain.
func (s *SessionStore) RMW(w int, t tpcc.Table, key uint64, kind tpcc.RMWKind, delta uint64) (uint64, bool, error) {
	return s.issue(w, stRMW, t, key, delta, kind).Value()
}

// GetAsync implements tpcc.AsyncStore.
func (s *SessionStore) GetAsync(w int, t tpcc.Table, key uint64) tpcc.StmtFuture {
	return s.issue(w, stGet, t, key, 0, 0)
}

// UpdateAsync implements tpcc.AsyncStore.
func (s *SessionStore) UpdateAsync(w int, t tpcc.Table, key, val uint64) tpcc.StmtFuture {
	return s.issue(w, stUpdate, t, key, val, 0)
}

// InsertAsync implements tpcc.AsyncStore.
func (s *SessionStore) InsertAsync(w int, t tpcc.Table, key, val uint64) tpcc.StmtFuture {
	return s.issue(w, stInsert, t, key, val, 0)
}

// DeleteAsync implements tpcc.AsyncStore.
func (s *SessionStore) DeleteAsync(w int, t tpcc.Table, key uint64) tpcc.StmtFuture {
	return s.issue(w, stDelete, t, key, 0, 0)
}

// RMWAsync implements tpcc.AsyncStore.
func (s *SessionStore) RMWAsync(w int, t tpcc.Table, key uint64, kind tpcc.RMWKind, delta uint64) tpcc.StmtFuture {
	return s.issue(w, stRMW, t, key, delta, kind)
}

// Scan implements tpcc.Store. The whole scan executes as a single task
// inside the owning domain — a more complex operation on one structure, as
// Section 4 permits — collecting matches into the store's reusable scratch
// buffer; the client replays them into fn after the future resolves.
func (s *SessionStore) Scan(w int, t tpcc.Table, lo, hi uint64, fn func(k, v uint64) bool) (int, error) {
	if w < 1 || w > s.engine.cfg.Warehouses {
		return 0, fmt.Errorf("oltp: warehouse %d out of range", w)
	}
	if err := s.syncWrites(w); err != nil {
		return 0, err
	}
	s.scanT, s.scanLo, s.scanHi = t, lo, hi
	out, err := s.session.Invoke(core.Task{Structure: s.engine.name(w), Op: s.scanOp})
	if err != nil {
		return 0, err
	}
	if scanErr, isErr := out.(error); isErr {
		return 0, scanErr
	}
	buf := s.scanBuf
	s.scanBuf = nil // a nested scan from fn grows its own buffer
	n := 0
	for _, m := range buf {
		n++
		if !fn(m.k, m.v) {
			break
		}
	}
	s.scanBuf = buf[:0]
	return n, nil
}

// RunsWhole implements tpcc.TxnRunner: whole-transaction delegation applies
// to every warehouse this engine owns.
func (s *SessionStore) RunsWhole(w int) bool {
	return w >= 1 && w <= s.engine.cfg.Warehouses
}

// RunTxn implements tpcc.TxnRunner: the whole transaction closure ships into
// the warehouse's domain as one data-aware task and executes against a
// warehouse-local store, cutting the per-transaction round trips to one.
func (s *SessionStore) RunTxn(w int, fn func(local tpcc.Store) error) error {
	if !s.RunsWhole(w) {
		return fn(s)
	}
	f, err := s.post(w, &s.home, fn)
	if err != nil {
		return err
	}
	return wait(f, &s.home)
}

// RunSplit implements tpcc.TxnRunner: the home part ships into w's domain
// and the remote part into rw's, each as one whole-transaction task, and
// both are posted before either is awaited — so on a logged engine the two
// records can share their domains' flushes with whatever else is ready.
// Each part is atomic and durable in its own domain; neither waits for the
// other. A plain store runs the same two parts one after the other.
func (s *SessionStore) RunSplit(w int, fn func(local tpcc.Store) error, rw int, rfn func(local tpcc.Store) error) error {
	if !s.RunsWhole(w) || !s.RunsWhole(rw) {
		return firstErr(fn(s), rfn(s))
	}
	fh, err := s.post(w, &s.home, fn)
	if err != nil {
		return err
	}
	fr, err := s.post(rw, &s.remote, rfn)
	if err == nil {
		err = wait(fr, &s.remote)
	}
	return firstErr(wait(fh, &s.home), err)
}

// firstErr returns a if it is non-nil, else b.
func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// post submits fn as part p's task in warehouse w's domain without waiting.
// Pipelined statements a caller left outstanding on w resolve first, so the
// task observes them.
func (s *SessionStore) post(w int, p *txnPart, fn func(local tpcc.Store) error) (*core.AsyncFuture, error) {
	if err := s.syncWrites(w); err != nil {
		return nil, err
	}
	name := s.engine.name(w)
	p.fn, p.local.w = fn, w
	if s.engine.logged {
		return s.session.SubmitAsyncLogged(name, runPart, p, encPart)
	}
	return s.session.SubmitAsync(name, runPart, p)
}

// wait awaits part p's task and returns the transaction body's error.
func wait(f *core.AsyncFuture, p *txnPart) error {
	out, err := f.Wait()
	p.fn = nil
	if err == nil && out != nil {
		err = out.(error)
	}
	return err
}

// domainStore is the warehouse-local tpcc.Store a whole-transaction closure
// runs against inside the domain. Statements execute directly on the owned
// partition; touching any other warehouse is a programming error (the
// closure was promised to be single-warehouse) and fails loudly.
type domainStore struct {
	wh  *Warehouse
	w   int
	eff *[]byte // when non-nil, successful writes append their WAL effects
}

func (d *domainStore) table(w int, t tpcc.Table) (index.Index, error) {
	if w != d.w {
		return nil, fmt.Errorf("oltp: whole-transaction task for warehouse %d touched warehouse %d", d.w, w)
	}
	return d.wh.tables[t], nil
}

// Get implements tpcc.Store.
func (d *domainStore) Get(w int, t tpcc.Table, key uint64) (uint64, bool, error) {
	tb, err := d.table(w, t)
	if err != nil {
		return 0, false, err
	}
	v, ok := tb.Get(key, nil)
	return v, ok, nil
}

// Update implements tpcc.Store.
func (d *domainStore) Update(w int, t tpcc.Table, key, val uint64) (bool, error) {
	tb, err := d.table(w, t)
	if err != nil {
		return false, err
	}
	ok := tb.Update(key, val, nil)
	if ok && d.eff != nil {
		*d.eff = appendEffSet(*d.eff, t, key, val)
	}
	return ok, nil
}

// Insert implements tpcc.Store.
func (d *domainStore) Insert(w int, t tpcc.Table, key, val uint64) (bool, error) {
	tb, err := d.table(w, t)
	if err != nil {
		return false, err
	}
	ok := tb.Insert(key, val, nil)
	if ok && d.eff != nil {
		*d.eff = appendEffSet(*d.eff, t, key, val)
	}
	return ok, nil
}

// Delete implements tpcc.Store.
func (d *domainStore) Delete(w int, t tpcc.Table, key uint64) (bool, error) {
	tb, err := d.table(w, t)
	if err != nil {
		return false, err
	}
	ok := tb.Delete(key, nil)
	if ok && d.eff != nil {
		*d.eff = appendEffDelete(*d.eff, t, key)
	}
	return ok, nil
}

// Scan implements tpcc.Store.
func (d *domainStore) Scan(w int, t tpcc.Table, lo, hi uint64, fn func(k, v uint64) bool) (int, error) {
	if w != d.w {
		return 0, fmt.Errorf("oltp: whole-transaction task for warehouse %d touched warehouse %d", d.w, w)
	}
	return d.wh.scan(t, lo, hi, fn)
}

// RMW implements tpcc.Store.
func (d *domainStore) RMW(w int, t tpcc.Table, key uint64, kind tpcc.RMWKind, delta uint64) (uint64, bool, error) {
	tb, err := d.table(w, t)
	if err != nil {
		return 0, false, err
	}
	nv, ok := index.Modify(tb, key, kind.Func(), delta, nil)
	if ok && d.eff != nil {
		*d.eff = appendEffSet(*d.eff, t, key, nv)
	}
	return nv, ok, nil
}

// Close drains the session and releases its slots.
func (s *SessionStore) Close() error { return s.session.Close() }
