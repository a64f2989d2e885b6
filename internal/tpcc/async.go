package tpcc

// This file defines the pipelined statement interface the transaction logic
// runs against. A Store executes one statement per round trip; an AsyncStore
// additionally issues statements without waiting, returning lightweight
// futures, so a transaction keeps its independent statements concurrently in
// flight (riding the engine's burst slots) and synchronises once per
// dependency barrier. A TxnRunner goes one step further and ships a whole
// single-warehouse transaction closure into the owning domain as one task
// (a cross-warehouse one as one task per warehouse).
//
// Engines that cannot pipeline still run the same transaction code:
// AsyncView wraps any plain Store into an eager AsyncStore whose futures
// resolve at issue time.

// StmtFuture is the handle on one issued statement. Value blocks until the
// statement completes and returns its result exactly like the synchronous
// Store methods return theirs: the value (Get/RMW; 0 for writes), the
// found/applied flag, and the lifecycle error.
//
// Consume-once: call Value exactly once per future — engines recycle the
// handle afterwards.
type StmtFuture interface {
	Value() (uint64, bool, error)
}

// AsyncStore issues statements without waiting. Statement order is only
// guaranteed between dependent statements the caller orders through Value
// barriers; engines may execute concurrently issued statements in any order
// (which is why stock decrements and balance credits are expressed as
// commutative RMWs, not Get+Update pairs).
type AsyncStore interface {
	Store
	GetAsync(warehouse int, table Table, key uint64) StmtFuture
	UpdateAsync(warehouse int, table Table, key, val uint64) StmtFuture
	InsertAsync(warehouse int, table Table, key, val uint64) StmtFuture
	DeleteAsync(warehouse int, table Table, key uint64) StmtFuture
	RMWAsync(warehouse int, table Table, key uint64, kind RMWKind, delta uint64) StmtFuture
}

// TxnRunner is implemented by engines that can execute a whole transaction
// closure inside the domain owning one warehouse (whole-transaction
// delegation). RunTxn must only be asked for transactions that touch
// nothing but that warehouse; the closure receives a warehouse-local Store
// and must not call back into the issuing engine (the closure runs on a
// domain worker). RunSplit runs a cross-warehouse transaction as one such
// task per warehouse: homeFn in home's domain and remoteFn in remote's,
// both posted before either is awaited, so the two may run concurrently
// and must share no mutable state. Each part is atomic and durable in its
// own domain; RunSplit returns homeFn's error if there is one, else
// remoteFn's. RunsWhole reports whether the engine would actually
// delegate a transaction on the given warehouse — callers run the body
// against the store themselves when it would not.
type TxnRunner interface {
	RunTxn(warehouse int, fn func(local Store) error) error
	RunSplit(home int, homeFn func(local Store) error, remote int, remoteFn func(local Store) error) error
	RunsWhole(warehouse int) bool
}

// AsyncView returns s as an AsyncStore: natively when the engine implements
// it, otherwise wrapped in an eager adapter that executes each statement
// synchronously at issue time and hands back its cached result. The adapter
// recycles its future cells, so plain stores pay no per-statement
// allocation either.
func AsyncView(s Store) AsyncStore {
	if as, ok := s.(AsyncStore); ok {
		return as
	}
	return &immediateAsync{s: s}
}

// immediateAsync adapts a plain Store to AsyncStore by executing eagerly.
type immediateAsync struct {
	s    Store
	pool *immCell
}

// immCell is one recycled eager future.
type immCell struct {
	a    *immediateAsync
	val  uint64
	ok   bool
	err  error
	next *immCell
}

func (a *immediateAsync) cell(val uint64, ok bool, err error) *immCell {
	c := a.pool
	if c == nil {
		c = &immCell{a: a}
	} else {
		a.pool = c.next
	}
	c.val, c.ok, c.err, c.next = val, ok, err, nil
	return c
}

// Value returns the cached result and recycles the cell.
func (c *immCell) Value() (uint64, bool, error) {
	v, ok, err := c.val, c.ok, c.err
	c.next = c.a.pool
	c.a.pool = c
	return v, ok, err
}

func (a *immediateAsync) Get(w int, t Table, key uint64) (uint64, bool, error) {
	return a.s.Get(w, t, key)
}
func (a *immediateAsync) Update(w int, t Table, key, val uint64) (bool, error) {
	return a.s.Update(w, t, key, val)
}
func (a *immediateAsync) Insert(w int, t Table, key, val uint64) (bool, error) {
	return a.s.Insert(w, t, key, val)
}
func (a *immediateAsync) Delete(w int, t Table, key uint64) (bool, error) {
	return a.s.Delete(w, t, key)
}
func (a *immediateAsync) Scan(w int, t Table, lo, hi uint64, fn func(k, v uint64) bool) (int, error) {
	return a.s.Scan(w, t, lo, hi, fn)
}
func (a *immediateAsync) RMW(w int, t Table, key uint64, kind RMWKind, delta uint64) (uint64, bool, error) {
	return a.s.RMW(w, t, key, kind, delta)
}

func (a *immediateAsync) GetAsync(w int, t Table, key uint64) StmtFuture {
	return a.cell(a.s.Get(w, t, key))
}
func (a *immediateAsync) UpdateAsync(w int, t Table, key, val uint64) StmtFuture {
	ok, err := a.s.Update(w, t, key, val)
	return a.cell(0, ok, err)
}
func (a *immediateAsync) InsertAsync(w int, t Table, key, val uint64) StmtFuture {
	ok, err := a.s.Insert(w, t, key, val)
	return a.cell(0, ok, err)
}
func (a *immediateAsync) DeleteAsync(w int, t Table, key uint64) StmtFuture {
	ok, err := a.s.Delete(w, t, key)
	return a.cell(0, ok, err)
}
func (a *immediateAsync) RMWAsync(w int, t Table, key uint64, kind RMWKind, delta uint64) StmtFuture {
	return a.cell(a.s.RMW(w, t, key, kind, delta))
}
