// Package htm emulates hardware transactional memory (Intel TSX style) in
// software, so the FP-Tree's synchronisation scheme — HTM-guarded traversal
// with a global-lock fallback — executes for real on hardware without TSX.
//
// The emulation is a small software transactional memory over version locks:
// a transaction records the versions of the cells it reads, defers its
// writes, and at commit acquires the written cells and validates the read
// set. A validation failure or a busy cell aborts the transaction, which is
// retried up to MaxRetries times before the global fallback lock is taken —
// exactly the lock-elision pattern TSX code uses. The fallback lock itself
// is part of every transaction's read set, so taking it aborts all
// concurrent transactions, as on real hardware.
//
// A transaction that wrote nothing commits by validation alone (see
// Tx.commit), taking no lock, so concurrent readers never contend on
// commit. The caller owns the transaction descriptor: Atomic takes a *Tx the
// caller keeps (the FP-Tree embeds one in its pooled per-operation scratch),
// so a steady-state transaction allocates nothing.
//
// A companion analytical model (model.go) predicts abort ratios as a
// function of domain size and NUMA span for the machine simulator, following
// the measurements of Brown et al. (SPAA'16) that the paper cites.
package htm

import (
	"errors"
	"sync"
	"sync/atomic"

	"robustconf/internal/syncprims"
)

// ErrAbort is returned by transaction operations when the transaction has
// conflicted and must be retried; bodies must propagate it immediately.
var ErrAbort = errors.New("htm: transaction aborted")

// DefaultMaxRetries is the number of transactional attempts before the
// fallback lock is taken. Real TSX deployments typically retry 3–10 times.
const DefaultMaxRetries = 8

// DefaultCapacity bounds the read+write set size (in tracked cells) before a
// capacity abort, emulating the L1-residency limit of real HTM.
const DefaultCapacity = 1024

// Stats counts transactional outcomes; all fields are safe for concurrent
// update and read.
type Stats struct {
	Commits   atomic.Uint64 // transactions committed transactionally
	Aborts    atomic.Uint64 // aborted attempts (conflict, capacity, explicit)
	Fallbacks atomic.Uint64 // executions that took the global lock
}

// AbortRatio returns aborts/(aborts+commits), the quantity Figure 8 plots.
func (s *Stats) AbortRatio() float64 {
	a, c := float64(s.Aborts.Load()), float64(s.Commits.Load())
	if a+c == 0 {
		return 0
	}
	return a / (a + c)
}

// Region is one elided critical section, e.g. "all operations on this
// FP-Tree". The zero value is NOT ready; use NewRegion.
type Region struct {
	fallback   syncprims.VersionLock
	maxRetries int
	capacity   int
	Stats      Stats

	// commitGate makes the fallback-lock check atomic with a writing
	// commit: such commits hold the read side across [validate
	// fallback version; commit]; the fallback body holds the write
	// side. Without it a fallback execution — whose writes apply
	// directly, without bumping cell versions — can interleave with an
	// in-flight commit that already passed the fallback check, and the
	// two apply concurrently (e.g. double-inserting one key). Real HTM
	// has no such window: the fallback lock sits in the hardware read
	// set, monitored to the commit instant. A read-only commit applies
	// nothing, so checking the fallback version after its last read
	// suffices and it skips the gate.
	commitGate sync.RWMutex
}

// NewRegion returns a region with default retry and capacity limits.
func NewRegion() *Region {
	return &Region{maxRetries: DefaultMaxRetries, capacity: DefaultCapacity}
}

// NewRegionLimits returns a region with explicit limits, for tests and
// ablation benchmarks.
func NewRegionLimits(maxRetries, capacity int) *Region {
	if maxRetries < 0 {
		maxRetries = 0
	}
	if capacity < 1 {
		capacity = 1
	}
	return &Region{maxRetries: maxRetries, capacity: capacity}
}

// Tx is a transaction descriptor. The zero value is ready; Atomic binds it
// to its region and resets it on entry and exit, so a caller may reuse one
// Tx for any number of sequential Atomic calls (never for two at once). The
// body passed to Atomic must not retain it.
type Tx struct {
	region   *Region
	fallback bool // running under the global lock: operations apply directly
	reads    []readEntry
	writes   []writeEntry
}

type readEntry struct {
	lock    *syncprims.VersionLock
	version uint64
}

type writeEntry struct {
	lock  *syncprims.VersionLock
	apply func()
}

// Fallback reports whether this attempt runs under the global lock. Bodies
// can use it for accounting (the FP-Tree counts fallback executions).
func (tx *Tx) Fallback() bool { return tx.fallback }

// Read registers cell l in the read set. The caller may then read the data
// the cell guards; commit-time validation ensures the snapshot was
// consistent. Returns ErrAbort when the cell is write-locked or the
// capacity limit is exceeded.
func (tx *Tx) Read(l *syncprims.VersionLock) error {
	if tx.fallback {
		return nil
	}
	if len(tx.reads)+len(tx.writes) >= tx.region.capacity {
		return ErrAbort
	}
	v := l.Version()
	if v&1 == 1 {
		return ErrAbort // a writer holds the cell: conflict abort
	}
	tx.reads = append(tx.reads, readEntry{lock: l, version: v})
	return nil
}

// Write schedules apply to run under cell l at commit time. In fallback mode
// apply runs immediately (the global lock already serialises everything).
func (tx *Tx) Write(l *syncprims.VersionLock, apply func()) error {
	if tx.fallback {
		apply()
		return nil
	}
	if len(tx.reads)+len(tx.writes) >= tx.region.capacity {
		return ErrAbort
	}
	tx.writes = append(tx.writes, writeEntry{lock: l, apply: apply})
	return nil
}

// Abort forces an explicit abort of the current attempt (e.g. the body found
// a state it cannot handle transactionally).
func (tx *Tx) Abort() error { return ErrAbort }

// commit makes the attempt's effects visible and reports whether it
// committed. fbVersion is the fallback lock's version at the attempt's start.
// A read-only attempt validates its read set and then the fallback version,
// which also catches a fallback body that ran between its reads (fallback
// writes apply without bumping cell versions). A writer holds the commit
// gate's read side across [validate fallback version; commit] and acquires
// its write cells before validating the read set.
func (tx *Tx) commit(fbVersion uint64) bool {
	r := tx.region
	if len(tx.writes) == 0 {
		for _, rd := range tx.reads {
			if rd.lock.Version() != rd.version {
				return false
			}
		}
		return r.fallback.Version() == fbVersion
	}
	r.commitGate.RLock()
	defer r.commitGate.RUnlock()
	if r.fallback.Version() != fbVersion {
		return false
	}
	// Acquire written cells; any busy cell is a conflict.
	acquired := 0
	ok := true
	for _, w := range tx.writes {
		if !w.lock.TryWriteLock() {
			ok = false
			break
		}
		acquired++
	}
	if ok {
		// Validate reads: a cell we also write moved from even v to odd
		// v+1 by our own acquisition, so accept v+1 for owned cells.
		for _, rd := range tx.reads {
			cur := rd.lock.Version()
			if cur == rd.version {
				continue
			}
			if cur == rd.version+1 && tx.owns(rd.lock) {
				continue
			}
			ok = false
			break
		}
	}
	if !ok {
		for i := 0; i < acquired; i++ {
			// Roll back the acquisition: WriteUnlock bumps odd→even,
			// which is correct — the cell was untouched but observers
			// must re-validate anyway.
			tx.writes[i].lock.WriteUnlock()
		}
		return false
	}
	for _, w := range tx.writes {
		w.apply()
	}
	for _, w := range tx.writes {
		w.lock.WriteUnlock()
	}
	return true
}

func (tx *Tx) owns(l *syncprims.VersionLock) bool {
	for _, w := range tx.writes {
		if w.lock == l {
			return true
		}
	}
	return false
}

// reset empties the read/write sets, keeping their capacity but dropping
// apply-closure references so a retained descriptor never pins caller state.
func (tx *Tx) reset() {
	tx.reads = tx.reads[:0]
	clear(tx.writes)
	tx.writes = tx.writes[:0]
	tx.fallback = false
}

// Atomic executes body as a memory transaction on the caller's descriptor
// tx, retrying on aborts and falling back to the region's global lock after
// MaxRetries attempts. The body may be executed several times and must be
// idempotent up to its Tx writes (which only apply on commit). Any
// non-ErrAbort error is returned to the caller after the transaction
// machinery unwinds.
func (r *Region) Atomic(tx *Tx, body func(tx *Tx) error) error {
	tx.region = r
	defer tx.reset()
	for attempt := 0; attempt <= r.maxRetries; attempt++ {
		tx.reset()
		// The fallback lock is in every read set: holders abort us.
		fbVersion := r.fallback.Version()
		if fbVersion&1 == 1 {
			r.Stats.Aborts.Add(1)
			continue // lock held: spin via retry loop
		}
		err := body(tx)
		if err != nil && !errors.Is(err, ErrAbort) {
			return err
		}
		if err == nil && tx.commit(fbVersion) {
			r.Stats.Commits.Add(1)
			return nil
		}
		r.Stats.Aborts.Add(1)
	}
	// Fallback: serialise under the global lock, aborting all concurrent
	// transactions (they validate the fallback lock's version). Taking
	// the commitGate write side drains in-flight commits before the body
	// reads anything, and blocks new commits until it finishes.
	r.fallback.WriteLock()
	r.commitGate.Lock()
	defer func() {
		r.commitGate.Unlock()
		r.fallback.WriteUnlock()
	}()
	r.Stats.Fallbacks.Add(1)
	tx.reset()
	tx.fallback = true
	return body(tx)
}
