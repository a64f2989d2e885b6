package core

import (
	"sync/atomic"

	"robustconf/internal/delegation"
)

// This file implements the optimistic read-path bypass (DESIGN.md §12).
//
// Delegation serializes every mutation of a structure through its owning
// domain's workers, so each worker buffer can keep a seqlock-style pair of
// publication words (delegation.Buffer.MutEnter/MutExit) that bracket its
// mutating sweep batches. A read-only task classified at submit time
// (Session.SubmitRead) first attempts a direct local read: verify every
// buffer's pair is balanced, run the structure's concurrent-reader-safe read
// in the client's own goroutine, then re-verify that no pair advanced (and
// that the structure was not migrated mid-read). Validation failure retries
// a bounded number of times and then falls back to normal delegation, so
// correctness never depends on the fast path; seal and crash fail-over
// poison the pair (an enter with no matching exit) before any future is
// completed, so a torn read can never validate across a shutdown or crash
// window.

// bypassAttempts bounds how many times a read re-validates before falling
// back to delegation. Low on purpose: an unstable window means a mutating
// batch is in flight right now, and the delegated fallback queues behind it
// anyway.
const bypassAttempts = 4

// concurrentReadSafe is the structural marker a registered structure must
// implement (and answer true) before its reads bypass delegation;
// internal/index documents which substrates qualify and why.
type concurrentReadSafe interface{ ConcurrentReadSafe() bool }

// readState is the per-structure runtime state of the read bypass.
// Built once in Start (the map it lives in is read-only afterwards) and
// owned by the structure name, not the domain — it survives migrations.
type readState struct {
	// migrations counts Migrate calls for this structure. Bumped under the
	// runtime lock *before* the assignment swap, and loaded by readers in the
	// same critical section as their route: a reader that observes a
	// post-migration mutation through the structure therefore observes the
	// bump on its second load and discards the read.
	migrations atomic.Uint64
}

// buildReadStates arms the bypass for every structure that vouches for its
// own concurrent-reader safety; the others delegate their reads. There is
// no setting: on every measured mix and client count the bypass beat
// delegation wherever it can arm (EXPERIMENTS.md, read-path ablation).
func buildReadStates(structures map[string]any) map[string]*readState {
	states := make(map[string]*readState, len(structures))
	for name, ds := range structures {
		if crs, ok := ds.(concurrentReadSafe); ok && crs.ConcurrentReadSafe() {
			states[name] = &readState{}
		}
	}
	return states
}

// BypassReads reports whether SubmitRead on the structure tries the
// validated local read first: true exactly when the registered structure
// answers ConcurrentReadSafe() == true.
func (rt *Runtime) BypassReads(structure string) bool {
	return rt.readStates[structure] != nil
}

// countBypass reports a fast-path outcome to the domain's telemetry, when
// observability is attached. The shard is session-owned (sessions are
// single-threaded), created on first use per domain.
func (s *Session) countBypass(d *Domain, hit bool, retries uint64) {
	if d.obsDom == nil {
		return
	}
	sh := s.readShards[d]
	if sh == nil {
		sh = d.obsDom.NewClient()
		s.readShards[d] = sh
	}
	if hit {
		sh.BypassHit(retries)
	} else {
		sh.BypassFallback(retries)
	}
}

// SubmitRead executes a task the caller guarantees is read-only: Op must not
// mutate the structure. When the structure is concurrent-reader safe it
// first attempts the validated local read described above; on validation
// failure — a mutating batch in flight, a sealed or crashed worker's
// poisoned buffer, a concurrent migration — it falls back to a delegated
// read, which serializes with mutations exactly like Invoke. For any other
// structure it is precisely a delegated Invoke whose task is flagged
// read-only, so it cannot spuriously invalidate other sessions' bypass
// reads.
func (s *Session) SubmitRead(task Task) (any, error) {
	rs := s.rt.readStates[task.Structure] // read-only map after Start
	if rs != nil {
		var d *Domain
		for attempt := uint64(0); attempt < bypassAttempts; attempt++ {
			var ds any
			var m1 uint64
			var err error
			d, ds, m1, err = s.rt.route(task.Structure, rs)
			if err != nil {
				return nil, err
			}
			// Stability check, per buffer: exit loaded before enter, so a
			// mutating batch in flight (enter ahead of exit) or a poisoned
			// pair (seal/crash) reads unequal and the attempt aborts before
			// touching the structure's memory ordering assumptions.
			bufs := d.inbox.Buffers()
			var n1 uint64
			stable := true
			for _, b := range bufs {
				e := b.MutExit()
				n := b.MutEnter()
				if e != n {
					stable = false
					break
				}
				n1 += n
			}
			if !stable {
				continue
			}
			v, perr := runBypassRead(task.Op, ds)
			// Validate: no buffer opened a mutating batch during the read
			// (enter counters are monotonic, so an unchanged sum means no
			// per-buffer change), and the structure did not migrate.
			var n2 uint64
			for _, b := range bufs {
				n2 += b.MutEnter()
			}
			if n2 == n1 && rs.migrations.Load() == m1 {
				s.countBypass(d, true, attempt)
				if perr != nil {
					// The read was stable, so the panic is the op's own
					// fault: surface the same typed error a delegated task
					// would produce.
					s.rt.faults.TasksFailed.Add(1)
					return nil, perr
				}
				return v, nil
			}
			// Validation failed. A panic raised under an unvalidated read may
			// itself be an artifact of torn state, so it is discarded with the
			// value and the read retries (and, if need be, delegates).
		}
		if d != nil {
			s.countBypass(d, false, bypassAttempts)
		}
	}
	// The delegated read: Invoke's round trip with the op flagged read-only.
	return s.invoke(task.Structure, &delegation.Op{Read: true}, &closure{op: applyOp, arg: task.Op})
}

// runBypassRead executes a bypass read on the client's own goroutine,
// converting a panic into the same typed PanicError a delegated task yields,
// so SubmitRead's error contract does not depend on the path taken.
// The caller decides whether the panic counts: only a read that validates may
// surface it (an unvalidated read can panic on torn state through no fault of
// the op).
func runBypassRead(op func(any) any, ds any) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			v, err = nil, delegation.PanicError{Value: r}
		}
	}()
	return op(ds), nil
}
