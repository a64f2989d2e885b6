package core

import (
	"fmt"
	"runtime"
)

// This file implements online reconfiguration, which the paper leaves as
// future work (Section 2.2): moving a data structure instance between
// virtual domains while the runtime keeps serving, instead of draining the
// whole system offline.
//
// The protocol relies on the fact that domain exclusivity is a
// *performance* property in this runtime — the structures themselves are
// thread-safe per their schemes — so a short overlap window during which a
// straggler task still executes in the old domain while new tasks already
// run in the new one is correct, merely momentarily non-exclusive:
//
//  1. the assignment is swapped, and the routing generation bumped, under the
//     runtime lock, so every submission after Migrate returns routes to the
//     new domain — sessions drop their cached routes on the bump;
//  2. Migrate then waits until the old domain's inboxes hold no posted
//     task, bounding the overlap window before it returns.

// Pending reports whether any slot of the domain's inbox currently holds a
// posted, unswept task (advisory; used by the migration quiesce loop).
func (d *Domain) Pending() bool {
	for _, b := range d.inbox.Buffers() {
		if b.Pending() > 0 {
			return true
		}
	}
	return false
}

// Migrate moves the named structure to the domain with index toDomain while
// the runtime keeps running. On return, all future tasks for the structure
// execute in the new domain and the old domain has fully drained.
func (rt *Runtime) Migrate(structure string, toDomain int) error {
	// Taken before rt.mu (lock order walMu > rt.mu) around the swap: a WAL
	// checkpoint or crash recovery walking either domain's structure set
	// must not interleave with the ownership change, or it would
	// snapshot/restore a structure another domain is mutating. Released
	// before the quiesce — a crashed worker's recovery needs it to respawn
	// and drain — with rt.migrating keeping checkpoints away meanwhile.
	rt.walMu.Lock()
	rt.migrating++
	defer func() {
		// Re-acquired (or still held on the error paths) by the time any
		// return runs; see the unlock/relock around the quiesce below.
		rt.migrating--
		rt.walMu.Unlock()
	}()
	rt.mu.Lock()
	if rt.stopped {
		rt.mu.Unlock()
		return fmt.Errorf("core: runtime stopped")
	}
	if toDomain < 0 || toDomain >= len(rt.domains) {
		rt.mu.Unlock()
		return fmt.Errorf("core: domain %d out of range", toDomain)
	}
	from, ok := rt.cfg.Assignment[structure]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("core: unknown structure %q", structure)
	}
	if from == toDomain {
		rt.mu.Unlock()
		return nil
	}
	src, dst := rt.domains[from], rt.domains[toDomain]
	if rs := rt.readStates[structure]; rs != nil {
		// Bump the migration epoch before the assignment swap, still under
		// the lock: any session that routed before this bump and validates a
		// bypass read after a new-domain mutation becomes visible re-reads
		// the epoch and discards the read (see Session.SubmitRead).
		rs.migrations.Add(1)
	}
	ds := src.structures[structure]
	dst.structures[structure] = ds
	delete(src.structures, structure)
	rt.cfg.Assignment[structure] = toDomain
	rt.routeGen.Add(1) // every session re-routes before its next op
	rt.mu.Unlock()

	// Quiesce: wait for the old domain's inboxes to drain so the
	// momentary non-exclusivity window closes before we return. Tasks
	// already posted there still see the structure through their closures
	// and execute correctly. walMu is dropped for the wait: draining may
	// require a crashed worker to recover and respawn, and recovery takes
	// walMu. rt.migrating stays elevated, so checkpoint ticks keep away
	// from the still-moving structure.
	rt.walMu.Unlock()
	for src.Pending() {
		runtime.Gosched()
	}
	rt.walMu.Lock()

	// With a WAL, re-checkpoint both ends so each domain's checkpoint again
	// matches its structure set: the source stops snapshotting the structure
	// (a crash there must not restore a stale copy over live state that now
	// lives elsewhere) and the destination starts. Sequential, one gate at a
	// time — recovery's skip rules make the transient window safe either way.
	if src.wal != nil || dst.wal != nil {
		_ = rt.checkpointDomainLocked(src)
		_ = rt.checkpointDomainLocked(dst)
	}
	return nil
}

// AssignmentOf returns the current domain index of the structure
// (post-migration views included).
func (rt *Runtime) AssignmentOf(structure string) (int, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	di, ok := rt.cfg.Assignment[structure]
	if !ok {
		return 0, fmt.Errorf("core: unknown structure %q", structure)
	}
	return di, nil
}
