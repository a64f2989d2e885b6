package core

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"robustconf/internal/obs"
	"robustconf/internal/wal"
)

// This file wires the per-domain write-ahead log (internal/wal) into the
// runtime: Start opens one DomainLog per domain, installs each worker's log
// handle into its buffer (the delegation sweep stages logical records and
// defers future completion to the group commit), runs a checkpointer
// goroutine per domain, and supervise runs recovery — checkpoint restore
// plus log-tail replay — before respawning a crashed worker. DESIGN.md §13
// documents the protocol.

// WALConfig surfaces the durability axes of a configuration: where the
// per-domain logs live, the fsync mode, and the checkpoint cadence. An
// empty Dir — the default — disables the WAL entirely: no structure is
// logged and the delegation hot path is byte-identical to a WAL-less build.
type WALConfig struct {
	// Dir is the root directory for per-domain WAL subdirectories.
	Dir string
	// Fsync selects the flush discipline (none / batch / always).
	Fsync wal.FsyncMode
	// CheckpointEvery is the checkpoint cadence; 0 means
	// DefaultCheckpointEvery.
	CheckpointEvery time.Duration
}

// Enabled reports whether the configuration carries a WAL.
func (w WALConfig) Enabled() bool { return w.Dir != "" }

// DefaultCheckpointEvery is the checkpoint cadence when the configuration
// does not set one: frequent enough to keep replay tails short in tests and
// simulations, rare enough that the quiescence pause is amortised away.
const DefaultCheckpointEvery = 200 * time.Millisecond

func (w WALConfig) cadence() time.Duration {
	if w.CheckpointEvery <= 0 {
		return DefaultCheckpointEvery
	}
	return w.CheckpointEvery
}

// ErrDomainDead is returned by submission paths once a domain has exhausted
// its restart budget: its workers are retired, its buffers sealed, and no
// task routed to it will ever execute. Unlike ErrWorkerStopped (which also
// covers clean shutdown races), ErrDomainDead is a permanent verdict — the
// caller should fail over or re-plan rather than retry.
var ErrDomainDead = errors.New("core: domain restart budget exhausted, domain is dead")

// Durable is the contract a structure registered with a WAL-enabled runtime
// implements to participate in checkpointing and replay. Snapshot and
// Restore run under the domain's quiescence gate (no task executing in the
// domain), Apply runs during recovery replay under the same gate. Restore
// must rebuild *in place*: live task closures hold the instance pointer.
type Durable interface {
	// WALSnapshot streams the structure's full state.
	WALSnapshot(w io.Writer) error
	// WALRestore rebuilds the structure in place from a snapshot stream.
	WALRestore(r io.Reader) error
	// WALApply applies one logical log record produced by a Task.Log /
	// SubmitAsyncLogged encoder. Records replay in per-worker commit order
	// and must be idempotent under re-application.
	WALApply(rec []byte) error
}

// walFaultDecider is the structural bridge to internal/faultinject: a fault
// hook that also decides commit faults returns one of wal.CommitNone /
// CommitKill / CommitTear per group commit (as plain ints, so neither
// package imports the other through core).
type walFaultDecider interface {
	DecideWALFault(worker int) int
}

// appendWALName prefixes a record or snapshot payload with its structure
// name: [u16 little-endian length][name bytes].
func appendWALName(dst []byte, name string) []byte {
	dst = append(dst, byte(len(name)), byte(len(name)>>8))
	return append(dst, name...)
}

// splitWALName parses the name prefix off a payload.
func splitWALName(p []byte) (name string, body []byte, ok bool) {
	if len(p) < 2 {
		return "", nil, false
	}
	n := int(p[0]) | int(p[1])<<8
	if len(p) < 2+n {
		return "", nil, false
	}
	return string(p[2 : 2+n]), p[2+n:], true
}

// setupWAL opens each domain's log, installs the worker handles, writes the
// initial checkpoint (so replay always has a base), and prepares the
// recovery closure supervise runs before a respawn. Called from Start after
// structure registration, before workers spawn.
func (rt *Runtime) setupWAL() error {
	cfg := rt.cfg
	for _, d := range rt.domains {
		dlog, err := wal.OpenDomain(filepath.Join(cfg.WAL.Dir, d.spec.Name), len(d.workerCPUs), cfg.WAL.Fsync)
		if err != nil {
			return err
		}
		d.wal = dlog
		if dec, ok := cfg.FaultHook.(walFaultDecider); ok {
			dlog.SetCommitHook(dec.DecideWALFault)
		}
		for wi, b := range d.inbox.Buffers() {
			b.SetWAL(dlog.Worker(wi))
			if len(d.arenas) > 0 {
				// The worker log's staging buffers draw from the worker's
				// own arena: batch-lifetime memory, recycled by the sweep's
				// post-commit reset.
				dlog.Worker(wi).SetArena(d.arenas[wi])
			}
		}
		if err := rt.checkpointDomain(d); err != nil {
			return err
		}
		d := d
		d.recoverFn = func(worker int) { rt.recoverDomain(d, worker) }
	}
	return nil
}

// startCheckpointers spawns one checkpointer goroutine per domain, on the
// domain's waitgroup so Stop joins them. Each runs Checkpoint on the
// configured cadence and once more on shutdown, so a runtime that stops
// cleanly leaves a fresh checkpoint and zeroed segments behind.
func (rt *Runtime) startCheckpointers() {
	every := rt.cfg.WAL.cadence()
	for _, d := range rt.domains {
		d.wg.Add(1)
		go func(d *Domain) {
			defer d.wg.Done()
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-d.stop:
					_ = rt.checkpointDomain(d)
					return
				case <-t.C:
					_ = rt.checkpointDomain(d)
				}
			}
		}(d)
	}
}

// checkpointDomain writes one consistent checkpoint of the domain: the WAL
// layer quiesces the domain (every in-flight sweep batch commits, new ones
// block), the snapshot closure writes one name-prefixed frame per Durable
// structure, and the segments reset. Names are sorted so checkpoint bytes
// are deterministic for a given structure state.
func (rt *Runtime) checkpointDomain(d *Domain) error {
	rt.walMu.Lock()
	defer rt.walMu.Unlock()
	if rt.migrating > 0 {
		// A structure is mid-move: a straggler task in its old domain may
		// still be mutating it, and snapshotting it here would race that.
		// Skip the tick; Migrate itself checkpoints both ends on completion.
		return nil
	}
	return rt.checkpointDomainLocked(d)
}

// namedDurable is one entry of a domain's checkpoint set.
type namedDurable struct {
	name string
	du   Durable
}

// checkpointDomainLocked is checkpointDomain for callers already holding
// rt.walMu (Migrate checkpoints both ends of a move under one hold). The
// checkpoint set is collected under the runtime lock, so it is consistent
// with live migrations; it and the snapshot buffer are the domain's
// retained scratch, which walMu guards.
func (rt *Runtime) checkpointDomainLocked(d *Domain) error {
	if d.wal == nil {
		return nil
	}
	d.ckptSet = d.ckptSet[:0]
	rt.mu.Lock()
	for name, ds := range d.structures {
		if du, ok := ds.(Durable); ok {
			d.ckptSet = append(d.ckptSet, namedDurable{name, du})
		}
	}
	rt.mu.Unlock()
	slices.SortFunc(d.ckptSet, func(a, b namedDurable) int { return strings.Compare(a.name, b.name) })
	return d.wal.Checkpoint(d.writeCheckpoint)
}

// writeCheckpoint streams the checkpoint set, one name-prefixed frame per
// structure, staged through the domain's retained buffer.
func (d *Domain) writeCheckpoint(w io.Writer) error {
	// Deliberately no arena reset here. The gate's write side quiesces
	// logged batches, but workers hold the read side only lazily (first
	// staged record to group commit) — the owner's sweep-boundary recycle
	// runs after Commit, outside the gate, so a checkpoint-time reset would
	// race it. It is also unnecessary: every non-empty sweep already
	// recycles, so a quiesced worker's arena has no live bytes.
	buf := &d.ckptBuf
	for _, nd := range d.ckptSet {
		buf.Reset()
		buf.Write(appendWALName(buf.AvailableBuffer(), nd.name))
		if err := nd.du.WALSnapshot(buf); err != nil {
			return err
		}
		if err := wal.WriteFrame(w, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// recoverDomain heals the domain after a worker crash, before the respawn:
// under the quiescence gate (no sweep in the domain executes while it
// holds), every checkpointed structure still owned by the domain is
// restored in place and the committed log tail replays over it — the torn
// frame the crash may have left is zeroed by the WAL layer. Structures
// that migrated away since the checkpoint are skipped (their live state
// lives in the destination domain); structures that migrated in after the
// checkpoint keep their live in-memory state, which in the goroutine-crash
// model is exactly the committed state.
//
// No bypass read can validate against mid-restore state: the crash already
// poisoned the dead worker's publication pair (every bypass validation on
// this domain fails from the crash on), and the migration epoch of each
// owned structure is bumped besides, so even a reader that routed before
// the crash discards its read. Delegated reads quiesce behind the gate like
// every other task.
func (rt *Runtime) recoverDomain(d *Domain, worker int) {
	// Exclude migrations (and other domains' checkpoints) for the whole
	// recovery: the structure set snapshotted below must still be this
	// domain's when the in-place restore rewrites it.
	rt.walMu.Lock()
	defer rt.walMu.Unlock()
	if worker >= 0 && worker < len(d.arenas) {
		// Discard-and-rebuild: the crash may have unwound mid-batch with
		// arena-backed WAL staging half-written, so the crashed worker's
		// arena goes back to the GC wholesale and the respawn starts from
		// virgin slabs — replay can never observe recycled bytes. This runs
		// on the crashed worker's own supervisor goroutine (owner-only
		// Discard is legal), and walMu excludes the checkpointer's
		// quiesce-time Reset of the same arena.
		d.arenas[worker].Discard()
	}
	rt.mu.Lock()
	durables := make(map[string]Durable, len(d.structures))
	for name, ds := range d.structures {
		if du, ok := ds.(Durable); ok {
			durables[name] = du
		}
		if rs := rt.readStates[name]; rs != nil {
			rs.migrations.Add(1)
		}
	}
	rt.mu.Unlock()

	restored := map[string]bool{}
	_, err := d.wal.Recover(
		func(r io.Reader) error {
			// One reusable frame buffer for the whole checkpoint stream:
			// each payload is consumed (restored) before the next read.
			fr := wal.NewFrameReader(r)
			for {
				p, err := fr.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				name, body, ok := splitWALName(p)
				if !ok {
					continue
				}
				du := durables[name]
				if du == nil {
					continue // migrated away since this checkpoint
				}
				if err := du.WALRestore(bytes.NewReader(body)); err != nil {
					return err
				}
				restored[name] = true
			}
		},
		func(rec []byte) error {
			name, body, ok := splitWALName(rec)
			if !ok {
				return nil
			}
			du := durables[name]
			if du == nil || !restored[name] {
				// Unknown here, or not in the checkpoint (migrated in
				// after it): live state is already the committed state.
				return nil
			}
			return du.WALApply(body)
		},
	)
	if err != nil && d.obs != nil {
		// Recovery is best-effort healing in this fault model: live state
		// is still serviceable, so a replay error is surfaced, not fatal.
		d.obs.Lifecycle(d.spec.Name, -1, "wal-recovery-error: "+err.Error())
	}
	d.event(-1, obs.EventWALRecovery)
}

// WALStats returns the domain's durability counters; the zero value when
// the runtime runs without a WAL.
func (d *Domain) WALStats() wal.Stats {
	if d.wal == nil {
		return wal.Stats{}
	}
	return d.wal.Stats()
}

// Dead reports whether the domain has exhausted its restart budget and been
// retired (see ErrDomainDead).
func (d *Domain) Dead() bool { return d.dead.Load() }

// BudgetRemaining returns how many more worker crashes the domain survives
// before it dies. Never negative.
func (d *Domain) BudgetRemaining() int64 {
	rem := int64(d.spec.budget()) - d.restarts.Load()
	if rem < 0 {
		rem = 0
	}
	return rem
}
