// Package delegation implements the paper's in-memory message-passing layer,
// modelled on fast fly-weight delegation (FFWD, Roghanchi et al. SOSP'17)
// and extended as Section 6 describes: every worker owns a contiguous
// message buffer of fixed slots; a virtual domain's inbox is composed of the
// buffers of its configured workers; clients obtain *ownership* of slots
// from the inbox (rather than being hard-wired to one worker) and delegate
// asynchronous tasks through them, receiving results via futures.
//
// The FFWD properties carried over:
//
//   - each slot is padded to 128 bytes so two slots never share (adjacent)
//     cache lines and clients never contend with each other;
//   - a slot has a single versioned state word toggled between "free" (even)
//     and "posted" (odd), advanced by exactly one client and claimed by the
//     sweeping worker, so the steady-state protocol needs no contended
//     read-modify-write atomics on the critical path;
//   - a worker buffer holds up to 15 slots, the batch FFWD answers with a
//     single response-line write; the worker drains all posted slots of a
//     buffer in one sweep (response batching).
//
// Hot-path memory discipline (DESIGN.md §10): the steady-state round trip
// allocates nothing and is O(1) per operation. Each slot embeds a recycled
// Future whose completion word carries a monotonically increasing generation
// (gen<<2 | state), so the synchronous Invoke/InvokeErr paths reuse the same
// future across operations without ABA: every completion path — worker
// sweep, seal rescue, crash fail-over — first claims the slot with a CAS on
// its versioned state word and then publishes the result with a CAS on the
// future's generation word, making both execution and completion exactly
// once per generation. Clients track free slots and outstanding tasks in
// fixed-capacity index rings, so posting never scans and never grows.
// Asynchronous Delegate still hands out a one-shot heap future, because its
// caller may hold the handle arbitrarily long after the slot has cycled.
//
// NUMA-aware slot assignment — giving a client slots in the buffer of the
// worker nearest to it — is the caller's policy: AcquireSlots accepts a
// preference ranking over workers.
//
// Failure model (beyond FFWD, which assumes immortal workers): a future
// completes exactly once, with a value or with a typed error — PanicError
// when the task panicked, ErrWorkerStopped when it never ran. On shutdown a
// worker *seals* its buffer: the seal's final sweep answers everything
// already posted, and a post racing past it is rescued by its own client
// with ErrWorkerStopped, so no client can block forever on a stopping
// worker. A worker crash (a panic escaping the sweep, e.g. injected via
// FaultHook) fails the buffer's posted tasks with a PanicError and is
// reported to the caller of Worker.Run so a supervisor can respawn the
// worker; the buffer stays open for the respawn.
package delegation

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"robustconf/internal/obs"
)

// SlotsPerBuffer is the FFWD response-batching width: one worker answers up
// to 15 clients per response line.
const SlotsPerBuffer = 15

// Task is the unit of delegated work. The worker goroutine executes it and
// places the returned value into the task's future.
type Task func() any

// ErrWorkerStopped is delivered through a future when its task was posted
// into a sealed buffer: the owning worker has shut down (or exhausted its
// restart budget after crashing) and will never execute the task. The task
// did NOT run.
var ErrWorkerStopped = errors.New("delegation: worker stopped, task not executed")

// ErrWaitTimeout is returned by Future.WaitTimeout when the deadline expires
// before the task completes. The task may still complete later; the future
// stays valid and can be waited on again.
var ErrWaitTimeout = errors.New("delegation: wait timed out")

// Future completion states, held in the low bits of the future's word.
const (
	futPending   uint64 = 0 // no result yet
	futValue     uint64 = 1 // completed with a value
	futError     uint64 = 2 // completed with a typed error (never ran, or panicked)
	futStateMask uint64 = 3
	futGenShift         = 2
)

// Future is the invocation handle a client holds on a delegated task. A
// future completes exactly once per generation, either with a value (the
// task ran and returned) or with a typed error: PanicError when the task
// panicked, ErrWorkerStopped when it was posted into a sealed buffer and
// never ran.
//
// The word packs a generation counter over the completion state
// (gen<<2 | state). Detached futures — the ones Delegate returns — live and
// die in generation 0 and behave like ordinary one-shot futures. Slot-
// embedded futures are recycled: the owning client bumps the generation on
// every reuse (begin), and completion paths CAS against the exact pending
// word they observed, so a straggling completer from an old generation can
// never touch a newer one (no ABA).
type Future struct {
	word atomic.Uint64 // gen<<2 | futPending/futValue/futError
	val  any
	err  error
	span *obs.Span // lifecycle span on sampled posts; nil almost always

	// Typed result channel for KV posts (postKV): written by the completer
	// before the publishing CAS, read by awaitTokenKV after it, so a typed
	// round trip never boxes a uint64 into val. Every completion path of a
	// typed op either writes these or completes with futError, so no reset
	// in begin is needed.
	kvVal uint64
	kvOK  bool
}

// begin recycles the future for its next generation and returns the pending
// word completion paths must CAS against. Only the slot-owning client calls
// it, and only while the slot is free — no completer can hold a reference to
// the new generation yet, so plain stores suffice.
func (f *Future) begin() uint64 {
	w := (f.word.Load()>>futGenShift + 1) << futGenShift
	f.val, f.err, f.span = nil, nil, nil
	f.word.Store(w)
	return w
}

// awaitToken blocks until the generation identified by tok completes, then
// returns its result. Only the slot-owning client calls it (the embedded
// future is never handed out), so the word cannot move past tok's completion
// while we wait.
func (f *Future) awaitToken(tok uint64) (any, error) {
	w := f.word.Load()
	for i := 0; w == tok && i < waitSpins; i++ {
		runtime.Gosched()
		w = f.word.Load()
	}
	d := waitSleepMin
	for w == tok {
		time.Sleep(d)
		if d < waitSleepMax {
			d *= 2
		}
		w = f.word.Load()
	}
	failed := w&futStateMask == futError
	f.span.Resolve(failed)
	if failed {
		return nil, f.err
	}
	return f.val, nil
}

// awaitTokenKV is awaitToken for a typed KV post: it blocks until the
// generation identified by tok completes and returns the typed result
// without boxing. Only the slot-owning client calls it.
func (f *Future) awaitTokenKV(tok uint64) (uint64, bool, error) {
	w := f.word.Load()
	for i := 0; w == tok && i < waitSpins; i++ {
		runtime.Gosched()
		w = f.word.Load()
	}
	d := waitSleepMin
	for w == tok {
		time.Sleep(d)
		if d < waitSleepMax {
			d *= 2
		}
		w = f.word.Load()
	}
	failed := w&futStateMask == futError
	f.span.Resolve(failed)
	if failed {
		return 0, false, f.err
	}
	return f.kvVal, f.kvOK, nil
}

// complete publishes a value result for the current generation; used by
// tests and benchmarks that drive futures directly (the worker's sweep
// claims the slot first and CASes the word inline).
func (f *Future) complete(v any) {
	w := f.word.Load()
	if w&futStateMask != futPending {
		return
	}
	f.val = v
	f.span.MarkResponded()
	f.word.CompareAndSwap(w, w|futValue)
}

// completeErr publishes an error result. The generation CAS means lifecycle
// paths that fail futures (seal rescue, crash fail-over) can never clobber a
// result the worker already published, nor touch a later generation.
func (f *Future) completeErr(err error) bool {
	w := f.word.Load()
	if w&futStateMask != futPending {
		return false
	}
	f.err = err
	f.span.MarkResponded()
	return f.word.CompareAndSwap(w, w|futError)
}

// observeResolved finalises the future's lifecycle span the first time a
// waiter observes the completed result (no-op without a span).
func (f *Future) observeResolved() {
	f.span.Resolve(f.word.Load()&futStateMask == futError)
}

// Done reports whether the result is available without blocking.
func (f *Future) Done() bool { return f.word.Load()&futStateMask != futPending }

// Err returns the typed error the future completed with, nil for a pending
// future or a value result.
func (f *Future) Err() error {
	if f.word.Load()&futStateMask == futError {
		return f.err
	}
	return nil
}

// Idle-wait backoff: spin (yielding) this many times, then sleep with
// exponential backoff between polls. Bursting clients normally see their
// oldest future complete within the spin phase; the sleep phase only
// engages on genuinely idle waits, where burning a core on Gosched would
// starve co-scheduled workers.
const (
	waitSpins    = 256
	waitSleepMin = time.Microsecond
	waitSleepMax = 100 * time.Microsecond
)

// block waits until the future completes, spinning first and then sleeping
// with exponential backoff.
func (f *Future) block() {
	for i := 0; i < waitSpins; i++ {
		if f.word.Load()&futStateMask != futPending {
			return
		}
		runtime.Gosched()
	}
	d := waitSleepMin
	for f.word.Load()&futStateMask == futPending {
		time.Sleep(d)
		if d < waitSleepMax {
			d *= 2
		}
	}
}

// result returns the completed future's result in Wait's historical shape:
// the value, or the error as the value (a PanicError came back through Wait
// as a plain value before futures grew an error channel).
func (f *Future) result() any {
	f.observeResolved()
	if f.word.Load()&futStateMask == futError {
		return f.err
	}
	return f.val
}

// Wait blocks until the result is available. An error-completed future
// yields its error as the returned value (use Result or Err for a typed
// error). Waiting spins briefly and then backs off to sleeping, so an idle
// wait does not burn a core.
func (f *Future) Wait() any {
	f.block()
	return f.result()
}

// Result blocks like Wait but separates the two completion channels: the
// task's value, or the typed error (PanicError, ErrWorkerStopped) when the
// task panicked or never ran.
func (f *Future) Result() (any, error) {
	f.block()
	f.observeResolved()
	if f.word.Load()&futStateMask == futError {
		return nil, f.err
	}
	return f.val, nil
}

// WaitTimeout waits up to d for the result. It returns ErrWaitTimeout when
// the deadline expires first; the future remains valid and may still
// complete afterwards.
func (f *Future) WaitTimeout(d time.Duration) (any, error) {
	deadline := time.Now().Add(d)
	for i := 0; i < waitSpins; i++ {
		if f.Done() {
			return f.Result()
		}
		runtime.Gosched()
	}
	sleep := waitSleepMin
	for !f.Done() {
		if time.Now().After(deadline) {
			return nil, ErrWaitTimeout
		}
		time.Sleep(sleep)
		if sleep < waitSleepMax {
			sleep *= 2
		}
	}
	return f.Result()
}

// WaitCtx waits until the result is available or the context is cancelled,
// returning the context's error in the latter case. The future remains
// valid after cancellation.
func (f *Future) WaitCtx(ctx context.Context) (any, error) {
	for i := 0; i < waitSpins; i++ {
		if f.Done() {
			return f.Result()
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		runtime.Gosched()
	}
	sleep := waitSleepMin
	for !f.Done() {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		time.Sleep(sleep)
		if sleep < waitSleepMax {
			sleep *= 2
		}
	}
	return f.Result()
}

// TryGet returns the result if available (an error-completed future yields
// its error as the value, mirroring Wait).
func (f *Future) TryGet() (any, bool) {
	if f.Done() {
		return f.result(), true
	}
	return nil, false
}

// Slot is one message cell in a worker's buffer. Exactly one client owns it
// at a time (enforced by the inbox) and exactly one worker polls it.
//
// The state word is a version counter: odd means posted, even means free,
// and the count itself is the slot's generation. The owning client advances
// free→posted with a plain store (it is the sole writer of a free slot);
// every consumer — worker sweep, seal's final sweep, client-side rescue,
// crash fail-over — claims posted→free with a CAS on the exact odd value it
// observed. A claim that loses the CAS walks away, so a task is executed by
// exactly one sweeper and a stale free from an old generation can never
// clobber a newer post.
type Slot struct {
	_     [128]byte // padding: no false sharing with the previous slot
	state atomic.Uint64
	task  Task
	fut   *Future
	fut0  Future // recycled future for the zero-alloc synchronous path
	owner int32  // client id for diagnostics; -1 = unowned
	ro    bool   // task is read-only: the sweep must not count it as a mutating batch
	enc   func(dst []byte) []byte
	buf   *Buffer

	// Typed KV posts (postKV): the op encoded as plain words instead of a
	// closure, so the sweep can group same-kernel ops into one interleaved
	// ExecBatch call and the result travels back through the future's typed
	// fields — no boxing anywhere. kern is nil for opaque closure posts.
	kern  BatchKernel
	kind  uint8
	key   uint64
	val   uint64
	kvenc KVEncoder
	// encKV adapts kvenc to the WALSink.StageRecord shape; prebuilt once in
	// NewBuffer (it reads the slot's kind/key/val at encode time), so logged
	// typed posts allocate nothing.
	encKV func(dst []byte) []byte
}

// posted reports whether the slot currently holds an unclaimed task.
func (s *Slot) posted() bool { return s.state.Load()&1 == 1 }

// post publishes a task into the slot. The client must own the slot and the
// slot must be free. f is either a fresh detached future (Delegate) or the
// slot's own recycled fut0 with its generation already begun (InvokeErr).
// enc, when non-nil, is the task's logical WAL record encoder: the sweep
// stages its output and defers the future's completion to the group commit.
//
// The sealed check after the posted store closes the stop/post race: both
// sides use sequentially consistent atomics, so either the worker's final
// sweep observes the posted slot, or this client observes the seal and
// rescues its own task with ErrWorkerStopped — a post can never dangle.
func (s *Slot) post(t Task, f *Future, ro bool, enc func(dst []byte) []byte) {
	s.task = t
	s.fut = f
	s.ro = ro
	s.enc = enc
	s.kern = nil                      // opaque post: the sweep must not route it through a kernel
	s.state.Store(s.state.Load() + 1) // release: publishes task+fut+ro+enc to the worker
	if s.buf.sealed.Load() {
		s.buf.rescue(s)
	}
}

// postKV publishes a typed KV operation into the slot: kern is the target
// structure's batch kernel, kind/key/val the operation. A KVGet posts as
// read-only (it must not open the mutating-batch window, like
// InvokeReadErr); a mutation with a non-nil kvenc posts with the prebuilt
// encKV record encoder so the WAL sweep stages and group-commits it exactly
// like a logged closure task. The same sealed check as post closes the
// stop/post race.
func (s *Slot) postKV(kern BatchKernel, kind uint8, key, val uint64, f *Future, kvenc KVEncoder) {
	s.task = nil
	s.fut = f
	s.kern = kern
	s.kind = kind
	s.key = key
	s.val = val
	s.kvenc = kvenc
	s.ro = kind == KVGet
	if kvenc != nil && kind != KVGet {
		s.enc = s.encKV
	} else {
		s.enc = nil
	}
	s.state.Store(s.state.Load() + 1) // release: publishes the typed op to the worker
	if s.buf.sealed.Load() {
		s.buf.rescue(s)
	}
}

// FaultHook intercepts the worker's poll loop for deterministic fault
// injection (see internal/faultinject). A nil hook — the default — keeps
// the hot path unchanged. BeforeSweep runs outside the task-panic recovery,
// so a panic there simulates a worker crash (recovered by Worker.Run);
// BeforeTask runs inside it, so a panic there becomes the task's
// PanicError. Either may sleep to simulate stalls.
type FaultHook interface {
	BeforeSweep(worker int)
	BeforeTask(worker int)
}

// statFlushEvery is the worker's stat-publication cadence: the sweep loop
// counts into plain worker-local mirrors and stores them to the published
// atomics every statFlushEvery sweeps (and when parking idle, and on worker
// exit) — the same flush discipline internal/obs shards use. The sweep loop
// therefore issues no stat read-modify-write at all; external readers see
// counters that lag a live worker by at most statFlushEvery-1 sweeps.
const statFlushEvery = 64

// Buffer is the contiguous message buffer of one worker.
type Buffer struct {
	worker int // worker id within the domain (index into the inbox)
	slots  []Slot

	// Lifecycle. sealed flips once, on shutdown or restart-budget
	// exhaustion; sealMu serialises every operation that may complete
	// futures outside the worker's own sweep (final sweep, crash
	// fail-over, client-side rescue of a post into a sealed buffer).
	sealed atomic.Bool
	sealMu sync.Mutex

	hook FaultHook // fault injection; nil by default, set before workers run

	probe *obs.WorkerShard // telemetry shard; nil by default, set before workers run

	// wal, when set, makes sweeps log: mutating tasks that carry a record
	// encoder are staged into the worker's log and their futures complete
	// only after the pass group-commits (success implies durable).
	wal WALSink

	// Sweep staging (see sweepStage): live is written only by the owning
	// worker's unsealed sweeps, final only by sealed-path sweeps under
	// sealMu. A sealed sweep may overlap a straggling live one, so the two
	// never share arrays.
	live, final sweepStage

	// arena, when set, is the worker-owned batch allocator recycled at
	// sweep-batch boundaries: after a non-empty local sweep completes (and,
	// on the WAL path, after the batch group-commits and every stashed
	// future is answered) no batch-lifetime allocation is referenced
	// anywhere, so the sweep resets the arena and the next batch reuses the
	// same slabs. Sealed-path sweeps never reset — they may run on foreign
	// goroutines, and Reset is owner-only.
	arena ArenaSink

	_ [64]byte // keep the worker-local mirrors off the lifecycle fields' line

	// Worker-local stat mirrors: written only by the owning worker's
	// unsealed sweeps, published to the atomics below on the flush cadence.
	// Sealed-path sweeps (Seal's final pass, rescues) do not count here —
	// they may run on non-worker goroutines and shutdown traffic is not
	// steady-state signal.
	nSweeps, nEmpty, nExec, nBatch, nKernOps, sinceFlush uint64

	_ [64]byte // local mirrors and published images on separate lines

	// Published stat images (flushed on the statFlushEvery cadence; see
	// SyncStats). Snapshots lag a live worker by at most one cadence.
	Executed       atomic.Uint64 // tasks executed
	Sweeps         atomic.Uint64 // buffer sweeps (poll rounds)
	EmptySweep     atomic.Uint64 // sweeps that found no posted slot
	Batched        atomic.Uint64 // tasks answered in multi-task sweeps (batching)
	BatchKernelOps atomic.Uint64 // typed ops executed through batch kernels
	pubPending     atomic.Int64  // posted-slot gauge at last flush (obs export)

	_ [64]byte // publication words off the flush-cadence stats' line

	// Read-bypass publication words (DESIGN.md §12): a seqlock split into an
	// enter/exit counter pair so concurrent bumpers compose (a single parity
	// word would not). A sweep pass that claimed a non-read task bumps
	// mutEnter before executing anything and mutExit after the pass; the
	// pair is equal exactly when no mutating batch is in flight. Seal and
	// crash fail-over poison the pair (mutEnter alone, under sealMu, before
	// any future completes), leaving it permanently unequal — a bypass read
	// can never validate across a seal or crash window, and a buffer is never
	// re-armed after either. Invariant: mutEnter >= mutExit, always.
	mutEnter atomic.Uint64
	mutExit  atomic.Uint64

	// Fault stats: cold paths only, kept exact with atomic RMWs.
	Failed  atomic.Uint64 // futures completed with a typed error
	Rescued atomic.Uint64 // posts into a sealed buffer answered with ErrWorkerStopped
}

// NewBuffer allocates a worker buffer with n slots (n ≤ SlotsPerBuffer).
func NewBuffer(worker, n int) (*Buffer, error) {
	if n < 1 || n > SlotsPerBuffer {
		return nil, fmt.Errorf("delegation: %d slots per buffer out of range [1,%d]", n, SlotsPerBuffer)
	}
	b := &Buffer{worker: worker, slots: make([]Slot, n)}
	for i := range b.slots {
		s := &b.slots[i]
		s.owner = -1
		s.buf = b
		// One closure per slot, for the buffer's lifetime: adapts a typed
		// post's stateless KVEncoder to the WALSink.StageRecord shape by
		// reading the slot's op words at encode time (stable until the
		// future is answered, which is after the commit that consumes them).
		s.encKV = func(dst []byte) []byte { return s.kvenc(dst, s.kind, s.key, s.val) }
	}
	return b, nil
}

// Worker returns the worker id this buffer belongs to.
func (b *Buffer) Worker() int { return b.worker }

// SetFaultHook installs a fault-injection hook. Call before any worker
// polls the buffer; the field is read without synchronisation on the hot
// path (goroutine creation orders the write for workers spawned after it).
func (b *Buffer) SetFaultHook(h FaultHook) { b.hook = h }

// SetProbe installs the worker's telemetry shard. Like SetFaultHook it must
// be called before any worker polls the buffer; the field is read without
// synchronisation on the hot path.
func (b *Buffer) SetProbe(p *obs.WorkerShard) { b.probe = p }

// WALSink is the per-worker write-ahead log handle the sweep drives; it is
// satisfied structurally by internal/wal.WorkerLog so this package stays
// free of a wal import. The contract mirrors a sweep batch: Begin on the
// first staged record of a pass (may block on the domain's quiescence
// gate), StageRecord per logged task, then exactly one of Commit (group
// commit; allowFaults=false on seal-path sweeps suppresses injected commit
// faults) or Abort (crash unwind: discard the batch, release the gate).
type WALSink interface {
	Begin()
	StageRecord(enc func(dst []byte) []byte)
	Commit(allowFaults bool) error
	Abort()
}

// walStash is one executed-but-uncommitted completion: the future, the
// pending word to CAS against, and the task's result, parked between
// execution and the batch's group commit. Typed KV results park in the kv
// fields (kv=true) so the logged typed path stays free of boxing.
type walStash struct {
	f     *Future
	w     uint64
	res   any
	kv    bool
	kvVal uint64
	kvOK  bool
}

// sweepStage is one sweeper's pass state, preallocated in the Buffer so a
// pass allocates nothing: the claim list (slot and the pending word to CAS
// against), the staging arrays a typed run hands to ExecBatch, and the stash
// of logged completions waiting on the group commit.
type sweepStage struct {
	slot  [SlotsPerBuffer]*Slot
	w     [SlotsPerBuffer]uint64
	kind  [SlotsPerBuffer]uint8
	key   [SlotsPerBuffer]uint64
	val   [SlotsPerBuffer]uint64
	outV  [SlotsPerBuffer]uint64
	outOK [SlotsPerBuffer]bool
	stash [SlotsPerBuffer]walStash
}

// SetWAL installs the worker's log handle, making this buffer's sweeps
// stage and group-commit logged tasks. Call before any worker polls the
// buffer; the field is read without synchronisation on the hot path.
func (b *Buffer) SetWAL(l WALSink) { b.wal = l }

// ArenaSink is the slice of the worker arena the sweep drives — just the
// batch-boundary recycle. Satisfied structurally by *mem.Arena so this
// package stays free of a mem import, mirroring WALSink.
type ArenaSink interface {
	Reset()
}

// SetArena installs the worker's batch arena; the sweep resets it after
// every non-empty local pass (post-commit on the WAL path). Call before any
// worker polls the buffer; the field is read without synchronisation on the
// hot path.
func (b *Buffer) SetArena(a ArenaSink) { b.arena = a }

// Typed KV op kinds for the batched-execution path. The values mirror
// index.BatchGet..BatchDelete numerically (a test pins the equality) so the
// sweep can hand its claimed kinds straight to an index batch kernel without
// this package importing internal/index — the same structural-decoupling
// pattern as WALSink and ArenaSink.
const (
	KVGet uint8 = 1 + iota
	KVInsert
	KVUpdate
	KVDelete
)

// BatchKernel is the structural mirror of index.BatchKernel: a target that
// can execute a group of typed point operations with their traversal stages
// interleaved (software prefetch between stages), with effects and results
// identical to serial execution in index order. The sweep hands it maximal
// same-target runs of claimed typed slots.
type BatchKernel interface {
	ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool)
}

// KVEncoder encodes the logical WAL record of one typed KV mutation into
// dst. It must be stateless with respect to the call site — the sweep
// invokes it through a per-slot prebuilt closure that reads the slot's
// kind/key/val fields, which stay stable from post until the future is
// answered (the owning client never reposts before observing completion).
type KVEncoder func(dst []byte, kind uint8, key, val uint64) []byte

// SetBatchExec does nothing; width is ignored.
//
// Deprecated: every sweep already claims the whole pass and runs maximal
// same-kernel typed runs through one ExecBatch call, and a run can never
// exceed SlotsPerBuffer, so there is no body to arm and no width to cap. The
// method is kept so existing callers (the benchmark module's probes) still
// compile.
func (b *Buffer) SetBatchExec(width int) {}

// Sealed reports whether the buffer has been sealed.
func (b *Buffer) Sealed() bool { return b.sealed.Load() }

// MutExit loads the exit half of the read-bypass publication pair. A
// validating reader must load MutExit before MutEnter (per buffer): exits
// trail enters, so loading in that order can only under-count exits and the
// equality check stays conservative.
func (b *Buffer) MutExit() uint64 { return b.mutExit.Load() }

// MutEnter loads the enter half of the read-bypass publication pair. Equal
// MutExit/MutEnter values mean no mutating sweep batch was in flight between
// the two loads; a reader that re-reads MutEnter unchanged after its
// structure read knows the read overlapped no mutating batch on this buffer.
func (b *Buffer) MutEnter() uint64 { return b.mutEnter.Load() }

// Pending counts the currently posted, unclaimed slots.
//
// The contract is advisory: the per-slot loads are atomic but the scan is
// not serialised against concurrent posts and sweeps, so a snapshot can miss
// a post that lands behind the scan position or still count a task a sweeper
// is about to claim. Two properties make it safe for its callers anyway:
// it never reports a phantom task (a counted slot really was posted at its
// load), and once all posters have stopped, a drain observed by this scan is
// permanent. The migration quiesce loop relies on exactly that; anything
// wanting a cheap racy gauge (the obs endpoint) should use PendingPublished
// instead.
func (b *Buffer) Pending() int {
	n := 0
	for i := range b.slots {
		if b.slots[i].posted() {
			n++
		}
	}
	return n
}

// PendingPublished returns the posted-slot gauge captured at the worker's
// last stat flush. It is a bounded-staleness snapshot for exporters: unlike
// Pending it costs one atomic load and never walks the slot array from a
// foreign goroutine.
func (b *Buffer) PendingPublished() int { return int(b.pubPending.Load()) }

// SyncStats publishes the worker-local stat mirrors to the exported atomic
// counters and refreshes the pending gauge. The sweep loop calls it on the
// statFlushEvery cadence, before parking idle, and on worker exit. It must
// only be called from the sweeping goroutine — or from any goroutine while
// no worker is polling the buffer (tests that drive Sweep manually).
func (b *Buffer) SyncStats() {
	b.sinceFlush = 0
	b.Sweeps.Store(b.nSweeps)
	b.EmptySweep.Store(b.nEmpty)
	b.Executed.Store(b.nExec)
	b.Batched.Store(b.nBatch)
	b.BatchKernelOps.Store(b.nKernOps)
	b.pubPending.Store(int64(b.Pending()))
}

// PanicError is delivered through a future when the delegated task
// panicked. The worker survives: one client's faulty task must not take
// down a virtual domain that other clients depend on.
type PanicError struct {
	Value any // the recovered panic value
}

// Error implements error.
func (p PanicError) Error() string {
	return fmt.Sprintf("delegation: task panicked: %v", p.Value)
}

// runTask executes a task, converting a panic into a PanicError result. The
// fault hook's BeforeTask runs inside the recovery scope, so an injected
// task fault surfaces exactly like a genuine one.
func runTask(task Task, hook FaultHook, worker int) (res any) {
	defer func() {
		if r := recover(); r != nil {
			res = PanicError{Value: r}
		}
	}()
	if hook != nil {
		hook.BeforeTask(worker)
	}
	return task()
}

// Sweep executes all currently posted tasks in the buffer and reports how
// many it ran. This is the worker's poll body: one pass over the buffer
// detects posted toggles and answers them as a batch. A panicking task
// yields a PanicError result instead of killing the worker; a panic out of
// the hook's BeforeSweep escapes to Worker.Run as a worker crash. On a
// sealed buffer the pass runs under the seal lock so it cannot race
// client-side rescues.
func (b *Buffer) Sweep() int {
	if b.sealed.Load() {
		b.sealMu.Lock()
		defer b.sealMu.Unlock()
		return b.sweep(nil, nil, false)
	}
	if h := b.hook; h != nil {
		h.BeforeSweep(b.worker)
	}
	probe := b.probe
	if probe == nil {
		return b.sweep(b.hook, nil, true)
	}
	t0 := probe.SweepBegin()
	n := b.sweep(b.hook, probe, true)
	probe.SweepEnd(t0, n)
	return n
}

// runKernel executes the claimed typed run [i,j) through kern with one
// interleaved ExecBatch call over the stage's arrays, converting a panic —
// the kernel's own, or an injected BeforeTask fault's — into a PanicError
// the caller applies to the run's unanswered ops. The worker survives, as
// with any task panic; BeforeTask fires once per op in the run so injected
// task-fault budgets drain per op, not per run.
func (b *Buffer) runKernel(st *sweepStage, kern BatchKernel, i, j int, hook FaultHook) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = PanicError{Value: r}
		}
	}()
	if hook != nil {
		for g := i; g < j; g++ {
			hook.BeforeTask(b.worker)
		}
	}
	kern.ExecBatch(st.kind[i:j], st.key[i:j], st.val[i:j], st.outV[i:j], st.outOK[i:j])
	return nil
}

// sweep is the worker's one sweep body (DESIGN.md §15). Live sweeps
// (local=true) run on the owning worker with its fault hook and probe and
// stage in b.live. Sealed-path sweeps (Seal's final pass, sweeps of a sealed
// buffer) hold sealMu, pass a nil hook and probe, stage in b.final, and
// touch neither the arena (Reset is owner-only) nor the worker-local stat
// mirrors — they may run on foreign goroutines. A pass has three phases:
//
//  1. Claim: every posted slot is claimed by reading its future's pending
//     word and CASing its state; a loser walks away. Slot fields stay
//     readable after the claim — the owning client never reposts before
//     observing its completion.
//  2. Execute: claimed slots run in slot order. Each maximal run of typed
//     slots sharing a kernel executes through one ExecBatch call, which
//     interleaves their traversal stages around software prefetches so the
//     run's cache misses overlap. Opaque closure tasks execute in place, so
//     a mixed pass preserves slot order end to end.
//  3. Answer: results publish with a CAS on the future word. With a WAL sink
//     installed, the first claimed slot opens the log batch — Begin takes
//     the domain quiescence gate's read side for every execution in the
//     pass, logged or not, so recovery's in-place restore quiesces behind
//     all of them. Logged mutations stage their records in execution order
//     and park in the stash until the end-of-pass group commit: a client
//     observes success only once its record is durable (DESIGN.md §13).
//     Reads, unlogged tasks and failed ops answer inline.
//
// The mutating window opens once, before anything executes, when any
// claimed op is non-read, so a concurrent bypass reader cannot validate over
// the pass's effects; a read-only pass never opens it. A panic unwinding the
// pass — an injected worker kill, a commit fault — aborts the log batch and
// fails every stashed and claimed-but-unanswered future with a PanicError
// (FailPending cannot see claimed slots), then re-raises to Worker.Run's
// crash recovery; after recovery replays the committed prefix, a client's
// retry re-converges because records are idempotent post-state effects.
func (b *Buffer) sweep(hook FaultHook, probe *obs.WorkerShard, local bool) (n int) {
	st := &b.live
	if !local {
		st = &b.final
	}
	nc := 0
	anyMut := false
	for i := range b.slots {
		s := &b.slots[i]
		v := s.state.Load() // acquire: sees the op fields when posted
		if v&1 == 0 {
			continue
		}
		f := s.fut
		w := f.word.Load()
		if w&futStateMask != futPending {
			continue // answered by a racing completer this very moment
		}
		if !s.state.CompareAndSwap(v, v+1) {
			continue // a racing sweep or rescue claimed it first
		}
		if !s.ro {
			anyMut = true
		}
		st.slot[nc] = s
		st.w[nc] = w
		nc++
	}
	if nc == 0 {
		if local {
			b.countSweep(0, 0)
		}
		return 0
	}
	logging := false
	ns := 0
	done := 0
	kernOps := 0
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if logging {
			b.wal.Abort()
		}
		for i := 0; i < ns; i++ {
			sh := &st.stash[i]
			sh.f.err = PanicError{Value: r}
			sh.f.span.MarkResponded()
			if sh.f.word.CompareAndSwap(sh.w, sh.w|futError) {
				b.Failed.Add(1)
			}
			*sh = walStash{}
		}
		// Claimed-but-unanswered slots (nil entries are ops a partially
		// answered run already published; their completion CAS makes the
		// overlap with the stash loop idempotent).
		for g := done; g < nc; g++ {
			s := st.slot[g]
			if s == nil {
				continue
			}
			f := s.fut
			f.err = PanicError{Value: r}
			f.span.MarkResponded()
			if f.word.CompareAndSwap(st.w[g], st.w[g]|futError) {
				b.Failed.Add(1)
			}
			st.slot[g] = nil
		}
		panic(r)
	}()
	if b.wal != nil {
		b.wal.Begin()
		logging = true
	}
	if anyMut {
		b.mutEnter.Add(1)
	}
	for done < nc {
		s := st.slot[done]
		if s.kern == nil {
			// Opaque closure task: executes in place.
			f := s.fut
			w := st.w[done]
			task := s.task
			ro := s.ro
			enc := s.enc
			s.task = nil
			s.enc = nil
			sp := f.span // nil unless this task's post was trace-sampled
			sp.MarkSwept(b.worker)
			var tt int64
			if probe != nil {
				tt = probe.TaskBegin()
			}
			sp.MarkExecStart()
			res := runTask(task, hook, b.worker)
			sp.MarkExecEnd()
			if probe != nil {
				probe.TaskEnd(tt)
			}
			sp.MarkResponded()
			if pe, ok := res.(PanicError); ok {
				f.err = pe
				f.word.CompareAndSwap(w, w|futError)
				b.Failed.Add(1)
			} else if logging && enc != nil && !ro {
				b.wal.StageRecord(enc)
				st.stash[ns] = walStash{f: f, w: w, res: res}
				ns++
			} else {
				f.val = res
				f.word.CompareAndSwap(w, w|futValue)
			}
			st.slot[done] = nil
			done++
			n++
			continue
		}
		// Typed run: extend over subsequent claimed ops on the same kernel.
		kern := s.kern
		j := done + 1
		for j < nc && st.slot[j].kern == kern {
			j++
		}
		for g := done; g < j; g++ {
			sg := st.slot[g]
			st.kind[g] = sg.kind
			st.key[g] = sg.key
			st.val[g] = sg.val
			st.outV[g] = 0
			st.outOK[g] = false
			sp := sg.fut.span
			sp.MarkSwept(b.worker)
			sp.MarkExecStart()
		}
		var tt int64
		if probe != nil {
			// The run times as one probe task (its ops genuinely overlap);
			// the per-op count is BatchKernelOps.
			tt = probe.TaskBegin()
		}
		kerr := b.runKernel(st, kern, done, j, hook)
		if probe != nil {
			probe.TaskEnd(tt)
		}
		for g := done; g < j; g++ {
			sg := st.slot[g]
			f := sg.fut
			w := st.w[g]
			sp := f.span
			sp.MarkExecEnd()
			sp.MarkResponded()
			switch {
			case kerr != nil:
				f.err = kerr
				f.word.CompareAndSwap(w, w|futError)
				b.Failed.Add(1)
			case logging && sg.enc != nil && !sg.ro:
				// The record encoder (the slot's prebuilt encKV) reads the
				// slot's op words, so it stages before the future is answered.
				b.wal.StageRecord(sg.enc)
				st.stash[ns] = walStash{f: f, w: w, kv: true, kvVal: st.outV[g], kvOK: st.outOK[g]}
				ns++
			default:
				f.kvVal, f.kvOK = st.outV[g], st.outOK[g]
				f.word.CompareAndSwap(w, w|futValue)
			}
			st.slot[g] = nil
			n++
		}
		kernOps += j - done
		done = j
	}
	if logging {
		// Group commit: injected commit faults fire only on live worker
		// sweeps (hook != nil); the seal path's final sweep must not crash
		// the sealing goroutine.
		err := b.wal.Commit(hook != nil)
		logging = false
		for i := 0; i < ns; i++ {
			sh := &st.stash[i]
			if err != nil {
				sh.f.err = PanicError{Value: err}
				if sh.f.word.CompareAndSwap(sh.w, sh.w|futError) {
					b.Failed.Add(1)
				}
			} else {
				if sh.kv {
					sh.f.kvVal, sh.f.kvOK = sh.kvVal, sh.kvOK
				} else {
					sh.f.val = sh.res
				}
				sh.f.word.CompareAndSwap(sh.w, sh.w|futValue)
			}
			*sh = walStash{}
		}
		ns = 0
	}
	if anyMut {
		b.mutExit.Add(1) // close the mutating window: pair balanced again
	}
	if local {
		if b.arena != nil {
			b.arena.Reset() // batch boundary, post-commit: nothing batch-lived survives
		}
		b.countSweep(n, kernOps)
	}
	return n
}

// countSweep folds one live pass into the worker-local stat mirrors and
// publishes them on the statFlushEvery cadence.
func (b *Buffer) countSweep(n, kernOps int) {
	b.nSweeps++
	b.sinceFlush++
	if n == 0 {
		b.nEmpty++
	}
	b.nExec += uint64(n)
	if n > 1 {
		b.nBatch += uint64(n)
	}
	b.nKernOps += uint64(kernOps)
	if b.sinceFlush >= statFlushEvery {
		b.SyncStats()
	}
}

// Seal marks the buffer closed and runs a final sweep that executes every
// task already posted, so no future delegated before shutdown dangles. Any
// task posted after the seal is completed with ErrWorkerStopped by its own
// client (see Slot.post). Seal is idempotent and safe to call from a
// supervisor goroutine after the worker has exited; it returns the number
// of tasks the final sweep executed.
func (b *Buffer) Seal() int {
	b.sealMu.Lock()
	defer b.sealMu.Unlock()
	// Poison the read-bypass publication pair before the final sweep runs a
	// single task or completes a single future: the unmatched enter leaves
	// the pair permanently unequal, so no bypass read that overlaps (or
	// follows) the shutdown window can ever validate. Idempotent calls just
	// deepen the imbalance.
	b.mutEnter.Add(1)
	b.sealed.Store(true)
	return b.sweep(nil, nil, false)
}

// FailPending completes every posted, unclaimed task with err without
// executing it, and claims the slots. The worker crash path uses it so the
// tasks that were in the buffer when the worker died are answered with a
// PanicError instead of waiting for a respawn that may never come. Returns
// the number of futures failed.
func (b *Buffer) FailPending(err error) int {
	b.sealMu.Lock()
	defer b.sealMu.Unlock()
	// Crash fail-over poisons the publication pair before any future is
	// failed, exactly like Seal: the worker may have died with structure
	// state only it could vouch for, so bypass on this buffer is disabled
	// for good — a respawned worker never re-arms it.
	b.mutEnter.Add(1)
	n := 0
	for i := range b.slots {
		s := &b.slots[i]
		v := s.state.Load()
		if v&1 == 0 {
			continue
		}
		f := s.fut
		w := f.word.Load()
		if w&futStateMask != futPending {
			continue
		}
		if !s.state.CompareAndSwap(v, v+1) {
			continue // a racing sweep owns it; that sweep answers the future
		}
		s.task = nil
		f.err = err
		f.span.MarkResponded()
		if f.word.CompareAndSwap(w, w|futError) {
			b.Failed.Add(1)
			n++
		}
	}
	return n
}

// rescue answers the calling client's own post into a sealed buffer. The
// seal lock orders it against the final sweep: if the sweep already claimed
// the task there is nothing to do, otherwise the task never ran and its
// future completes with ErrWorkerStopped.
func (b *Buffer) rescue(s *Slot) {
	b.sealMu.Lock()
	defer b.sealMu.Unlock()
	v := s.state.Load()
	if v&1 == 0 {
		return
	}
	f := s.fut
	w := f.word.Load()
	if w&futStateMask != futPending {
		return
	}
	if !s.state.CompareAndSwap(v, v+1) {
		return // a straggling unsealed sweep claimed it; it will answer
	}
	s.task = nil
	f.err = ErrWorkerStopped
	f.span.MarkResponded()
	if f.word.CompareAndSwap(w, w|futError) {
		b.Failed.Add(1)
		b.Rescued.Add(1)
	}
}

// Inbox composes the message buffers of a domain's workers and hands slot
// ownership to clients. Acquisition and release are off the critical path
// and guarded by a mutex; posting and polling are lock-free.
type Inbox struct {
	buffers []*Buffer

	mu        sync.Mutex
	nextOwner int32
	freeCount int
}

// ErrNoSlots is returned when the inbox cannot satisfy a slot acquisition:
// the configured workers bound the number of concurrently served clients.
var ErrNoSlots = errors.New("delegation: inbox has no free slots")

// NewInbox builds an inbox over the given worker buffers.
func NewInbox(buffers []*Buffer) (*Inbox, error) {
	if len(buffers) == 0 {
		return nil, fmt.Errorf("delegation: inbox needs at least one buffer")
	}
	in := &Inbox{buffers: buffers}
	for _, b := range buffers {
		in.freeCount += len(b.slots)
	}
	return in, nil
}

// Buffers returns the composed worker buffers.
func (in *Inbox) Buffers() []*Buffer { return in.buffers }

// FreeSlots returns the number of currently unowned slots.
func (in *Inbox) FreeSlots() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.freeCount
}

// AcquireSlots grants ownership of n slots to a new client. The optional
// rank function orders workers by preference (lower is better) — the runtime
// passes NUMA distance from the client's CPU to each worker's CPU, so slots
// come from the nearest worker's buffer first (Section 6's locality-aware
// slot assignment). Slots may span several buffers when the preferred one
// is exhausted.
func (in *Inbox) AcquireSlots(n int, rank func(worker int) int) ([]*Slot, error) {
	if n < 1 {
		return nil, fmt.Errorf("delegation: acquiring %d slots", n)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.freeCount < n {
		return nil, ErrNoSlots
	}
	order := make([]int, len(in.buffers))
	for i := range order {
		order[i] = i
	}
	if rank != nil {
		sort.SliceStable(order, func(a, b int) bool {
			return rank(in.buffers[order[a]].worker) < rank(in.buffers[order[b]].worker)
		})
	}
	owner := in.nextOwner
	in.nextOwner++
	var out []*Slot
	for _, bi := range order {
		b := in.buffers[bi]
		for i := range b.slots {
			if len(out) == n {
				break
			}
			if b.slots[i].owner == -1 {
				b.slots[i].owner = owner
				out = append(out, &b.slots[i])
			}
		}
		if len(out) == n {
			break
		}
	}
	in.freeCount -= n
	return out, nil
}

// ReleaseSlots returns slot ownership to the inbox. All slots must be free
// (no posted task in flight).
func (in *Inbox) ReleaseSlots(slots []*Slot) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, s := range slots {
		if s.posted() {
			return fmt.Errorf("delegation: releasing slot with task in flight")
		}
		if s.owner == -1 {
			return fmt.Errorf("delegation: releasing unowned slot")
		}
		s.owner = -1
		in.freeCount++
	}
	return nil
}

// Client delegates tasks through slots it owns, keeping up to burst tasks
// outstanding (the paper's bursting delegation mode; Section 6). A Client is
// not safe for concurrent use — it models one application thread, as in FFWD.
//
// Bookkeeping is O(1) and allocation-free: free slots live on a fixed index
// stack, outstanding delegations in a fixed-capacity FIFO ring — there is no
// slot scan, no in-flight list walk, and no slice growth no matter how long
// the client lives.
type Client struct {
	slots []*Slot
	free  []int32     // LIFO stack of free slot indices
	ring  []pendingOp // FIFO ring of outstanding delegations
	head  int         // ring index of the oldest outstanding delegation
	n     int         // outstanding delegations
	probe *obs.ClientShard
}

type pendingOp struct {
	slot int32
	fut  *Future
}

// NewClient wraps owned slots into a delegating client. The burst size is
// len(slots): the paper's experiments use 14.
func NewClient(slots []*Slot) (*Client, error) {
	if len(slots) == 0 {
		return nil, fmt.Errorf("delegation: client needs at least one slot")
	}
	c := &Client{
		slots: slots,
		free:  make([]int32, len(slots)),
		ring:  make([]pendingOp, len(slots)),
	}
	for i := range slots {
		// Reverse order so slot 0 pops first, preserving the NUMA-ranked
		// acquisition order on the fast path.
		c.free[i] = int32(len(slots) - 1 - i)
	}
	return c, nil
}

// SetProbe installs the client's telemetry shard. The Client is single-
// threaded by contract, so the shard shares its owner's serial execution.
func (c *Client) SetProbe(p *obs.ClientShard) { c.probe = p }

// Burst returns the client's maximum number of outstanding tasks.
func (c *Client) Burst() int { return len(c.slots) }

// Outstanding returns the number of tasks currently in flight.
func (c *Client) Outstanding() int { return c.n }

// harvestOldest retires the oldest outstanding delegation: waits for its
// future and returns its slot to the free stack. The completer has already
// advanced the slot's version to free before publishing the result, so
// observing the future settles slot ownership too.
func (c *Client) harvestOldest() *Future {
	op := &c.ring[c.head]
	f := op.fut
	f.block()
	c.free = append(c.free, op.slot)
	op.fut = nil
	c.head++
	if c.head == len(c.ring) {
		c.head = 0
	}
	c.n--
	return f
}

// takeSlot pops a free slot index, first retiring the oldest outstanding
// task when the burst window is full — the throughput-maximising delegation
// mode of Section 6. When every non-free slot is held by a reserved handle
// (Reserve) rather than a ring-tracked delegation there is nothing this
// client can harvest; the caller must Await its handles first.
func (c *Client) takeSlot() int32 {
	for len(c.free) == 0 {
		if c.n == 0 {
			panic("delegation: no free slots and none outstanding; await reserved handles first")
		}
		if c.probe != nil {
			c.probe.BurstWait()
		}
		f := c.harvestOldest()
		f.observeResolved()
	}
	i := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return i
}

// InvokeHandle identifies one in-flight reserved-slot invocation: the slot
// whose embedded future carries the result and the generation token to await.
// It is a value, not a pointer — pipelined callers keep handles in their own
// storage, so the burst path stays allocation-free.
type InvokeHandle struct {
	slot int32
	tok  uint64
}

// Reserve pops a free slot for a pipelined zero-allocation invocation
// (PostReserved/Await). When no slot is free it retires the oldest
// ring-tracked delegation like takeSlot; when every slot is held by an
// un-awaited handle it reports false — the caller owns those handles and
// must Await one to free a slot.
func (c *Client) Reserve() (int32, bool) {
	for len(c.free) == 0 {
		if c.n == 0 {
			return 0, false
		}
		if c.probe != nil {
			c.probe.BurstWait()
		}
		f := c.harvestOldest()
		f.observeResolved()
	}
	i := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	return i, true
}

// PostReserved posts a task into a slot obtained from Reserve without
// waiting, returning the handle to Await later. Like InvokeErr it runs on
// the zero-allocation path — the slot's embedded future is recycled for this
// generation and never escapes — but the round trip is split so a client can
// keep several statements in flight and synchronise once per dependency
// barrier instead of once per statement.
func (c *Client) PostReserved(i int32, task Task) InvokeHandle {
	return c.postReserved(i, task, nil)
}

// PostReservedLogged is PostReserved for a mutating task with a logical WAL
// record encoder: the worker stages enc's output into its log and completes
// the handle's future only after the sweep batch group-commits. On a
// runtime without a WAL sink the encoder is ignored and the task behaves
// exactly like PostReserved.
func (c *Client) PostReservedLogged(i int32, task Task, enc func(dst []byte) []byte) InvokeHandle {
	return c.postReserved(i, task, enc)
}

func (c *Client) postReserved(i int32, task Task, enc func(dst []byte) []byte) InvokeHandle {
	s := c.slots[i]
	f := &s.fut0
	tok := f.begin()
	if c.probe != nil {
		f.span = c.probe.PostRecycled()
	}
	s.post(task, f, false, enc)
	return InvokeHandle{slot: i, tok: tok}
}

// Await blocks until the handle's invocation completes, frees its slot, and
// returns the result. Each handle must be awaited exactly once; handles may
// be awaited in any order (each lives in its own slot's embedded future).
func (c *Client) Await(h InvokeHandle) (any, error) {
	v, err := c.slots[h.slot].fut0.awaitToken(h.tok)
	c.free = append(c.free, h.slot)
	return v, err
}

// PostReservedKV posts a typed key/value op into a slot obtained from
// Reserve without waiting, returning the handle to AwaitKV later. The op
// carries no closure: the worker's sweep groups adjacent typed ops on the
// same kernel into one ExecBatch call, overlapping their traversal cache
// misses.
func (c *Client) PostReservedKV(i int32, kern BatchKernel, kind uint8, key, val uint64) InvokeHandle {
	return c.postReservedKV(i, kern, kind, key, val, nil)
}

// PostReservedKVLogged is PostReservedKV for a logged mutation: kvenc
// encodes the op's logical WAL record on the worker and the handle's future
// completes only after the sweep batch group-commits.
func (c *Client) PostReservedKVLogged(i int32, kern BatchKernel, kind uint8, key, val uint64, kvenc KVEncoder) InvokeHandle {
	return c.postReservedKV(i, kern, kind, key, val, kvenc)
}

func (c *Client) postReservedKV(i int32, kern BatchKernel, kind uint8, key, val uint64, kvenc KVEncoder) InvokeHandle {
	s := c.slots[i]
	f := &s.fut0
	tok := f.begin()
	if c.probe != nil {
		f.span = c.probe.PostRecycled()
	}
	s.postKV(kern, kind, key, val, f, kvenc)
	return InvokeHandle{slot: i, tok: tok}
}

// AwaitKV blocks until a typed handle's op completes, frees its slot, and
// returns the kernel's value/found pair. Each handle must be awaited
// exactly once, with the await flavour matching the post flavour.
func (c *Client) AwaitKV(h InvokeHandle) (uint64, bool, error) {
	v, ok, err := c.slots[h.slot].fut0.awaitTokenKV(h.tok)
	c.free = append(c.free, h.slot)
	return v, ok, err
}

// HandleDone reports, without blocking or freeing the slot, whether the
// handle's invocation has completed. Valid only between PostReserved and
// Await — the embedded future's word equals the handle's token exactly while
// that generation is pending.
func (c *Client) HandleDone(h InvokeHandle) bool {
	return c.slots[h.slot].fut0.word.Load() != h.tok
}

// FreeSlots returns how many of the client's slots are currently free
// (neither ring-tracked outstanding nor held by a reserved handle).
func (c *Client) FreeSlots() int { return len(c.free) }

// Delegate posts task into a free owned slot and returns its future. When
// the burst is completely filled it first waits for the oldest outstanding
// task. The returned future is detached (heap-allocated, generation 0): the
// caller may hold it for as long as it likes, independent of slot reuse.
func (c *Client) Delegate(task Task) *Future {
	i := c.takeSlot()
	f := &Future{}
	if c.probe != nil {
		// Post counts the delegation and, on sampled posts, mints the
		// lifecycle span; the slot's release store publishes it (via the
		// future) to the worker alongside the task.
		f.span = c.probe.Post()
	}
	c.slots[i].post(task, f, false, nil)
	tail := c.head + c.n
	if tail >= len(c.ring) {
		tail -= len(c.ring)
	}
	c.ring[tail] = pendingOp{slot: i, fut: f}
	c.n++
	return f
}

// DelegateLogged is Delegate for a logged mutation: enc encodes the task's
// WAL record on the worker after the task runs, and the future completes
// only after the record's group commit — success implies durable.
func (c *Client) DelegateLogged(task Task, enc func(dst []byte) []byte) *Future {
	i := c.takeSlot()
	f := &Future{}
	if c.probe != nil {
		f.span = c.probe.Post()
	}
	c.slots[i].post(task, f, false, enc)
	tail := c.head + c.n
	if tail >= len(c.ring) {
		tail -= len(c.ring)
	}
	c.ring[tail] = pendingOp{slot: i, fut: f}
	c.n++
	return f
}

// Invoke delegates a task and synchronously waits for its result — the
// simple delegation mode (burst size 1 semantics regardless of owned slots).
// An error completion comes back as the value; InvokeErr separates it.
//
// Invoke runs on the zero-allocation path: it recycles the slot's embedded
// future instead of allocating one.
func (c *Client) Invoke(task Task) any {
	v, err := c.InvokeErr(task)
	if err != nil {
		return err
	}
	return v
}

// InvokeErr delegates a task, waits, and returns the value and the typed
// error separately: PanicError when the task panicked, ErrWorkerStopped
// when the buffer was sealed before the task ran.
//
// This is the steady-state zero-allocation round trip: the task is posted
// through the slot's embedded future, whose generation word is bumped for
// this invocation and CAS-completed by exactly one of worker sweep, seal
// rescue, or crash fail-over. The future never escapes, so the slot can be
// recycled the moment the result is observed.
func (c *Client) InvokeErr(task Task) (any, error) { return c.invokeErr(task, false, nil) }

// InvokeLoggedErr is InvokeErr for a mutating task with a logical WAL
// record encoder: the worker stages enc's output into its log during the
// sweep and completes the future only after the batch group-commits, so a
// successful return implies the record is durable. On a runtime without a
// WAL sink the encoder is ignored and the call behaves exactly like
// InvokeErr. The encoder runs on the worker goroutine, serialised with the
// task itself — it may read the structure state the task just wrote.
func (c *Client) InvokeLoggedErr(task Task, enc func(dst []byte) []byte) (any, error) {
	return c.invokeErr(task, false, enc)
}

// InvokeReadErr is InvokeErr for a task the caller guarantees is read-only:
// the slot is posted with the read flag, so the worker's sweep does not open
// a mutating-batch window for it. The read-bypass fallback path uses it — a
// delegated read serializes with mutations exactly like any other task, it
// just must not spuriously invalidate concurrent bypass readers.
func (c *Client) InvokeReadErr(task Task) (any, error) { return c.invokeErr(task, true, nil) }

// InvokeKVErr delegates a typed key/value op synchronously: the op's kind,
// key and value travel in the slot itself (no closure, no boxing) and the
// worker executes it through kern, batched with neighbouring typed ops on
// the same kernel. Returns the kernel's value/found pair. Zero-allocation
// like InvokeErr.
func (c *Client) InvokeKVErr(kern BatchKernel, kind uint8, key, val uint64) (uint64, bool, error) {
	return c.invokeKVErr(kern, kind, key, val, nil)
}

// InvokeKVLoggedErr is InvokeKVErr for a logged mutation: kvenc encodes the
// op's logical WAL record on the worker (from the same kind/key/val the
// kernel executed) and the call returns only after the record's batch
// group-commits, so success implies durable.
func (c *Client) InvokeKVLoggedErr(kern BatchKernel, kind uint8, key, val uint64, kvenc KVEncoder) (uint64, bool, error) {
	return c.invokeKVErr(kern, kind, key, val, kvenc)
}

func (c *Client) invokeKVErr(kern BatchKernel, kind uint8, key, val uint64, kvenc KVEncoder) (uint64, bool, error) {
	i := c.takeSlot()
	s := c.slots[i]
	f := &s.fut0
	tok := f.begin()
	if c.probe != nil {
		if kind == KVGet {
			c.probe.CountRead()
		}
		f.span = c.probe.PostRecycled()
	}
	s.postKV(kern, kind, key, val, f, kvenc)
	v, ok, err := f.awaitTokenKV(tok)
	c.free = append(c.free, i)
	return v, ok, err
}

func (c *Client) invokeErr(task Task, ro bool, enc func(dst []byte) []byte) (any, error) {
	i := c.takeSlot()
	s := c.slots[i]
	f := &s.fut0
	tok := f.begin()
	if c.probe != nil {
		// PostRecycled, not Post: the embedded future resolves its span
		// exactly once per generation, so the shard can hand back a recycled
		// span instead of allocating one (the stray 1 B/op on the observed
		// path). Detached Delegate futures keep the allocating Post — their
		// holders may Wait (and Resolve) long after the span would recycle.
		if ro {
			// The read/write split is known right here and nowhere cheaper:
			// counting read-flagged invokes at this branch gives the signal
			// sampler its write fraction without adding any bookkeeping to
			// the (hotter) write path.
			c.probe.CountRead()
		}
		f.span = c.probe.PostRecycled()
	}
	s.post(task, f, ro, enc)
	v, err := f.awaitToken(tok)
	c.free = append(c.free, i)
	return v, err
}

// DelegateErr posts like Delegate and additionally surfaces an immediately
// known failure: a post into a sealed buffer is completed with
// ErrWorkerStopped before DelegateErr returns, so the caller can stop
// submitting instead of discovering the error future by future.
func (c *Client) DelegateErr(task Task) (*Future, error) {
	f := c.Delegate(task)
	return f, f.Err()
}

// DelegateBulk posts tasks as one bulk burst under a single synchronisation
// phase (the bulk-bursting mode): all tasks are delegated, then all futures
// awaited, and the results returned in order.
func (c *Client) DelegateBulk(tasks []Task) []any {
	futs := make([]*Future, len(tasks))
	for i, t := range tasks {
		futs[i] = c.Delegate(t)
	}
	out := make([]any, len(tasks))
	for i, f := range futs {
		out[i] = f.Wait()
	}
	return out
}

// DelegateBulkErr is DelegateBulk with an error channel: results hold each
// task's value (nil where a task failed) and the returned error is the
// first typed error among them.
func (c *Client) DelegateBulkErr(tasks []Task) ([]any, error) {
	futs := make([]*Future, len(tasks))
	for i, t := range tasks {
		futs[i] = c.Delegate(t)
	}
	out := make([]any, len(tasks))
	var firstErr error
	for i, f := range futs {
		v, err := f.Result()
		out[i] = v
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}

// Drain waits for every outstanding task to finish and frees the pending
// window. Call before releasing slots.
func (c *Client) Drain() {
	for c.n > 0 {
		f := c.harvestOldest()
		f.observeResolved()
	}
	if c.probe != nil {
		c.probe.Flush()
	}
}

// DrainErr drains like Drain and returns the first typed error among the
// outstanding tasks, so a caller shutting down can tell "all work done"
// from "work abandoned by a stopped or crashed worker".
func (c *Client) DrainErr() error {
	var firstErr error
	for c.n > 0 {
		f := c.harvestOldest()
		if _, err := f.Result(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if c.probe != nil {
		c.probe.Flush()
	}
	return firstErr
}

// Slots exposes the owned slots (for release back to the inbox).
func (c *Client) Slots() []*Slot { return c.slots }

// Worker runs the poll loop over one buffer until stop is closed.
// A worker is bound to exactly one buffer, mirroring FFWD's design.
type Worker struct {
	buf *Buffer
}

// NewWorker wraps a buffer into a pollable worker.
func NewWorker(buf *Buffer) *Worker { return &Worker{buf: buf} }

// Adaptive idle policy: after idleSpinSweeps consecutive empty sweeps the
// worker stops yield-spinning and parks in short sleeps with exponential
// backoff, capped at idleSleepMax — so an idle domain costs sleeps instead
// of a burning core. The first non-empty sweep resets the policy, which
// bounds the requickening latency of a post into an idle buffer by one
// sleep period (≤ idleSleepMax).
const (
	idleSpinSweeps = 128
	idleSleepMin   = time.Microsecond
	idleSleepMax   = 100 * time.Microsecond
)

// Run polls the buffer until stop is closed or the worker crashes. Empty
// sweeps first yield to the scheduler (so co-scheduled goroutines make
// progress on small machines) and then back off to parked sleeps under the
// adaptive idle policy, publishing stats before the first park.
//
// On a clean stop Run seals the buffer — the seal's final sweep answers
// every task posted before the seal, and a task racing past it is rescued
// with ErrWorkerStopped by its own client — then returns nil.
//
// A panic escaping the sweep (a fault-injected worker kill, or a bug in
// the protocol itself; task panics never escape, runTask converts them) is
// recovered here: every task posted in the buffer at crash time completes
// with a PanicError, and the crash is returned so a supervisor can respawn
// the worker. The buffer is NOT sealed on a crash — it keeps accepting
// posts for the respawned worker.
func (w *Worker) Run(stop <-chan struct{}) (crash error) {
	defer func() {
		// Publish the stat mirrors and the telemetry shard's local mirror:
		// this deferred func runs on the worker goroutine on both the clean
		// and crash exits.
		w.buf.SyncStats()
		if p := w.buf.probe; p != nil {
			p.Flush()
		}
		if r := recover(); r != nil {
			err := PanicError{Value: r}
			w.buf.FailPending(err)
			crash = err
		}
	}()
	idle := 0
	sleep := idleSleepMin
	for {
		if n := w.buf.Sweep(); n > 0 {
			idle, sleep = 0, idleSleepMin
			continue
		}
		select {
		case <-stop:
			w.buf.Seal()
			return nil
		default:
		}
		idle++
		switch {
		case idle < idleSpinSweeps:
			runtime.Gosched()
		case idle == idleSpinSweeps:
			w.buf.SyncStats() // publish before parking; flushes stall while asleep
			time.Sleep(sleep)
		default:
			time.Sleep(sleep)
			if sleep < idleSleepMax {
				sleep *= 2
			}
		}
	}
}
