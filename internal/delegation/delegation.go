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
//   - one op and its answer share one 64-byte line of their slot, and every
//     slot is its own line-aligned object, so clients never contend with each
//     other on a line and a typed op moves one line each way (see Slot);
//   - a slot has a single versioned state word toggled between "free" (even)
//     and "posted" (odd), advanced by exactly one client and claimed by the
//     sweeping worker, so the steady-state protocol needs no contended
//     read-modify-write atomics on the critical path;
//   - a worker buffer holds up to 15 slots, the batch FFWD answers with a
//     single response-line write; the worker drains all posted slots of a
//     buffer in one sweep (response batching).
//
// One way to post (DESIGN.md §10): every operation is an Op — a closure Task
// or a typed (Kern, Kind, Key, Val) key/value op, plus an optional WAL record
// encoder and a read flag — and every post goes Reserve → Post → Await. Post
// publishes into the slot's embedded, recycled Future; Delegate publishes the
// same Op with a detached heap Future for callers that hold the result longer
// than the slot lives.
//
// Hot-path memory discipline: the steady-state round trip allocates nothing
// and is O(1) per operation. The embedded Future's completion word carries a
// monotonically increasing generation (gen<<2 | state), so a slot reuses it
// across operations without ABA: every completion path — worker sweep, seal
// rescue, crash fail-over — first claims the slot (claim: a CAS on its
// versioned state word) and then publishes the result (answer: a CAS on the
// future's generation word), making both execution and completion exactly
// once per generation. Clients track free slots and outstanding delegations in
// fixed-capacity index rings, so posting never scans and never grows.
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
// never touch a newer one (no ABA). A typed op's value/found pair lives in
// its slot, not here (see Slot).
type Future struct {
	word atomic.Uint64 // gen<<2 | futPending/futValue/futError
	val  any
	err  error
	span *obs.Span // lifecycle span on sampled posts; nil almost always
}

// begin recycles the future for its next generation and returns the pending
// word completion paths must CAS against. Only the slot-owning client calls
// it, and only while the slot is free — no completer can hold a reference to
// the new generation yet, so plain stores suffice. The result fields are
// cleared only when set, so a typed round trip never writes their line.
func (f *Future) begin() uint64 {
	w := (f.word.Load()>>futGenShift + 1) << futGenShift
	if f.val != nil || f.err != nil || f.span != nil {
		f.val, f.err, f.span = nil, nil, nil
	}
	f.word.Store(w)
	return w
}

// await blocks until the generation identified by tok completes and returns
// its typed error, nil for a value result; the caller then reads the value
// channel the op used (val, or the slot's outV/outOK). Only the slot-owning
// client calls it (the embedded future is never handed out), so the word
// cannot move past tok's completion while we wait.
func (f *Future) await(tok uint64) error {
	w := f.word.Load()
	if w == tok {
		w = f.settle(tok, time.Time{}, nil)
	}
	failed := w&futStateMask == futError
	f.span.Resolve(failed)
	if failed {
		return f.err
	}
	return nil
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

// idlePolicy is the one backoff of both waiting sides — a client polling a
// future and a worker finding its buffer empty: yield spins times, so a
// result or post that is about to land costs no sleep, then sleep with
// exponential backoff from idleSleepMin to idleSleepMax, so a genuinely idle
// wait costs sleeps instead of a burning core. Bursting clients normally see
// their oldest future complete within the spin phase. The zero sleep field
// means no sleep taken yet; a fresh value restarts the policy.
type idlePolicy struct {
	spins int           // yields before the first sleep
	n     int           // pauses taken
	sleep time.Duration // last sleep, 0 before the first
}

// Spin budgets of the two waiting sides, and the sleep range they share.
const (
	waitSpins    = 256 // future polls: yields before the first sleep
	idleSpins    = 128 // worker empty sweeps: yields before the first sleep
	idleSleepMin = time.Microsecond
	idleSleepMax = 100 * time.Microsecond
)

// pause takes the policy's next step: a yield within the spin budget, a
// doubling sleep after it.
func (p *idlePolicy) pause() {
	if p.n < p.spins {
		p.n++
		runtime.Gosched()
		return
	}
	if p.sleep == 0 {
		p.sleep = idleSleepMin
	} else if p.sleep < idleSleepMax {
		p.sleep *= 2
	}
	time.Sleep(p.sleep)
}

// settle is the one wait: it blocks until the future's word moves off tok —
// the pending word of the generation being waited on — pausing under the
// idle policy between polls, and returns the word it moved to. A non-zero
// deadline or a non-nil done channel bounds the wait; when either ends it
// first, settle returns tok itself and the future stays valid to wait on
// again.
func (f *Future) settle(tok uint64, deadline time.Time, done <-chan struct{}) uint64 {
	p := idlePolicy{spins: waitSpins}
	for {
		if w := f.word.Load(); w != tok {
			return w
		}
		if done != nil {
			select {
			case <-done:
				return tok
			default:
			}
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return tok
		}
		p.pause()
	}
}

// block waits, as settle does, for the future's current generation and
// reports whether it completed.
func (f *Future) block(deadline time.Time, done <-chan struct{}) bool {
	tok := f.word.Load() &^ futStateMask
	return f.settle(tok, deadline, done) != tok
}

// outcome returns the completed future's value or typed error and finalises
// its lifecycle span.
func (f *Future) outcome() (any, error) {
	f.observeResolved()
	if f.word.Load()&futStateMask == futError {
		return nil, f.err
	}
	return f.val, nil
}

// result is outcome in Wait's historical shape: the value, or the error as
// the value (a PanicError came back through Wait as a plain value before
// futures grew an error channel).
func (f *Future) result() any {
	v, err := f.outcome()
	if err != nil {
		return err
	}
	return v
}

// Wait blocks until the result is available. An error-completed future
// yields its error as the returned value (use Result or Err for a typed
// error). Waiting spins briefly and then backs off to sleeping, so an idle
// wait does not burn a core.
func (f *Future) Wait() any {
	f.block(time.Time{}, nil)
	return f.result()
}

// Result blocks like Wait but separates the two completion channels: the
// task's value, or the typed error (PanicError, ErrWorkerStopped) when the
// task panicked or never ran.
func (f *Future) Result() (any, error) {
	f.block(time.Time{}, nil)
	return f.outcome()
}

// WaitTimeout waits up to d for the result. It returns ErrWaitTimeout when
// the deadline expires first; the future remains valid and may still
// complete afterwards.
func (f *Future) WaitTimeout(d time.Duration) (any, error) {
	if !f.block(time.Now().Add(d), nil) {
		return nil, ErrWaitTimeout
	}
	return f.outcome()
}

// WaitCtx waits until the result is available or the context is cancelled,
// returning the context's error in the latter case. The future remains
// valid after cancellation.
func (f *Future) WaitCtx(ctx context.Context) (any, error) {
	if !f.block(time.Time{}, ctx.Done()) {
		return nil, ctx.Err()
	}
	return f.outcome()
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
//
// Layout (DESIGN.md §10, pinned by TestSlotLayout): the first 64 bytes hold
// all a typed op and its answer touch — state, the typed op, its result and
// the embedded future's word. NewBuffer allocates each slot as its own
// slotBytes object, a line multiple of at most 512 B, which the allocator
// places line-aligned with no malloc header. The rest is cold: post writes it
// only when it changes (a func whenever the op carries one: funcs do not
// compare), so a slot keeps its last closure until a later post replaces it.
type Slot struct {
	state atomic.Uint64
	kern  BatchKernel // typed op's kernel; nil for closure ops
	key   uint64
	val   uint64
	outV  uint64 // typed result, written by the completer before its CAS
	kind  uint8
	ro    bool // op is read-only: the sweep must not count it as a mutating batch
	outOK bool
	fut0  Future // recycled future of every Post; its word ends the hot line

	task  Task
	enc   func(dst []byte) []byte
	fut   *Future
	buf   *Buffer
	owner int32                 // client id for diagnostics; -1 = unowned
	_     [slotBytes - 140]byte // 140: the end of owner
}

// slotBytes pads a Slot to a 128-byte line pair of its own.
const slotBytes = 256

// posted reports whether the slot currently holds an unclaimed task.
func (s *Slot) posted() bool { return s.state.Load()&1 == 1 }

// claim is the one posted→free step every consumer takes before it answers a
// slot's op: it skips a free slot and an already-answered future, then CASes
// the state word off the exact posted value it observed. It returns the
// future's pending word to answer against and whether the claim won; a loser
// walks away, because the winner — a racing sweep or rescue — answers.
func claim(s *Slot) (uint64, bool) {
	v := s.state.Load() // acquire: sees the op fields when posted
	if v&1 == 0 {
		return 0, false
	}
	w := s.fut.word.Load()
	return w, w&futStateMask == futPending && s.state.CompareAndSwap(v, v+1)
}

// answer is the one completion step: it stores a typed error or a non-nil
// value, stamps the span's response, and CASes f's word from the pending
// word w to its completed state, counting a won error answer in Failed. It
// reports whether the CAS won. A typed op's value travels in its slot, so it
// answers with (nil, nil) and never writes the future's cold line.
func (b *Buffer) answer(f *Future, w uint64, v any, err error) bool {
	state := futValue
	if err != nil {
		f.err = err
		state = futError
	} else if v != nil {
		f.val = v
	}
	f.span.MarkResponded()
	if !f.word.CompareAndSwap(w, w|state) {
		return false
	}
	if err != nil {
		b.Failed.Add(1)
	}
	return true
}

// Op is the one descriptor of a delegated operation: a closure Task, or a
// typed key/value op (Kern, Kind, Key, Val) that the sweep batches with
// neighbouring typed ops on the same kernel. Log, on a closure op, is the
// op's logical WAL record encoder: with a WAL sink installed the sweep stages
// its output after the task runs and completes the future only after the
// batch group-commits, so success implies durable; without a sink it is
// ignored. Read marks a closure op the caller guarantees is read-only, so the
// sweep does not open a mutating window for it. A typed op's read flag is
// derived from its Kind, and typed ops are never logged.
type Op struct {
	Task Task
	Log  func(dst []byte) []byte
	Read bool

	Kern BatchKernel
	Kind uint8
	Key  uint64
	Val  uint64
}

// read reports whether op posts read-only.
func (op *Op) read() bool {
	if op.Kern != nil {
		return op.Kind == KVGet
	}
	return op.Read
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
	slots  []*Slot

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
	b := &Buffer{worker: worker, slots: make([]*Slot, n)}
	for i := range b.slots {
		b.slots[i] = &Slot{owner: -1, buf: b} // one object each: see Slot
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
// execution and the batch's group commit.
type walStash struct {
	f   *Future
	w   uint64
	res any
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
	for _, s := range b.slots {
		if s.posted() {
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
//  1. Claim: every posted slot is claimed (claim); a loser walks away. Slot
//     fields stay readable after the claim — the owning client never
//     reposts before observing its completion.
//  2. Execute: claimed slots run in slot order. Each maximal run of typed
//     slots sharing a kernel executes through one ExecBatch call, which
//     interleaves their traversal stages around software prefetches so the
//     run's cache misses overlap. Opaque closure tasks execute in place, so
//     a mixed pass preserves slot order end to end.
//  3. Answer: results publish through answer. With a WAL sink installed,
//     the first claimed slot opens the log batch — Begin takes the domain
//     quiescence gate's read side for every execution in the pass, logged
//     or not, so recovery's in-place restore quiesces behind all of them.
//     Logged closure mutations stage their records in execution order and
//     park in the stash until the end-of-pass group commit: a client
//     observes success (and the span its response) only once its record
//     is durable (DESIGN.md §13). Reads, typed ops (never logged), unlogged
//     tasks and failed ops answer inline. A pass that has staged a record
//     claims again before it commits, and executes what it finds, so a
//     post that landed while the pass ran shares its flush instead of
//     waiting out a flush of its own. It repeats while a claim finds
//     something, up to SlotsPerBuffer claims per pass: a client re-posting
//     inline-answered ops cannot hold the commit back beyond that.
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
	for _, s := range b.slots {
		w, ok := claim(s)
		if !ok {
			continue
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
			b.answer(sh.f, sh.w, nil, PanicError{Value: r})
			*sh = walStash{}
		}
		// Claimed-but-unanswered slots (nil entries are ops a partially
		// answered run already published).
		for g := done; g < nc; g++ {
			if s := st.slot[g]; s != nil {
				b.answer(s.fut, st.w[g], nil, PanicError{Value: r})
				st.slot[g] = nil
			}
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
	for {
		if done == nc {
			if ns == 0 {
				break
			}
			// Late posts join the flush. A staged record means a non-read
			// op was claimed, so the mutating window is already open for
			// whatever this claim adds.
			for _, s := range b.slots {
				if nc == len(st.slot) {
					break
				}
				if w, ok := claim(s); ok {
					st.slot[nc] = s
					st.w[nc] = w
					nc++
				}
			}
			if done == nc {
				break
			}
		}
		s := st.slot[done]
		if s.kern == nil {
			// Opaque closure task: executes in place.
			f := s.fut
			w := st.w[done]
			ro := s.ro
			enc := s.enc
			sp := f.span // nil unless this task's post was trace-sampled
			sp.MarkSwept(b.worker)
			var tt int64
			if probe != nil {
				tt = probe.TaskBegin()
			}
			sp.MarkExecStart()
			res := runTask(s.task, hook, b.worker)
			sp.MarkExecEnd()
			if probe != nil {
				probe.TaskEnd(tt)
			}
			if pe, ok := res.(PanicError); ok {
				b.answer(f, w, nil, pe)
			} else if logging && enc != nil && !ro {
				b.wal.StageRecord(enc)
				st.stash[ns] = walStash{f: f, w: w, res: res}
				ns++
			} else {
				b.answer(f, w, res, nil)
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
			sg.fut.span.MarkExecEnd()
			if kerr == nil {
				sg.outV, sg.outOK = st.outV[g], st.outOK[g]
			}
			b.answer(sg.fut, st.w[g], nil, kerr)
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
				b.answer(sh.f, sh.w, nil, PanicError{Value: err})
			} else {
				b.answer(sh.f, sh.w, sh.res, nil)
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
// client (see Client.post). Seal is idempotent and safe to call from a
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
	for _, s := range b.slots {
		if w, ok := claim(s); ok && b.answer(s.fut, w, nil, err) {
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
	if w, ok := claim(s); ok && b.answer(s.fut, w, nil, ErrWorkerStopped) {
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
		for _, s := range in.buffers[bi].slots {
			if len(out) == n {
				break
			}
			if s.owner == -1 {
				s.owner = owner
				out = append(out, s)
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

// Client delegates ops through slots it owns, keeping up to len(slots) ops
// outstanding (the paper's bursting delegation mode; Section 6). A Client is
// not safe for concurrent use — it models one application thread, as in FFWD.
//
// Every op takes the same three steps: Reserve a free slot, Post the op into
// it (or Delegate it, for a detached future), Await the handle. Bookkeeping
// is O(1) and allocation-free: free slots live on a fixed index stack,
// Delegate's outstanding futures in a fixed-capacity FIFO ring — there is no
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

// harvestOldest retires the oldest outstanding delegation: waits for its
// future and returns its slot to the free stack. The completer has already
// advanced the slot's version to free before publishing the result, so
// observing the future settles slot ownership too.
func (c *Client) harvestOldest() *Future {
	op := &c.ring[c.head]
	f := op.fut
	f.block(time.Time{}, nil)
	c.free = append(c.free, op.slot)
	op.fut = nil
	c.head++
	if c.head == len(c.ring) {
		c.head = 0
	}
	c.n--
	return f
}

// InvokeHandle identifies one posted op: the slot whose embedded future
// carries the result and the generation token to await. It is a value, not a
// pointer — pipelined callers keep handles in their own storage, so the burst
// path stays allocation-free.
type InvokeHandle struct {
	slot int32
	tok  uint64
}

// Reserve pops a free slot for the next Post or Delegate. When no slot is
// free it first retires the oldest outstanding delegation — the
// throughput-maximising bursting mode of Section 6; when every slot is held
// by an un-awaited handle it reports false — the caller owns those handles
// and must Await one to free a slot.
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

// Post publishes op into slot i, obtained from Reserve, without waiting and
// returns the handle to Await (AwaitKV for a typed op). This is the
// zero-allocation path: the slot's embedded future is recycled for this
// generation and never escapes, and a client keeps as many ops in flight as
// it reserved slots, synchronising once per dependency barrier instead of
// once per op.
func (c *Client) Post(i int32, op *Op) InvokeHandle {
	return InvokeHandle{slot: i, tok: c.post(i, op, nil)}
}

// PostReservedKV is Post of a typed op: Post(i, &Op{Kern: kern, Kind: kind,
// Key: key, Val: val}), written out so it stays inlinable.
func (c *Client) PostReservedKV(i int32, kern BatchKernel, kind uint8, key, val uint64) InvokeHandle {
	return InvokeHandle{slot: i, tok: c.post(i, &Op{Kern: kern, Kind: kind, Key: key, Val: val}, nil)}
}

// Delegate publishes op into slot i, obtained from Reserve, with a detached
// future: heap-allocated, generation 0, so the caller may hold it for as long
// as it likes, independent of slot reuse. The slot returns to the free stack
// when a later Reserve or Drain retires the delegation. The future carries a
// closure op's value; a typed op completes it with a nil value, because its
// value/found pair lives in the slot and comes back only through Post and
// AwaitKV.
func (c *Client) Delegate(i int32, op *Op) *Future {
	f := &Future{}
	c.post(i, op, f)
	tail := c.head + c.n
	if tail >= len(c.ring) {
		tail -= len(c.ring)
	}
	c.ring[tail] = pendingOp{slot: i, fut: f}
	c.n++
	return f
}

// post is the one publication path: it counts op on the probe, writes op
// and its future into slot i and advances the slot's state word to posted.
// The slot must be owned and free. f is a fresh detached future (Delegate),
// or nil to post through the slot's embedded future, whose next generation
// post begins and whose pending token it returns (Post). Hot-line fields are
// always written, cold ones only when they change (see Slot).
//
// The sealed check after the posted store closes the stop/post race: both
// sides use sequentially consistent atomics, so either the worker's final
// sweep observes the posted slot, or this client observes the seal and
// rescues its own op with ErrWorkerStopped — a post can never dangle.
func (c *Client) post(i int32, op *Op, f *Future) (tok uint64) {
	s := c.slots[i]
	ro := op.read()
	detached := f != nil
	if !detached {
		f = &s.fut0
		tok = f.begin()
	}
	if p := c.probe; p != nil {
		// The read/write split is known right here and nowhere cheaper:
		// counting reads at this branch gives the signal sampler its write
		// fraction without any bookkeeping on the write path. The embedded
		// future resolves its span exactly once per generation, so it can
		// take a recycled span; a detached future's holder may resolve long
		// after the span would recycle, so it takes a fresh one.
		if ro {
			p.CountRead()
		}
		if detached {
			f.span = p.Post()
		} else if sp := p.PostRecycled(); sp != nil {
			f.span = sp
		}
	}
	s.kern, s.kind, s.key, s.val, s.ro = op.Kern, op.Kind, op.Key, op.Val, ro
	if op.Task != nil || op.Log != nil || s.task != nil || s.enc != nil || s.fut != f {
		s.task, s.enc, s.fut = op.Task, op.Log, f
	}
	s.state.Store(s.state.Load() + 1) // release: publishes the op to the worker
	if s.buf.sealed.Load() {
		s.buf.rescue(s)
	}
	return tok
}

// Await blocks until a closure op's handle completes, frees its slot, and
// returns the result: the task's value, or the typed error (PanicError when
// it panicked, ErrWorkerStopped when it never ran). Each handle must be
// awaited exactly once; handles may be awaited in any order (each lives in
// its own slot's embedded future).
func (c *Client) Await(h InvokeHandle) (any, error) {
	f := &c.slots[h.slot].fut0
	err := f.await(h.tok)
	c.free = append(c.free, h.slot)
	if err != nil {
		return nil, err
	}
	return f.val, nil
}

// AwaitKV is Await for a typed op: it returns the kernel's value/found pair
// without boxing.
func (c *Client) AwaitKV(h InvokeHandle) (uint64, bool, error) {
	s := c.slots[h.slot]
	err := s.fut0.await(h.tok)
	c.free = append(c.free, h.slot)
	if err != nil {
		return 0, false, err
	}
	return s.outV, s.outOK, nil
}

// HandleDone reports, without blocking or freeing the slot, whether the
// handle's op has completed. Valid only between Post and Await — the
// embedded future's word equals the handle's token exactly while that
// generation is pending.
func (c *Client) HandleDone(h InvokeHandle) bool {
	return c.slots[h.slot].fut0.word.Load() != h.tok
}

// Drain waits for every outstanding delegation to finish, frees its slot,
// and returns the first typed error among them, so a caller shutting down
// can tell "all work done" from "work abandoned by a stopped or crashed
// worker". Call before releasing slots.
func (c *Client) Drain() error {
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

// Run polls the buffer until stop is closed or the worker crashes. Each
// empty sweep pauses under the idle policy with the worker's budget of
// idleSpins yields — so co-scheduled goroutines make progress on small
// machines and an idle domain costs sleeps instead of a burning core — and
// stats publish before the first sleep. The first non-empty sweep restarts
// the policy, which bounds the requickening latency of a post into an idle
// buffer by one sleep period. Run looks at stop after every empty sweep and,
// under sustained load, on the stat-flush cadence (every statFlushEvery
// sweeps), so a stop is seen even while every sweep finds work.
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
	idle := idlePolicy{spins: idleSpins}
	for {
		n := w.buf.Sweep()
		if n == 0 || w.buf.sinceFlush == 0 {
			select {
			case <-stop:
				w.buf.Seal()
				return nil
			default:
			}
		}
		if n > 0 {
			idle = idlePolicy{spins: idleSpins}
			continue
		}
		if idle.n == idle.spins {
			w.buf.SyncStats() // the next pause sleeps, and flushes stall while asleep
		}
		idle.pause()
	}
}
