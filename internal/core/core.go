// Package core is the paper's runtime system (Section 3.2 and 6): it
// executes asynchronous data-aware tasks inside virtual domains according to
// a configuration. A configuration declares (1) the virtual domains —
// arbitrary partitions of the machine's logical CPUs with a worker placement
// and a memory allocation policy — and (2) the assignment of data structure
// instances to domains. The runtime spawns one worker per domain CPU, each
// owning an FFWD-style message buffer; the domain's inbox is composed of
// those buffers; client sessions obtain slot ownership (NUMA-nearest worker
// first) and delegate tasks, consuming results through futures.
//
// Reconfiguration is offline, as in the paper: Runtime.Stop drains all
// workers, and a new Runtime is started from the next configuration.
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"robustconf/internal/affinity"
	"robustconf/internal/delegation"
	"robustconf/internal/mem"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
	"robustconf/internal/topology"
	"robustconf/internal/wal"
)

// PlacementPolicy controls how a domain's workers relate to its CPUs
// (Section 5.1: strict pinning vs. allowed migration).
type PlacementPolicy int

const (
	// PlacePinned binds worker i to the domain's i-th CPU; the NUMA-aware
	// slot assignment uses this binding.
	PlacePinned PlacementPolicy = iota
	// PlaceMigratable lets workers float over the domain's CPUs; slot
	// assignment then treats all workers as equidistant.
	PlaceMigratable
)

// MemoryPolicy controls where a domain's allocations are homed.
type MemoryPolicy int

const (
	// MemLocal homes memory on each worker's own socket.
	MemLocal MemoryPolicy = iota
	// MemInterleaved spreads memory across the sockets the domain spans.
	MemInterleaved
)

// DefaultRestartBudget is the number of worker respawns a domain is granted
// after crashes when its spec does not set one.
const DefaultRestartBudget = 8

// DomainSpec declares one virtual domain.
type DomainSpec struct {
	Name      string
	CPUs      topology.CPUSet
	Placement PlacementPolicy
	Memory    MemoryPolicy

	// RestartBudget bounds how many times the domain respawns crashed
	// workers (shared across the domain's workers). 0 means
	// DefaultRestartBudget; negative disables respawning — a crashed
	// worker's buffer is sealed immediately and posts into it are answered
	// with ErrWorkerStopped.
	RestartBudget int
}

// budget resolves the spec's restart budget.
func (d DomainSpec) budget() int {
	if d.RestartBudget == 0 {
		return DefaultRestartBudget
	}
	if d.RestartBudget < 0 {
		return 0
	}
	return d.RestartBudget
}

// Config is a full runtime configuration: the machine, its partitioning
// into virtual domains, and the structure→domain assignment.
type Config struct {
	Machine *topology.Machine
	Domains []DomainSpec
	// Assignment maps a data structure instance name to the index of the
	// domain that owns it.
	Assignment map[string]int
	// PinWorkers makes PlacePinned domains pin their worker goroutines to
	// the OS CPUs named by the domain's CPU set (Linux sched_setaffinity;
	// a no-op elsewhere). Use with a topology.DetectHost machine so the
	// CPU ids are real host ids. Off by default: simulated topologies'
	// ids don't correspond to host CPUs.
	PinWorkers bool
	// FaultHook, when non-nil, is installed into every worker buffer for
	// deterministic fault injection (see internal/faultinject). Nil — the
	// default — leaves the delegation hot path untouched.
	FaultHook delegation.FaultHook
	// Faults receives the runtime's fault-tolerance counters. Nil — the
	// default — reports to the process-wide metrics.Faults; harnesses inject
	// their own set so concurrent runs don't bleed into each other.
	Faults *metrics.FaultCounters
	// Obs, when non-nil, attaches the runtime to an observability layer:
	// every worker buffer gets a telemetry shard, sessions get client
	// shards, worker goroutines carry pprof labels, and lifecycle events
	// (crash, respawn, stop) are recorded. Nil — the default — leaves the
	// delegation hot path untouched.
	Obs *obs.Observer
	// ReadPolicies maps structure names to their read-path policy (see
	// ReadPolicy and Session.SubmitRead). Structures absent from the map —
	// and structures that do not vouch for concurrent-reader safety — use
	// ReadDelegate.
	ReadPolicies map[string]ReadPolicy
	// WAL configures per-domain write-ahead logging and checkpointing (see
	// wal.go). The zero value disables it: no log is opened, no structure
	// is snapshotted, and the delegation hot path is unchanged.
	WAL WALConfig
	// Arena configures the per-worker batch arenas (internal/mem): each
	// domain worker owns an arena recycled at sweep-batch boundaries, and
	// the WAL's staging buffers draw from it. The zero value disables it.
	Arena ArenaConfig
	// BatchExec is ignored.
	//
	// Deprecated: every worker sweep claims its whole pass and runs typed
	// ops through the structure's batch kernel (DESIGN.md §15); there is no
	// other sweep left to select. The field is kept so configurations that
	// still set it compile, and Validate never reads it.
	BatchExec BatchExecConfig
}

// ArenaConfig is the arena axis of a configuration: whether domain workers
// get batch arenas, and how they are sized. The composer (internal/config)
// disables the axis for plans whose structures retain references into
// client buffers, where batch-boundary recycling would be unsound.
type ArenaConfig struct {
	// Enabled turns per-worker batch arenas on.
	Enabled bool
	// SlabAllocs sizes each size class's slabs in max-size
	// allocations-per-slab (0 = the mem package default).
	SlabAllocs int
	// MaxBytes caps one arena's retained slab bytes; past it, allocations
	// fall back to the heap and are counted (0 = unlimited).
	MaxBytes int
}

// BatchExecConfig is the former interleaved-execution axis; both fields are
// ignored.
//
// Deprecated: batched sweep execution is always on and a kernel run is
// bounded by the buffer's slot count, so neither Enabled nor Width chooses
// anything. The type is kept so configurations that still set it compile.
type BatchExecConfig struct {
	Enabled bool
	Width   int
}

// Validate checks the configuration's internal consistency.
func (c *Config) Validate() error {
	if c.Machine == nil {
		return fmt.Errorf("core: config has no machine")
	}
	if len(c.Domains) == 0 {
		return fmt.Errorf("core: config has no domains")
	}
	names := map[string]struct{}{}
	for i, d := range c.Domains {
		if d.Name == "" {
			return fmt.Errorf("core: domain %d has no name", i)
		}
		if _, dup := names[d.Name]; dup {
			return fmt.Errorf("core: duplicate domain name %q", d.Name)
		}
		names[d.Name] = struct{}{}
		if d.CPUs.Len() == 0 {
			return fmt.Errorf("core: domain %q has no CPUs", d.Name)
		}
		for _, id := range d.CPUs.IDs() {
			if id < 0 || id >= c.Machine.LogicalCPUs() {
				return fmt.Errorf("core: domain %q uses CPU %d outside machine (%d CPUs)", d.Name, id, c.Machine.LogicalCPUs())
			}
		}
		for j := 0; j < i; j++ {
			if c.Domains[j].CPUs.Intersects(d.CPUs) {
				return fmt.Errorf("core: domains %q and %q overlap on CPUs", c.Domains[j].Name, d.Name)
			}
		}
	}
	for s, di := range c.Assignment {
		if di < 0 || di >= len(c.Domains) {
			return fmt.Errorf("core: structure %q assigned to domain %d of %d", s, di, len(c.Domains))
		}
	}
	for s, p := range c.ReadPolicies {
		if _, ok := c.Assignment[s]; !ok {
			return fmt.Errorf("core: read policy for unassigned structure %q", s)
		}
		if p < ReadDelegate || p > ReadAdaptive {
			return fmt.Errorf("core: structure %q has invalid read policy %d", s, int(p))
		}
	}
	return nil
}

// Task is an asynchronous data-aware task (Section 4): it names the data
// structure instance it targets and carries the access operation. The
// runtime routes it to the owning domain; Op receives the registered
// structure and its return value becomes the future's result.
type Task struct {
	Structure string
	Op        func(ds any) any
	// Log, when non-nil on a WAL-enabled runtime, marks the task as a
	// logged mutation: the worker appends Log's output (the operation's
	// logical record, fed to Durable.WALApply on replay) to its domain log
	// during the sweep, and the future completes only after the sweep
	// batch's group commit — success implies the record is durable. Log
	// runs on the worker goroutine immediately after Op, so it may encode
	// post-state Op computed. Nil tasks are not logged; so are read-only
	// submissions regardless of Log.
	Log func(dst []byte) []byte
}

// Domain is a running virtual domain: its workers, inbox and structures.
type Domain struct {
	spec       DomainSpec
	index      int
	inbox      *delegation.Inbox
	workerCPUs []int // CPU of worker i (placement binding)
	structures map[string]any
	stop       chan struct{}
	wg         sync.WaitGroup
	restarts   atomic.Int64 // worker respawns consumed (shared budget)
	dead       atomic.Bool  // budget exhausted: domain retired for good

	// Durability (nil / no-op without Config.WAL): the domain's log and
	// the recovery closure supervise runs before respawning a crashed
	// worker (built in setupWAL; it needs the runtime for routing state).
	// The closure receives the crashed worker's id so recovery can discard
	// that worker's arena — the call runs on the crashed worker's own
	// (supervisor) goroutine, which is what makes the owner-only Discard
	// legal there.
	wal       *wal.DomainLog
	recoverFn func(worker int)

	// arenas holds worker i's batch arena (nil slice when Config.Arena is
	// off). Per-worker, not per-domain: AcquireSlots may spread one
	// client's slots over several buffers, so tasks for one structure
	// execute on multiple workers concurrently and a shared arena would
	// race its owner-only bump pointer.
	arenas []*mem.Arena

	faults *metrics.FaultCounters
	obs    *obs.Observer  // nil when observability is not attached
	obsDom *obs.DomainObs // nil when observability is not attached
}

// event records a lifecycle event when observability is attached.
func (d *Domain) event(worker int, kind string) {
	if d.obs != nil {
		d.obs.Lifecycle(d.spec.Name, worker, kind)
	}
}

// externalCounters is the snapshot-time closure the obs layer calls for
// counters the runtime owns: failure accounting and queue depth from the
// buffer atomics, restart budget, and the WAL's durability stats. Called
// from scrape/sampler goroutines; everything it reads is atomic or behind
// the WAL's own lock, and it allocates nothing (the signal sampler's tick
// is pinned allocation-free).
func (d *Domain) externalCounters() obs.DomainExternal {
	var ext obs.DomainExternal
	for _, b := range d.inbox.Buffers() {
		ext.Failed += b.Failed.Load()
		ext.Rescued += b.Rescued.Load()
		// The published gauge, not the live slot scan: the endpoint polls
		// from foreign goroutines and only needs a bounded-staleness queue
		// depth.
		ext.Pending += b.PendingPublished()
		ext.BatchKernelOps += b.BatchKernelOps.Load()
	}
	ext.Restarts = d.restarts.Load()
	ext.BudgetRemaining = d.BudgetRemaining()
	if d.wal != nil {
		st := d.wal.Stats()
		ext.Recoveries = st.Recoveries
		ext.WALReplayed = st.Replayed
		ext.WALReplayNs = st.ReplayNs
		ext.WALCommitted = st.Committed
		ext.WALLastCheckpoint = st.LastCheckpoint
	}
	for _, a := range d.arenas {
		st := a.Snapshot()
		ext.ArenaLiveBytes += st.LiveBytes
		ext.ArenaCapBytes += st.CapBytes
		ext.ArenaOverflows += st.Overflows
		ext.ArenaResets += st.Resets
		ext.ArenaDiscards += st.Discards
	}
	return ext
}

// Restarts returns how many worker respawns the domain has consumed.
func (d *Domain) Restarts() int64 { return d.restarts.Load() }

// allowRestart consumes one respawn token, reporting whether the domain's
// budget still covers it.
func (d *Domain) allowRestart() bool {
	return d.restarts.Add(1) <= int64(d.spec.budget())
}

// Spec returns the domain's declaration.
func (d *Domain) Spec() DomainSpec { return d.spec }

// Workers returns the number of worker threads in the domain.
func (d *Domain) Workers() int { return len(d.workerCPUs) }

// Inbox exposes the composed inbox (for stats).
func (d *Domain) Inbox() *delegation.Inbox { return d.inbox }

// Runtime executes tasks under one configuration. Construct with Start.
type Runtime struct {
	cfg     Config
	domains []*Domain
	faults  *metrics.FaultCounters

	// readStates holds the per-structure read-bypass state for structures
	// whose effective policy is not ReadDelegate. Built once in Start and
	// read-only afterwards, so the read hot path probes it without a lock.
	readStates map[string]*readState

	mu      sync.Mutex
	stopped bool

	// walMu serializes the operations that walk a domain's structure set
	// while touching structure state — checkpoints, crash recovery, and the
	// ownership swap in Migrate. Without it, a structure could migrate away
	// between recovery's snapshot of the domain and its in-place restore,
	// leaving recovery rewriting state the new owner domain is mutating.
	// Acquired before rt.mu; never held by hot paths and never across the
	// migration quiesce (a crashed worker's recovery needs it to respawn
	// and drain, so holding it there would deadlock).
	walMu sync.Mutex
	// migrating counts in-flight migrations (guarded by walMu). While it is
	// non-zero, periodic checkpoints skip their tick: a straggler task still
	// draining in the old domain may be mutating the moving structure, and a
	// checkpoint snapshot in the new domain would race it. Crash recovery
	// needs no such guard — it only restores structures present in the
	// domain's last checkpoint, which a mid-migration structure never is.
	migrating int
}

// Faults returns the fault-counter set this runtime reports to (the
// injected cfg.Faults, or the process-wide metrics.Faults).
func (rt *Runtime) Faults() *metrics.FaultCounters { return rt.faults }

// Observer returns the attached observability layer, nil when none.
func (rt *Runtime) Observer() *obs.Observer { return rt.cfg.Obs }

// Start validates cfg, registers the given data structures, spawns the
// domain workers and returns the running runtime. Every structure in
// cfg.Assignment must be present in structures and vice versa.
func Start(cfg Config, structures map[string]any) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for name := range structures {
		if _, ok := cfg.Assignment[name]; !ok {
			return nil, fmt.Errorf("core: structure %q has no domain assignment", name)
		}
	}
	for name := range cfg.Assignment {
		if _, ok := structures[name]; !ok {
			return nil, fmt.Errorf("core: assignment references unknown structure %q", name)
		}
	}
	rt := &Runtime{cfg: cfg, faults: cfg.Faults}
	rt.readStates = buildReadStates(cfg.ReadPolicies, structures)
	if rt.faults == nil {
		rt.faults = metrics.Faults
	}
	if cfg.Obs != nil {
		cfg.Obs.SetFaults(rt.faults)
	}
	for i, spec := range cfg.Domains {
		d := &Domain{
			spec:       spec,
			index:      i,
			structures: map[string]any{},
			stop:       make(chan struct{}),
			workerCPUs: spec.CPUs.IDs(),
			faults:     rt.faults,
			obs:        cfg.Obs,
		}
		if cfg.Obs != nil {
			d.obsDom = cfg.Obs.Domain(spec.Name, len(d.workerCPUs))
		}
		var bufs []*delegation.Buffer
		for w := range d.workerCPUs {
			b, err := delegation.NewBuffer(w, delegation.SlotsPerBuffer)
			if err != nil {
				return nil, err
			}
			if d.obsDom != nil {
				b.SetProbe(d.obsDom.Worker(w))
			}
			if cfg.Arena.Enabled {
				a := mem.New(mem.Options{SlabAllocs: cfg.Arena.SlabAllocs, MaxBytes: cfg.Arena.MaxBytes})
				d.arenas = append(d.arenas, a)
				b.SetArena(a)
			}
			bufs = append(bufs, b)
		}
		inbox, err := delegation.NewInbox(bufs)
		if err != nil {
			return nil, err
		}
		d.inbox = inbox
		rt.domains = append(rt.domains, d)
	}
	for name, di := range cfg.Assignment {
		rt.domains[di].structures[name] = structures[name]
	}
	if cfg.WAL.Enabled() {
		// Open the per-domain logs, take the initial checkpoints (replay
		// always has a base) and start the checkpoint cadence — before
		// workers spawn, so no sweep ever runs without its log handle.
		if err := rt.setupWAL(); err != nil {
			return nil, err
		}
		rt.startCheckpointers()
	}
	// Install the obs external-counter closures only now, after setupWAL:
	// the closure reads d.wal, and an endpoint scrape can race Start (the
	// observer may already be serving). Ordering the install after the WAL
	// assignment — with SetExternal's mutex pairing against the snapshot's
	// — makes the write visible to every scrape that sees the closure.
	if cfg.Obs != nil {
		for _, d := range rt.domains {
			d.obsDom.SetExternal(d.externalCounters)
		}
	}
	// Spawn workers after all registration so a task can never observe a
	// half-registered domain. Each worker runs under a supervisor loop that
	// respawns it on its CPU after a crash, within the domain's restart
	// budget.
	for _, d := range rt.domains {
		for wi, b := range d.inbox.Buffers() {
			if cfg.FaultHook != nil {
				b.SetFaultHook(cfg.FaultHook)
			}
			d.wg.Add(1)
			cpu := d.workerCPUs[wi]
			pin := cfg.PinWorkers && d.spec.Placement == PlacePinned
			go func(d *Domain, b *delegation.Buffer, cpu int, pin bool) {
				defer d.wg.Done()
				// Whatever path exits the supervisor, the buffer ends
				// sealed: the seal's final pass answers anything still
				// posted, and later posts are rescued with
				// ErrWorkerStopped — no future can dangle.
				defer b.Seal()
				if d.obs != nil {
					// Label the goroutine so CPU profiles off the obs
					// endpoint attribute samples per domain/worker.
					pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
						pprof.Labels("domain", d.spec.Name, "worker", strconv.Itoa(b.Worker()))))
					d.event(b.Worker(), obs.EventWorkerStart)
				}
				if pin {
					if unpin, err := affinity.Pin(cpu); err == nil {
						defer unpin()
					}
					// A pinning failure (e.g. the CPU is offline) degrades
					// to migratable placement rather than failing the
					// domain.
				}
				supervise(d, b)
			}(d, b, cpu, pin)
		}
	}
	return rt, nil
}

// supervise runs the worker poll loop, respawning it after crashes with
// exponential backoff until the stop channel closes or the domain's restart
// budget is exhausted. A crash has already failed the buffer's posted tasks
// with a PanicError (see delegation.Worker.Run); the respawned worker picks
// up anything posted since. On a WAL-enabled runtime the respawn is
// preceded by recovery: the domain quiesces, the latest checkpoint restores
// and the committed log tail replays, healing any state the crash tore
// (recoverDomain documents why no read can observe the restore in flight).
func supervise(d *Domain, b *delegation.Buffer) {
	for attempt := 0; ; attempt++ {
		crash := delegation.NewWorker(b).Run(d.stop)
		if crash == nil {
			return // clean stop; Run sealed the buffer
		}
		d.faults.WorkerPanics.Add(1)
		d.event(b.Worker(), obs.EventWorkerCrash)
		if !d.allowRestart() {
			d.dead.Store(true) // submissions now fail with ErrDomainDead
			d.faults.RestartsExhausted.Add(1)
			d.event(b.Worker(), obs.EventRestartsExhausted)
			return // deferred Seal retires the buffer
		}
		select {
		case <-d.stop:
			return
		case <-time.After(restartBackoff(attempt)):
		}
		if d.recoverFn != nil {
			d.recoverFn(b.Worker())
		}
		d.faults.WorkerRestarts.Add(1)
		d.event(b.Worker(), obs.EventWorkerRespawn)
	}
}

// restartBackoff spaces respawn attempts: 50µs doubling to a 10ms cap, so a
// crash loop cannot monopolise a CPU while staying far below any client
// timeout.
func restartBackoff(attempt int) time.Duration {
	d := 50 * time.Microsecond
	for i := 0; i < attempt && d < 10*time.Millisecond; i++ {
		d *= 2
	}
	if d > 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	return d
}

// Config returns the configuration the runtime was started with.
func (rt *Runtime) Config() Config { return rt.cfg }

// Domains returns the running domains in configuration order.
func (rt *Runtime) Domains() []*Domain { return rt.domains }

// DomainOf returns the domain owning the named structure. The assignment is
// read under the runtime lock so it stays consistent with live migrations.
func (rt *Runtime) DomainOf(structure string) (*Domain, error) {
	d, _, err := rt.route(structure)
	return d, err
}

// route resolves a structure to its current domain and instance atomically
// with respect to Migrate. Routing to a domain that exhausted its restart
// budget fails fast with ErrDomainDead — the tasks would only ever be
// answered with ErrWorkerStopped by its sealed buffers.
func (rt *Runtime) route(structure string) (*Domain, any, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	di, ok := rt.cfg.Assignment[structure]
	if !ok {
		return nil, nil, fmt.Errorf("core: unknown structure %q", structure)
	}
	d := rt.domains[di]
	if d.dead.Load() {
		return nil, nil, fmt.Errorf("core: structure %q: %w", structure, ErrDomainDead)
	}
	return d, d.structures[structure], nil
}

// Stop drains and terminates all workers. It is the first half of the
// paper's offline reconfiguration: after Stop returns, no task is in flight
// and a new Runtime may be started with a different configuration over the
// same structures.
//
// Draining is exact, not best-effort: every worker seals its buffer on the
// way out, the seal's final sweep executes everything already posted, and a
// task racing past the seal completes with ErrWorkerStopped — so every
// future held by an open session resolves, and sessions that keep
// submitting after Stop get typed errors instead of hanging.
func (rt *Runtime) Stop() {
	rt.mu.Lock()
	if rt.stopped {
		rt.mu.Unlock()
		return
	}
	rt.stopped = true
	rt.mu.Unlock()
	for _, d := range rt.domains {
		close(d.stop)
	}
	for _, d := range rt.domains {
		d.wg.Wait()
		d.event(-1, obs.EventDomainStop)
	}
	for _, d := range rt.domains {
		if d.wal != nil {
			d.wal.Close()
		}
	}
}

// Reconfigure performs the paper's offline reconfiguration in one step:
// it stops this runtime — draining all active operations: outstanding
// futures resolve with their value, and submissions racing the shutdown
// resolve with ErrWorkerStopped — and starts a new runtime with the given
// configuration over the same structure instances. Sessions opened on the
// old runtime must be reopened on the new one; their submissions can error
// but can never hang.
func (rt *Runtime) Reconfigure(cfg Config) (*Runtime, error) {
	rt.mu.Lock()
	structures := map[string]any{}
	for _, d := range rt.domains {
		for name, ds := range d.structures {
			structures[name] = ds
		}
	}
	rt.mu.Unlock()
	rt.Stop()
	return Start(cfg, structures)
}

// Session is one client thread's connection to the runtime. It lazily
// acquires slot ownership in each domain it talks to, with up to `burst`
// outstanding tasks per domain (the paper's bursting mode, burst 14 in all
// experiments). A Session is not safe for concurrent use — it models a
// single client thread.
type Session struct {
	rt        *Runtime
	cpu       int
	burst     int
	perDomain map[*Domain]*sessionClient

	// Read-bypass state (readpolicy.go): session-local adaptive observation
	// mirrors for the most recently touched adaptive structure, and the
	// per-domain telemetry shards bypass outcomes report to.
	rsLast            *readState
	rsReads, rsWrites uint64
	rsSince           uint64
	readShards        map[*Domain]*obs.ClientShard
}

// sessionClient pairs a domain's delegation client with a reusable task
// thunk. The thunk closes over the sessionClient once, at client creation,
// and reads the op/ds fields the session stores immediately before each
// synchronous post — so Invoke wraps a Task without allocating a closure
// per call. Safe because a Session is single-threaded and Invoke is
// synchronous: the fields cannot be overwritten while a posted thunk may
// still read them (the slot post's release store publishes them to the
// worker along with the task).
//
// The pipelined path (SubmitAsync) generalises the same trick to many
// statements in flight: each reserved slot owns an asyncThunk argument
// block and each in-flight statement a pooled AsyncFuture, so issuing a
// burst of independent statements allocates nothing in steady state.
type sessionClient struct {
	c      *delegation.Client
	ds     any
	op     func(ds any) any
	thunk  delegation.Task
	faults *metrics.FaultCounters

	// Logged-invocation state: the reusable record encoder reads these
	// exactly like thunk reads ds/op. logenc prefixes the structure name
	// and delegates to the task's Log encoder, so a logged Invoke carries
	// no per-call closure either.
	logName string
	logApp  func(dst []byte) []byte
	logenc  func(dst []byte) []byte

	// Pipelined-statement state: per-slot argument blocks, the FIFO of
	// issued-but-unrecycled futures, and the future free list.
	athunks []asyncThunk
	qhead   *AsyncFuture
	qtail   *AsyncFuture
	pool    *AsyncFuture

	// Batch-invocation state: the reusable thunk of InvokeBatch reads these
	// exactly like thunk reads ds/op.
	bds    any
	bops   []func(ds any) any
	bout   []any
	bthunk delegation.Task

	// Typed-op state (InvokeKVLogged): the reusable KV record encoder
	// prefixes the structure name and delegates to the caller's encoder,
	// exactly like logenc does for closure tasks. The worker invokes it
	// with the slot's own kind/key/val, so unlike logenc it needs no
	// per-call argument capture beyond these two fields.
	kvName string
	kvApp  delegation.KVEncoder
	kvenc  delegation.KVEncoder
}

// asyncThunk is one reserved slot's argument block on the pipelined path.
// SubmitAsync stores the structure instance, operation and argument here and
// posts the slot's prebuilt fn, so a statement carries no per-call closure.
// Reuse is safe for the same reason the sync thunk's is: the slot returns to
// the free stack only after its embedded future completes, which happens
// after the worker has finished reading these fields.
type asyncThunk struct {
	ds  any
	op  func(ds, arg any) any
	arg any
	fn  delegation.Task

	// Logged-statement state (SubmitAsyncLogged): the per-slot prebuilt
	// encFn prefixes the structure name and calls encAp with the slot's
	// argument block. The encoder runs on the worker after op, so it may
	// derive the record from post-execution state reachable through arg.
	name  string
	encAp func(dst []byte, arg any) []byte
	encFn func(dst []byte) []byte
}

// AsyncFuture is the handle SubmitAsync returns for one pipelined
// statement. It is pooled per session client: Wait caches the result, and
// once a future is both resolved and consumed it recycles from the FIFO head
// back onto the free list — so a long-lived session issues millions of
// statements through a handful of future objects.
//
// Consume-once contract: call Wait exactly once per returned future (it
// blocks, or returns the result a Barrier already cached). After Wait the
// handle may be recycled and must not be touched again.
type AsyncFuture struct {
	sc       *sessionClient
	h        delegation.InvokeHandle
	val      any
	err      error
	kv       bool   // issued by SubmitKV: resolve through AwaitKV
	kvVal    uint64 // typed result value (kv futures only)
	kvOK     bool   // typed result found flag (kv futures only)
	resolved bool   // result cached; the underlying slot is free again
	consumed bool   // Wait handed the result to the caller
	qNext    *AsyncFuture
}

// getFuture pops a pooled future (or mints one) and rearms it.
func (sc *sessionClient) getFuture() *AsyncFuture {
	f := sc.pool
	if f == nil {
		f = &AsyncFuture{sc: sc}
	} else {
		sc.pool = f.qNext
	}
	f.val, f.err = nil, nil
	f.kv, f.kvVal, f.kvOK = false, 0, false
	f.resolved, f.consumed = false, false
	f.qNext = nil
	return f
}

// enqueue appends an issued future to the client's FIFO.
func (sc *sessionClient) enqueue(f *AsyncFuture) {
	if sc.qtail == nil {
		sc.qhead = f
	} else {
		sc.qtail.qNext = f
	}
	sc.qtail = f
}

// recycleHead returns fully finished futures at the FIFO head to the pool.
// Only head recycling keeps the invariant that every queued future is still
// owned by its issuer: a resolved-but-unconsumed future stays queued (and
// un-recycled) until its Wait.
func (sc *sessionClient) recycleHead() {
	for f := sc.qhead; f != nil && f.resolved && f.consumed; f = sc.qhead {
		sc.qhead = f.qNext
		if sc.qhead == nil {
			sc.qtail = nil
		}
		f.val, f.err = nil, nil
		f.qNext = sc.pool
		sc.pool = f
	}
}

// resolve awaits the future's handle if it hasn't been awaited yet, caching
// the result and freeing the slot. Idempotent.
func (sc *sessionClient) resolve(f *AsyncFuture) {
	if f.resolved {
		return
	}
	if f.kv {
		f.kvVal, f.kvOK, f.err = sc.c.AwaitKV(f.h)
	} else {
		f.val, f.err = sc.c.Await(f.h)
	}
	f.resolved = true
	if f.err != nil {
		sc.faults.TasksFailed.Add(1)
	}
}

// resolveOldest resolves the oldest unresolved queued future to free its
// slot, reporting whether there was one.
func (sc *sessionClient) resolveOldest() bool {
	f := sc.qhead
	for f != nil && f.resolved {
		f = f.qNext
	}
	if f == nil {
		return false
	}
	sc.resolve(f)
	return true
}

// ensureFree makes room for a synchronous delegation when every slot is held
// by an un-awaited pipelined handle (the delegation client can harvest its
// own ring-tracked delegations, but reserved handles are session-owned).
func (sc *sessionClient) ensureFree() {
	for sc.c.FreeSlots() == 0 && sc.c.Outstanding() == 0 {
		if !sc.resolveOldest() {
			return
		}
	}
}

// NewSession opens a session for a client thread logically running on the
// given CPU; the CPU determines NUMA-nearest slot assignment. Burst is the
// maximum number of outstanding tasks per domain.
func (rt *Runtime) NewSession(cpu, burst int) (*Session, error) {
	if cpu < 0 || cpu >= rt.cfg.Machine.LogicalCPUs() {
		return nil, fmt.Errorf("core: session cpu %d outside machine", cpu)
	}
	if burst < 1 {
		return nil, fmt.Errorf("core: burst must be ≥ 1, got %d", burst)
	}
	return &Session{
		rt: rt, cpu: cpu, burst: burst,
		perDomain:  map[*Domain]*sessionClient{},
		readShards: map[*Domain]*obs.ClientShard{},
	}, nil
}

// client returns (creating on first use) the delegation client for domain d.
func (s *Session) client(d *Domain) (*sessionClient, error) {
	if sc, ok := s.perDomain[d]; ok {
		return sc, nil
	}
	m := s.rt.cfg.Machine
	mySocket := m.SocketOfCPU(s.cpu)
	rank := func(worker int) int {
		if d.spec.Placement == PlaceMigratable {
			return 0
		}
		return m.Distance(mySocket, m.SocketOfCPU(d.workerCPUs[worker]))
	}
	slots, err := d.inbox.AcquireSlots(s.burst, rank)
	if err != nil {
		return nil, fmt.Errorf("core: domain %q: %w", d.spec.Name, err)
	}
	c, err := delegation.NewClient(slots)
	if err != nil {
		return nil, err
	}
	if d.obsDom != nil {
		c.SetProbe(d.obsDom.NewClient())
	}
	sc := &sessionClient{c: c, faults: s.rt.faults}
	sc.thunk = func() any { return sc.op(sc.ds) }
	sc.logenc = func(dst []byte) []byte {
		return sc.logApp(appendWALName(dst, sc.logName))
	}
	sc.bthunk = func() any {
		ds := sc.bds
		for i, op := range sc.bops {
			sc.bout[i] = op(ds)
		}
		return nil
	}
	sc.kvenc = func(dst []byte, kind uint8, key, val uint64) []byte {
		return sc.kvApp(appendWALName(dst, sc.kvName), kind, key, val)
	}
	sc.athunks = make([]asyncThunk, len(slots))
	for i := range sc.athunks {
		at := &sc.athunks[i]
		at.fn = func() any { return at.op(at.ds, at.arg) }
		at.encFn = func(dst []byte) []byte {
			return at.encAp(appendWALName(dst, at.name), at.arg)
		}
	}
	s.perDomain[d] = sc
	return sc, nil
}

// Submit routes the task to the domain owning its structure and delegates
// it, returning the future (step 1/2.x of Figure 3).
func (s *Session) Submit(task Task) (*delegation.Future, error) {
	s.noteWrite(task.Structure, 1)
	d, ds, err := s.rt.route(task.Structure)
	if err != nil {
		return nil, err
	}
	sc, err := s.client(d)
	if err != nil {
		return nil, err
	}
	sc.ensureFree()
	op := task.Op
	if task.Log != nil {
		name, logApp := task.Structure, task.Log
		return sc.c.DelegateLogged(func() any { return op(ds) }, func(dst []byte) []byte {
			return logApp(appendWALName(dst, name))
		}), nil
	}
	return sc.c.Delegate(func() any { return op(ds) }), nil
}

// SubmitAsync issues one pipelined statement against the named structure and
// returns its future without waiting: up to the session's burst of
// statements ride the domain's slots concurrently, and the caller
// synchronises once per dependency barrier (Wait per future, or Barrier)
// instead of once per statement. The op receives the structure instance and
// the given argument; threading the argument through instead of closing over
// it keeps the steady state allocation-free (per-slot argument blocks,
// pooled futures, recycled slot-embedded delegation futures).
//
// When all slots are in flight SubmitAsync resolves the oldest outstanding
// statement first (its result stays cached for its Wait), preserving the
// bursting-window semantics of Delegate.
func (s *Session) SubmitAsync(structure string, op func(ds, arg any) any, arg any) (*AsyncFuture, error) {
	s.noteWrite(structure, 1)
	d, ds, err := s.rt.route(structure)
	if err != nil {
		return nil, err
	}
	sc, err := s.client(d)
	if err != nil {
		return nil, err
	}
	i, ok := sc.c.Reserve()
	for !ok {
		if !sc.resolveOldest() {
			return nil, fmt.Errorf("core: domain %q: no free slots and no outstanding statements", d.spec.Name)
		}
		i, ok = sc.c.Reserve()
	}
	at := &sc.athunks[i]
	at.ds, at.op, at.arg = ds, op, arg
	f := sc.getFuture()
	f.h = sc.c.PostReserved(i, at.fn)
	sc.enqueue(f)
	return f, nil
}

// SubmitAsyncLogged is SubmitAsync for a logged mutation: enc encodes the
// statement's logical WAL record from its argument, and the future completes
// only after the record's group commit — Wait returning nil means durable.
// Like SubmitAsync the op and enc must be statement-pooled or otherwise
// allocation-free to keep the hot path clean.
func (s *Session) SubmitAsyncLogged(structure string, op func(ds, arg any) any, arg any, enc func(dst []byte, arg any) []byte) (*AsyncFuture, error) {
	s.noteWrite(structure, 1)
	d, ds, err := s.rt.route(structure)
	if err != nil {
		return nil, err
	}
	sc, err := s.client(d)
	if err != nil {
		return nil, err
	}
	i, ok := sc.c.Reserve()
	for !ok {
		if !sc.resolveOldest() {
			return nil, fmt.Errorf("core: domain %q: no free slots and no outstanding statements", d.spec.Name)
		}
		i, ok = sc.c.Reserve()
	}
	at := &sc.athunks[i]
	at.ds, at.op, at.arg = ds, op, arg
	at.name, at.encAp = structure, enc
	f := sc.getFuture()
	f.h = sc.c.PostReservedLogged(i, at.fn, at.encFn)
	sc.enqueue(f)
	return f, nil
}

// Wait blocks until the statement completes and returns its result (or the
// result a Barrier already cached). Lifecycle failures surface exactly like
// Invoke's: PanicError, or ErrWorkerStopped when the statement never ran.
// Consume-once: the handle recycles after Wait and must not be reused.
func (f *AsyncFuture) Wait() (any, error) {
	sc := f.sc
	sc.resolve(f)
	f.consumed = true
	v, err := f.val, f.err
	sc.recycleHead()
	return v, err
}

// WaitKV is Wait for a future returned by SubmitKV: it returns the typed
// value/found pair instead of a boxed any. Consume-once, like Wait.
func (f *AsyncFuture) WaitKV() (uint64, bool, error) {
	sc := f.sc
	sc.resolve(f)
	f.consumed = true
	v, ok, err := f.kvVal, f.kvOK, f.err
	sc.recycleHead()
	return v, ok, err
}

// Done reports whether the statement's result is already available without
// blocking (either cached by a Barrier or completed in its slot).
func (f *AsyncFuture) Done() bool {
	return f.resolved || f.sc.c.HandleDone(f.h)
}

// Barrier resolves every outstanding pipelined statement previously issued
// to the named structure's domain, returning the first lifecycle error among
// them. Results stay cached: each future's Wait still returns its own
// result. A barrier on a structure with no outstanding statements is free.
func (s *Session) Barrier(structure string) error {
	d, _, err := s.rt.route(structure)
	if err != nil {
		return err
	}
	sc, ok := s.perDomain[d]
	if !ok {
		return nil
	}
	var firstErr error
	for f := sc.qhead; f != nil; f = f.qNext {
		sc.resolve(f)
		if f.err != nil && firstErr == nil {
			firstErr = f.err
		}
	}
	sc.recycleHead()
	return firstErr
}

// Invoke submits the task and waits for its result (synchronous
// delegation). Lifecycle failures surface as the error: a PanicError when
// the task panicked in its domain, ErrWorkerStopped when the runtime shut
// down before the task ran.
//
// Invoke is the zero-allocation round trip: the task runs through the
// session's reusable per-domain thunk and the slot's recycled embedded
// future, so the steady state allocates nothing (unlike Submit, whose
// detached future and closure must escape to the heap).
func (s *Session) Invoke(task Task) (any, error) {
	s.noteWrite(task.Structure, 1)
	d, ds, err := s.rt.route(task.Structure)
	if err != nil {
		return nil, err
	}
	sc, err := s.client(d)
	if err != nil {
		return nil, err
	}
	sc.ensureFree()
	sc.ds, sc.op = ds, task.Op
	var v any
	if task.Log != nil {
		// Logged mutation: the future completes after the group commit, so
		// a nil error here means the record is durable. Field reuse is safe
		// for the same reason ds/op reuse is — the call is synchronous and
		// the encoder runs on the worker before the future completes.
		sc.logName, sc.logApp = task.Structure, task.Log
		v, err = sc.c.InvokeLoggedErr(sc.thunk, sc.logenc)
	} else {
		v, err = sc.c.InvokeErr(sc.thunk)
	}
	if err != nil {
		s.rt.faults.TasksFailed.Add(1)
		return nil, err
	}
	return v, nil
}

// InvokeKV submits one typed key/value op (delegation.KVGet, KVInsert,
// KVUpdate or KVDelete) against the named structure and waits for its
// value/found pair. The op travels as three words in the slot — no closure,
// no boxing — and executes through the structure's batch kernel: the owning
// worker's sweep groups adjacent typed ops into one kernel call that
// overlaps their traversal cache misses. The structure must implement
// delegation.BatchKernel (every built-in index does); structures without a
// kernel must use Invoke with a closure task.
func (s *Session) InvokeKV(structure string, kind uint8, key, val uint64) (uint64, bool, error) {
	s.noteWrite(structure, 1)
	d, ds, err := s.rt.route(structure)
	if err != nil {
		return 0, false, err
	}
	kern, ok := ds.(delegation.BatchKernel)
	if !ok {
		return 0, false, fmt.Errorf("core: structure %q has no batch kernel; use Invoke", structure)
	}
	sc, err := s.client(d)
	if err != nil {
		return 0, false, err
	}
	sc.ensureFree()
	v, found, err := sc.c.InvokeKVErr(kern, kind, key, val)
	if err != nil {
		s.rt.faults.TasksFailed.Add(1)
		return 0, false, err
	}
	return v, found, nil
}

// InvokeKVLogged is InvokeKV for a logged mutation: enc encodes the op's
// logical WAL record from its kind/key/val (the structure-name prefix is
// added by the session) and the call returns only after the record's group
// commit — a nil error means durable.
func (s *Session) InvokeKVLogged(structure string, kind uint8, key, val uint64, enc delegation.KVEncoder) (uint64, bool, error) {
	s.noteWrite(structure, 1)
	d, ds, err := s.rt.route(structure)
	if err != nil {
		return 0, false, err
	}
	kern, ok := ds.(delegation.BatchKernel)
	if !ok {
		return 0, false, fmt.Errorf("core: structure %q has no batch kernel; use Invoke", structure)
	}
	sc, err := s.client(d)
	if err != nil {
		return 0, false, err
	}
	sc.ensureFree()
	sc.kvName, sc.kvApp = structure, enc
	v, found, err := sc.c.InvokeKVLoggedErr(kern, kind, key, val, sc.kvenc)
	if err != nil {
		s.rt.faults.TasksFailed.Add(1)
		return 0, false, err
	}
	return v, found, nil
}

// SubmitKV issues one pipelined typed op and returns its future without
// waiting — the typed counterpart of SubmitAsync, and the path that feeds
// interleaved execution best: a burst of SubmitKV calls lands several typed
// ops in the worker's pass, so one sweep executes them through a single
// prefetch-interleaved kernel call. Synchronise with WaitKV (or Barrier,
// then WaitKV for the cached results).
func (s *Session) SubmitKV(structure string, kind uint8, key, val uint64) (*AsyncFuture, error) {
	s.noteWrite(structure, 1)
	d, ds, err := s.rt.route(structure)
	if err != nil {
		return nil, err
	}
	kern, ok := ds.(delegation.BatchKernel)
	if !ok {
		return nil, fmt.Errorf("core: structure %q has no batch kernel; use SubmitAsync", structure)
	}
	sc, err := s.client(d)
	if err != nil {
		return nil, err
	}
	i, ok := sc.c.Reserve()
	for !ok {
		if !sc.resolveOldest() {
			return nil, fmt.Errorf("core: domain %q: no free slots and no outstanding statements", d.spec.Name)
		}
		i, ok = sc.c.Reserve()
	}
	f := sc.getFuture()
	f.kv = true
	f.h = sc.c.PostReservedKV(i, kern, kind, key, val)
	sc.enqueue(f)
	return f, nil
}

// SubmitBulk delegates several tasks targeting the same structure under a
// single synchronisation phase (bulk bursting) and returns their results in
// order. The error is the first lifecycle failure among them (PanicError,
// ErrWorkerStopped); results of failed tasks are nil.
func (s *Session) SubmitBulk(structure string, ops []func(ds any) any) ([]any, error) {
	s.noteWrite(structure, uint64(len(ops)))
	d, ds, err := s.rt.route(structure)
	if err != nil {
		return nil, err
	}
	sc, err := s.client(d)
	if err != nil {
		return nil, err
	}
	sc.ensureFree()
	tasks := make([]delegation.Task, len(ops))
	for i, op := range ops {
		op := op
		tasks[i] = func() any { return op(ds) }
	}
	out, err := sc.c.DelegateBulkErr(tasks)
	if err != nil {
		s.rt.faults.TasksFailed.Add(1)
	}
	return out, err
}

// InvokeBatch executes several operations against the same structure as ONE
// delegated task — same-domain task fusion: the worker runs the ops in order
// in a single sweep, so the batch pays one round trip instead of len(ops).
// Results come back in order. If an op panics, the whole batch completes
// with its PanicError; results of the ops that ran before the panic are
// already filled in, the rest stay nil.
//
// Like Invoke, the batch rides a reusable per-domain thunk and the slot's
// recycled future — the only steady-state allocation is the results slice.
func (s *Session) InvokeBatch(structure string, ops []func(ds any) any) ([]any, error) {
	s.noteWrite(structure, uint64(len(ops)))
	d, ds, err := s.rt.route(structure)
	if err != nil {
		return nil, err
	}
	sc, err := s.client(d)
	if err != nil {
		return nil, err
	}
	sc.ensureFree()
	out := make([]any, len(ops))
	sc.bds, sc.bops, sc.bout = ds, ops, out
	_, err = sc.c.InvokeErr(sc.bthunk)
	sc.bds, sc.bops, sc.bout = nil, nil, nil
	if err != nil {
		s.rt.faults.TasksFailed.Add(1)
		return out, err
	}
	return out, nil
}

// Close drains all outstanding tasks and returns the session's slots. The
// error reports the first drain failure (a task abandoned by a stopped or
// crashed worker) or slot-release inconsistency; the session is torn down
// either way.
func (s *Session) Close() error {
	s.flushReadStats()
	for _, sh := range s.readShards {
		sh.Flush()
	}
	var firstErr error
	for d, sc := range s.perDomain {
		// Retire the pipelined statements first: every issued handle must be
		// awaited before its slot can be released.
		for f := sc.qhead; f != nil; f = f.qNext {
			sc.resolve(f)
			if f.err != nil && firstErr == nil {
				firstErr = f.err
			}
			f.consumed = true
		}
		sc.qhead, sc.qtail, sc.pool = nil, nil, nil
		if err := sc.c.DrainErr(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := d.inbox.ReleaseSlots(sc.c.Slots()); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(s.perDomain, d)
	}
	return firstErr
}
