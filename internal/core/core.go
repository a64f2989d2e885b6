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
	"bytes"
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

// DefaultRestartBudget is the number of worker respawns a domain is granted
// after crashes when its spec does not set one.
const DefaultRestartBudget = 8

// DomainSpec declares one virtual domain.
type DomainSpec struct {
	Name      string
	CPUs      topology.CPUSet
	Placement PlacementPolicy

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
		if p != ReadDelegate && p != ReadBypass {
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

	// Checkpoint scratch retained across checkpoints, guarded by rt.walMu:
	// the sorted Durable set and the per-structure snapshot buffer.
	ckptSet []namedDurable
	ckptBuf bytes.Buffer

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
	// routeGen validates session route tables; Migrate bumps it under mu.
	// It sits first, lines away from mu, so its per-op load stays shared.
	routeGen atomic.Uint64

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
	d, _, _, err := rt.route(structure, nil)
	return d, err
}

// route resolves a structure to its current domain and instance atomically
// with respect to Migrate and, when rs is non-nil, loads the structure's
// migration epoch in the same critical section. Migrate bumps the epoch
// under the same lock before swapping the assignment, so a reader holding
// (domain, epoch) from one call detects any migration that lands after it.
// Routing to a domain that exhausted its restart budget fails fast with
// ErrDomainDead — the tasks would only ever be answered with
// ErrWorkerStopped by its sealed buffers.
func (rt *Runtime) route(structure string, rs *readState) (*Domain, any, uint64, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	di, ok := rt.cfg.Assignment[structure]
	if !ok {
		return nil, nil, 0, fmt.Errorf("core: unknown structure %q", structure)
	}
	d := rt.domains[di]
	if d.dead.Load() {
		return nil, nil, 0, fmt.Errorf("core: structure %q: %w", structure, ErrDomainDead)
	}
	var epoch uint64
	if rs != nil {
		epoch = rs.migrations.Load()
	}
	return d, d.structures[structure], epoch, nil
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
//
// Every submission method is a thin wrapper over one path, submit: look the
// name up in the route table → kernel check → reserve → fill the
// slot's argument block → post. The synchronous methods await the posted
// handle directly; the pipelined ones queue a pooled AsyncFuture for it;
// Submit posts a detached future.
type Session struct {
	rt        *Runtime
	cpu       int
	burst     int
	perDomain map[*Domain]*sessionClient

	// Route table, valid for routing generation gen: nRoutes entries filled,
	// and once all are, misses share the last one.
	routes  [8]sessionRoute
	nRoutes int
	gen     uint64

	// Per-domain telemetry shards bypass read outcomes report to
	// (readpolicy.go).
	readShards map[*Domain]*obs.ClientShard
}

// sessionRoute is what routing a name yields, plus the domain's client.
type sessionRoute struct {
	name string
	d    *Domain
	ds   any
	kern delegation.BatchKernel // nil when ds has no batch kernel
	sc   *sessionClient
}

// lookup returns the route for structure from the table, resolving and
// caching it under the runtime lock on a miss, so a steady-state op takes no
// lock and does no map lookup. A cached dead domain fails as route would.
func (s *Session) lookup(structure string) (*sessionRoute, error) {
	if g := s.rt.routeGen.Load(); g != s.gen {
		s.routes, s.nRoutes, s.gen = [len(s.routes)]sessionRoute{}, 0, g
	}
	for i := 0; i < s.nRoutes; i++ {
		if r := &s.routes[i]; r.name == structure {
			if r.d.dead.Load() {
				return nil, fmt.Errorf("core: structure %q: %w", structure, ErrDomainDead)
			}
			return r, nil
		}
	}
	d, ds, _, err := s.rt.route(structure, nil)
	if err != nil {
		return nil, err
	}
	sc, err := s.client(d)
	if err != nil {
		return nil, err
	}
	kern, _ := ds.(delegation.BatchKernel)
	r := &s.routes[min(s.nRoutes, len(s.routes)-1)]
	*r = sessionRoute{name: structure, d: d, ds: ds, kern: kern, sc: sc}
	s.nRoutes = min(s.nRoutes+1, len(s.routes))
	return r, nil
}

// sessionClient is a domain's delegation client plus the session state that
// keeps posting allocation-free: one argument block per slot, the FIFO of
// issued-but-unrecycled pipelined futures, and the future free list.
type sessionClient struct {
	c       *delegation.Client
	faults  *metrics.FaultCounters
	athunks []asyncThunk
	qhead   *AsyncFuture
	qtail   *AsyncFuture
	pool    *AsyncFuture
}

// asyncThunk is one slot's argument block. submit stores the structure
// instance, the operation and its argument here and posts the slot's
// prebuilt fn, so a closure op carries no per-call closure. Reuse is safe
// because the slot returns to the free stack only after its future
// completes, which happens after the worker has finished reading these
// fields.
type asyncThunk struct {
	ds  any
	op  func(ds, arg any) any
	arg any
	fn  delegation.Task

	// Logged ops: the prebuilt encFn prefixes the structure name and calls
	// enc with encArg. The encoder runs on the worker after op, so it may
	// derive the record from post-execution state.
	name   string
	enc    func(dst []byte, arg any) []byte
	encArg any
	encFn  func(dst []byte) []byte
}

// closure is a closure op's session-side half: the operation and its
// argument, which submit parks in the slot's argument block, and for a
// logged mutation the record encoder (called with encArg).
type closure struct {
	op     func(ds, arg any) any
	arg    any
	enc    func(dst []byte, arg any) []byte
	encArg any
}

// applyOp runs a Task-shaped op, passed as the argument, against ds. It lets
// Task.Op ride a slot's argument block without a closure: a func value
// converts to any without allocating.
func applyOp(ds, op any) any { return op.(func(ds any) any)(ds) }

// applyLog is applyOp for a Task-shaped record encoder.
func applyLog(dst []byte, log any) []byte { return log.(func(dst []byte) []byte)(dst) }

// taskClosure is the closure of a Task: its Op, logged when it has a Log.
func taskClosure(t Task) closure {
	c := closure{op: applyOp, arg: t.Op}
	if t.Log != nil {
		c.enc, c.encArg = applyLog, t.Log
	}
	return c
}

// AsyncFuture is the handle the pipelined methods (SubmitAsync,
// SubmitAsyncLogged, SubmitKV) return for one statement. It is pooled per
// session client: Wait caches the result, and once a future is both resolved
// and consumed it recycles from the FIFO head back onto the free list — so a
// long-lived session issues millions of statements through a handful of
// future objects.
//
// Consume-once contract: call Wait exactly once per returned future (it
// blocks, or returns the result a Barrier already cached). After Wait the
// handle may be recycled and must not be touched again.
type AsyncFuture struct {
	sc       *sessionClient
	h        delegation.InvokeHandle
	val      any
	err      error
	kv       bool   // typed op: resolve through AwaitKV
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
	sc := &sessionClient{c: c, faults: s.rt.faults, athunks: make([]asyncThunk, len(slots))}
	for i := range sc.athunks {
		at := &sc.athunks[i]
		at.fn = func() any { return at.op(at.ds, at.arg) }
		at.encFn = func(dst []byte) []byte {
			return at.enc(appendWALName(dst, at.name), at.encArg)
		}
	}
	s.perDomain[d] = sc
	return sc, nil
}

// submit is the session's one submission path (DESIGN.md §10). op is the
// delegation descriptor: a typed op (c nil) arrives with Kind, Key and Val
// set, a closure op with at most Read. submit looks the structure up in the
// session's route table, sets a typed op's kernel, reserves a slot of the
// domain's client — resolving the oldest pipelined statement when every slot
// is held by one — parks a closure op in the slot's argument block, and
// posts: through Delegate when detached (the returned future is the
// caller's), otherwise through Post (the caller must await the returned
// handle).
func (s *Session) submit(structure string, op *delegation.Op, c *closure, detached bool) (*sessionClient, delegation.InvokeHandle, *delegation.Future, error) {
	var h delegation.InvokeHandle
	r, err := s.lookup(structure)
	if err != nil {
		return nil, h, nil, err
	}
	if c == nil {
		if r.kern == nil {
			return nil, h, nil, fmt.Errorf("core: structure %q has no batch kernel; submit a closure task", structure)
		}
		op.Kern = r.kern
	}
	sc := r.sc
	i, ok := sc.c.Reserve()
	for !ok {
		if !sc.resolveOldest() {
			return nil, h, nil, fmt.Errorf("core: domain %q: no free slots and no outstanding statements", r.d.spec.Name)
		}
		i, ok = sc.c.Reserve()
	}
	if c != nil {
		at := &sc.athunks[i]
		at.ds, at.op, at.arg = r.ds, c.op, c.arg
		op.Task = at.fn
		if c.enc != nil {
			at.name, at.enc, at.encArg = structure, c.enc, c.encArg
			op.Log = at.encFn
		}
	}
	if detached {
		return sc, h, sc.c.Delegate(i, op), nil
	}
	return sc, sc.c.Post(i, op), nil, nil
}

// invoke submits a closure op and waits for its value: the synchronous round
// trip. It awaits the handle directly — a synchronous op never enters the
// pipelined FIFO, where an unconsumed head future would keep it from
// recycling.
func (s *Session) invoke(structure string, op *delegation.Op, c *closure) (any, error) {
	sc, h, _, err := s.submit(structure, op, c, false)
	if err != nil {
		return nil, err
	}
	v, err := sc.c.Await(h)
	if err != nil {
		s.rt.faults.TasksFailed.Add(1)
		return nil, err
	}
	return v, nil
}

// pipeline submits an op and queues a pooled AsyncFuture for it.
func (s *Session) pipeline(structure string, op *delegation.Op, c *closure) (*AsyncFuture, error) {
	sc, h, _, err := s.submit(structure, op, c, false)
	if err != nil {
		return nil, err
	}
	f := sc.getFuture()
	f.h, f.kv = h, c == nil
	sc.enqueue(f)
	return f, nil
}

// Submit routes the task to the domain owning its structure and delegates
// it, returning a detached future (step 1/2.x of Figure 3): the caller may
// hold it as long as it likes — WaitTimeout, WaitCtx and TryGet included,
// even after Close.
func (s *Session) Submit(task Task) (*delegation.Future, error) {
	c := taskClosure(task)
	_, _, f, err := s.submit(task.Structure, &delegation.Op{}, &c, true)
	return f, err
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
// bursting-window semantics of Submit.
func (s *Session) SubmitAsync(structure string, op func(ds, arg any) any, arg any) (*AsyncFuture, error) {
	return s.pipeline(structure, &delegation.Op{}, &closure{op: op, arg: arg})
}

// SubmitAsyncLogged is SubmitAsync for a logged mutation: enc encodes the
// statement's logical WAL record from its argument, and the future completes
// only after the record's group commit — Wait returning nil means durable.
// Like SubmitAsync the op and enc must be statement-pooled or otherwise
// allocation-free to keep the hot path clean.
func (s *Session) SubmitAsyncLogged(structure string, op func(ds, arg any) any, arg any, enc func(dst []byte, arg any) []byte) (*AsyncFuture, error) {
	return s.pipeline(structure, &delegation.Op{}, &closure{op: op, arg: arg, enc: enc, encArg: arg})
}

// SubmitKV issues one pipelined typed op (delegation.KVGet, KVInsert,
// KVUpdate or KVDelete) and returns its future without waiting — the typed
// counterpart of SubmitAsync, and the path that feeds interleaved execution
// best: a burst of SubmitKV calls lands several typed ops in the worker's
// pass, so one sweep executes them through a single prefetch-interleaved
// kernel call. The structure must implement delegation.BatchKernel (every
// built-in index does). Typed ops are unlogged; a durable mutation is a
// closure task with a Log. Synchronise with WaitKV (or Barrier, then WaitKV
// for the cached results).
func (s *Session) SubmitKV(structure string, kind uint8, key, val uint64) (*AsyncFuture, error) {
	return s.pipeline(structure, &delegation.Op{Kind: kind, Key: key, Val: val}, nil)
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
	d, _, _, err := s.rt.route(structure, nil)
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
// down before the task ran. A task with a Log on a WAL-enabled runtime
// returns only after its record's group commit — a nil error means durable.
//
// Invoke is the zero-allocation round trip: the task rides the slot's
// argument block and recycled embedded future, so the steady state allocates
// nothing (unlike Submit, whose detached future must escape to the heap).
func (s *Session) Invoke(task Task) (any, error) {
	c := taskClosure(task)
	return s.invoke(task.Structure, &delegation.Op{}, &c)
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
	sc, h, _, err := s.submit(structure, &delegation.Op{Kind: kind, Key: key, Val: val}, nil, false)
	if err != nil {
		return 0, false, err
	}
	v, found, err := sc.c.AwaitKV(h)
	if err != nil {
		s.rt.faults.TasksFailed.Add(1)
		return 0, false, err
	}
	return v, found, nil
}

// SubmitBulk delegates several tasks targeting the same structure under a
// single synchronisation phase (bulk bursting): every op is issued as a
// pipelined statement, then all are awaited, and the results return in
// order. The error is the first failure among them (PanicError,
// ErrWorkerStopped, or a submission error that cut the bulk short); results
// of failed or unissued ops are nil.
func (s *Session) SubmitBulk(structure string, ops []func(ds any) any) ([]any, error) {
	futs := make([]*AsyncFuture, 0, len(ops))
	var submitErr error
	for _, op := range ops {
		f, err := s.pipeline(structure, &delegation.Op{}, &closure{op: applyOp, arg: op})
		if err != nil {
			submitErr = err
			break
		}
		futs = append(futs, f)
	}
	out := make([]any, len(ops))
	var firstErr error
	for i, f := range futs {
		v, err := f.Wait()
		out[i] = v
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		firstErr = submitErr
	}
	return out, firstErr
}

// Close drains all outstanding tasks and returns the session's slots. The
// error reports the first drain failure (a task abandoned by a stopped or
// crashed worker) or slot-release inconsistency; the session is torn down
// either way.
func (s *Session) Close() error {
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
		if err := sc.c.Drain(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := d.inbox.ReleaseSlots(sc.c.Slots()); err != nil && firstErr == nil {
			firstErr = err
		}
		delete(s.perDomain, d)
	}
	s.routes, s.nRoutes = [len(s.routes)]sessionRoute{}, 0
	return firstErr
}
