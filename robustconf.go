// Package robustconf is the public API of the configuration-based runtime
// for robust main-memory data structure performance (Bang et al.,
// SIGMOD 2020): asynchronous data-aware tasks executed by worker threads
// inside virtual domains, routed through FFWD-style slot messaging and
// consumed through futures, with domain layout and structure placement
// decided by a declarative configuration rather than hard-wired into the
// data structures.
//
// Quick start:
//
//	machine := robustconf.Machine(1)                 // one-socket topology
//	cfg := robustconf.Config{
//		Machine: machine,
//		Domains: []robustconf.Domain{
//			{Name: "hot", CPUs: robustconf.CPURange(0, 24)},
//			{Name: "cold", CPUs: robustconf.CPURange(24, 48)},
//		},
//		Assignment: map[string]int{"orders": 0, "archive": 1},
//	}
//	rt, err := robustconf.Start(cfg, map[string]any{
//		"orders":  myOrdersIndex,
//		"archive": myArchiveIndex,
//	})
//	// ...
//	session, err := rt.NewSession(0, robustconf.PaperBurstSize)
//	future, err := session.Submit(robustconf.Task{
//		Structure: "orders",
//		Op: func(ds any) any { return ds.(*OrdersIndex).Insert(k, v) },
//	})
//	result := future.Wait()
//
// Futures always complete — with the task's value or a typed error
// (PanicError, ErrWorkerStopped); use Future.Result, WaitTimeout or WaitCtx
// for the error-separating forms, and Session.Invoke for synchronous calls
// with the error unwrapped.
//
// The subpackages under internal implement the substrates: the evaluated
// index structures, the software-HTM emulation, the machine simulator used
// by the benchmark harness, and the ILP-based configuration process.
package robustconf

import (
	"robustconf/internal/config"
	"robustconf/internal/core"
	"robustconf/internal/delegation"
	"robustconf/internal/obs"
	"robustconf/internal/obs/signal"
	"robustconf/internal/topology"
	"robustconf/internal/wal"
)

// PaperBurstSize is the burst size used in all of the paper's experiments
// (14 outstanding tasks per client and domain).
const PaperBurstSize = 14

// Re-exported configuration types. A Config partitions a machine into
// virtual domains and assigns data structure instances to them.
type (
	// Config declares virtual domains over a machine and assigns
	// structures to them.
	Config = core.Config
	// Domain declares one virtual domain (CPU set + placement policies).
	Domain = core.DomainSpec
	// Task is an asynchronous data-aware task: the structure it targets
	// plus the access operation.
	Task = core.Task
	// Runtime executes tasks under one configuration.
	Runtime = core.Runtime
	// Session is a client thread's connection to the runtime.
	Session = core.Session
	// Future is the invocation handle on a submitted task.
	Future = delegation.Future
	// AsyncFuture is the pipelined invocation handle returned by
	// Session.SubmitAsync / SubmitKV; resolve with Wait or WaitKV.
	AsyncFuture = core.AsyncFuture
	// CPUSet is an ordered set of logical CPU ids.
	CPUSet = topology.CPUSet
	// Topology describes a machine (sockets, cores, NUMA distances).
	Topology = topology.Machine
)

// Placement policies for domains.
const (
	PlacePinned     = core.PlacePinned
	PlaceMigratable = core.PlaceMigratable
)

// ReadPolicy is the per-structure read-path policy (Config.ReadPolicies):
// read-only tasks submitted through Session.SubmitRead either always
// delegate or always attempt the validated local bypass first. ReadBypass
// only takes effect for structures that implement index.ConcurrentReadSafe
// (or an equivalent ConcurrentReadSafe() bool method) and answer true.
type ReadPolicy = core.ReadPolicy

// Read-path policies.
const (
	ReadDelegate = core.ReadDelegate
	ReadBypass   = core.ReadBypass
)

// ParseReadPolicy parses the command-line spelling of a ReadPolicy
// ("delegate" or "bypass").
func ParseReadPolicy(s string) (ReadPolicy, error) { return core.ParseReadPolicy(s) }

// Start validates the configuration, registers the structures, spawns the
// domain workers, and returns the running runtime.
//
// Reconfiguration comes in two forms, mirroring the paper: offline via
// Runtime.Reconfigure (drain everything, restart under a new Config —
// Section 2.2), and online via Runtime.Migrate (move one structure to a
// different domain while the runtime keeps serving — the paper's future
// work, implemented here as an extension).
func Start(cfg Config, structures map[string]any) (*Runtime, error) {
	return core.Start(cfg, structures)
}

// PanicError is returned through a future when a delegated task panicked;
// the domain worker survives and keeps serving other clients.
type PanicError = delegation.PanicError

// FaultHook intercepts the worker poll loop for deterministic fault
// injection (set Config.FaultHook; see internal/faultinject for the seeded
// reference implementation). Nil — the default — keeps the hot path as is.
type FaultHook = delegation.FaultHook

// Failure-model errors delivered through futures and session calls. A future
// always completes: with the task's value, a PanicError (the task ran and
// panicked), or ErrWorkerStopped (the worker shut down first; the task never
// ran). ErrWaitTimeout only comes from Future.WaitTimeout and means the
// future is still pending, not failed.
var (
	ErrWorkerStopped = delegation.ErrWorkerStopped
	ErrWaitTimeout   = delegation.ErrWaitTimeout
)

// ErrDomainDead is returned for structures owned by a domain that exhausted
// its restart budget and sealed: the runtime will not serve them again until
// a reconfiguration.
var ErrDomainDead = core.ErrDomainDead

// DefaultRestartBudget is how many crash respawns a domain performs before
// sealing its buffers (override per domain via Domain.RestartBudget).
const DefaultRestartBudget = core.DefaultRestartBudget

// Durability: set Config.WAL to give every domain a per-worker write-ahead
// log with periodic checkpoints. Structures participate by implementing
// Durable; logged mutations (Task.Log, Session.SubmitAsyncLogged) complete
// only after their group commit, and a crashed worker's respawn restores the
// latest checkpoint and replays the committed log tail before serving.
type (
	// WALConfig enables per-domain write-ahead logging (Config.WAL).
	WALConfig = core.WALConfig
	// Durable is implemented by structures that participate in
	// checkpointing and replay.
	Durable = core.Durable
	// FsyncMode selects the log's flush discipline (a durability-cost axis
	// of the configuration search).
	FsyncMode = wal.FsyncMode
	// ArenaConfig enables per-worker batch arenas recycled at sweep-batch
	// boundaries (Config.Arena); the WAL's record staging draws from them.
	ArenaConfig = core.ArenaConfig
	// BatchExecConfig is ignored.
	//
	// Deprecated: batched sweep execution is always on; the alias is kept
	// so configurations that still set Config.BatchExec compile.
	BatchExecConfig = core.BatchExecConfig
	// BatchKernel is the typed-op kernel a structure implements to accept
	// InvokeKV/SubmitKV ops (all built-in indexes do).
	BatchKernel = delegation.BatchKernel
)

// Typed key/value op kinds for Session.InvokeKV / SubmitKV.
const (
	KVGet    = delegation.KVGet
	KVInsert = delegation.KVInsert
	KVUpdate = delegation.KVUpdate
	KVDelete = delegation.KVDelete
)

// Fsync modes for WALConfig.Fsync.
const (
	FsyncNone   = wal.FsyncNone
	FsyncBatch  = wal.FsyncBatch
	FsyncAlways = wal.FsyncAlways
)

// ParseFsyncMode parses the command-line spelling of a FsyncMode
// ("none", "batch", "always").
func ParseFsyncMode(s string) (FsyncMode, error) { return wal.ParseFsyncMode(s) }

// Observability: set Config.Obs to an Observer to collect per-worker task
// telemetry, sampled latency histograms and lifecycle events from the
// runtime, and Observer.Serve to expose them over HTTP (Prometheus text on
// /metrics, span dumps on /spans, pprof on /debug/pprof/). With no observer
// attached the hot path cost is a handful of nil checks.
type (
	// Observer is the root of the runtime introspection layer.
	Observer = obs.Observer
	// ObserverOptions tunes sampling, tracing and the fault-counter set.
	ObserverOptions = obs.Options
)

// NewObserver builds an Observer (zero ObserverOptions give the defaults:
// latency sampling every 64th operation, lifecycle tracing off).
func NewObserver(opts ObserverOptions) *Observer { return obs.New(opts) }

// Continuous telemetry: Observer.StartSampler runs a background sampler
// that turns the cumulative shard counters into windowed per-domain
// signals — occupancy, throughput, latency quantiles, write fraction,
// bypass/WAL/fault rates — with EWMA smoothing, slope estimates and a
// health classification (Healthy/Degraded/Saturated/Stalled) whose
// transitions land in the event journal. Consume them via
// Observer.Signals, the /signals JSON endpoint, the Prometheus gauges on
// /metrics, or an NDJSON stream.
type (
	// Sampler is the windowed-signal sampler; see Observer.StartSampler.
	Sampler = obs.Sampler
	// SamplerOptions tunes cadence, smoothing, thresholds and streaming.
	SamplerOptions = obs.SamplerOptions
	// DomainSignals is one domain's published signal set for one window.
	DomainSignals = signal.DomainSignals
	// Signal is one windowed value with its EWMA and slope.
	Signal = signal.Signal
	// Health is the classified domain state.
	Health = signal.Health
	// HealthThresholds configures the classifier (zero fields = defaults).
	HealthThresholds = signal.Thresholds
)

// Health states, in increasing severity.
const (
	Healthy   = signal.Healthy
	Degraded  = signal.Degraded
	Saturated = signal.Saturated
	Stalled   = signal.Stalled
)

// DefaultSamplerEvery is the default sampler cadence (250ms).
const DefaultSamplerEvery = obs.DefaultSamplerEvery

// Machine returns the reference 24-core/48-thread-per-socket topology
// restricted to n sockets (1–8); it models the paper's HPE MC990 X.
func Machine(sockets int) *Topology {
	m, err := topology.Restricted(sockets)
	if err != nil {
		panic(err) // sockets outside 1..8 is a programming error
	}
	return m
}

// DetectHostTopology builds a Topology describing the Linux host this
// process runs on (sockets, cores, SMT, NUMA distances from sysfs). Use it
// as Config.Machine together with Config.PinWorkers to pin domain workers
// to real host CPUs. Returns an error off Linux or without sysfs.
func DetectHostTopology() (*Topology, error) {
	return topology.DetectHost()
}

// CPURange returns the CPU set [lo, hi).
func CPURange(lo, hi int) CPUSet { return topology.Range(lo, hi) }

// CPUs builds a CPU set from explicit ids.
func CPUs(ids ...int) CPUSet { return topology.NewCPUSet(ids...) }

// Planning: the configuration process of the paper (calibrate → compose →
// materialise), re-exported for applications that want the runtime to pick
// an optimal layout for their structures.
type (
	// PlanInstance describes one structure instance entering composition.
	PlanInstance = config.Instance
	// Plan is a composed domain layout before machine materialisation.
	Plan = config.Plan
)

// Compose runs the paper's composition process (Section 5.2) over the
// instances for a machine with the given worker count. The default measure
// calibrates on the simulated reference machine.
func Compose(instances []PlanInstance, workers int) (*Plan, error) {
	return config.Compose(instances, workers, nil)
}

// Materialise turns a composed plan into a runnable Config on the machine.
func Materialise(plan *Plan, m *Topology) (Config, error) {
	return config.Materialise(plan, m)
}
