// Package obs is the runtime introspection layer: low-overhead telemetry
// for the delegation runtime (internal/delegation + internal/core), built
// so the paper's measurement claims — where delegation time goes, what the
// burst size does to the latency distribution — are observable on a live
// run instead of only in offline experiments.
//
// Three pieces, in increasing cost:
//
//   - Per-worker stat shards (WorkerShard, ClientShard): cache-line-padded
//     counters written as plain increments by their single owner on the
//     critical path — no atomics, no sharing — and published to an atomic
//     image on a flush cadence; aggregation reads only the image. Latency
//     (sweep, execute, post→resolve response) is sampled every
//     SampleEvery-th operation into log₂ histograms.
//
//   - A sampled task-lifecycle tracer (Span, Tracer): post → sweep →
//     execute → respond → future-resolved timestamps collected into a
//     fixed-size ring, off by default (Options.TraceEvery), dumpable as
//     JSON.
//
//   - An HTTP exposition endpoint (Observer.Serve): Prometheus-text
//     counters and histograms plus the fault-counter snapshot on /metrics,
//     span and lifecycle-event dumps on /spans and /events, and the pprof
//     suite on /debug/pprof/ — the runtime core labels worker goroutines
//     with their domain/worker so CPU profiles attribute time per domain.
//
// When no Observer is attached (the default), the delegation hot path sees
// only nil-pointer checks and allocates nothing extra.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"robustconf/internal/metrics"
)

// Options tunes an Observer.
type Options struct {
	// SampleEvery is the latency-sampling period: every Nth sweep, task
	// execution and post is timed. Rounded up to a power of two; 0 means
	// DefaultSampleEvery. 1 samples everything (tests).
	SampleEvery int
	// TraceEvery commits every Nth *sampled* span to the trace ring; 0 —
	// the default — disables lifecycle tracing entirely.
	TraceEvery int
	// TraceCap is the span ring capacity (default 4096).
	TraceCap int
	// EventCap is the lifecycle event ring capacity (default 256).
	EventCap int
	// Faults is the fault-counter set the endpoint and reports expose.
	// Defaults to the process-wide metrics.Faults; the runtime core
	// rebinds it to the runtime's own counters when they are injected.
	Faults *metrics.FaultCounters
}

// DefaultSampleEvery is the default latency-sampling period. At one timed
// operation in 64 the two clock reads amortise to well under a nanosecond
// per operation.
const DefaultSampleEvery = 64

// pow2 rounds n up to the next power of two.
func pow2(n int) uint64 {
	p := uint64(1)
	for p < uint64(n) {
		p <<= 1
	}
	return p
}

// Observer is the root of the introspection layer for one process: domains
// register their worker and client shards with it, the runtime core feeds
// it lifecycle events, and the exposition endpoint and text reports read
// aggregated snapshots from it.
type Observer struct {
	sampleMask uint64
	traceEvery uint64
	start      time.Time
	tracer     *Tracer
	events     *eventLog

	mu      sync.Mutex
	domains []*DomainObs
	faults  *metrics.FaultCounters
	sampler *Sampler
	server  func() ServerStats // nil until a network front end attaches
}

// ServerStats is the network front end's counter snapshot (internal/server
// installs a provider via SetServerStats). Everything is cumulative except
// the gauges called out below; the obs layer exports them on /metrics as
// robustconf_server_* and the signal sampler derives windowed rates from
// them for /signals.
type ServerStats struct {
	ConnsAccepted uint64
	ConnsActive   int64 // gauge
	Ops           uint64
	Batches       uint64
	QuotaRejects  uint64 // BUSY replies from per-tenant quota checks
	BusyRejects   uint64 // BUSY replies from session-pool acquire timeouts
	PoolWaits     uint64 // batches that blocked waiting for a session
	ProtoErrors   uint64 // connections dropped on malformed frames
	WriteTimeouts uint64 // connections dropped on slow-reader write stalls
	BytesRead     uint64
	BytesWritten  uint64
	PipelineMax   int64 // gauge: largest single-batch op count observed
	Sessions      int64 // gauge: pooled session count
	Draining      bool
}

// SetServerStats installs (or, with nil, removes) the snapshot-time
// provider for network front-end counters. Scrapes and sampler ticks call
// the provider from their own goroutines; it must be safe for concurrent
// use and should not block.
func (o *Observer) SetServerStats(fn func() ServerStats) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.server = fn
}

// ServerStats returns the latest front-end counter snapshot and whether a
// provider is attached.
func (o *Observer) ServerStats() (ServerStats, bool) {
	o.mu.Lock()
	fn := o.server
	o.mu.Unlock()
	if fn == nil {
		return ServerStats{}, false
	}
	return fn(), true
}

// New builds an Observer.
func New(opts Options) *Observer {
	if opts.SampleEvery <= 0 {
		opts.SampleEvery = DefaultSampleEvery
	}
	if opts.TraceCap <= 0 {
		opts.TraceCap = 4096
	}
	if opts.EventCap <= 0 {
		opts.EventCap = 256
	}
	faults := opts.Faults
	if faults == nil {
		faults = metrics.Faults
	}
	return &Observer{
		sampleMask: pow2(opts.SampleEvery) - 1,
		traceEvery: uint64(opts.TraceEvery),
		start:      time.Now(),
		tracer:     NewTracer(opts.TraceCap),
		events:     newEventLog(opts.EventCap),
		faults:     faults,
	}
}

// SetFaults rebinds the fault-counter set the observer exposes (the
// runtime core calls this when a runtime carries injected counters).
func (o *Observer) SetFaults(f *metrics.FaultCounters) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if f != nil {
		o.faults = f
	}
}

// Tracer exposes the span ring.
func (o *Observer) Tracer() *Tracer { return o.tracer }

// Lifecycle records a domain/worker lifecycle event (worker start, crash,
// respawn, budget exhaustion, domain stop).
func (o *Observer) Lifecycle(domain string, worker int, kind string) {
	o.events.add(Event{AtNs: nanos(), Domain: domain, Worker: worker, Kind: kind})
}

// Events returns the retained lifecycle events (oldest first) and the
// all-time per-kind totals.
func (o *Observer) Events() ([]Event, map[string]uint64) { return o.events.snapshot() }

// Domain registers a new domain instance with the given worker count and
// returns its telemetry handle. Re-registering a name (each chaos schedule
// starts a fresh runtime over the same domain names) adds a new instance;
// Snapshot merges instances by name.
func (o *Observer) Domain(name string, workers int) *DomainObs {
	d := &DomainObs{name: name}
	for i := 0; i < workers; i++ {
		d.workers = append(d.workers, &WorkerShard{mask: o.sampleMask, dom: d})
	}
	d.obs = o
	o.mu.Lock()
	o.domains = append(o.domains, d)
	o.mu.Unlock()
	return d
}

// DomainObs aggregates one registered domain instance: its worker shards,
// the client shards of the sessions that talked to it, and the sampled
// latency histograms.
type DomainObs struct {
	name    string
	obs     *Observer
	workers []*WorkerShard

	sweepNs metrics.Histogram // sampled worker sweep (poll round) latency
	execNs  metrics.Histogram // sampled task execute latency
	respNs  metrics.Histogram // sampled post→future-resolved latency

	mu       sync.Mutex
	clients  []*ClientShard
	external func() DomainExternal
}

// Name returns the domain name.
func (d *DomainObs) Name() string { return d.name }

// Worker returns worker i's shard; the runtime core installs it into the
// worker's message buffer.
func (d *DomainObs) Worker(i int) *WorkerShard { return d.workers[i] }

// NewClient registers a client shard for one session's delegation client.
// Off the critical path (sessions acquire clients once per domain).
func (d *DomainObs) NewClient() *ClientShard {
	c := &ClientShard{mask: d.obs.sampleMask, traceEvery: d.obs.traceEvery, dom: d, tracer: d.obs.tracer}
	d.mu.Lock()
	d.clients = append(d.clients, c)
	d.mu.Unlock()
	return c
}

// DomainExternal carries domain counters the obs layer does not own but
// reports alongside its shards (failure accounting and queue depth, read
// from the runtime's buffers at snapshot time).
type DomainExternal struct {
	Failed   uint64
	Rescued  uint64
	Restarts int64
	Pending  int
	// BudgetRemaining is the domain's unspent restart budget: how many more
	// worker crashes it survives before ErrDomainDead. Gauge, never negative.
	BudgetRemaining int64
	// Durability counters (zero when the runtime runs without a WAL):
	// recoveries run, log records replayed, wall time spent replaying,
	// records group-committed to the log, and the UnixNano stamp of the
	// last completed checkpoint (0 = none).
	Recoveries        uint64
	WALReplayed       uint64
	WALReplayNs       uint64
	WALCommitted      uint64
	WALLastCheckpoint int64
	// Arena telemetry (zero when the runtime runs without worker arenas):
	// live/retained slab bytes summed over the domain's worker arenas
	// (gauges), plus cumulative heap-overflow allocations and
	// reset/discard epochs (counters).
	ArenaLiveBytes int64
	ArenaCapBytes  int64
	ArenaOverflows int64
	ArenaResets    int64
	ArenaDiscards  int64
	// Typed ops executed through structure batch kernels; over the
	// non-empty sweep count it is the realised group width.
	BatchKernelOps uint64
}

// SetExternal installs the snapshot-time callback for external counters.
func (d *DomainObs) SetExternal(fn func() DomainExternal) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.external = fn
}

// DomainSnapshot is the aggregated point-in-time view of one domain name
// (summed over its registered instances and their shards).
type DomainSnapshot struct {
	Name       string
	Workers    int
	Tasks      uint64
	Sweeps     uint64
	EmptySweep uint64
	Batched    uint64
	MaxBatch   uint64
	Posts      uint64
	BurstWaits uint64
	// Reads counts read-classified operations: bypass hits plus delegated
	// reads (read-flagged closures and typed GETs). Writes are derivable as
	// Posts − (Reads − BypassHits); the sampler turns the two deltas into
	// the windowed write fraction.
	Reads uint64
	// Read-bypass counters: validated local reads, wasted validation
	// attempts, and reads that fell back to delegation (see core.SubmitRead).
	BypassHits      uint64
	BypassRetries   uint64
	BypassFallbacks uint64
	Failed          uint64
	Rescued         uint64
	Restarts        int64
	Pending         int
	BudgetRemaining int64
	// Durability view (see DomainExternal): recovery work, commit volume,
	// and checkpoint freshness for the domain's write-ahead log.
	Recoveries        uint64
	WALReplayed       uint64
	WALReplayNs       uint64
	WALCommitted      uint64
	WALLastCheckpoint int64
	// Arena view (see DomainExternal): worker-arena occupancy and
	// recycle/overflow volume for the domain.
	ArenaLiveBytes int64
	ArenaCapBytes  int64
	ArenaOverflows int64
	ArenaResets    int64
	ArenaDiscards  int64
	// Kernel-executed typed ops for the domain (see DomainExternal).
	BatchKernelOps uint64
	SweepNs        metrics.HistogramSnapshot
	ExecNs         metrics.HistogramSnapshot
	RespNs         metrics.HistogramSnapshot
}

// Occupancy is the fraction of sweeps that found work.
func (s DomainSnapshot) Occupancy() float64 {
	if s.Sweeps == 0 {
		return 0
	}
	return 1 - float64(s.EmptySweep)/float64(s.Sweeps)
}

// snapshotInto aggregates one domain instance into *s, overwriting it.
// This is the shared scrape path for Snapshot(), the HTTP exposition and
// the signal sampler: the client-shard list is summed under d.mu (so a
// concurrent NewClient registration can neither be missed half-initialised
// nor force a defensive slice copy per scrape) and nothing here allocates —
// the sampler tick depends on that.
func (d *DomainObs) snapshotInto(s *DomainSnapshot) {
	*s = DomainSnapshot{Name: d.name, Workers: len(d.workers)}
	for _, w := range d.workers {
		s.Tasks += w.pub[wsTasks].Load()
		s.Sweeps += w.pub[wsSweeps].Load()
		s.EmptySweep += w.pub[wsEmptySweeps].Load()
		s.Batched += w.pub[wsBatched].Load()
		if mb := w.pub[wsMaxBatch].Load(); mb > s.MaxBatch {
			s.MaxBatch = mb
		}
	}
	d.mu.Lock()
	for _, c := range d.clients {
		s.Posts += c.pub[csPosts].Load()
		s.BurstWaits += c.pub[csBurstWaits].Load()
		s.Reads += c.pub[csReads].Load()
		s.BypassHits += c.pub[csBypassHits].Load()
		s.BypassRetries += c.pub[csBypassRetries].Load()
		s.BypassFallbacks += c.pub[csBypassFallbacks].Load()
	}
	external := d.external
	d.mu.Unlock()
	s.SweepNs = d.sweepNs.Snapshot()
	s.ExecNs = d.execNs.Snapshot()
	s.RespNs = d.respNs.Snapshot()
	// The external callback runs outside d.mu: it reaches into the runtime
	// (buffer atomics, WAL stats behind the runtime's own locks) and must
	// not nest under the obs lock.
	if external != nil {
		ext := external()
		s.Failed = ext.Failed
		s.Rescued = ext.Rescued
		s.Restarts = ext.Restarts
		s.Pending = ext.Pending
		s.BudgetRemaining = ext.BudgetRemaining
		s.Recoveries = ext.Recoveries
		s.WALReplayed = ext.WALReplayed
		s.WALReplayNs = ext.WALReplayNs
		s.WALCommitted = ext.WALCommitted
		s.WALLastCheckpoint = ext.WALLastCheckpoint
		s.ArenaLiveBytes = ext.ArenaLiveBytes
		s.ArenaCapBytes = ext.ArenaCapBytes
		s.ArenaOverflows = ext.ArenaOverflows
		s.ArenaResets = ext.ArenaResets
		s.ArenaDiscards = ext.ArenaDiscards
		s.BatchKernelOps = ext.BatchKernelOps
	}
}

// merge folds another instance of the same domain name into s.
func (s *DomainSnapshot) merge(o DomainSnapshot) {
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	s.Tasks += o.Tasks
	s.Sweeps += o.Sweeps
	s.EmptySweep += o.EmptySweep
	s.Batched += o.Batched
	if o.MaxBatch > s.MaxBatch {
		s.MaxBatch = o.MaxBatch
	}
	s.Posts += o.Posts
	s.BurstWaits += o.BurstWaits
	s.Reads += o.Reads
	s.BypassHits += o.BypassHits
	s.BypassRetries += o.BypassRetries
	s.BypassFallbacks += o.BypassFallbacks
	s.Failed += o.Failed
	s.Rescued += o.Rescued
	s.Restarts += o.Restarts
	s.Pending += o.Pending
	// Instances of a name run consecutively (one runtime at a time), so the
	// live instance's gauges — remaining budget, checkpoint freshness —
	// supersede the retired ones' rather than summing.
	s.BudgetRemaining = o.BudgetRemaining
	if o.WALLastCheckpoint > s.WALLastCheckpoint {
		s.WALLastCheckpoint = o.WALLastCheckpoint
	}
	s.Recoveries += o.Recoveries
	s.WALReplayed += o.WALReplayed
	s.WALReplayNs += o.WALReplayNs
	s.WALCommitted += o.WALCommitted
	// Live-instance gauges, like BudgetRemaining above; overflow and
	// reset/discard volume are cumulative.
	s.ArenaLiveBytes = o.ArenaLiveBytes
	s.ArenaCapBytes = o.ArenaCapBytes
	s.ArenaOverflows += o.ArenaOverflows
	s.ArenaResets += o.ArenaResets
	s.ArenaDiscards += o.ArenaDiscards
	s.BatchKernelOps += o.BatchKernelOps
	s.SweepNs.Merge(o.SweepNs)
	s.ExecNs.Merge(o.ExecNs)
	s.RespNs.Merge(o.RespNs)
}

// Snapshot is the whole layer's aggregated view.
type Snapshot struct {
	UptimeSeconds float64
	Domains       []DomainSnapshot
	Faults        metrics.FaultSnapshot
	SpansSampled  uint64
	EventCounts   map[string]uint64
}

// Snapshot aggregates every registered domain (merged by name, in first-
// registration order) plus the fault counters. The domain list is copied
// under o.mu so a Domain() registering concurrently with a scrape either
// appears whole or not at all — the per-instance aggregation then runs
// outside the observer lock against that point-in-time view (per-domain
// consistency is d.mu's job, see snapshotInto).
func (o *Observer) Snapshot() Snapshot {
	o.mu.Lock()
	domains := append([]*DomainObs(nil), o.domains...)
	faults := o.faults
	o.mu.Unlock()

	snap := Snapshot{UptimeSeconds: time.Since(o.start).Seconds()}
	index := map[string]int{}
	var ds DomainSnapshot
	for _, d := range domains {
		d.snapshotInto(&ds)
		if i, ok := index[ds.Name]; ok {
			snap.Domains[i].merge(ds)
			continue
		}
		index[ds.Name] = len(snap.Domains)
		snap.Domains = append(snap.Domains, ds)
	}
	snap.Faults = faults.Snapshot()
	snap.SpansSampled = o.tracer.Total()
	_, snap.EventCounts = o.events.snapshot()
	return snap
}

// Report renders the final-report telemetry block the cmd binaries print:
// per-domain task counters and latency quantiles, then the fault summary.
func (o *Observer) Report() string {
	snap := o.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "--- telemetry (uptime %.1fs) ---\n", snap.UptimeSeconds)
	for _, d := range snap.Domains {
		fmt.Fprintf(&b, "domain %s: workers %d, tasks %d, posts %d, burst-waits %d, sweeps %d (occupancy %.3f), batched %d (max batch %d), pending %d\n",
			d.Name, d.Workers, d.Tasks, d.Posts, d.BurstWaits, d.Sweeps, d.Occupancy(), d.Batched, d.MaxBatch, d.Pending)
		if d.Failed > 0 || d.Rescued > 0 || d.Restarts > 0 {
			fmt.Fprintf(&b, "  failures: %d failed, %d rescued, %d restarts (budget remaining %d)\n",
				d.Failed, d.Rescued, d.Restarts, d.BudgetRemaining)
		}
		if d.Recoveries > 0 || d.WALLastCheckpoint > 0 {
			fmt.Fprintf(&b, "  durability: %d recoveries, %d records replayed in %.2fms\n",
				d.Recoveries, d.WALReplayed, float64(d.WALReplayNs)/1e6)
		}
		if d.BypassHits > 0 || d.BypassFallbacks > 0 {
			fmt.Fprintf(&b, "  read-bypass: %d hits, %d retries, %d fallbacks\n", d.BypassHits, d.BypassRetries, d.BypassFallbacks)
		}
		writeHistLine(&b, "sweep ns", d.SweepNs)
		writeHistLine(&b, "exec  ns", d.ExecNs)
		writeHistLine(&b, "resp  ns", d.RespNs)
	}
	if smp := o.Sampler(); smp != nil {
		b.WriteString(smp.Report())
	}
	if len(snap.EventCounts) > 0 {
		kinds := make([]string, 0, len(snap.EventCounts))
		for k := range snap.EventCounts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		fmt.Fprintf(&b, "lifecycle:")
		for _, k := range kinds {
			fmt.Fprintf(&b, " %s=%d", k, snap.EventCounts[k])
		}
		fmt.Fprintf(&b, "\n")
	}
	if snap.SpansSampled > 0 {
		fmt.Fprintf(&b, "trace: %d spans committed (GET /spans for the ring)\n", snap.SpansSampled)
	}
	fmt.Fprintf(&b, "faults: %s\n", snap.Faults)
	return b.String()
}

func writeHistLine(b *strings.Builder, label string, h metrics.HistogramSnapshot) {
	if h.Count == 0 {
		return
	}
	fmt.Fprintf(b, "  %s: n=%d p50=%.0f p99=%.0f max=%d\n",
		label, h.Count, h.Quantile(0.5), h.Quantile(0.99), h.Max)
}
