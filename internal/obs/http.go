package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"robustconf/internal/metrics"
	"robustconf/internal/obs/signal"
)

// Handler returns the endpoint mux:
//
//	/metrics       Prometheus text exposition (counters, histograms, faults)
//	/signals       windowed per-domain signals + health states (JSON;
//	               empty set until a sampler is started)
//	/spans         JSON dump of the task-lifecycle trace ring
//	/events        JSON dump of retained lifecycle events + per-kind totals
//	/debug/pprof/  the standard pprof suite (worker goroutines carry
//	               domain/worker labels, so profiles attribute per domain)
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "robustconf observability endpoint\n\n"+
			"  /metrics       Prometheus text counters + histograms + faults\n"+
			"  /signals       windowed per-domain signals + health (JSON)\n"+
			"  /spans         sampled task-lifecycle spans (JSON)\n"+
			"  /events        worker/domain lifecycle events (JSON)\n"+
			"  /debug/pprof/  pprof suite (workers labelled domain/worker)\n")
	})
	mux.HandleFunc("/signals", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		o.writeSignalsJSON(w)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		o.writeMetrics(w)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := o.tracer.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		events, counts := o.events.snapshot()
		writeEventsJSON(w, events, counts)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeShutdownTimeout bounds how long Serve's closer waits for in-flight
// requests to drain before forcing connections closed.
const ServeShutdownTimeout = 5 * time.Second

// Serve starts the endpoint on addr (e.g. ":6060"; ":0" picks a free port).
// It returns the bound address and a stop function that shuts the server
// down gracefully: the closer stops the listener and waits (bounded by
// ServeShutdownTimeout) for in-flight /metrics, /signals and pprof requests
// to drain before forcing any straggler connections closed — a scrape
// racing shutdown gets its complete response, not a torn one. Serving runs
// on its own goroutine; Serve itself returns immediately.
func (o *Observer) Serve(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: o.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	closer := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), ServeShutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			// Drain deadline passed (or the context died): cut whatever is
			// still open so the closer always terminates the server.
			return srv.Close()
		}
		return nil
	}
	return ln.Addr().String(), closer, nil
}

// writeMetrics renders the Prometheus text exposition: per-domain counters
// and gauges (labelled domain="..."), the latency histograms as cumulative
// le-bucket series, the fault counters, and lifecycle event totals.
func (o *Observer) writeMetrics(w http.ResponseWriter) {
	snap := o.Snapshot()

	fmt.Fprintf(w, "# HELP robustconf_uptime_seconds Seconds since the observer was created.\n")
	fmt.Fprintf(w, "# TYPE robustconf_uptime_seconds gauge\n")
	fmt.Fprintf(w, "robustconf_uptime_seconds %g\n", snap.UptimeSeconds)

	counter := func(name, help string, val func(d DomainSnapshot) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, d := range snap.Domains {
			fmt.Fprintf(w, "%s{domain=%q} %d\n", name, d.Name, val(d))
		}
	}
	counter("robustconf_tasks_swept_total", "Tasks executed by domain workers.",
		func(d DomainSnapshot) uint64 { return d.Tasks })
	counter("robustconf_sweeps_total", "Worker poll rounds over client slots.",
		func(d DomainSnapshot) uint64 { return d.Sweeps })
	counter("robustconf_empty_sweeps_total", "Poll rounds that found no posted task.",
		func(d DomainSnapshot) uint64 { return d.EmptySweep })
	counter("robustconf_batched_tasks_total", "Tasks answered in multi-task sweep batches.",
		func(d DomainSnapshot) uint64 { return d.Batched })
	counter("robustconf_posts_total", "Tasks delegated by clients.",
		func(d DomainSnapshot) uint64 { return d.Posts })
	counter("robustconf_burst_waits_total", "Client stalls waiting on a full burst window.",
		func(d DomainSnapshot) uint64 { return d.BurstWaits })
	counter("robustconf_bypass_hits_total", "Read-bypass reads that validated locally, skipping delegation.",
		func(d DomainSnapshot) uint64 { return d.BypassHits })
	counter("robustconf_bypass_retries_total", "Read-bypass validation attempts wasted on unstable publication words.",
		func(d DomainSnapshot) uint64 { return d.BypassRetries })
	counter("robustconf_bypass_fallbacks_total", "Read-bypass reads that fell back to delegated execution.",
		func(d DomainSnapshot) uint64 { return d.BypassFallbacks })
	counter("robustconf_tasks_failed_total", "Futures completed with a typed error, by domain.",
		func(d DomainSnapshot) uint64 { return d.Failed })
	counter("robustconf_rescued_posts_total", "Posts answered ErrWorkerStopped from sealed buffers.",
		func(d DomainSnapshot) uint64 { return d.Rescued })

	fmt.Fprintf(w, "# HELP robustconf_worker_restarts_total Worker respawns after a crash, by domain.\n")
	fmt.Fprintf(w, "# TYPE robustconf_worker_restarts_total counter\n")
	for _, d := range snap.Domains {
		fmt.Fprintf(w, "robustconf_worker_restarts_total{domain=%q} %d\n", d.Name, d.Restarts)
	}
	fmt.Fprintf(w, "# HELP robustconf_pending_tasks Posted-but-unanswered slots, by domain.\n")
	fmt.Fprintf(w, "# TYPE robustconf_pending_tasks gauge\n")
	for _, d := range snap.Domains {
		fmt.Fprintf(w, "robustconf_pending_tasks{domain=%q} %d\n", d.Name, d.Pending)
	}
	fmt.Fprintf(w, "# HELP robustconf_restart_budget_remaining Worker respawns left before the domain dies.\n")
	fmt.Fprintf(w, "# TYPE robustconf_restart_budget_remaining gauge\n")
	for _, d := range snap.Domains {
		fmt.Fprintf(w, "robustconf_restart_budget_remaining{domain=%q} %d\n", d.Name, d.BudgetRemaining)
	}
	counter("robustconf_recoveries_total", "WAL recoveries run after worker crashes.",
		func(d DomainSnapshot) uint64 { return d.Recoveries })
	counter("robustconf_wal_replayed_records_total", "Log records applied during WAL recovery.",
		func(d DomainSnapshot) uint64 { return d.WALReplayed })
	counter("robustconf_wal_replay_ns_total", "Wall time spent replaying the WAL (ns).",
		func(d DomainSnapshot) uint64 { return d.WALReplayNs })
	fmt.Fprintf(w, "# HELP robustconf_arena_live_bytes Worker-arena bytes handed out since the last reset, by domain.\n")
	fmt.Fprintf(w, "# TYPE robustconf_arena_live_bytes gauge\n")
	for _, d := range snap.Domains {
		fmt.Fprintf(w, "robustconf_arena_live_bytes{domain=%q} %d\n", d.Name, d.ArenaLiveBytes)
	}
	fmt.Fprintf(w, "# HELP robustconf_arena_capacity_bytes Worker-arena retained slab capacity, by domain.\n")
	fmt.Fprintf(w, "# TYPE robustconf_arena_capacity_bytes gauge\n")
	for _, d := range snap.Domains {
		fmt.Fprintf(w, "robustconf_arena_capacity_bytes{domain=%q} %d\n", d.Name, d.ArenaCapBytes)
	}
	counter("robustconf_arena_overflows_total", "Arena allocations that fell back to the heap (mis-sized slabs).",
		func(d DomainSnapshot) uint64 { return uint64(d.ArenaOverflows) })
	counter("robustconf_arena_resets_total", "Arena batch-boundary recycles.",
		func(d DomainSnapshot) uint64 { return uint64(d.ArenaResets) })
	counter("robustconf_arena_discards_total", "Arena crash-recovery discards (slabs returned to the GC).",
		func(d DomainSnapshot) uint64 { return uint64(d.ArenaDiscards) })
	counter("robustconf_batch_kernel_ops_total", "Typed ops executed through structure batch kernels.",
		func(d DomainSnapshot) uint64 { return d.BatchKernelOps })
	fmt.Fprintf(w, "# HELP robustconf_wal_checkpoint_age_seconds Age of the domain's last completed checkpoint (-1 = no WAL or no checkpoint).\n")
	fmt.Fprintf(w, "# TYPE robustconf_wal_checkpoint_age_seconds gauge\n")
	now := time.Now().UnixNano()
	for _, d := range snap.Domains {
		age := -1.0
		if d.WALLastCheckpoint > 0 {
			age = float64(now-d.WALLastCheckpoint) / 1e9
		}
		fmt.Fprintf(w, "robustconf_wal_checkpoint_age_seconds{domain=%q} %g\n", d.Name, age)
	}
	fmt.Fprintf(w, "# HELP robustconf_max_batch_size Largest single-sweep response batch observed, by domain.\n")
	fmt.Fprintf(w, "# TYPE robustconf_max_batch_size gauge\n")
	for _, d := range snap.Domains {
		fmt.Fprintf(w, "robustconf_max_batch_size{domain=%q} %d\n", d.Name, d.MaxBatch)
	}

	hist := func(name, help string, val func(d DomainSnapshot) metrics.HistogramSnapshot) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for _, d := range snap.Domains {
			writePromHistogram(w, name, d.Name, val(d))
		}
	}
	hist("robustconf_sweep_duration_ns", "Sampled worker sweep latency (ns).",
		func(d DomainSnapshot) metrics.HistogramSnapshot { return d.SweepNs })
	hist("robustconf_exec_duration_ns", "Sampled task execute latency (ns).",
		func(d DomainSnapshot) metrics.HistogramSnapshot { return d.ExecNs })
	hist("robustconf_response_duration_ns", "Sampled post-to-resolved response latency (ns).",
		func(d DomainSnapshot) metrics.HistogramSnapshot { return d.RespNs })

	fault := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	f := snap.Faults
	fault("robustconf_faults_worker_panics_total", "Panics escaping a worker sweep.", f.WorkerPanics)
	fault("robustconf_faults_worker_restarts_total", "Successful worker respawns.", f.WorkerRestarts)
	fault("robustconf_faults_restarts_exhausted_total", "Workers retired after exhausting the restart budget.", f.RestartsExhausted)
	fault("robustconf_faults_tasks_failed_total", "Futures completed with a typed error.", f.TasksFailed)
	fault("robustconf_faults_rescued_posts_total", "Posts rescued from sealed buffers.", f.RescuedPosts)

	if len(snap.EventCounts) > 0 {
		fmt.Fprintf(w, "# HELP robustconf_lifecycle_events_total Domain/worker lifecycle events by kind.\n")
		fmt.Fprintf(w, "# TYPE robustconf_lifecycle_events_total counter\n")
		kinds := make([]string, 0, len(snap.EventCounts))
		for k := range snap.EventCounts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(w, "robustconf_lifecycle_events_total{kind=%q} %d\n", k, snap.EventCounts[k])
		}
	}
	fmt.Fprintf(w, "# HELP robustconf_spans_sampled_total Task-lifecycle spans committed to the trace ring.\n")
	fmt.Fprintf(w, "# TYPE robustconf_spans_sampled_total counter\n")
	fmt.Fprintf(w, "robustconf_spans_sampled_total %d\n", snap.SpansSampled)

	o.writeServerMetrics(w)
	o.writeSignalGauges(w)
}

// writeServerMetrics renders the network front end's counters, when one is
// attached (robustconf_server_*). Nothing is written for library-only runs.
func (o *Observer) writeServerMetrics(w io.Writer) {
	st, ok := o.ServerStats()
	if !ok {
		return
	}
	c := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	g := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c("robustconf_server_connections_accepted_total", "Network connections accepted by the front end.", st.ConnsAccepted)
	g("robustconf_server_connections_active", "Currently open network connections.", st.ConnsActive)
	c("robustconf_server_ops_total", "KV/control operations decoded and answered.", st.Ops)
	c("robustconf_server_batches_total", "Pipelined request batches executed (one delegation burst each).", st.Batches)
	c("robustconf_server_quota_rejects_total", "Batches answered BUSY by per-tenant quota checks.", st.QuotaRejects)
	c("robustconf_server_busy_rejects_total", "Batches answered BUSY after the session-pool acquire deadline.", st.BusyRejects)
	c("robustconf_server_pool_waits_total", "Batches that blocked waiting for a pooled session.", st.PoolWaits)
	c("robustconf_server_proto_errors_total", "Connections dropped on malformed frames.", st.ProtoErrors)
	c("robustconf_server_write_timeouts_total", "Connections dropped on slow-reader write stalls.", st.WriteTimeouts)
	c("robustconf_server_bytes_read_total", "Request bytes read from the network.", st.BytesRead)
	c("robustconf_server_bytes_written_total", "Response bytes written to the network.", st.BytesWritten)
	g("robustconf_server_pipeline_depth_max", "Largest single-batch op count observed.", st.PipelineMax)
	g("robustconf_server_sessions", "Pooled delegation sessions the connections multiplex onto.", st.Sessions)
	draining := int64(0)
	if st.Draining {
		draining = 1
	}
	g("robustconf_server_draining", "1 while the front end is draining for shutdown.", draining)
}

// writeSignalGauges renders the sampler's windowed signals as Prometheus
// gauges (one scrape-time family per signal, labelled by domain, plus the
// numeric health state). Nothing is written when no sampler runs.
func (o *Observer) writeSignalGauges(w io.Writer) {
	// The server block is independent of domain signals: a front end can be
	// the only signal source (no domains registered yet, or a pure proxy).
	if s := o.Sampler(); s != nil {
		if srv, ok := s.ServerSignals(); ok {
			sg := func(name, help string, v float64) {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
			}
			sg("robustconf_signal_server_ops_per_sec", "Windowed front-end operations per second.", srv.OpsRate.Value)
			sg("robustconf_signal_server_batches_per_sec", "Windowed front-end delegation bursts per second.", srv.BatchRate.Value)
			sg("robustconf_signal_server_pipeline_depth", "Windowed ops per batch (realised pipeline depth).", srv.PipelineDepth)
			sg("robustconf_signal_server_reject_rate", "Windowed BUSY replies per second.", srv.RejectRate.Value)
		}
	}
	sigs := o.Signals()
	if len(sigs) == 0 {
		return
	}
	gauge := func(name, help string, val func(d signal.DomainSignals) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, d := range sigs {
			fmt.Fprintf(w, "%s{domain=%q} %g\n", name, d.Domain, val(d))
		}
	}
	gauge("robustconf_signal_occupancy", "Windowed fraction of sweeps that found work.",
		func(d signal.DomainSignals) float64 { return d.Occupancy.Value })
	gauge("robustconf_signal_occupancy_ewma", "EWMA-smoothed windowed occupancy.",
		func(d signal.DomainSignals) float64 { return d.Occupancy.EWMA })
	gauge("robustconf_signal_queue_depth", "Posted-but-unanswered slots at the last tick.",
		func(d signal.DomainSignals) float64 { return d.QueueDepth.Value })
	gauge("robustconf_signal_throughput", "Windowed tasks executed per second.",
		func(d signal.DomainSignals) float64 { return d.Throughput.Value })
	gauge("robustconf_signal_p50_ns", "Windowed sampled response p50 (ns).",
		func(d signal.DomainSignals) float64 { return d.P50Ns.Value })
	gauge("robustconf_signal_p99_ns", "Windowed sampled response p99 (ns).",
		func(d signal.DomainSignals) float64 { return d.P99Ns.Value })
	gauge("robustconf_signal_p99_slope_ns_per_s", "Ring-regression slope of the windowed p99 (ns per second).",
		func(d signal.DomainSignals) float64 { return d.P99Ns.Slope })
	gauge("robustconf_signal_write_fraction", "Windowed writes / (reads + writes).",
		func(d signal.DomainSignals) float64 { return d.WriteFraction.Value })
	gauge("robustconf_signal_bypass_hit_rate", "Windowed bypass hits per read.",
		func(d signal.DomainSignals) float64 { return d.BypassHitRate.Value })
	gauge("robustconf_signal_bypass_fallback_rate", "Windowed bypass fallbacks per bypass attempt.",
		func(d signal.DomainSignals) float64 { return d.BypassFallbackRate.Value })
	gauge("robustconf_signal_fault_rate", "Windowed failed tasks per second.",
		func(d signal.DomainSignals) float64 { return d.FaultRate.Value })
	gauge("robustconf_signal_restart_rate", "Windowed worker restarts per second.",
		func(d signal.DomainSignals) float64 { return d.RestartRate.Value })
	gauge("robustconf_signal_wal_commit_rate", "Windowed WAL records committed per second.",
		func(d signal.DomainSignals) float64 { return d.WALCommitRate.Value })
	gauge("robustconf_signal_checkpoint_lag_records", "WAL records committed since the last completed checkpoint.",
		func(d signal.DomainSignals) float64 { return d.CheckpointLag })
	gauge("robustconf_health_state", "Classified domain health: 0 healthy, 1 degraded, 2 saturated, 3 stalled.",
		func(d signal.DomainSignals) float64 { return float64(d.Health) })
}

// writeSignalsJSON renders the /signals payload: the latest published
// signal set plus sampler identity, or {"domains": []} when no sampler
// runs (scrapers can distinguish "off" from "no domains").
func (o *Observer) writeSignalsJSON(w io.Writer) {
	type payload struct {
		SamplerRunning bool                   `json:"sampler_running"`
		CadenceSeconds float64                `json:"cadence_seconds,omitempty"`
		Domains        []signal.DomainSignals `json:"domains"`
		Server         *ServerSignals         `json:"server,omitempty"`
	}
	p := payload{Domains: []signal.DomainSignals{}}
	if s := o.Sampler(); s != nil {
		p.SamplerRunning = true
		if s.every > 0 {
			p.CadenceSeconds = s.every.Seconds()
		}
		p.Domains = s.Signals()
		if srv, ok := s.ServerSignals(); ok {
			p.Server = &srv
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(p)
}

// writePromHistogram renders one log₂ histogram as cumulative le buckets.
// Empty log₂ buckets are folded into the next non-empty bound to keep the
// series short; +Inf carries the total count per the exposition format.
func writePromHistogram(w http.ResponseWriter, name, domain string, s metrics.HistogramSnapshot) {
	if s.Count == 0 {
		return
	}
	var cum uint64
	for b := 0; b < 64; b++ {
		if s.Buckets[b] == 0 {
			continue
		}
		cum += s.Buckets[b]
		upper := float64(uint64(1)<<uint(b)) - 1
		if b == 0 {
			upper = 0
		}
		fmt.Fprintf(w, "%s_bucket{domain=%q,le=%q} %d\n", name, domain, trimFloat(upper), cum)
	}
	fmt.Fprintf(w, "%s_bucket{domain=%q,le=\"+Inf\"} %d\n", name, domain, s.Count)
	fmt.Fprintf(w, "%s_sum{domain=%q} %d\n", name, domain, s.Sum)
	fmt.Fprintf(w, "%s_count{domain=%q} %d\n", name, domain, s.Count)
}

func trimFloat(v float64) string {
	return strings.TrimSuffix(fmt.Sprintf("%.0f", v), ".")
}

// writeEventsJSON renders the /events payload without pulling in a second
// encoder dependency: {"counts": {...}, "events": [...]}.
func writeEventsJSON(w http.ResponseWriter, events []Event, counts map[string]uint64) {
	fmt.Fprint(w, "{\n  \"counts\": {")
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for i, k := range kinds {
		if i > 0 {
			fmt.Fprint(w, ", ")
		}
		fmt.Fprintf(w, "%q: %d", k, counts[k])
	}
	fmt.Fprint(w, "},\n  \"events\": [")
	for i, e := range events {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n    {\"at_ns\": %d, \"domain\": %q, \"worker\": %d, \"kind\": %q}",
			e.AtNs, e.Domain, e.Worker, e.Kind)
	}
	fmt.Fprint(w, "\n  ]\n}\n")
}
