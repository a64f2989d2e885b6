package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"robustconf/internal/obs/signal"
)

// DefaultSamplerEvery is the default sampler cadence. At 250ms a window is
// long enough that the shard flush cadences (flushEvery sweeps /
// clientFlushEvery posts) contribute negligible jitter, and short enough
// that the health detector reacts within a second of sustained change.
const DefaultSamplerEvery = 250 * time.Millisecond

// SamplerOptions tunes the continuous telemetry sampler.
type SamplerOptions struct {
	// Every is the sampling cadence (default DefaultSamplerEvery). A
	// negative value builds a manual sampler that never ticks on its own —
	// tests, benchmarks and harnesses drive it with TickNow.
	Every time.Duration
	// EWMAAlpha is the smoothing factor for every signal's EWMA
	// (default signal.DefaultEWMAAlpha).
	EWMAAlpha float64
	// Thresholds configures the health classifier; zero fields take
	// signal.DefaultThresholds.
	Thresholds signal.Thresholds
	// Stream, when set, receives one NDJSON line per domain per tick (the
	// signal.DomainSignals encoding) for offline analysis. Streaming
	// serialises on the tick goroutine and allocates; leave nil for the
	// allocation-free steady state.
	Stream io.Writer
}

// Sampler is the per-Observer telemetry pipeline: a goroutine that
// snapshots every registered domain on a cadence, folds each cumulative
// snapshot into per-window deltas, derives the signal catalogue
// (signal.DomainSignals) with EWMA smoothing and ring-regression slopes,
// classifies per-domain health with hysteresis, and publishes the result
// to Signals()/the /signals endpoint. Ticks read only the shards'
// published atomic images — never the worker-local mirrors — so sampling
// adds nothing to the worker critical path, and the tick itself is
// allocation-free in steady state (pinned by TestSignalTickZeroAlloc).
type Sampler struct {
	o       *Observer
	every   time.Duration
	alpha   float64
	th      signal.Thresholds
	startAt time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	mu      sync.Mutex
	doms    []*DomainObs // reusable copy of the observer's registrations
	states  map[string]*domainSignalState
	order   []*domainSignalState   // first-seen order, parallel to out
	out     []signal.DomainSignals // published view, overwritten in place
	scratch DomainSnapshot         // multi-instance merge scratch
	ticks   uint64
	lastAt  time.Time
	stream  *json.Encoder

	// Network front-end signals (zero-valued until a server attaches a
	// stats provider via Observer.SetServerStats).
	srvPrev     ServerStats
	srvHavePrev bool
	srvOps      signal.Series
	srvBatches  signal.Series
	srvRejects  signal.Series
	srvSig      ServerSignals
	srvHave     bool
}

// ServerSignals is the windowed view of the network front end's counters,
// derived on the same tick cadence as the per-domain signals: operation and
// batch rates with EWMA + slope, the realised pipeline depth (windowed
// ops/batch — the batching amplification the server actually achieved),
// and the BUSY rejection rate across quota and pool-acquire checks.
type ServerSignals struct {
	AtUnixNs      int64   `json:"at_unix_ns"`
	WindowSeconds float64 `json:"window_seconds"`

	OpsRate       signal.Signal `json:"ops_rate"`       // ops/s
	BatchRate     signal.Signal `json:"batch_rate"`     // delegation bursts/s
	RejectRate    signal.Signal `json:"reject_rate"`    // BUSY replies/s
	PipelineDepth float64       `json:"pipeline_depth"` // windowed ops/batch
	ConnsActive   float64       `json:"conns_active"`   // gauge
	Draining      bool          `json:"draining"`
}

// domainSignalState is the sampler's per-domain-name memory: the previous
// cumulative snapshot the next window diffs against, one signal.Series per
// derived signal, the checkpoint-lag anchor, and the health tracker.
type domainSignalState struct {
	name     string
	seenTick uint64         // tick that last aggregated into cur
	cur      DomainSnapshot // this tick's merged cumulative view
	prev     DomainSnapshot
	havePrev bool

	occupancy, queueDepth, throughput, postRate,
	p50, p99, writeFrac, bypassHit, bypassRetry,
	bypassFallback, faultRate, restartRate, walRate signal.Series

	// Latency quantiles and write fraction hold their last value across
	// windows with no samples (an idle window says nothing about latency).
	lastP50, lastP99, lastWF float64

	ckptStamp       int64  // last observed WALLastCheckpoint
	committedAtCkpt uint64 // WALCommitted when the stamp last advanced

	health signal.HealthTracker
	sig    signal.DomainSignals
}

// StartSampler builds and starts the observer's sampler. Idempotent: a
// second call returns the already-running sampler unchanged. With
// opts.Every < 0 no goroutine is started; drive the sampler with TickNow.
func (o *Observer) StartSampler(opts SamplerOptions) *Sampler {
	o.mu.Lock()
	if o.sampler != nil {
		s := o.sampler
		o.mu.Unlock()
		return s
	}
	if opts.Every == 0 {
		opts.Every = DefaultSamplerEvery
	}
	if opts.EWMAAlpha <= 0 || opts.EWMAAlpha > 1 {
		opts.EWMAAlpha = signal.DefaultEWMAAlpha
	}
	s := &Sampler{
		o:       o,
		every:   opts.Every,
		alpha:   opts.EWMAAlpha,
		th:      opts.Thresholds.WithDefaults(),
		startAt: time.Now(),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		states:  map[string]*domainSignalState{},
	}
	if opts.Stream != nil {
		s.stream = json.NewEncoder(opts.Stream)
	}
	o.sampler = s
	o.mu.Unlock()
	// Prime the baseline so the first cadence tick measures a real window.
	s.TickNow()
	if s.every > 0 {
		go s.run()
	} else {
		close(s.done)
	}
	return s
}

// Sampler returns the observer's running sampler, nil if none started.
func (o *Observer) Sampler() *Sampler {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.sampler
}

// StartSamplerToPath is the shared -signals flag plumbing for the commands:
// it starts the sampler at the given cadence and, when path is non-empty,
// streams one NDJSON line per domain per tick into a freshly created file.
// The returned stop function stops the sampler (flushing one final window)
// and closes the stream.
func (o *Observer) StartSamplerToPath(every time.Duration, path string) (stop func(), err error) {
	var f *os.File
	var stream io.Writer
	if path != "" {
		f, err = os.Create(path)
		if err != nil {
			return nil, fmt.Errorf("obs: signals stream: %w", err)
		}
		stream = f
	}
	smp := o.StartSampler(SamplerOptions{Every: every, Stream: stream})
	return func() {
		smp.Stop()
		if f != nil {
			f.Close()
		}
	}, nil
}

// Signals returns the latest published per-domain signal set (nil when no
// sampler is running). This is the Go API the re-planner consumes; the
// slice is a copy, safe to retain.
func (o *Observer) Signals() []signal.DomainSignals {
	if s := o.Sampler(); s != nil {
		return s.Signals()
	}
	return nil
}

func (s *Sampler) run() {
	defer close(s.done)
	t := time.NewTicker(s.every)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			s.tick(now)
		}
	}
}

// Stop halts the cadence goroutine (if any) and runs one final tick so
// runs shorter than the cadence still publish a measured window.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		<-s.done
		s.tick(time.Now())
	})
}

// TickNow forces one synchronous sampling pass. Exported for tests,
// benchmarks and harnesses; the cadence goroutine uses the same path.
func (s *Sampler) TickNow() { s.tick(time.Now()) }

// Signals returns a copy of the latest published per-domain signals.
func (s *Sampler) Signals() []signal.DomainSignals {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]signal.DomainSignals, len(s.out))
	copy(out, s.out)
	return out
}

// tick is the sampler core: snapshot → window delta → derive → classify →
// publish. Steady-state allocation-free; everything it touches is either
// reused sampler state or stack values.
func (s *Sampler) tick(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()

	o := s.o
	o.mu.Lock()
	s.doms = append(s.doms[:0], o.domains...)
	o.mu.Unlock()

	s.ticks++
	dt := 0.0
	if !s.lastAt.IsZero() {
		dt = now.Sub(s.lastAt).Seconds()
	}
	s.lastAt = now
	tSec := now.Sub(s.startAt).Seconds()
	nowUnix := now.UnixNano()

	// Aggregate registered instances by domain name (chaos schedules
	// re-register names across runs; cumulative merge keeps the counters
	// monotonic).
	for _, d := range s.doms {
		st := s.states[d.name]
		if st == nil {
			st = &domainSignalState{name: d.name}
			s.states[d.name] = st
			s.order = append(s.order, st)
			s.out = append(s.out, signal.DomainSignals{})
		}
		if st.seenTick != s.ticks {
			st.seenTick = s.ticks
			d.snapshotInto(&st.cur)
		} else {
			d.snapshotInto(&s.scratch)
			st.cur.merge(s.scratch)
		}
	}

	for i, st := range s.order {
		if st.seenTick != s.ticks {
			continue // registered name vanished (never happens today)
		}
		if !st.havePrev || dt <= 0 {
			// Baseline tick for this domain: publish identity + health,
			// measure from the next window on.
			st.prev = st.cur
			st.havePrev = true
			st.sig = signal.DomainSignals{
				Domain: st.name, AtUnixNs: nowUnix, Ticks: s.ticks,
				Health: st.health.Published(), CheckpointAgeSeconds: -1,
			}
			s.out[i] = st.sig
			continue
		}
		s.deriveLocked(st, dt, tSec, nowUnix)
		s.out[i] = st.sig
		st.prev = st.cur
	}

	s.tickServerLocked(dt, tSec, nowUnix)

	if s.stream != nil {
		for i := range s.out {
			_ = s.stream.Encode(&s.out[i])
		}
	}
}

// tickServerLocked folds the front end's cumulative counters (when a
// provider is attached) into windowed rates, mirroring deriveLocked for
// the pseudo-domain that is the server itself.
func (s *Sampler) tickServerLocked(dt, tSec float64, nowUnix int64) {
	cur, ok := s.o.ServerStats()
	if !ok {
		s.srvHave = false
		return
	}
	if !s.srvHavePrev || dt <= 0 {
		s.srvPrev = cur
		s.srvHavePrev = true
		return
	}
	opsD := subU(cur.Ops, s.srvPrev.Ops)
	batchesD := subU(cur.Batches, s.srvPrev.Batches)
	rejectsD := subU(cur.QuotaRejects+cur.BusyRejects, s.srvPrev.QuotaRejects+s.srvPrev.BusyRejects)
	a := s.alpha
	sig := &s.srvSig
	sig.AtUnixNs = nowUnix
	sig.WindowSeconds = dt
	sig.OpsRate = s.srvOps.Observe(tSec, float64(opsD)/dt, a)
	sig.BatchRate = s.srvBatches.Observe(tSec, float64(batchesD)/dt, a)
	sig.RejectRate = s.srvRejects.Observe(tSec, float64(rejectsD)/dt, a)
	sig.PipelineDepth = 0
	if batchesD > 0 {
		sig.PipelineDepth = float64(opsD) / float64(batchesD)
	}
	sig.ConnsActive = float64(cur.ConnsActive)
	sig.Draining = cur.Draining
	s.srvHave = true
	s.srvPrev = cur
}

// ServerSignals returns the latest windowed front-end signals and whether
// any have been derived (false when no server is attached, or before the
// first measured window).
func (s *Sampler) ServerSignals() (ServerSignals, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.srvSig, s.srvHave
}

// deriveLocked computes one domain's window deltas and signals, classifies
// health, and records the transition (if any) in the event journal.
func (s *Sampler) deriveLocked(st *domainSignalState, dt, tSec float64, nowUnix int64) {
	cur, prev := &st.cur, &st.prev

	sweepsD := subU(cur.Sweeps, prev.Sweeps)
	emptyD := subU(cur.EmptySweep, prev.EmptySweep)
	tasksD := subU(cur.Tasks, prev.Tasks)
	postsD := subU(cur.Posts, prev.Posts)
	readsD := subU(cur.Reads, prev.Reads)
	hitsD := subU(cur.BypassHits, prev.BypassHits)
	retriesD := subU(cur.BypassRetries, prev.BypassRetries)
	fallbacksD := subU(cur.BypassFallbacks, prev.BypassFallbacks)
	failedD := subU(cur.Failed, prev.Failed)
	restartsD := subI(cur.Restarts, prev.Restarts)
	committedD := subU(cur.WALCommitted, prev.WALCommitted)

	occ := 0.0
	if sweepsD > 0 {
		occ = 1 - float64(emptyD)/float64(sweepsD)
		if occ < 0 {
			occ = 0
		}
	}

	respD := cur.RespNs.Sub(prev.RespNs)
	if respD.Count > 0 {
		st.lastP50 = respD.Quantile(0.5)
		st.lastP99 = respD.Quantile(0.99)
	}

	// Write fraction: posts are delegated tasks (writes + delegated reads),
	// reads are bypass hits + delegated read-flagged invokes.
	delegatedReadsD := subU(readsD, hitsD)
	writesD := subU(postsD, delegatedReadsD)
	if writesD+readsD > 0 {
		st.lastWF = float64(writesD) / float64(writesD+readsD)
	}

	attempts := hitsD + fallbacksD
	hitRate, retryRate, fallbackRate := 0.0, 0.0, 0.0
	if readsD > 0 {
		hitRate = float64(hitsD) / float64(readsD)
	}
	if attempts > 0 {
		retryRate = float64(retriesD) / float64(attempts)
		fallbackRate = float64(fallbacksD) / float64(attempts)
	}

	a := s.alpha
	sig := &st.sig
	sig.Domain = st.name
	sig.AtUnixNs = nowUnix
	sig.WindowSeconds = dt
	sig.Ticks = s.ticks
	sig.Occupancy = st.occupancy.Observe(tSec, occ, a)
	sig.QueueDepth = st.queueDepth.Observe(tSec, float64(cur.Pending), a)
	sig.Throughput = st.throughput.Observe(tSec, float64(tasksD)/dt, a)
	sig.PostRate = st.postRate.Observe(tSec, float64(postsD)/dt, a)
	sig.P50Ns = st.p50.Observe(tSec, st.lastP50, a)
	sig.P99Ns = st.p99.Observe(tSec, st.lastP99, a)
	sig.WriteFraction = st.writeFrac.Observe(tSec, st.lastWF, a)
	sig.BypassHitRate = st.bypassHit.Observe(tSec, hitRate, a)
	sig.BypassRetryRate = st.bypassRetry.Observe(tSec, retryRate, a)
	sig.BypassFallbackRate = st.bypassFallback.Observe(tSec, fallbackRate, a)
	sig.FaultRate = st.faultRate.Observe(tSec, float64(failedD)/dt, a)
	sig.RestartRate = st.restartRate.Observe(tSec, float64(restartsD)/dt, a)
	sig.RestartBudget = float64(cur.BudgetRemaining)
	sig.WALCommitRate = st.walRate.Observe(tSec, float64(committedD)/dt, a)

	sig.CheckpointAgeSeconds = -1
	if cur.WALLastCheckpoint > 0 {
		sig.CheckpointAgeSeconds = float64(nowUnix-cur.WALLastCheckpoint) / 1e9
	}
	if cur.WALLastCheckpoint != st.ckptStamp {
		st.ckptStamp = cur.WALLastCheckpoint
		st.committedAtCkpt = cur.WALCommitted
	}
	sig.CheckpointLag = float64(subU(cur.WALCommitted, st.committedAtCkpt))

	raw := signal.Classify(s.th, signal.Inputs{
		Occupancy:        sig.Occupancy,
		P99Ns:            sig.P99Ns,
		FallbackRate:     sig.BypassFallbackRate.EWMA,
		RestartRate:      sig.RestartRate.EWMA,
		CheckpointAgeSec: sig.CheckpointAgeSeconds,
		QueueDepth:       cur.Pending,
		Throughput:       sig.Throughput.Value,
	})
	health, changed := st.health.Update(raw, s.th.SustainTicks)
	sig.Health = health
	if changed {
		s.o.events.add(Event{
			AtNs: nanos(), Domain: st.name, Worker: -1,
			Kind: healthEventKind(health),
		})
	}
}

// healthEventKind maps a health state to its journal event kind without
// string concatenation (transitions are rare, but the tick must not
// allocate even when they happen).
func healthEventKind(h signal.Health) string {
	switch h {
	case signal.Degraded:
		return EventHealthDegraded
	case signal.Saturated:
		return EventHealthSaturated
	case signal.Stalled:
		return EventHealthStalled
	default:
		return EventHealthHealthy
	}
}

func subU(cur, prev uint64) uint64 {
	if cur > prev {
		return cur - prev
	}
	return 0
}

func subI(cur, prev int64) int64 {
	if cur > prev {
		return cur - prev
	}
	return 0
}

// Report renders the human-readable signals block the cmd binaries append
// to the final telemetry report.
func (s *Sampler) Report() string {
	sigs := s.Signals()
	if len(sigs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "signals (cadence %s):\n", s.every)
	for _, d := range sigs {
		fmt.Fprintf(&b, "  %s: health=%s occ=%.2f (ewma %.2f) thr=%.0f/s p50=%.0fns p99=%.0fns (slope %+.0f/s) wf=%.2f queue=%.0f",
			d.Domain, d.Health, d.Occupancy.Value, d.Occupancy.EWMA,
			d.Throughput.Value, d.P50Ns.Value, d.P99Ns.Value, d.P99Ns.Slope,
			d.WriteFraction.Value, d.QueueDepth.Value)
		if d.BypassHitRate.Value > 0 || d.BypassFallbackRate.Value > 0 {
			fmt.Fprintf(&b, " bypass(hit=%.2f fb=%.2f)", d.BypassHitRate.Value, d.BypassFallbackRate.Value)
		}
		if d.CheckpointAgeSeconds >= 0 {
			fmt.Fprintf(&b, " ckpt(age=%.1fs lag=%.0f)", d.CheckpointAgeSeconds, d.CheckpointLag)
		}
		if d.RestartRate.Value > 0 || d.FaultRate.Value > 0 {
			fmt.Fprintf(&b, " faults=%.1f/s restarts=%.1f/s", d.FaultRate.Value, d.RestartRate.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
