package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// tracing owns the span logs of one traced set-up: one per load generator
// and one per worker-side recorder. A nil *tracing means an untraced run;
// its methods then hand out nil logs, which the workloads test for.
type tracing struct {
	client []*spanBuf
	worker []*spanBuf
}

const spanLogCapacity = 1 << 19

func newTracing(generators int) *tracing {
	tr := &tracing{}
	for g := 0; g < generators; g++ {
		tr.client = append(tr.client, newSpanBuf(spanLogCapacity))
	}
	return tr
}

func (tr *tracing) clientBuf(g int) *spanBuf {
	if tr == nil {
		return nil
	}
	return tr.client[g]
}

func (tr *tracing) workerBuf() *spanBuf {
	b := newSpanBuf(spanLogCapacity)
	tr.worker = append(tr.worker, b)
	return b
}

// reset forgets what warm-up recorded. The loop is closed and idle when it
// is called, so no recorder is writing.
func (tr *tracing) reset() {
	for _, b := range tr.client {
		b.spans = b.spans[:0]
	}
	for _, b := range tr.worker {
		b.spans = b.spans[:0]
	}
}

func (tr *tracing) merged() []span {
	return mergeSpans(append(append([]*spanBuf(nil), tr.client...), tr.worker...)...)
}

// interval is what one measured stretch of the closed loop produced.
type interval struct {
	ops     uint64
	failed  uint64
	seconds float64
	lat     []uint32 // window round trips in ns, ascending
	byTag   map[uint8][]uint32
}

func (iv interval) nsPerOp() float64   { return iv.seconds * 1e9 / float64(iv.ops) }
func (iv interval) opsPerSec() float64 { return float64(iv.ops) / iv.seconds }

// loop drives a workload's generators and keeps their sample buffers and
// window counters across intervals.
type loop struct {
	w    workload
	lat  [][]uint32
	tags [][]uint8
	seq  []int32
}

// sampleCapacity windows fit a generator's buffers before they must grow:
// several seconds of the fastest workload.
const sampleCapacity = 1 << 20

func newLoop(w workload) *loop {
	g := w.generators()
	l := &loop{w: w, lat: make([][]uint32, g), tags: make([][]uint8, g), seq: make([]int32, g)}
	for i := 0; i < g; i++ {
		l.lat[i] = make([]uint32, 0, sampleCapacity)
		l.tags[i] = make([]uint8, 0, sampleCapacity)
	}
	return l
}

// run measures one interval: every generator issues windows back to back
// until the deadline, stamping the clock once per window.
func (l *loop) run(d time.Duration, groupByTag bool) interval {
	g := l.w.generators()
	per := l.w.opsPerWindow()
	failed := make([]uint64, g)
	var wg sync.WaitGroup
	start := nanos()
	deadline := start + int64(d)
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lat, tags, seq := l.lat[i][:0], l.tags[i][:0], l.seq[i]
			for t := nanos(); t < deadline; {
				t1, f, tag := l.w.window(i, seq*int32(g)+int32(i), seq%traceEvery == 0, t)
				lat = append(lat, uint32(t1-t))
				tags = append(tags, tag)
				failed[i] += uint64(f)
				seq++
				t = t1
			}
			l.lat[i], l.tags[i], l.seq[i] = lat, tags, seq
		}(i)
	}
	wg.Wait()
	iv := interval{seconds: float64(nanos()-start) / 1e9}
	for i := 0; i < g; i++ {
		iv.ops += uint64(len(l.lat[i]) * per)
		iv.failed += failed[i]
		iv.lat = append(iv.lat, l.lat[i]...)
		if groupByTag {
			if iv.byTag == nil {
				iv.byTag = map[uint8][]uint32{}
			}
			for j, tag := range l.tags[i] {
				iv.byTag[tag] = append(iv.byTag[tag], l.lat[i][j])
			}
		}
	}
	slices.Sort(iv.lat)
	for _, s := range iv.byTag {
		slices.Sort(s)
	}
	return iv
}

const (
	intervalsPerRun = 5
	// Every interval builds the system afresh, so a run times five set-ups
	// anyway; cheap set-ups are repeated beyond that for up to half a second
	// more, because a sub-millisecond set-up (whose time is mostly the wake
	// of a parked worker) needs a hundred repeats before its median is as
	// steady as five repeats make a second-long one.
	setupRepsMax     = 200
	setupExtraBudget = 500 * time.Millisecond
)

// timedSetup builds the system and returns how long that took.
func timedSetup(w workload, seed uint64, tr *tracing) (float64, error) {
	runtime.GC() // the previous build's garbage is not this build's cost
	t0 := time.Now()
	err := w.setup(seed, tr)
	return time.Since(t0).Seconds(), err
}

// warmup is how long the loop runs on a fresh build before anything is
// kept: long enough to fault the structure in and settle the scheduler.
func warmup(iv time.Duration) time.Duration {
	if iv > 2*time.Second {
		return 500 * time.Millisecond
	}
	return iv / 4
}

// freshInterval measures one interval on a system built for it alone.
// Intervals must not share a system: the TPC-C tables grow as transactions
// run and the mix slows with them, so the fifth interval of a shared engine
// would measure a different database from the first.
func freshInterval(l *loop, seed uint64, tr *tracing, iv time.Duration, groupByTag bool, between func()) (interval, float64, error) {
	setup, err := timedSetup(l.w, seed, tr)
	if err != nil {
		return interval{}, 0, err
	}
	l.run(warmup(iv), false)
	if between != nil {
		between()
	}
	return l.run(iv, groupByTag), setup, nil
}

// endToEnd is the untraced measurement: five intervals, each on a fresh
// timed set-up, whose per-interval values the estimator takes medians of.
type endToEnd struct {
	setups    []float64
	intervals []interval
}

func measureEndToEnd(w workload, seed uint64, seconds float64) (endToEnd, error) {
	var e endToEnd
	iv := time.Duration(seconds / intervalsPerRun * float64(time.Second))
	l := newLoop(w)
	for i := 0; i < intervalsPerRun; i++ {
		got, setup, err := freshInterval(l, seed, nil, iv, false, nil)
		if err != nil {
			return e, err
		}
		w.teardown()
		e.intervals = append(e.intervals, got)
		e.setups = append(e.setups, setup)
	}
	for extra := 0.0; len(e.setups) < setupRepsMax && extra < setupExtraBudget.Seconds(); {
		setup, err := timedSetup(w, seed, nil)
		if err != nil {
			return e, err
		}
		w.teardown()
		e.setups = append(e.setups, setup)
		extra += setup
	}
	return e, nil
}

func (e endToEnd) attempted() (ops, failed uint64) {
	for _, iv := range e.intervals {
		ops += iv.ops
		failed += iv.failed
	}
	return ops, failed
}

func (e endToEnd) samples() int {
	n := 0
	for _, iv := range e.intervals {
		n += len(iv.lat)
	}
	return n
}

func (e endToEnd) estimates() map[string]estimate {
	var ops, p50, p90, p99 []float64
	for _, iv := range e.intervals {
		ops = append(ops, iv.opsPerSec())
		p50 = append(p50, percentile(iv.lat, 0.50)/1e3)
		p90 = append(p90, percentile(iv.lat, 0.90)/1e3)
		p99 = append(p99, percentile(iv.lat, 0.99)/1e3)
	}
	return map[string]estimate{
		"ops_per_s": medianOfIntervals("1/s", ops),
		"p50_us":    medianOfIntervals("us", p50),
		"p90_us":    medianOfIntervals("us", p90),
		"setup_s":   {Value: median(e.setups), Unit: "s", Spread: spread(e.setups), Intervals: e.setups},
		// Beside the four: too unsteady on this class of host to carry a
		// bound (see tail.p99_us in the per-layer list).
		"p99_us": medianOfIntervals("us", p99),
	}
}
