package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"robustconf/internal/obs"
	"robustconf/internal/server"
	"robustconf/internal/wal"
)

// ledgerLine is one per-layer number with the prediction it carries: which
// end-to-end metric it should move, on which workload, and where not.
type ledgerLine struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Moves string  `json:"moves,omitempty"`
}

// budget sets the isolated layer costs of a workload against its measured
// end-to-end cost per op; what the layers do not add up to is the residual.
type budget struct {
	EndToEndNs float64      `json:"end_to_end_ns_per_op"`
	Layers     []ledgerLine `json:"layers"`
	SumNs      float64      `json:"layers_ns_per_op"`
	ResidualNs float64      `json:"residual_ns_per_op"`
}

func (b *budget) add(name string, ns float64) {
	b.Layers = append(b.Layers, ledgerLine{Name: name, Value: ns, Unit: "ns/op"})
	b.SumNs += ns
	b.ResidualNs = b.EndToEndNs - b.SumNs
}

type tracedResult struct {
	probed
	perLayer  map[string]estimate
	ledger    []ledgerLine
	budget    budget
	attempted uint64
	failed    uint64
	samples   int
}

func (r *tracedResult) line(name string, value float64, unit, moves string) {
	r.ledger = append(r.ledger, ledgerLine{Name: name, Value: value, Unit: unit, Moves: moves})
}

// counters is a snapshot of every cumulative count the traced run takes
// deltas of, read while the loop is idle.
type counters struct {
	executed, sweeps, empty, batched, failed uint64
	mallocs                                  uint64
	srv                                      obs.ServerStats
	wchar, syscw                             uint64
	walCommitted                             uint64
}

// add accumulates the growth from a to b into c.
func (c *counters) add(a, b counters) {
	c.executed += b.executed - a.executed
	c.sweeps += b.sweeps - a.sweeps
	c.empty += b.empty - a.empty
	c.batched += b.batched - a.batched
	c.failed += b.failed - a.failed
	c.mallocs += b.mallocs - a.mallocs
	c.wchar += b.wchar - a.wchar
	c.syscw += b.syscw - a.syscw
	c.walCommitted += b.walCommitted - a.walCommitted
	c.srv.Ops += b.srv.Ops - a.srv.Ops
	c.srv.Batches += b.srv.Batches - a.srv.Batches
	c.srv.BusyRejects += b.srv.BusyRejects - a.srv.BusyRejects
	c.srv.QuotaRejects += b.srv.QuotaRejects - a.srv.QuotaRejects
}

func snapshot(w workload) counters {
	var c counters
	for _, d := range w.runtime().Stats() {
		c.executed += d.Executed
		c.sweeps += d.Sweeps
		c.empty += d.EmptySweep
		c.batched += d.Batched
		c.failed += d.Failed
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs = ms.Mallocs
	c.wchar, c.syscw = procIO()
	switch w := w.(type) {
	case *netWorkload:
		c.srv = w.srv.Stats()
	case *tpccWorkload:
		c.walCommitted = w.walCommitted()
	}
	return c
}

// procIO reads the process's cumulative write bytes and write calls.
func procIO() (wchar, syscw uint64) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar: "); ok {
			wchar, _ = strconv.ParseUint(v, 10, 64)
		} else if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			syscw, _ = strconv.ParseUint(v, 10, 64)
		}
	}
	return wchar, syscw
}

func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// tracedIntervals is how many intervals the reference and the traced loop
// each run: three, so that the median shrugs off one disturbed interval.
// They are shorter than an end-to-end run's, so that the six of them with
// their warm-ups fill the same --seconds.
const tracedIntervals = 3

func tracedInterval(seconds float64) time.Duration {
	const warmupShare = 1.25 // an interval and its quarter-interval warm-up
	return time.Duration(seconds / (2 * tracedIntervals * warmupShare) * float64(time.Second))
}

func sumIntervals(ivs []interval) (ops, failed uint64, samples int, nsPerOp float64) {
	var per []float64
	for _, iv := range ivs {
		ops += iv.ops
		failed += iv.failed
		samples += len(iv.lat)
		per = append(per, iv.nsPerOp())
	}
	return ops, failed, samples, median(per)
}

// measureTraced is the per-layer run. It first measures an untraced
// reference in this process, then builds the system again with the
// recording wrappers in place and measures that, and last runs the isolated
// probes of the layers this workload leans on.
func measureTraced(name string, w workload, seed uint64, seconds float64, scratch, outDir string) (*tracedResult, error) {
	r := &tracedResult{perLayer: map[string]estimate{}}
	iv := tracedInterval(seconds)
	gens := float64(w.generators())

	// The untraced reference (the base of trace.overhead, and the stretch
	// the program's own counters are read over) and the traced build take
	// turns, each interval on a fresh system.
	var ref, traced []interval
	var before, delta counters
	var layers layerSums
	var indexNs float64
	tw, isTPCC := w.(*tpccWorkload)
	l := newLoop(w)
	for i := 0; i < tracedIntervals; i++ {
		got, _, err := freshInterval(l, seed, nil, iv, true, func() { before = snapshot(w) })
		if err != nil {
			return nil, err
		}
		delta.add(before, snapshot(w))
		ref = append(ref, got)
		if i == tracedIntervals-1 {
			if err := r.liveProbes(w, ref); err != nil {
				return nil, err
			}
		}
		w.teardown()

		tr := newTracing(w.generators())
		got, _, err = freshInterval(l, seed, tr, iv, false, func() {
			tr.reset()
			if isTPCC {
				tw.resetIndexNanos()
			}
		})
		if err != nil {
			return nil, err
		}
		traced = append(traced, got)
		spans := tr.merged()
		layers.add(spans)
		if isTPCC {
			indexNs += float64(tw.indexNanos())
		}
		if i == tracedIntervals-1 {
			if err := writeTrace(filepath.Join(outDir, "trace-"+name+".json"), name, spans); err != nil {
				return nil, err
			}
			if err := r.structureProbes(w); err != nil {
				return nil, err
			}
		}
		w.teardown()
	}
	refOps, refFailed, refSamples, refNs := sumIntervals(ref)
	trOps, trFailed, trSamples, trNs := sumIntervals(traced)
	// Spans cover the sampled windows only; the index counters of tpcc.*
	// cover every transaction of the traced intervals.
	self, total := layers.self, layers.total
	spanOps := float64(layers.windows * w.opsPerWindow())
	indexPerOp := float64(total[spanExec]) / spanOps
	if isTPCC {
		indexPerOp = indexNs / float64(trOps)
	}

	r.attempted, r.failed, r.samples = refOps+trOps, refFailed+trFailed, refSamples+trSamples
	perOp := func(ns int64) float64 { return float64(ns) / spanOps }
	set := func(name string, v float64, unit string) { r.perLayer[name] = estimate{Value: v, Unit: unit} }

	set("trace.overhead", trNs/refNs, "ratio")
	set("span.issue_ns_per_op", perOp(self[spanIssue]), "ns/op")
	set("span.await_ns_per_op", perOp(self[spanAwait]), "ns/op")
	set("span.exec_ns_per_op", perOp(total[spanExec]), "ns/op")
	set("index.ns_per_op", indexPerOp, "ns/op")
	set("index.share", indexPerOp/perOp(total[spanWindow]), "ratio")

	busy := delta.sweeps - delta.empty
	set("delegation.occupancy", ratio(busy, delta.sweeps), "ratio")
	set("delegation.tasks_per_sweep", ratio(delta.executed, busy), "count")
	set("delegation.batching_rate", ratio(delta.batched, delta.executed), "ratio")
	set("delegation.failed", float64(delta.failed), "count")
	set("proc.allocs_per_op", ratio(delta.mallocs, refOps), "count")
	var p99 []float64
	for _, iv := range ref {
		p99 = append(p99, percentile(iv.lat, 0.99)/1e3)
	}
	set("tail.p99_us", median(p99), "us")

	noop14, err := probeDelegationNoop(kvBurst)
	if err != nil {
		return nil, err
	}
	noop1, err := probeDelegationNoop(1)
	if err != nil {
		return nil, err
	}
	set("delegation.noop_ns_per_op", noop14, "ns/op")
	set("delegation.noop1_ns_per_op", noop1, "ns/op")

	r.line("trace.clock_ns", float64(clockReadNs), "ns", "cost of one clock read; every span carries about one")
	r.line("span.window_self_ns_per_op", perOp(self[spanWindow]), "ns/op", "window time no child span covers (on tpcc.*: client-side bookkeeping and the 5% pipelined cross-warehouse transactions)")

	r.budget.EndToEndNs = refNs
	switch w := w.(type) {
	case *kvWorkload:
		err = r.kvLedger(sizeTag(w.records), noop14, perOp(self[spanIssue]), perOp(self[spanAwait]))
	case *netWorkload:
		err = r.netLedger(shardNames(), delta, perOp(self[spanIssue]), perOp(self[spanAwait]))
	case *tpccWorkload:
		err = r.tpccLedger(w, seed, iv, refNs, gens, noop1, delta, refOps, scratch)
	}
	if err != nil {
		return nil, err
	}
	set("budget.layers_ns_per_op", r.budget.SumNs, "ns/op")
	set("budget.residual_ns_per_op", r.budget.ResidualNs, "ns/op")

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("proc.gc_pause_ms", float64(ms.PauseTotalNs)/1e6, "ms")
	set("proc.peak_rss_mb", peakRSSMB(), "MB")
	return r, nil
}

// probed holds what liveProbes and structureProbes measured for the ledger.
type probed struct {
	rtt1Us     float64
	indexGet   float64
	indexBatch float64
	others     map[string][2]float64 // get, batch of the structures the workload does not use
	sessionKV  float64
	typeP50    [numTxnTypes]float64
}

// liveProbes are the probes that need the untraced system while it stands.
func (r *tracedResult) liveProbes(w workload, ref []interval) error {
	switch w := w.(type) {
	case *netWorkload:
		// Depth 1 on the same connection: one GET, one reply, no pipeline.
		stream := newOpStream(1, 10, netRecords, 0)
		var probeErr error
		ns := timeLoop(probeFor, 1, func() {
			_, key := stream.next()
			if v, ok, err := w.conn.Get(key); err != nil || !ok || v != mix64(key) {
				probeErr = fmt.Errorf("depth-1 GET %d: value %d found %v err %v", key, v, ok, err)
			}
		})
		r.rtt1Us = ns / 1e3
		return probeErr
	case *tpccWorkload:
		for typ := range r.typeP50 {
			var per []float64
			for _, iv := range ref {
				per = append(per, percentile(iv.byTag[uint8(typ)], 0.5)/1e3)
			}
			r.typeP50[typ] = median(per)
		}
	}
	return nil
}

// structureProbes time the workload's own index after the traced loop has
// gone idle: same structure, same size, same contents as the run used.
func (r *tracedResult) structureProbes(w workload) error {
	switch w := w.(type) {
	case *kvWorkload:
		r.indexGet, r.indexBatch = probeIndex(w.tree, w.records, w.writePermille)
		if w.records < largeRecords {
			r.others = map[string][2]float64{}
			for _, b := range indexBuilders[1:] {
				idx := b.build(w.records)
				loadIndex(idx, w.records)
				get, batch := probeIndex(idx, w.records, 0)
				r.others[b.name] = [2]float64{get, batch}
			}
		}
	case *netWorkload:
		get, batch := probeIndex(w.shards[w.names[0]], netRecords, 0)
		r.indexGet, r.indexBatch = get, batch
		// The same shards behind an in-process session: what the ops cost
		// with no wire and no server in front. The server's pool holds 14 of
		// the worker's 15 slots, so it has to go first.
		w.conn.Close()
		w.srv.Close(serverDrain)
		w.conn, w.srv = nil, nil
		router, err := server.NewRouter(w.names)
		if err != nil {
			return err
		}
		if r.sessionKV, err = probeSessionKV(w.rt, router.Lookup, netRecords); err != nil {
			return err
		}
	}
	return nil
}

const serverDrain = 5 * time.Second

func sizeTag(records uint64) string {
	if records >= 1_000_000 {
		return fmt.Sprintf("%dm", records/1_000_000)
	}
	return fmt.Sprintf("%dk", records/1000)
}

func (r *tracedResult) kvLedger(size string, noop14, issue, await float64) error {
	coreNoop, err := probeCoreNoop()
	if err != nil {
		return err
	}
	r.line("core.submit_ns_per_op", issue, "ns/op", "time inside SubmitKV (name lookup, reserve, post) → ops_per_s on kv.get.small; at most half that effect on kv.get.large")
	r.line("core.wait_ns_per_op", await, "ns/op", "time blocked in WaitKV that the kernel call does not cover → ops_per_s, p50_us on kv.get.small")
	r.line("core.noop_ns_per_op", coreNoop, "ns/op", "session round trip per op at burst 14 with a kernel that returns at once")
	r.line("index.btree."+size+".get_ns", r.indexGet, "ns", "serial Get on this workload's own tree")
	r.line("index.btree."+size+".batch_ns_per_op", r.indexBatch, "ns/op", "ExecBatch at width 15, this workload's mix → ops_per_s on kv.get.large, kv.mix.large; no change on kv.get.small, net.pipe64")
	r.line("index.probe_share", r.indexBatch/r.budget.EndToEndNs, "ratio", "isolated batch ns ÷ end-to-end ns per op")
	for _, b := range indexBuilders[1:] {
		if v, ok := r.others[b.name]; ok {
			r.line("index."+b.name+"."+size+".get_ns", v[0], "ns", "")
			r.line("index."+b.name+"."+size+".batch_ns_per_op", v[1], "ns/op", "")
		}
	}
	r.budget.add("delegation.noop_ns_per_op", noop14)
	r.budget.add("core.noop − delegation.noop", coreNoop-noop14)
	r.budget.add("index.btree."+size+".batch_ns_per_op", r.indexBatch)
	return nil
}

func (r *tracedResult) netLedger(names []string, delta counters, issue, await float64) error {
	ops := delta.srv.Ops
	codec, err := probeProtoCodec()
	if err != nil {
		return err
	}
	router, err := probeRouter(names)
	if err != nil {
		return err
	}
	echo1, err := probeTCPEcho(1)
	if err != nil {
		return err
	}
	echo64, err := probeTCPEcho(netDepth)
	if err != nil {
		return err
	}
	echo64 /= netDepth
	e2e := r.budget.EndToEndNs
	r.line("client.send_ns_per_op", issue, "ns/op", "Queue*+Flush → ops_per_s, p50_us on net.pipe64; nothing elsewhere")
	r.line("client.recv_wait_ns_per_op", await, "ns/op", "blocked in Recv beyond the kernel calls → ops_per_s, p50_us on net.pipe64; nothing elsewhere")
	r.line("proto.codec_ns_per_op", codec, "ns/op", "request and response encode, frame, decode → ops_per_s on net.pipe64 only")
	r.line("server.ops_per_batch", ratio(ops, delta.srv.Batches), "count", "realised pipeline depth")
	r.line("server.busy_share", ratio(delta.srv.BusyRejects+delta.srv.QuotaRejects, ops), "ratio", "BUSY replies ÷ ops; must stay 0")
	r.line("server.router_ns_per_lookup", router, "ns", "Router.Lookup over 2 shards")
	r.line("server.rtt1_us", r.rtt1Us, "us", "depth-1 GET on the same connection")
	r.line("tcp.echo_rtt1_us", echo1/1e3, "us", "bare loopback echo of one 13-byte frame each way: the floor under server.rtt1_us")
	r.line("tcp.echo64_ns_per_op", echo64, "ns/op", "bare loopback echo of 64 frames each way, per frame")
	r.line("core.hashmap_kv_ns_per_op", r.sessionKV, "ns/op", "the same shards through an in-process session, windows of 14")
	r.line("server.residual_ns_per_op", e2e-echo64-codec-r.sessionKV, "ns/op", "net.pipe64 ns/op − tcp echo floor − codec − in-process KV → ops_per_s, p90_us, tail.p99_us on net.pipe64")
	r.line("net.over_inprocess", e2e/r.sessionKV, "ratio", "net.pipe64 ns/op ÷ in-process Hash Map KV ns/op")
	r.line("index.hashmap.64k.get_ns", r.indexGet, "ns", "")
	r.line("index.hashmap.64k.batch_ns_per_op", r.indexBatch, "ns/op", "")
	r.budget.add("tcp.echo64_ns_per_op", echo64)
	r.budget.add("proto.codec_ns_per_op", codec)
	r.budget.add("server.router_ns_per_lookup", router)
	r.budget.add("core.hashmap_kv_ns_per_op", r.sessionKV)
	return nil
}

func (r *tracedResult) tpccLedger(w *tpccWorkload, seed uint64, iv time.Duration, refNs, gens, noop1 float64, delta counters, refOps uint64, scratch string) error {
	direct, err := probeDirectTPCC(seed)
	if err != nil {
		return err
	}
	usPerTxn := refNs * gens / 1e3 // each terminal's own time per transaction
	r.line("oltp.direct_us_per_txn", direct, "us", "the same mix on the direct engine, one terminal")
	if w.walRoot == "" {
		r.line("oltp.delegation_overhead", usPerTxn/direct, "ratio", "delegated µs per txn per terminal ÷ direct → ops_per_s, p90_us on tpcc.mem")
	}
	for typ, name := range txnNames {
		r.line("oltp."+name+"_p50_us", r.typeP50[typ], "us", "")
	}
	r.line("mem.arena_ns_per_alloc", probeArena(), "ns", "64 B Alloc, Reset every 64 → tpcc.mem, small")
	if w.walRoot == "" {
		r.budget.add("oltp.direct_us_per_txn ÷ terminals", direct*1e3/gens)
		r.budget.add("delegation.noop1_ns_per_op ÷ terminals", noop1/gens)
		return nil
	}

	txns := float64(refOps)
	records := float64(delta.walCommitted)
	calls := float64(delta.syscw)
	dir, err := os.MkdirTemp(scratch, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	commit, err := probeWALCommit(filepath.Join(dir, "none"), wal.FsyncNone)
	if err != nil {
		return err
	}
	commitFsync, err := probeWALCommit(filepath.Join(dir, "batch"), wal.FsyncBatch)
	if err != nil {
		return err
	}
	// The unlogged engine in this process, same seed: the base the log's
	// cost is a ratio over.
	memRef := &tpccWorkload{}
	mem, _, err := freshInterval(newLoop(memRef), seed, nil, iv, false, nil)
	if err != nil {
		return err
	}
	memRef.teardown()
	r.failed += mem.failed

	r.line("wal.commit_us", commit, "us", "Begin + 8 × StageRecord(64 B) + Commit, no fsync")
	r.line("wal.commit_fsync_us", commitFsync, "us", "the same with FsyncBatch in the same directory → ops_per_s, p50_us on tpcc.wal; no change elsewhere")
	r.line("wal.records_per_txn", records/txns, "count", "")
	r.line("wal.bytes_per_txn", float64(delta.wchar)/txns, "count", "write bytes of the process ÷ transactions (log and checkpoints)")
	r.line("wal.write_calls_per_txn", calls/txns, "count", "write calls of the process ÷ transactions")
	r.line("wal.cost_ratio", mem.opsPerSec()/(1e9/refNs), "ratio", "tpcc.mem ÷ tpcc.wal ops_per_s, both measured in this process")
	r.budget.add("tpcc.mem ns per op (this process)", mem.nsPerOp())
	r.budget.add("wal.write_calls_per_txn × wal.commit_fsync_us ÷ terminals", calls/txns*commitFsync*1e3/gens)
	return nil
}
