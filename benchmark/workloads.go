package main

import (
	"fmt"

	"robustconf"
	"robustconf/client"
	"robustconf/internal/delegation"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/server"
)

// A workload is one closed-loop traffic mix over one configuration of the
// system. Its counts are fixed, not derived from the host's CPU count: the
// load, not the machine, names the number.
type workload interface {
	// setup builds the system from the seed and runs one op through it, so
	// lazy set-up is over when it returns. A non-nil tracing installs the
	// recording wrappers at the layer boundaries.
	setup(seed uint64, tr *tracing) error
	// teardown stops everything setup started and waits for it to end.
	teardown()
	// generators is the number of load-generator goroutines (≤ 2).
	generators() int
	// opsPerWindow is the number of ops one window completes.
	opsPerWindow() int
	// window runs one round trip on generator g, which begins at clock t0,
	// and returns the clock at its end, how many of its ops failed (error,
	// BUSY or wrong value) and a tag the report groups latencies by. On a
	// traced set-up a sampled window records its spans under the given id.
	window(g int, id int32, sampled bool, t0 int64) (t1 int64, failed int, tag uint8)
	// describe names the counts the result header records.
	describe() workloadShape
	// runtime is the delegation runtime under the standing system.
	runtime() *robustconf.Runtime
}

type workloadShape struct {
	Clients     int    `json:"clients"`
	Workers     int    `json:"workers"`
	Connections int    `json:"connections"`
	Window      int    `json:"ops_per_window"`
	Structure   string `json:"structure"`
	Records     uint64 `json:"records"`
	Mix         string `json:"mix"`
}

// workloadNames is the fixed run order; BENCHMARK.json lists the same six.
var workloadNames = []string{"kv.get.small", "kv.get.large", "kv.mix.large", "net.pipe64", "tpcc.mem", "tpcc.wal"}

func newWorkload(name, scratch string) (workload, error) {
	switch name {
	case "kv.get.small":
		return &kvWorkload{records: 4096}, nil
	case "kv.get.large":
		return &kvWorkload{records: largeRecords}, nil
	case "kv.mix.large":
		return &kvWorkload{records: largeRecords, writePermille: 500}, nil
	case "net.pipe64":
		return &netWorkload{}, nil
	case "tpcc.mem":
		return &tpccWorkload{}, nil
	case "tpcc.wal":
		return &tpccWorkload{walRoot: scratch}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

const (
	// largeRecords × 16 B of key and value is 128 MB, far beyond any
	// per-core cache, so a uniform read misses on every tree level below
	// the top.
	largeRecords = 8_000_000
	kvBurst      = robustconf.PaperBurstSize
	batchWidth   = delegation.SlotsPerBuffer
)

// oneWorkerConfig is the configuration robustserved ships — interleaved
// sweeps at full width, every read delegated — shrunk to one domain of one
// worker so that client, worker and (on the network workload) connection
// goroutine fit a two-core host.
func oneWorkerConfig(structures ...string) robustconf.Config {
	assignment := map[string]int{}
	for _, s := range structures {
		assignment[s] = 0
	}
	return robustconf.Config{
		Machine:    robustconf.Machine(1),
		Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 1)}},
		Assignment: assignment,
		BatchExec:  robustconf.BatchExecConfig{Enabled: true, Width: batchWidth},
	}
}

// tracedKernel stands between the delegation sweep and an index's batch
// kernel and records one exec span per kernel call. The domain has one
// worker, so the span log has one writer.
type tracedKernel struct {
	inner delegation.BatchKernel
	buf   *spanBuf
}

func (k *tracedKernel) ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	if !traceOn.Load() {
		k.inner.ExecBatch(kinds, keys, vals, outVals, outOKs)
		return
	}
	t0 := nanos()
	k.inner.ExecBatch(kinds, keys, vals, outVals, outOKs)
	k.buf.add(spanExec, noWindow, t0, nanos())
}

// kernelFor returns the structure to register: the index itself, or the
// recording wrapper around it on a traced run.
func kernelFor(idx delegation.BatchKernel, tr *tracing) any {
	if tr == nil {
		return idx
	}
	return &tracedKernel{inner: idx, buf: tr.workerBuf()}
}

// clientTrace is the client side of a traced single-client workload: its
// span log and the sampling flag it last published.
type clientTrace struct {
	buf *spanBuf
	on  bool
}

// begin reports whether this window records spans, publishing the flag to
// the worker side when it changes.
func (c *clientTrace) begin(sampled bool) bool {
	if c.buf == nil {
		return false
	}
	if sampled != c.on {
		c.on = sampled
		traceOn.Store(sampled)
	}
	return sampled
}

// recordClientSpans logs the three client-side spans of one window.
func recordClientSpans(buf *spanBuf, id int32, t0, issued, t1 int64) {
	buf.add(spanWindow, id, t0, t1)
	buf.add(spanIssue, id, t0, issued)
	buf.add(spanAwait, id, issued, t1)
}

// --- kv.*: in-process typed ops on one B-Tree ------------------------------

// kvWorkload drives Session.SubmitKV/WaitKV windows of 14 from one client
// against a B-Tree owned by one domain of one worker.
type kvWorkload struct {
	records       uint64
	writePermille uint64

	tree   *btree.Tree
	rt     *robustconf.Runtime
	sess   *robustconf.Session
	stream opStream
	trace  clientTrace

	futs  [kvBurst]*robustconf.AsyncFuture
	keys  [kvBurst]uint64
	kinds [kvBurst]uint8
}

const kvStructure = "x"

func (w *kvWorkload) generators() int   { return 1 }
func (w *kvWorkload) opsPerWindow() int { return kvBurst }

func (w *kvWorkload) describe() workloadShape {
	return workloadShape{Clients: 1, Workers: 1, Window: kvBurst, Structure: "B-Tree", Records: w.records,
		Mix: fmt.Sprintf("%d%% GET / %d%% UPDATE, uniform", 100-w.writePermille/10, w.writePermille/10)}
}

func (w *kvWorkload) setup(seed uint64, tr *tracing) error {
	w.tree = btree.New()
	for k := uint64(1); k <= w.records; k++ {
		w.tree.Insert(k, mix64(k), nil)
	}
	rt, err := robustconf.Start(oneWorkerConfig(kvStructure), map[string]any{kvStructure: kernelFor(w.tree, tr)})
	if err != nil {
		return err
	}
	w.rt = rt
	if w.sess, err = rt.NewSession(1, kvBurst); err != nil {
		return err
	}
	w.stream = newOpStream(seed, 0, w.records, w.writePermille)
	w.trace = clientTrace{buf: tr.clientBuf(0)}
	if v, ok, err := w.sess.InvokeKV(kvStructure, opGet, 1, 0); err != nil || !ok || v != mix64(1) {
		return fmt.Errorf("first GET: value %d found %v err %v", v, ok, err)
	}
	return nil
}

func (w *kvWorkload) teardown() {
	if w.sess != nil {
		w.sess.Close()
	}
	if w.rt != nil {
		w.rt.Stop()
	}
	*w = kvWorkload{records: w.records, writePermille: w.writePermille}
}

func (w *kvWorkload) window(_ int, id int32, sampled bool, t0 int64) (int64, int, uint8) {
	failed := 0
	traced := w.trace.begin(sampled)
	for j := range w.futs {
		kind, key := w.stream.next()
		w.kinds[j], w.keys[j] = kind, key
		f, err := w.sess.SubmitKV(kvStructure, kind, key, mix64(key))
		if err != nil {
			failed++
			f = nil
		}
		w.futs[j] = f
	}
	var issued int64
	if traced {
		issued = nanos()
	}
	for j, f := range w.futs {
		if f == nil {
			continue
		}
		v, ok, err := f.WaitKV()
		if err != nil || !ok || (w.kinds[j] == opGet && v != mix64(w.keys[j])) {
			failed++
		}
	}
	t1 := nanos()
	if traced {
		recordClientSpans(w.trace.buf, id, t0, issued, t1)
	}
	return t1, failed, 0
}

// --- net.pipe64: the network front end on loopback --------------------------

const (
	netDepth   = 64
	netRecords = 65536
	netShards  = 2
)

// netWorkload pipelines windows of 64 over one connection to an in-process
// server whose one pooled session fronts two Hash Map shards.
type netWorkload struct {
	shards map[string]*hashmap.Map
	names  []string
	rt     *robustconf.Runtime
	srv    *server.Server
	conn   *client.Conn
	stream opStream
	trace  clientTrace

	keys  [netDepth]uint64
	kinds [netDepth]uint8
}

func (w *netWorkload) generators() int   { return 1 }
func (w *netWorkload) opsPerWindow() int { return netDepth }

func (w *netWorkload) describe() workloadShape {
	return workloadShape{Clients: 1, Workers: 1, Connections: 1, Window: netDepth,
		Structure: fmt.Sprintf("Hash Map × %d shards", netShards), Records: netRecords, Mix: "95% GET / 5% PUT, uniform"}
}

func shardNames() []string {
	var names []string
	for i := 0; i < netShards; i++ {
		names = append(names, fmt.Sprintf("shard%d", i))
	}
	return names
}

// buildShards preloads the shards through the same ring the server routes
// with, so every key sits where a request for it will look.
func buildShards() (map[string]*hashmap.Map, []string, error) {
	shards := map[string]*hashmap.Map{}
	names := shardNames()
	for _, name := range names {
		shards[name] = hashmap.New()
	}
	router, err := server.NewRouter(names)
	if err != nil {
		return nil, nil, err
	}
	for k := uint64(1); k <= netRecords; k++ {
		shards[router.Lookup(k)].Insert(k, mix64(k), nil)
	}
	return shards, names, nil
}

func (w *netWorkload) setup(seed uint64, tr *tracing) error {
	var err error
	if w.shards, w.names, err = buildShards(); err != nil {
		return err
	}
	registered := map[string]any{}
	for name, m := range w.shards {
		registered[name] = kernelFor(m, tr)
	}
	if w.rt, err = robustconf.Start(oneWorkerConfig(w.names...), registered); err != nil {
		return err
	}
	if w.srv, err = server.Listen("127.0.0.1:0", server.Config{Runtime: w.rt, Shards: w.names, Sessions: 1}); err != nil {
		return err
	}
	if w.conn, err = client.Dial(w.srv.Addr()); err != nil {
		return err
	}
	w.stream = newOpStream(seed, 0, netRecords, 50)
	w.trace = clientTrace{buf: tr.clientBuf(0)}
	if v, ok, err := w.conn.Get(1); err != nil || !ok || v != mix64(1) {
		return fmt.Errorf("first GET: value %d found %v err %v", v, ok, err)
	}
	return nil
}

func (w *netWorkload) teardown() {
	if w.conn != nil {
		w.conn.Close()
	}
	if w.srv != nil {
		w.srv.Close(serverDrain)
	}
	if w.rt != nil {
		w.rt.Stop()
	}
	*w = netWorkload{}
}

func (w *netWorkload) window(_ int, id int32, sampled bool, t0 int64) (int64, int, uint8) {
	failed := 0
	traced := w.trace.begin(sampled)
	for j := range w.keys {
		kind, key := w.stream.next()
		w.kinds[j], w.keys[j] = kind, key
		if kind == opGet {
			w.conn.QueueGet(key)
		} else {
			w.conn.QueuePut(key, mix64(key))
		}
	}
	if err := w.conn.Flush(); err != nil {
		return nanos(), netDepth, 0 // the connection is gone: every later window fails too
	}
	var issued int64
	if traced {
		issued = nanos()
	}
	for j := range w.keys {
		v, ok, err := w.conn.Recv()
		if err != nil || !ok || (w.kinds[j] == opGet && v != mix64(w.keys[j])) {
			failed++
		}
	}
	t1 := nanos()
	if traced {
		recordClientSpans(w.trace.buf, id, t0, issued, t1)
	}
	return t1, failed, 0
}

func (w *kvWorkload) runtime() *robustconf.Runtime   { return w.rt }
func (w *netWorkload) runtime() *robustconf.Runtime  { return w.rt }
func (w *tpccWorkload) runtime() *robustconf.Runtime { return w.engine.Runtime() }
