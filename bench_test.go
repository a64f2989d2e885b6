// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (regenerating the same rows/series on the simulated reference
// machine), plus real-hardware microbenchmarks of the delegation runtime
// and ablation benchmarks for the design choices called out in DESIGN.md.
//
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// Individual artefacts: -bench=BenchmarkFigure7, -bench=BenchmarkTable2, …
package robustconf_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"robustconf"
	"robustconf/client"
	"robustconf/internal/config"
	"robustconf/internal/core"
	"robustconf/internal/delegation"
	"robustconf/internal/harness"
	"robustconf/internal/ilp"
	"robustconf/internal/index"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/index/kinds"
	"robustconf/internal/oltp"
	"robustconf/internal/server"
	"robustconf/internal/sim"
	"robustconf/internal/tpcc"
	"robustconf/internal/wal"
	"robustconf/internal/workload"
)

// --- Paper artefacts (Experiments E1–E13, see DESIGN.md) -----------------

// BenchmarkFigure1 regenerates the teaser figure: FP-Tree at 8 sockets
// across the three YCSB workloads. Reports Opt. Configured's read-update
// throughput as the headline metric.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		if y, ok := fig.SeriesNamed("Opt. Configured").YAt(0); ok {
			b.ReportMetric(y, "opt-RU-MOp/s")
		}
	}
}

// BenchmarkTable2 regenerates the calibrated optimal domain sizes.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t2, err := config.Table2(sim.ConfiguredThroughput)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(t2[kinds.FPTree][workload.A.Name]), "fptree-RU-size")
		b.ReportMetric(float64(t2[kinds.HashMap][workload.A.Name]), "hashmap-RU-size")
	}
}

// BenchmarkFigure6 regenerates throughput for all structures × workloads at
// the largest system size under the five strategies.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7 regenerates the read-update scaling curves (1–8 sockets).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := harness.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		opt, _ := figs["FP-Tree"].SeriesNamed("Opt. Configured").YAt(384)
		se, _ := figs["FP-Tree"].SeriesNamed("SE").YAt(384)
		b.ReportMetric(opt/se, "fptree-opt/se-x")
	}
}

// BenchmarkFigure8 regenerates the FP-Tree abort-ratio and L2-miss curves.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		abort, _, err := harness.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		y, _ := abort.SeriesNamed("SE").YAt(384)
		b.ReportMetric(y, "se-abort-ratio")
	}
}

// BenchmarkFigure9 regenerates the BW-Tree interconnect-volume curves.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := harness.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		se, _ := fig.SeriesNamed("SE").YAt(384)
		opt, _ := fig.SeriesNamed("Opt. Configured").YAt(384)
		b.ReportMetric(se/opt, "se/opt-volume-x")
	}
}

// BenchmarkFigure10 regenerates the read-only scaling curves.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Figure10(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure11 regenerates the application-size sweep (16–1024 indexes).
func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		figs, err := harness.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		a, _ := figs["FP-Tree"].SeriesNamed("Opt. Configured").YAt(16)
		z, _ := figs["FP-Tree"].SeriesNamed("Opt. Configured").YAt(1024)
		b.ReportMetric(z/a, "opt-stability-x")
	}
}

// BenchmarkFigure12 regenerates the TMAM cost breakdown (2 vs 8 sockets).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Structure == "FP-Tree" && r.Strategy == "Opt. Configured" && r.Sockets == 8 {
				b.ReportMetric(r.TMAM.Total()/1000, "opt-fptree-Kcycles/op")
			}
		}
	}
}

// BenchmarkFigure13Left regenerates TPC-C throughput vs system size.
func BenchmarkFigure13Left(b *testing.B) {
	for i := 0; i < b.N; i++ {
		left, _, err := harness.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		y, _ := left.SeriesNamed("Our OLTP Engine (FP-Tree)").YAt(384)
		b.ReportMetric(y, "ours-fptree-Ktxn/s")
	}
}

// BenchmarkFigure13Right regenerates TPC-C throughput vs remote fraction.
func BenchmarkFigure13Right(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, right, err := harness.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		base1, _ := right.SeriesNamed("SN-NUMA OLTP Engine (FP-Tree)").YAt(1)
		b.ReportMetric(base1, "baseline-1pct-Ktxn/s")
	}
}

// --- Real-hardware microbenchmarks (delegation runtime) ------------------

// BenchmarkDelegationInvoke measures one synchronous delegated round trip
// on this host.
func BenchmarkDelegationInvoke(b *testing.B) {
	machine := robustconf.Machine(1)
	cfg := robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
		Assignment: map[string]int{"x": 0},
	}
	rt, err := robustconf.Start(cfg, map[string]any{"x": btree.New()})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	s, err := rt.NewSession(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	task := robustconf.Task{Structure: "x", Op: func(ds any) any { return nil }}
	if _, err := s.Invoke(task); err != nil { // warm up: lazy client creation
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Invoke(task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelegationInvokeKV measures the typed key/value round trip:
// a burst of 14 pipelined SubmitKV Gets answered by live workers through
// the hashmap's batch kernel. Pinned allocation-free by alloc-smoke — the
// typed path must not re-introduce boxing anywhere from post to answer.
func BenchmarkDelegationInvokeKV(b *testing.B) {
	const burst = 14
	machine := robustconf.Machine(1)
	cfg := robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
		Assignment: map[string]int{"x": 0},
	}
	idx := hashmap.New()
	for k := uint64(0); k < 1024; k++ {
		idx.Insert(k, k, nil)
	}
	rt, err := robustconf.Start(cfg, map[string]any{"x": idx})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	s, err := rt.NewSession(0, burst)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var futs [burst]*core.AsyncFuture
	cycle := func() error {
		for j := 0; j < burst; j++ {
			f, err := s.SubmitKV("x", robustconf.KVGet, uint64(j), 0)
			if err != nil {
				return err
			}
			futs[j] = f
		}
		for j := 0; j < burst; j++ {
			if _, _, err := futs[j].WaitKV(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := cycle(); err != nil { // warm up: lazy client + future pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionSubmitKV measures the session path the kv.* and
// net.pipe64 workloads run: SubmitKV/WaitKV windows of 14 Gets alternating
// between two Hash Map shards of one domain, so every op resolves its name
// through the session's route table. ns/op is per op, not per window.
// Pinned allocation-free by alloc-smoke.
func BenchmarkSessionSubmitKV(b *testing.B) {
	const burst = 14
	cfg := robustconf.Config{
		Machine:    robustconf.Machine(1),
		Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
		Assignment: map[string]int{"x": 0, "y": 0},
	}
	structures := map[string]any{}
	for name := range cfg.Assignment {
		idx := hashmap.New()
		for k := uint64(0); k < 1024; k++ {
			idx.Insert(k, k, nil)
		}
		structures[name] = idx
	}
	rt, err := robustconf.Start(cfg, structures)
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	s, err := rt.NewSession(0, burst)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	names := [2]string{"x", "y"}
	var futs [burst]*core.AsyncFuture
	cycle := func() error {
		for j := 0; j < burst; j++ {
			f, err := s.SubmitKV(names[j&1], robustconf.KVGet, uint64(j), 0)
			if err != nil {
				return err
			}
			futs[j] = f
		}
		for j := 0; j < burst; j++ {
			if _, _, err := futs[j].WaitKV(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := cycle(); err != nil { // warm up: lazy client, route table, future pool
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		if err := cycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelegationInvokeObserved is the same round trip with an
// Observer attached at default sampling — the overhead budget for the
// introspection layer (DESIGN.md §9) is ≤5% over BenchmarkDelegationInvoke.
func BenchmarkDelegationInvokeObserved(b *testing.B) {
	machine := robustconf.Machine(1)
	cfg := robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
		Assignment: map[string]int{"x": 0},
		Obs:        robustconf.NewObserver(robustconf.ObserverOptions{}),
	}
	rt, err := robustconf.Start(cfg, map[string]any{"x": btree.New()})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	s, err := rt.NewSession(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	task := robustconf.Task{Structure: "x", Op: func(ds any) any { return nil }}
	if _, err := s.Invoke(task); err != nil { // warm up: lazy client creation
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Invoke(task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelegationInvokeSampled is BenchmarkDelegationInvokeObserved
// with the continuous-signal sampler running at its default 250ms cadence —
// the overhead budget for continuous telemetry is <1% over the observed
// number, since the sampler only reads the shards' published atomics from
// its own goroutine and adds nothing to the invoke path itself.
func BenchmarkDelegationInvokeSampled(b *testing.B) {
	machine := robustconf.Machine(1)
	observer := robustconf.NewObserver(robustconf.ObserverOptions{})
	cfg := robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
		Assignment: map[string]int{"x": 0},
		Obs:        observer,
	}
	rt, err := robustconf.Start(cfg, map[string]any{"x": btree.New()})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	smp := observer.StartSampler(robustconf.SamplerOptions{})
	defer smp.Stop()
	s, err := rt.NewSession(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	task := robustconf.Task{Structure: "x", Op: func(ds any) any { return nil }}
	if _, err := s.Invoke(task); err != nil { // warm up: lazy client creation
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Invoke(task); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelegationSignalTick measures one sampler tick — snapshot every
// shard's published counters, window the deltas, derive the signal set and
// classify health — against a live runtime. This is the cost the sampler
// goroutine pays per cadence, off every worker's critical path; obs's
// TestSignalTickZeroAlloc pins its 0 allocs/op.
func BenchmarkDelegationSignalTick(b *testing.B) {
	machine := robustconf.Machine(1)
	observer := robustconf.NewObserver(robustconf.ObserverOptions{})
	cfg := robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
		Assignment: map[string]int{"x": 0},
		Obs:        observer,
	}
	rt, err := robustconf.Start(cfg, map[string]any{"x": btree.New()})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	// Manual sampler: negative cadence means no goroutine; the benchmark
	// loop is the tick driver.
	smp := observer.StartSampler(robustconf.SamplerOptions{Every: -1})
	defer smp.Stop()
	s, err := rt.NewSession(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	task := robustconf.Task{Structure: "x", Op: func(ds any) any { return nil }}
	for i := 0; i < 1000; i++ { // give the window real traffic to digest
		if _, err := s.Invoke(task); err != nil {
			b.Fatal(err)
		}
	}
	smp.TickNow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		smp.TickNow()
	}
}

// BenchmarkDelegationReadBypass is the read-path counterpart of
// BenchmarkDelegationInvoke: a NOP read-only task submitted through
// SubmitRead against a bypass-armed Hash Map, so the number measures the
// validated-local-read protocol itself — route, publication-word loads,
// re-validation — with no index work and no allocations (alloc-smoke pins
// the 0 B/op).
func BenchmarkDelegationReadBypass(b *testing.B) {
	machine := robustconf.Machine(1)
	cfg := robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
		Assignment: map[string]int{"x": 0},
	}
	rt, err := robustconf.Start(cfg, map[string]any{"x": hashmap.New()})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	s, err := rt.NewSession(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	task := robustconf.Task{Structure: "x", Op: func(ds any) any { return nil }}
	if _, err := s.SubmitRead(task); err != nil { // warm up lazy read state
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SubmitRead(task); err != nil {
			b.Fatal(err)
		}
	}
}

// walBTree builds the B-Tree-backed durable adapter.
func walBTree(b *testing.B) *harness.WALTree {
	wt, err := harness.NewWALTree(kinds.BTree)
	if err != nil {
		b.Fatal(err)
	}
	return wt
}

// BenchmarkDelegationInvokeLogged is BenchmarkDelegationInvoke with a WAL
// attached and every task carrying a logical record: route, delegate,
// execute, encode the record into the worker's staging buffer, group-commit
// (no fsync — the in-process replay-journal configuration) and complete the
// future after the commit. The wal-smoke gate holds it at 0 B/op: the logged
// hot path must not allocate. The checkpoint cadence is pushed out of the
// window — the periodic snapshot legitimately allocates its buffer, but off
// the client path; this measures the per-task cost.
func BenchmarkDelegationInvokeLogged(b *testing.B) {
	machine := robustconf.Machine(1)
	cfg := robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
		Assignment: map[string]int{"x": 0},
		WAL:        robustconf.WALConfig{Dir: b.TempDir(), Fsync: robustconf.FsyncNone, CheckpointEvery: time.Hour},
	}
	rt, err := robustconf.Start(cfg, map[string]any{"x": walBTree(b)})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	s, err := rt.NewSession(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var k, v uint64
	task := robustconf.Task{
		Structure: "x",
		Op:        func(ds any) any { ds.(*harness.WALTree).Set(k, v); return nil },
		Log:       func(dst []byte) []byte { return harness.AppendWALSet(dst, k, v) },
	}
	// Warm up: lazy client creation, the full key set (so measured
	// iterations update tree nodes instead of allocating fresh ones) and
	// the staging buffer's growth to its steady-state size.
	for i := 0; i < 1024; i++ {
		k, v = uint64(i), uint64(i)
		if _, err := s.Invoke(task); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, v = uint64(i&1023), uint64(i)
		if _, err := s.Invoke(task); err != nil {
			b.Fatal(err)
		}
	}
	// The deferred Stop runs a shutdown checkpoint whose snapshot buffer
	// would otherwise be billed to the timed region.
	b.StopTimer()
}

// BenchmarkRecoveryReplay measures the recovery path itself (DESIGN.md §13):
// every iteration rebuilds a structure from a checkpoint plus a committed
// log tail and then serves one write — ns/op is the time-to-first-serve
// after a crash, records/sec the replay rate. Tracked in bench-snapshot.
func BenchmarkRecoveryReplay(b *testing.B) {
	const ckptKeys = 1 << 15
	const tailRecords = 1 << 15
	d, err := wal.OpenDomain(b.TempDir(), 2, wal.FsyncNone)
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	golden := walBTree(b)
	for k := uint64(0); k < ckptKeys; k++ {
		golden.Set(k, k)
	}
	if err := d.Checkpoint(golden.WALSnapshot); err != nil {
		b.Fatal(err)
	}
	// The log tail: both worker segments, group commits of eight records.
	for i := 0; i < tailRecords; {
		for w := 0; w < 2 && i < tailRecords; w++ {
			wl := d.Worker(w)
			wl.Begin()
			for j := 0; j < 8 && i < tailRecords; j++ {
				k, v := uint64(i%ckptKeys), uint64(i)
				wl.StageRecord(func(dst []byte) []byte { return harness.AppendWALSet(dst, k, v) })
				i++
			}
			if err := wl.Commit(false); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := walBTree(b)
		if _, err := d.Recover(tree.WALRestore, tree.WALApply); err != nil {
			b.Fatal(err)
		}
		tree.Set(0, uint64(i)) // first post-recovery serve
	}
	b.StopTimer()
	b.ReportMetric(float64(tailRecords)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// benchReadPath drives one seeded YCSB stream through a single session,
// reads through SubmitRead (bypass) or delegated through Invoke — the
// real-work version of the read-path comparison (bypass should at least
// double delegated YCSB-C throughput and come within 1.5× of the direct
// baseline).
func benchReadPath(b *testing.B, mix workload.Mix, bypass bool) {
	const preload = 100_000
	idx := hashmap.New()
	for _, k := range workload.LoadKeys(preload) {
		idx.Insert(k, k, nil)
	}
	machine := robustconf.Machine(1)
	rt, err := robustconf.Start(robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
		Assignment: map[string]int{"x": 0},
	}, map[string]any{"x": idx})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	s, err := rt.NewSession(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	gen, err := workload.NewGenerator(mix, preload, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	// One reusable task per kind, closing over mutable operands: both paths
	// are synchronous, so the operands are stable while a task is in flight,
	// and neither path pays a per-op closure allocation the direct baseline
	// doesn't have.
	var key, val uint64
	var update bool
	readTask := robustconf.Task{Structure: "x", Op: func(ds any) any {
		ds.(*hashmap.Map).Get(key, nil)
		return nil
	}}
	writeTask := robustconf.Task{Structure: "x", Op: func(ds any) any {
		mp := ds.(*hashmap.Map)
		if update {
			mp.Update(key, val, nil)
		} else {
			mp.Insert(key, val, nil)
		}
		return nil
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := gen.Next()
		key, val, update = op.Key, op.Val, op.Type == workload.OpUpdate
		switch {
		case op.Type != workload.OpRead:
			_, err = s.Invoke(writeTask)
		case bypass:
			_, err = s.SubmitRead(readTask)
		default:
			_, err = s.Invoke(readTask)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBypass compares the read paths on the Hash Map: YCSB-C
// delegated (reads through Invoke) vs bypass (reads through SubmitRead) vs
// the undelegated direct bound, and YCSB-A delegated vs bypass (validation
// under a 50% write fraction). Tracked in BENCH_delegation.json.
func BenchmarkReadBypass(b *testing.B) {
	b.Run("ycsb-c/delegated", func(b *testing.B) { benchReadPath(b, workload.C, false) })
	b.Run("ycsb-c/bypass", func(b *testing.B) { benchReadPath(b, workload.C, true) })
	b.Run("ycsb-c/direct", func(b *testing.B) {
		const preload = 100_000
		idx := hashmap.New()
		for _, k := range workload.LoadKeys(preload) {
			idx.Insert(k, k, nil)
		}
		gen, err := workload.NewGenerator(workload.C, preload, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op := gen.Next()
			idx.Get(op.Key, nil)
		}
	})
	b.Run("ycsb-a/delegated", func(b *testing.B) { benchReadPath(b, workload.A, false) })
	b.Run("ycsb-a/bypass", func(b *testing.B) { benchReadPath(b, workload.A, true) })
}

// BenchmarkAblationBurstSize sweeps the burst size (the paper fixes 14):
// larger bursts overlap more pending tasks per client.
func BenchmarkAblationBurstSize(b *testing.B) {
	for _, burst := range []int{1, 4, 14} {
		b.Run(fmt.Sprintf("burst-%d", burst), func(b *testing.B) {
			machine := robustconf.Machine(1)
			cfg := robustconf.Config{
				Machine:    machine,
				Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
				Assignment: map[string]int{"x": 0},
			}
			tree := btree.New()
			rt, err := robustconf.Start(cfg, map[string]any{"x": tree})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Stop()
			s, err := rt.NewSession(0, burst)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			// Pre-boxed keys and one shared op: SubmitAsync threads the
			// argument (a pointer, boxed alloc-free) instead of closing over
			// it, and waiting the window's futures in FIFO order keeps the
			// session's future pool recycling — the measured loop allocates
			// nothing, so the sweep isolates the burst size itself.
			var keys [1024]uint64
			for i := range keys {
				keys[i] = uint64(i)
			}
			insert := func(ds, arg any) any {
				k := *arg.(*uint64)
				ds.(*btree.Tree).Insert(k, k, nil)
				return nil
			}
			futs := make([]*core.AsyncFuture, burst)
			submit := func(i int) {
				if f := futs[i%burst]; f != nil {
					if _, err := f.Wait(); err != nil {
						b.Fatal(err)
					}
				}
				f, err := s.SubmitAsync("x", insert, &keys[i%1024])
				if err != nil {
					b.Fatal(err)
				}
				futs[i%burst] = f
			}
			for i := 0; i < 2*burst; i++ {
				submit(i) // warm the future pool before measuring
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submit(i)
			}
			b.StopTimer()
			for _, f := range futs {
				if f != nil {
					_, _ = f.Wait()
				}
			}
		})
	}
}

// BenchmarkAblationResponseBatching compares a worker sweep answering 14
// posted requests at once (FFWD batching) against 14 individual sweeps.
func BenchmarkAblationResponseBatching(b *testing.B) {
	for _, batched := range []bool{true, false} {
		name := "batched"
		if !batched {
			name = "one-by-one"
		}
		b.Run(name, func(b *testing.B) {
			buf, err := delegation.NewBuffer(0, 14)
			if err != nil {
				b.Fatal(err)
			}
			inbox, err := delegation.NewInbox([]*delegation.Buffer{buf})
			if err != nil {
				b.Fatal(err)
			}
			slots, err := inbox.AcquireSlots(14, nil)
			if err != nil {
				b.Fatal(err)
			}
			client, err := delegation.NewClient(slots)
			if err != nil {
				b.Fatal(err)
			}
			// The reserved-slot pipeline (Reserve/Post/Await) reuses the
			// slot-embedded futures, so the loop measures sweep batching
			// alone — Delegate would add one detached future allocation per
			// task.
			noop := &delegation.Op{Task: func() any { return nil }}
			var hs [14]delegation.InvokeHandle
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if batched {
					for j := 0; j < 14; j++ {
						slot, ok := client.Reserve()
						if !ok {
							b.Fatal("no free slot")
						}
						hs[j] = client.Post(slot, noop)
					}
					buf.Sweep() // one sweep answers all 14
					for j := 0; j < 14; j++ {
						if _, err := client.Await(hs[j]); err != nil {
							b.Fatal(err)
						}
					}
				} else {
					for j := 0; j < 14; j++ {
						slot, ok := client.Reserve()
						if !ok {
							b.Fatal("no free slot")
						}
						h := client.Post(slot, noop)
						buf.Sweep()
						if _, err := client.Await(h); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// BenchmarkAblationNUMAAwareSlots quantifies (in the cost model) what the
// NUMA-aware slot assignment of Section 6 saves: without it every delegated
// message is a worst-case remote transfer.
func BenchmarkAblationNUMAAwareSlots(b *testing.B) {
	aware := sim.DefaultParams()
	naive := aware
	naive.MsgTransferDiscount = 1.0 // every message fully stalls the worker
	naive.MsgBytes *= 2             // and both directions cross sockets
	for i := 0; i < b.N; i++ {
		run := func(p *sim.Params) float64 {
			r, err := sim.Run(sim.Scenario{
				Kind: kinds.FPTree, Mix: workload.A, Strategy: sim.StratConfigured,
				Threads: 384, OptDomainSize: 24, Params: p,
			})
			if err != nil {
				b.Fatal(err)
			}
			return r.ThroughputMOps
		}
		b.ReportMetric(run(&aware)/run(&naive), "aware/naive-x")
	}
}

// BenchmarkAblationILPvsGreedy compares the exact GAP-MQ solution against
// the greedy fallback on the paper's OLTP2 instance.
func BenchmarkAblationILPvsGreedy(b *testing.B) {
	instances := []ilp.GAPInstance{
		{Name: "w1", OptimalSize: 24, Load: 1},
		{Name: "w2", OptimalSize: 24, Load: 1},
		{Name: "r1", OptimalSize: 48, Load: 1},
		{Name: "r2", OptimalSize: 48, Load: 1},
		{Name: "r3", OptimalSize: 48, Load: 1},
	}
	b.Run("ilp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ilp.SolveGAPMQ(instances, 192, 0.5, 1.5, nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.WorkersUsed()), "workers-used")
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := ilp.GreedyGAPMQ(instances, 192, 1.5)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.WorkersUsed()), "workers-used")
		}
	})
}

// --- Real index-structure microbenchmarks --------------------------------

func benchIndex(b *testing.B, idx index.Index) {
	const preload = 100_000
	for _, k := range workload.LoadKeys(preload) {
		idx.Insert(k, k, nil)
	}
	gen, err := workload.NewGenerator(workload.A, preload, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := gen.Next()
		switch op.Type {
		case workload.OpRead:
			idx.Get(op.Key, nil)
		case workload.OpUpdate:
			idx.Update(op.Key, op.Val, nil)
		default:
			idx.Insert(op.Key, op.Val, nil)
		}
	}
}

// BenchmarkIndexBTree measures the real B-Tree under YCSB-A on this host.
func BenchmarkIndexBTree(b *testing.B) { benchIndex(b, btree.New()) }

// BenchmarkIndexFPTree measures the real FP-Tree under YCSB-A on this host.
func BenchmarkIndexFPTree(b *testing.B) { benchIndex(b, fptree.New()) }

// BenchmarkIndexBWTree measures the real BW-Tree under YCSB-A on this host.
func BenchmarkIndexBWTree(b *testing.B) { benchIndex(b, bwtree.New()) }

// BenchmarkIndexHashMap measures the real Hash Map under YCSB-A on this host.
func BenchmarkIndexHashMap(b *testing.B) { benchIndex(b, hashmap.New()) }

// --- Real TPC-C execution benchmarks --------------------------------------

func benchTPCC(b *testing.B, delegated bool, fullMix bool) {
	cfg := tpcc.Config{Warehouses: 2, Customers: 100, Items: 300}
	newIndex := func() index.Index { return fptree.New() }
	loader, err := tpcc.NewLoader(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	var store tpcc.Store
	if delegated {
		machine := robustconf.Machine(1)
		engine, err := oltp.NewEngine(cfg, newIndex, machine)
		if err != nil {
			b.Fatal(err)
		}
		defer engine.Stop()
		s, err := engine.NewStore(0, robustconf.PaperBurstSize)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		store = s
	} else {
		engine, err := oltp.NewDirectEngine(cfg, newIndex)
		if err != nil {
			b.Fatal(err)
		}
		store = engine
	}
	if err := loader.Load(store); err != nil {
		b.Fatal(err)
	}
	term, err := tpcc.NewTerminal(cfg, store, 1, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if fullMix {
			err = term.NextFullMix()
		} else {
			err = term.NextTransaction()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTPCCDirectNOP measures real New-Order+Payment transactions on
// the direct-execution baseline engine on this host.
func BenchmarkTPCCDirectNOP(b *testing.B) { benchTPCC(b, false, false) }

// BenchmarkTPCCDelegatedNOP measures the same mix through the delegated
// engine (statements as tasks) on this host.
func BenchmarkTPCCDelegatedNOP(b *testing.B) { benchTPCC(b, true, false) }

// BenchmarkTPCCDirectFullMix measures the full five-transaction TPC-C mix
// (extension beyond the paper's 88% subset) on the baseline engine.
func BenchmarkTPCCDirectFullMix(b *testing.B) { benchTPCC(b, false, true) }

// BenchmarkTPCCDelegatedFullMix measures the full mix on the delegated
// engine.
func BenchmarkTPCCDelegatedFullMix(b *testing.B) { benchTPCC(b, true, true) }

// BenchmarkTPCCDelegatedFullMixArena is BenchmarkTPCCDelegatedFullMix with
// the per-worker batch arenas enabled — the steady-state allocation pin
// (scripts/alloc-smoke.sh holds it at ≤10 allocs/op) and the ns/op gap to
// the arena-off run quantify the arena configuration axis.
func BenchmarkTPCCDelegatedFullMixArena(b *testing.B) {
	cfg := tpcc.Config{Warehouses: 2, Customers: 100, Items: 300}
	machine := robustconf.Machine(1)
	rc, err := oltp.EvenConfig(cfg, machine)
	if err != nil {
		b.Fatal(err)
	}
	rc.Arena = robustconf.ArenaConfig{Enabled: true}
	engine, err := oltp.NewEngineWithConfig(cfg, func() index.Index { return fptree.New() }, rc)
	if err != nil {
		b.Fatal(err)
	}
	defer engine.Stop()
	s, err := engine.NewStore(0, robustconf.PaperBurstSize)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	loader, err := tpcc.NewLoader(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := loader.Load(s); err != nil {
		b.Fatal(err)
	}
	term, err := tpcc.NewTerminal(cfg, s, 1, 0.05, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := term.NextFullMix(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTPCCParallel drives concurrent terminals (one per benchmark
// goroutine, whole-transaction mode) through the delegated engine, with
// write-ahead logging when walDir is non-empty. Group commit only amortises
// under concurrency — a lone synchronous terminal pays one fsync per
// transaction — so the WAL-on/WAL-off comparison is made at the concurrent
// operating point the log batching is designed for. Note that the measured
// gap is dominated by the physical fsync path, not the WAL machinery:
// rerunning the WAL side with FsyncNone lands within ~15% of the no-WAL
// baseline, while FsyncBatch adds the filesystem's journal-commit latency
// per group (≈250µs on this repo's ext4 CI disk), amortised across however
// many terminals the host can actually run in parallel.
func benchTPCCParallel(b *testing.B, walDir string) {
	cfg := tpcc.Config{Warehouses: 2, Customers: 100, Items: 300}
	machine := robustconf.Machine(1)
	rc, err := oltp.EvenConfig(cfg, machine)
	if err != nil {
		b.Fatal(err)
	}
	if walDir != "" {
		rc.WAL = robustconf.WALConfig{Dir: walDir, Fsync: robustconf.FsyncBatch}
	}
	engine, err := oltp.NewEngineWithConfig(cfg, func() index.Index { return fptree.New() }, rc)
	if err != nil {
		b.Fatal(err)
	}
	defer engine.Stop()
	boot, err := engine.NewStore(0, robustconf.PaperBurstSize)
	if err != nil {
		b.Fatal(err)
	}
	loader, err := tpcc.NewLoader(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := loader.Load(boot); err != nil {
		b.Fatal(err)
	}
	boot.Close()
	var gid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		g := int(gid.Add(1))
		// A whole-transaction task needs one slot at a time; a small burst packs
		// several terminals into each worker's buffer, so one sweep batch —
		// and in the WAL run one group commit — carries several terminals'
		// transactions. That sharing is what amortises the fsync.
		s, err := engine.NewStore(g%machine.LogicalCPUs(), 2)
		if err != nil {
			b.Error(err)
			return
		}
		defer s.Close()
		term, err := tpcc.NewTerminal(cfg, s, 1+g%cfg.Warehouses, 0.05, int64(g))
		if err != nil {
			b.Error(err)
			return
		}
		for pb.Next() {
			if err := term.NextFullMix(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkTPCCDelegatedFullMixPar is the concurrent-terminal baseline for
// the WAL comparison below.
func BenchmarkTPCCDelegatedFullMixPar(b *testing.B) { benchTPCCParallel(b, "") }

// BenchmarkTPCCDelegatedFullMixWAL is the same concurrent mix with
// durability on (batch-fsync WAL + periodic checkpoints): the gap to
// BenchmarkTPCCDelegatedFullMixPar is the price of crash-with-replay over
// crash-with-data-loss (README "Durability"). On a single-CPU host the
// group commit degenerates to one fsync per transaction, so the absolute
// ratio tracks the disk, not the log.
func BenchmarkTPCCDelegatedFullMixWAL(b *testing.B) { benchTPCCParallel(b, b.TempDir()) }

// BenchmarkServerPipelined measures the network front end end to end on
// loopback: a client pipelines GET windows of the given depth over the
// binary protocol; the server folds each window into delegation bursts
// through its session pool (DESIGN.md §16). The runtime underneath is the
// same single-domain interleaved-sweep setup as BenchmarkDelegationInvokeKV,
// so ns/op here against that benchmark isolates the network front end's
// overhead, and the depth series shows pipelining amortising it: depth 1
// pays one full network round trip per op, depth 64 spreads that round
// trip across a whole delegation burst worth of work.
func BenchmarkServerPipelined(b *testing.B) {
	for _, depth := range []int{1, 16, 64, 128} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			machine := robustconf.Machine(1)
			cfg := robustconf.Config{
				Machine:    machine,
				Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
				Assignment: map[string]int{"x": 0},
			}
			idx := hashmap.New()
			for k := uint64(0); k < 1024; k++ {
				idx.Insert(k, k, nil)
			}
			rt, err := robustconf.Start(cfg, map[string]any{"x": idx})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Stop()
			srv, err := server.Listen("127.0.0.1:0", server.Config{
				Runtime:  rt,
				Shards:   []string{"x"},
				Sessions: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close(5 * time.Second)
			c, err := client.Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()

			window := func(n, base int) error {
				for j := 0; j < n; j++ {
					c.QueueGet(uint64(base+j) & 1023)
				}
				if err := c.Flush(); err != nil {
					return err
				}
				for j := 0; j < n; j++ {
					if _, _, err := c.Recv(); err != nil {
						return err
					}
				}
				return nil
			}
			if err := window(depth, 0); err != nil { // warm up buffers + pool
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; {
				n := depth
				if left := b.N - i; left < n {
					n = left
				}
				if err := window(n, i); err != nil {
					b.Fatal(err)
				}
				i += n
			}
		})
	}
}

// BenchmarkDelegationInvokeKVSync measures the synchronous typed round
// trip — one InvokeKV Get per call, no pipelining — on the same
// single-domain hashmap setup as BenchmarkServerPipelined. It is the
// in-process baseline for the network front end's acceptance ratio: a
// remote client at depth 64 amortises its network round trip across a
// window and should land within 2× of this per-op latency.
func BenchmarkDelegationInvokeKVSync(b *testing.B) {
	machine := robustconf.Machine(1)
	cfg := robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "d", CPUs: robustconf.CPURange(0, 4)}},
		Assignment: map[string]int{"x": 0},
	}
	idx := hashmap.New()
	for k := uint64(0); k < 1024; k++ {
		idx.Insert(k, k, nil)
	}
	rt, err := robustconf.Start(cfg, map[string]any{"x": idx})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Stop()
	s, err := rt.NewSession(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.InvokeKV("x", robustconf.KVGet, 0, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.InvokeKV("x", robustconf.KVGet, uint64(i)&1023, 0); err != nil {
			b.Fatal(err)
		}
	}
}
