// Command robustycsb runs YCSB workloads for real on this host, through the
// runtime under a chosen partitioning strategy — the measurement loop of the
// paper's Experiment 1 at laptop scale. It reports throughput and the
// delegation round-trip latency distribution, plus structure-specific
// counters (HTM aborts, CAS failures, bucket skew).
//
// Usage:
//
//	robustycsb -structure fptree -mix a -domain 24 -clients 4 -records 100000 -ops 50000
//	robustycsb -structure hashmap -mix c -domain 1 -trace /tmp/ops.trace
//	robustycsb -structure fptree -mix a -wal /tmp/wal -fsync batch
//
// -wal DIR turns on per-domain write-ahead logging with periodic
// checkpoints: writes become logged upserts that complete only after their
// group commit (-fsync none|batch|always, -checkpoint cadence).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"robustconf"
	"robustconf/client"
	"robustconf/internal/harness"
	"robustconf/internal/index"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/metrics"
	"robustconf/internal/workload"
)

func main() {
	addr := flag.String("addr", "", "drive a robustserved server at this address over TCP instead of an in-process runtime")
	pipeline := flag.Int("pipeline", 16, "pipelining depth per connection (with -addr)")
	tenant := flag.String("tenant", "", "tenant name for server-side quota accounting (with -addr)")
	structure := flag.String("structure", "fptree", "btree, fptree, bwtree, hashmap")
	mixName := flag.String("mix", "a", "a (read-update), c (read-only), d (read-insert)")
	domain := flag.Int("domain", 24, "virtual domain size in workers")
	clients := flag.Int("clients", 4, "client threads")
	records := flag.Uint64("records", 100_000, "pre-loaded records")
	ops := flag.Int("ops", 50_000, "operations per client")
	burst := flag.Int("burst", robustconf.PaperBurstSize, "burst size (outstanding tasks per client)")
	readPolicy := flag.String("readpolicy", "delegate", "read path: delegate or bypass")
	tracePath := flag.String("trace", "", "optional: write the generated op trace to this file first, then replay it")
	obsAddr := flag.String("obs", "", "serve the observability endpoint on this address during the run (e.g. :6060)")
	obsTrace := flag.Int("obs-trace", 0, "commit every Nth sampled task span to the trace ring (0 = off)")
	signals := flag.Bool("signals", false, "run the continuous-signal sampler during the run (adds /signals + gauges, report block)")
	signalsEvery := flag.Duration("signals-every", robustconf.DefaultSamplerEvery, "sampler cadence (with -signals)")
	signalsStream := flag.String("signals-stream", "", "stream per-tick domain signals as NDJSON to this file (implies -signals)")
	walDir := flag.String("wal", "", "directory for per-domain write-ahead logs (empty = durability off; needs -structure fptree or bwtree)")
	fsyncMode := flag.String("fsync", "batch", "WAL flush discipline: none, batch or always")
	checkpoint := flag.Duration("checkpoint", 0, "WAL checkpoint cadence (0 = default)")
	flag.Parse()

	// Network mode: the server owns the structures and the runtime; this
	// binary is only the driver, pipelining ops over TCP connections.
	if *addr != "" {
		mixes := map[string]workload.Mix{"a": workload.A, "c": workload.C, "d": workload.D}
		mix, ok := mixes[*mixName]
		if !ok {
			fatal(fmt.Errorf("unknown mix %q", *mixName))
		}
		runNetwork(*addr, *tenant, mix, *clients, *records, *ops, *pipeline)
		return
	}

	// With -wal the structure must be Durable (checkpoint + replay), so the
	// tree is wrapped in the harness's durable adapter; writes become
	// logged upserts whose futures resolve only after their group commit.
	var idx index.Index
	var wt *harness.WALTree
	switch *structure {
	case "btree":
		idx = btree.New()
	case "fptree":
		idx = fptree.New()
		if *walDir != "" {
			wt = harness.NewWALTree()
		}
	case "bwtree":
		idx = bwtree.New()
		if *walDir != "" {
			wt = harness.NewWALBwTree()
		}
	case "hashmap":
		idx = hashmap.New()
	default:
		fatal(fmt.Errorf("unknown structure %q", *structure))
	}
	if *walDir != "" && wt == nil {
		fatal(fmt.Errorf("-wal needs a durable structure (fptree or bwtree), not %q", *structure))
	}
	mixes := map[string]workload.Mix{"a": workload.A, "c": workload.C, "d": workload.D}
	mix, ok := mixes[*mixName]
	if !ok {
		fatal(fmt.Errorf("unknown mix %q", *mixName))
	}
	policy, err := robustconf.ParseReadPolicy(*readPolicy)
	if err != nil {
		fatal(err)
	}

	for _, k := range workload.LoadKeys(*records) {
		if wt != nil {
			wt.Set(k, k)
		} else {
			idx.Insert(k, k, nil)
		}
	}

	machine := robustconf.Machine(1)
	var domains []robustconf.Domain
	for lo := 0; lo < machine.LogicalCPUs(); lo += *domain {
		hi := lo + *domain
		if hi > machine.LogicalCPUs() {
			hi = machine.LogicalCPUs()
		}
		domains = append(domains, robustconf.Domain{
			Name: fmt.Sprintf("d%d", len(domains)),
			CPUs: robustconf.CPURange(lo, hi),
		})
	}
	faults := &metrics.FaultCounters{}
	observer := robustconf.NewObserver(robustconf.ObserverOptions{TraceEvery: *obsTrace, Faults: faults})
	if *obsAddr != "" {
		addr, stopSrv, err := observer.Serve(*obsAddr)
		if err != nil {
			fatal(err)
		}
		defer stopSrv()
		fmt.Printf("obs: serving http://%s/metrics (also /signals, /spans, /events, /debug/pprof/)\n", addr)
	}
	if *signals || *signalsStream != "" {
		stopSampler, err := observer.StartSamplerToPath(*signalsEvery, *signalsStream)
		if err != nil {
			fatal(err)
		}
		defer stopSampler()
	}
	rtCfg := robustconf.Config{
		Machine:      machine,
		Domains:      domains,
		Assignment:   map[string]int{"ycsb": 0},
		ReadPolicies: map[string]robustconf.ReadPolicy{"ycsb": policy},
		Faults:       faults,
		Obs:          observer,
	}
	registered := map[string]any{"ycsb": idx}
	if wt != nil {
		fmode, err := robustconf.ParseFsyncMode(*fsyncMode)
		if err != nil {
			fatal(err)
		}
		rtCfg.WAL = robustconf.WALConfig{Dir: *walDir, Fsync: fmode, CheckpointEvery: *checkpoint}
		registered["ycsb"] = wt
	}
	rt, err := robustconf.Start(rtCfg, registered)
	if err != nil {
		fatal(err)
	}
	defer rt.Stop()

	// Optional trace: generate once, replay identically (the paper's
	// methodology for comparing strategies on the same operation stream).
	streams := make([][]workload.Op, *clients)
	for c := 0; c < *clients; c++ {
		gen, err := workload.NewGenerator(mix, *records, uint64(c), int64(c)+1)
		if err != nil {
			fatal(err)
		}
		if *tracePath != "" {
			path := fmt.Sprintf("%s.%d", *tracePath, c)
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := workload.WriteTrace(f, gen, *ops); err != nil {
				fatal(err)
			}
			f.Close()
			rf, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			tr, err := workload.NewTraceReader(rf)
			if err != nil {
				fatal(err)
			}
			for {
				op, ok := tr.Next()
				if !ok {
					break
				}
				streams[c] = append(streams[c], op)
			}
			rf.Close()
			if err := tr.Err(); err != nil {
				fatal(err)
			}
		} else {
			for i := 0; i < *ops; i++ {
				streams[c] = append(streams[c], gen.Next())
			}
		}
	}

	// The structure's domain has domainSize workers × 15 slots; clamp the
	// burst so all clients fit (the inbox bounds concurrent clients).
	effBurst := *burst
	if cap := domains[0].CPUs.Len() * 15 / *clients; cap < effBurst {
		effBurst = cap
		if effBurst < 1 {
			fatal(fmt.Errorf("domain of %d workers cannot serve %d clients", domains[0].CPUs.Len(), *clients))
		}
		fmt.Printf("note: burst clamped to %d (%d clients share a %d-worker domain)\n",
			effBurst, *clients, domains[0].CPUs.Len())
	}

	var latency metrics.Histogram
	var wg sync.WaitGroup
	start := time.Now()
	errs := make(chan error, *clients)
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			session, err := rt.NewSession(c%machine.LogicalCPUs(), effBurst)
			if err != nil {
				errs <- err
				return
			}
			defer session.Close()
			for _, op := range streams[c] {
				op := op
				t0 := time.Now()
				var err error
				switch {
				case op.Type == workload.OpRead && wt != nil:
					_, err = session.SubmitRead(robustconf.Task{Structure: "ycsb", Op: func(ds any) any {
						v, _ := ds.(*harness.WALTree).Get(op.Key)
						return v
					}})
				case op.Type == workload.OpRead:
					// Classified at submit time so the -readpolicy axis takes
					// effect: bypass attempts the validated local read
					// and fall back to delegation when validation fails.
					_, err = session.SubmitRead(robustconf.Task{Structure: "ycsb", Op: func(ds any) any {
						v, _ := ds.(index.Index).Get(op.Key, nil)
						return v
					}})
				case wt != nil:
					// Logged upsert: the future resolves only after the
					// record's group commit, so a nil error means durable.
					_, err = session.Invoke(robustconf.Task{
						Structure: "ycsb",
						Op: func(ds any) any {
							ds.(*harness.WALTree).Set(op.Key, op.Val)
							return nil
						},
						Log: func(dst []byte) []byte {
							return harness.AppendWALSet(dst, op.Key, op.Val)
						},
					})
				default:
					_, err = session.Invoke(robustconf.Task{Structure: "ycsb", Op: func(ds any) any {
						tr := ds.(index.Index)
						if op.Type == workload.OpUpdate {
							return tr.Update(op.Key, op.Val, nil)
						}
						return tr.Insert(op.Key, op.Val, nil)
					}})
				}
				latency.Record(uint64(time.Since(t0).Nanoseconds()))
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fatal(err)
	}
	elapsed := time.Since(start)

	total := float64(*clients * *ops)
	fmt.Printf("%s / %s: domains of %d workers, %d clients, burst %d, read policy %s (effective %s)\n",
		idx.Name(), mix.Name, *domain, *clients, effBurst, policy, rt.EffectiveReadPolicy("ycsb"))
	fmt.Printf("throughput: %.0f ops/s (%d ops in %v)\n",
		total/elapsed.Seconds(), int(total), elapsed.Round(time.Millisecond))
	fmt.Printf("latency ns: %s\n", latency.String())

	if wt == nil {
		switch s := idx.(type) {
		case *fptree.Tree:
			st := s.HTMStats()
			fmt.Printf("htm: commits=%d aborts=%d fallbacks=%d abort-ratio=%.4f\n",
				st.Commits.Load(), st.Aborts.Load(), st.Fallbacks.Load(), st.AbortRatio())
		case *bwtree.Tree:
			fmt.Printf("bwtree: cas-failures=%d consolidations=%d\n",
				s.CASFailures.Load(), s.Consolidations.Load())
		case *hashmap.Map:
			fmt.Printf("hashmap: reader-registrations=%d bucket-stddev=%.2f\n",
				s.ReaderRegistrations(), s.BucketSizeStdDev())
		}
	} else {
		var committed, replayed, recoveries uint64
		for _, d := range rt.Domains() {
			st := d.WALStats()
			committed += st.Committed
			replayed += st.Replayed
			recoveries += st.Recoveries
		}
		fmt.Printf("wal: fsync=%s committed=%d recoveries=%d replayed=%d\n",
			*fsyncMode, committed, recoveries, replayed)
	}
	fmt.Print(observer.Report())
}

// runNetwork drives a robustserved server: one connection per client
// goroutine, each keeping a window of `depth` requests pipelined so the
// server turns every network read into one delegation burst. Latency is
// recorded per flushed window (a depth-k window's round trip covers k ops).
func runNetwork(addr, tenant string, mix workload.Mix, clients int, records uint64, ops, depth int) {
	if depth < 1 {
		depth = 1
	}
	var latency metrics.Histogram
	var busy atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen, err := workload.NewGenerator(mix, records, uint64(c), int64(c)+1)
			if err != nil {
				errs <- err
				return
			}
			conn, err := client.DialTenant(addr, tenant)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			drain := func() error {
				for conn.Pending() > 0 {
					if _, _, err := conn.Recv(); err != nil {
						if errors.Is(err, client.ErrBusy) {
							busy.Add(1)
							continue
						}
						return err
					}
				}
				return nil
			}
			sent := 0
			for sent < ops {
				window := depth
				if left := ops - sent; left < window {
					window = left
				}
				for i := 0; i < window; i++ {
					op := gen.Next()
					if op.Type == workload.OpRead {
						conn.QueueGet(op.Key)
					} else {
						conn.QueuePut(op.Key, op.Val)
					}
				}
				t0 := time.Now()
				if err := conn.Flush(); err != nil {
					errs <- err
					return
				}
				if err := drain(); err != nil {
					errs <- err
					return
				}
				ns := uint64(time.Since(t0).Nanoseconds())
				for i := 0; i < window; i++ {
					latency.Record(ns)
				}
				sent += window
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fatal(err)
	}
	elapsed := time.Since(start)
	total := float64(clients * ops)
	fmt.Printf("network / %s: %s, %d clients, pipeline depth %d\n", mix.Name, addr, clients, depth)
	fmt.Printf("throughput: %.0f ops/s (%d ops in %v, %d busy-rejected)\n",
		total/elapsed.Seconds(), int(total), elapsed.Round(time.Millisecond), busy.Load())
	fmt.Printf("window latency ns: %s\n", latency.String())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "robustycsb:", err)
	os.Exit(1)
}
