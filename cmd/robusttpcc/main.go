// Command robusttpcc runs TPC-C New-Order and Payment transactions for real
// on the light-weight OLTP engine (delegated execution through the runtime)
// or on the direct-execution shared-nothing baseline, and reports measured
// throughput. It also prints the simulated Figure 13 point for the same
// parameters on the reference machine.
//
// Usage:
//
//	robusttpcc -engine delegated -warehouses 4 -terminals 4 -txns 2000
//
// The delegated engine ships each single-warehouse transaction into its
// domain as one task, and a cross-warehouse one as one task per warehouse.
//
// -wal DIR turns on per-domain write-ahead logging with periodic
// checkpoints (delegated engine only); -fsync picks the flush discipline
// (none, batch, always) and -checkpoint the snapshot cadence.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"robustconf/internal/core"
	"robustconf/internal/index"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
	"robustconf/internal/oltp"
	"robustconf/internal/sim"
	"robustconf/internal/topology"
	"robustconf/internal/tpcc"
	"robustconf/internal/wal"
)

func main() {
	engine := flag.String("engine", "delegated", "engine: delegated or direct")
	tree := flag.String("tree", "fptree", "index structure: fptree or bwtree")
	warehouses := flag.Int("warehouses", 4, "TPC-C warehouses")
	customers := flag.Int("customers", 300, "customers per district (scaled down)")
	items := flag.Int("items", 1000, "items (scaled down)")
	terminals := flag.Int("terminals", 4, "concurrent terminals")
	txns := flag.Int("txns", 2000, "transactions per terminal")
	remote := flag.Float64("remote", 0.01, "remote transaction fraction")
	obsAddr := flag.String("obs", "", "serve the observability endpoint on this address during the run (delegated engine; e.g. :6060)")
	obsTrace := flag.Int("obs-trace", 0, "commit every Nth sampled task span to the trace ring (0 = off)")
	signals := flag.Bool("signals", false, "run the continuous-signal sampler during the run (adds /signals + gauges, report block)")
	signalsEvery := flag.Duration("signals-every", obs.DefaultSamplerEvery, "sampler cadence (with -signals)")
	signalsStream := flag.String("signals-stream", "", "stream per-tick domain signals as NDJSON to this file (implies -signals)")
	walDir := flag.String("wal", "", "directory for per-domain write-ahead logs (delegated engine; empty = durability off)")
	fsync := flag.String("fsync", "batch", "WAL flush discipline: none, batch or always")
	checkpoint := flag.Duration("checkpoint", 0, "WAL checkpoint cadence (0 = default)")
	flag.Parse()

	var newIndex func() index.Index
	var kind sim.StructureKind
	switch *tree {
	case "fptree":
		newIndex, kind = func() index.Index { return fptree.New() }, sim.KindFPTree
	case "bwtree":
		newIndex, kind = func() index.Index { return bwtree.New() }, sim.KindBWTree
	default:
		fmt.Fprintln(os.Stderr, "robusttpcc: unknown tree", *tree)
		os.Exit(1)
	}
	cfg := tpcc.Config{Warehouses: *warehouses, Customers: *customers, Items: *items}
	loader, err := tpcc.NewLoader(cfg, 1)
	if err != nil {
		fatal(err)
	}

	faults := &metrics.FaultCounters{}
	observer := obs.New(obs.Options{TraceEvery: *obsTrace, Faults: faults})
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

	var openStore func(id int) (tpcc.Store, func() error, error)
	var walEngine *oltp.Engine
	delegated := false
	switch *engine {
	case "direct":
		e, err := oltp.NewDirectEngine(cfg, newIndex)
		if err != nil {
			fatal(err)
		}
		if err := loader.Load(e); err != nil {
			fatal(err)
		}
		openStore = func(int) (tpcc.Store, func() error, error) {
			return e, func() error { return nil }, nil
		}
	case "delegated":
		delegated = true
		m, err := topology.Restricted(1)
		if err != nil {
			fatal(err)
		}
		rc, err := oltp.EvenConfig(cfg, m)
		if err != nil {
			fatal(err)
		}
		rc.Faults = faults
		rc.Obs = observer
		if *walDir != "" {
			fmode, err := wal.ParseFsyncMode(*fsync)
			if err != nil {
				fatal(err)
			}
			rc.WAL = core.WALConfig{Dir: *walDir, Fsync: fmode, CheckpointEvery: *checkpoint}
		}
		e, err := oltp.NewEngineWithConfig(cfg, newIndex, rc)
		if err != nil {
			fatal(err)
		}
		defer e.Stop()
		walEngine = e
		boot, err := e.NewStore(0, 14)
		if err != nil {
			fatal(err)
		}
		if err := loader.Load(boot); err != nil {
			fatal(err)
		}
		if err := boot.Close(); err != nil {
			fatal(err)
		}
		openStore = func(id int) (tpcc.Store, func() error, error) {
			s, err := e.NewStore(id%m.LogicalCPUs(), 14)
			if err != nil {
				return nil, nil, err
			}
			return s, s.Close, nil
		}
	default:
		fmt.Fprintln(os.Stderr, "robusttpcc: unknown engine", *engine)
		os.Exit(1)
	}

	var done atomic.Uint64
	var latency metrics.Histogram
	var wg sync.WaitGroup
	start := time.Now()
	errs := make(chan error, *terminals)
	for g := 0; g < *terminals; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			store, closeStore, err := openStore(g)
			if err != nil {
				errs <- err
				return
			}
			defer closeStore()
			term, err := tpcc.NewTerminal(cfg, store, 1+g%cfg.Warehouses, *remote, int64(g+1))
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < *txns; i++ {
				t0 := time.Now()
				if err := term.NextTransaction(); err != nil {
					errs <- err
					return
				}
				latency.Record(uint64(time.Since(t0).Nanoseconds()))
				done.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("engine=%s tree=%s warehouses=%d terminals=%d remote=%.0f%%\n",
		*engine, *tree, *warehouses, *terminals, *remote*100)
	fmt.Printf("measured: %d txns in %v → %.0f txn/s on this host\n",
		done.Load(), elapsed.Round(time.Millisecond), float64(done.Load())/elapsed.Seconds())
	fmt.Printf("txn latency ns: %s\n", latency.String())
	if delegated {
		fmt.Print(observer.Report())
	}
	if walEngine != nil && *walDir != "" {
		var committed, replayed, recoveries uint64
		for _, d := range walEngine.Runtime().Domains() {
			st := d.WALStats()
			committed += st.Committed
			replayed += st.Replayed
			recoveries += st.Recoveries
		}
		fmt.Printf("wal: fsync=%s committed=%d recoveries=%d replayed=%d\n",
			*fsync, committed, recoveries, replayed)
	}

	// The corresponding Figure 13 point on the simulated reference machine.
	engKind := sim.EngineDelegated
	if *engine == "direct" {
		engKind = sim.EngineDirectSNNUMA
	}
	r, err := sim.RunTPCC(sim.TPCCScenario{
		Engine: engKind, Kind: kind, Threads: 384, Warehouses: 8, RemoteFrac: *remote,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("simulated reference machine (384 threads, 8 warehouses): %.0f Ktxn/s\n", r.KTxnPerSec)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "robusttpcc:", err)
	os.Exit(1)
}
