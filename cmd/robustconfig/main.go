// Command robustconfig runs the composition step of the configuration
// process for the paper's example scenarios (Figure 4): OLTP1
// (homogeneous), OLTP2 (isolated + ILP), and HTAP (shared heterogeneous).
//
// Usage:
//
//	robustconfig -scenario oltp2 -workers 192
//	robustconfig -scenario htap -run 2000 -obs :6060
//
// With -run the composed plan is materialised on the reference topology and
// actually started: real index structures are registered per instance, the
// given number of operations is driven through each, and the report ends
// with the runtime's per-domain telemetry and fault summary.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"robustconf/internal/config"
	"robustconf/internal/core"
	"robustconf/internal/index"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
	"robustconf/internal/sim"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

func scenario(name string) ([]config.Instance, error) {
	switch name {
	case "oltp1":
		// Homogeneous: all indexes write-heavy.
		return []config.Instance{
			{Name: "orders-idx", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
			{Name: "stock-idx", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
			{Name: "customer-idx", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
			{Name: "district-idx", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
		}, nil
	case "oltp2":
		// Mixed OLTP with two crucial indexes isolated (Fig. 4.2).
		return []config.Instance{
			{Name: "lock-table", Kind: sim.KindHashMap, Mix: workload.A, Load: 0.5, Crucial: true},
			{Name: "hot-orders", Kind: sim.KindFPTree, Mix: workload.A, Load: 0.5, Crucial: true},
			{Name: "write-idx-1", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
			{Name: "write-idx-2", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
			{Name: "read-idx-1", Kind: sim.KindFPTree, Mix: workload.C, Load: 1},
			{Name: "read-idx-2", Kind: sim.KindFPTree, Mix: workload.C, Load: 1},
			{Name: "read-idx-3", Kind: sim.KindFPTree, Mix: workload.C, Load: 1},
		}, nil
	case "htap":
		// Shared heterogeneous: write-heavy, read-update, read-only.
		return []config.Instance{
			{Name: "oltp-idx-1", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
			{Name: "oltp-idx-2", Kind: sim.KindFPTree, Mix: workload.A, Load: 1, CoLocateWith: "oltp-idx-1"},
			{Name: "fresh-idx", Kind: sim.KindBWTree, Mix: workload.D, Load: 1},
			{Name: "olap-idx-1", Kind: sim.KindBTree, Mix: workload.C, Load: 1},
			{Name: "olap-idx-2", Kind: sim.KindBTree, Mix: workload.C, Load: 1},
		}, nil
	default:
		return nil, fmt.Errorf("unknown scenario %q (have oltp1, oltp2, htap)", name)
	}
}

// newIndexForKind builds the real structure implementation matching the
// simulator kind an instance was planned with.
func newIndexForKind(k sim.StructureKind) index.Index {
	switch k {
	case sim.KindBTree:
		return btree.New()
	case sim.KindBWTree:
		return bwtree.New()
	case sim.KindHashMap:
		return hashmap.New()
	default:
		return fptree.New()
	}
}

// runPlan materialises the composed plan, starts the runtime with real
// structures registered for every instance, drives ops operations per
// instance through it, and prints throughput plus the observer's telemetry
// and fault report.
func runPlan(plan *config.Plan, instances []config.Instance, ops int, records uint64, obsAddr string, obsTrace int, signalsOn bool, signalsEvery time.Duration, signalsStream string) error {
	sockets := (plan.WorkersUsed() + 47) / 48
	if sockets < 1 {
		sockets = 1
	}
	m, err := topology.Restricted(sockets)
	if err != nil {
		return err
	}
	cfg, err := config.Materialise(plan, m)
	if err != nil {
		return err
	}
	faults := &metrics.FaultCounters{}
	observer := obs.New(obs.Options{TraceEvery: obsTrace, Faults: faults})
	if obsAddr != "" {
		addr, stopSrv, err := observer.Serve(obsAddr)
		if err != nil {
			return err
		}
		defer stopSrv()
		fmt.Printf("obs: serving http://%s/metrics (also /signals, /spans, /events, /debug/pprof/)\n", addr)
	}
	if signalsOn {
		stopSampler, err := observer.StartSamplerToPath(signalsEvery, signalsStream)
		if err != nil {
			return err
		}
		defer stopSampler()
	}
	cfg.Faults = faults
	cfg.Obs = observer

	structures := make(map[string]any, len(instances))
	for _, inst := range instances {
		idx := newIndexForKind(inst.Kind)
		for _, k := range workload.LoadKeys(records) {
			idx.Insert(k, k, nil)
		}
		structures[inst.Name] = idx
	}
	rt, err := core.Start(cfg, structures)
	if err != nil {
		return err
	}
	defer rt.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, len(instances))
	start := time.Now()
	for c, inst := range instances {
		wg.Add(1)
		go func(c int, inst config.Instance) {
			defer wg.Done()
			session, err := rt.NewSession(c%m.LogicalCPUs(), 14)
			if err != nil {
				errs <- err
				return
			}
			defer session.Close()
			gen, err := workload.NewGenerator(inst.Mix, records, uint64(c), int64(c)+1)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < ops; i++ {
				op := gen.Next()
				var err error
				if op.Type == workload.OpRead {
					// Reads are classified at submit time so the plan's
					// calibrated read policy takes effect (bypass
					// instances serve these locally when validation holds).
					_, err = session.SubmitRead(core.Task{Structure: inst.Name, Op: func(ds any) any {
						v, _ := ds.(index.Index).Get(op.Key, nil)
						return v
					}})
				} else {
					_, err = session.Invoke(core.Task{Structure: inst.Name, Op: func(ds any) any {
						tr := ds.(index.Index)
						if op.Type == workload.OpUpdate {
							return tr.Update(op.Key, op.Val, nil)
						}
						return tr.Insert(op.Key, op.Val, nil)
					}})
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(c, inst)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	rt.Stop() // final worker-shard flush before the report (defer is a no-op then)
	total := len(instances) * ops
	fmt.Printf("run: %d ops in %v → %.0f ops/s across %d instances\n",
		total, elapsed.Round(time.Millisecond), float64(total)/elapsed.Seconds(), len(instances))
	fmt.Print(observer.Report())
	return nil
}

func main() {
	name := flag.String("scenario", "oltp2", "scenario: oltp1, oltp2, htap")
	workers := flag.Int("workers", 192, "available worker threads")
	runOps := flag.Int("run", 0, "materialise the plan and drive this many ops per instance through the real runtime (0 = plan only)")
	records := flag.Uint64("records", 10_000, "pre-loaded records per instance when -run is set")
	obsAddr := flag.String("obs", "", "serve the observability endpoint on this address during -run (e.g. :6060)")
	obsTrace := flag.Int("obs-trace", 0, "commit every Nth sampled task span to the trace ring (0 = off)")
	signals := flag.Bool("signals", false, "run the continuous-signal sampler during -run (adds /signals + gauges, report block)")
	signalsEvery := flag.Duration("signals-every", obs.DefaultSamplerEvery, "sampler cadence (with -signals)")
	signalsStream := flag.String("signals-stream", "", "stream per-tick domain signals as NDJSON to this file (implies -signals)")
	flag.Parse()

	instances, err := scenario(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "robustconfig:", err)
		os.Exit(1)
	}
	plan, err := config.Compose(instances, *workers, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "robustconfig:", err)
		os.Exit(1)
	}
	fmt.Printf("scenario %s on %d workers → %s composition, %d domains, %d workers used\n",
		*name, *workers, plan.Kind, len(plan.Domains), plan.WorkersUsed())
	for i, d := range plan.Domains {
		tag := ""
		if d.Isolated {
			tag = " [isolated]"
		}
		fmt.Printf("  domain %2d: %3d workers%s ← %s\n", i, d.Size, tag, strings.Join(d.Instances, ", "))
	}
	fmt.Println("calibrated sizes:")
	for _, inst := range instances {
		fmt.Printf("  %-14s %d\n", inst.Name, plan.CalibratedSizes[inst.Name])
	}
	if *runOps > 0 {
		if err := runPlan(plan, instances, *runOps, *records, *obsAddr, *obsTrace,
			*signals || *signalsStream != "", *signalsEvery, *signalsStream); err != nil {
			fmt.Fprintln(os.Stderr, "robustconfig:", err)
			os.Exit(1)
		}
	}
}
