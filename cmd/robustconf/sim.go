package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"robustconf/internal/config"
	"robustconf/internal/harness"
	"robustconf/internal/index/kinds"
	"robustconf/internal/metrics"
	"robustconf/internal/sim"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

// cmdBench reproduces the paper's figures and tables on the simulated
// reference machine. skew-shift runs on the real runtime: it hammers one
// domain until the sampler reports Degraded, shifts the load away and
// watches it recover.
func cmdBench(o *opts, w io.Writer) error {
	if o.set["format"] && (o.exp == "" || harness.Tables[o.exp]) {
		return usageError{fmt.Errorf("-format is ignored without a figure -exp (tables and the full run render text)")}
	}
	var out string
	var err error
	switch {
	case o.list:
		out = strings.Join(harness.Experiments, "\n") + "\nskew-shift\n"
	case o.exp == "":
		out, err = harness.RunAll()
	case o.exp == "skew-shift":
		var r harness.SkewShiftReport
		r, err = harness.RunSkewShift(harness.SkewShiftOptions{})
		out = r.String()
	default:
		out, err = harness.RunFormat(o.exp, o.format)
	}
	fmt.Fprint(w, out)
	return err
}

// cmdCalib runs the calibration step of the configuration process (Section
// 5.2, step 1): the optimal domain size per structure and workload (Table
// 2), and with -curves the throughput curves the sizes were picked from.
func cmdCalib(o *opts, w io.Writer) error {
	table, err := harness.Table2()
	fmt.Fprint(w, table)
	if err != nil || !o.curves {
		return err
	}
	for _, kind := range kinds.All {
		fig := metrics.NewFigure("Calibration curves — "+kind.Name(), "domain size", "MOp/s")
		for _, mix := range []workload.Mix{workload.C, workload.A, workload.D} {
			cal, err := config.Calibrate(kind, mix, nil, sim.ConfiguredThroughput)
			if err != nil {
				return err
			}
			for _, p := range cal.Curve {
				fig.SeriesNamed(mix.Name).Add(p.X, p.Y)
			}
		}
		fmt.Fprint(w, "\n", fig.Table())
	}
	return nil
}

// cmdSim inspects the simulated reference machine (-topology), prints a
// strategies × system-sizes table (-sweep) or runs one simulation point: a
// debugging lens into the cost model behind bench.
func cmdSim(o *opts, w io.Writer) error {
	kind, mix, strat := o.structure, o.mix.val, o.strategy.val
	switch {
	case o.topology:
		m := topology.MC990X()
		fmt.Fprintf(w, "%s\nNUMA latencies (ns) by level:\n", m)
		for l := 0; l < m.NUMALevels(); l++ {
			fmt.Fprintf(w, "  level %d: %.0f\n", l, m.LatencyOfLevel(l))
		}
		fmt.Fprintln(w, "socket distance matrix:")
		for i := range m.Sockets {
			fmt.Fprint(w, "  ")
			for j := range m.Sockets {
				fmt.Fprintf(w, "%d ", m.Distance(i, j))
			}
			fmt.Fprintln(w)
		}
	case o.sweep:
		fig := metrics.NewFigure(fmt.Sprintf("%s / %s: MOp/s by strategy and system size (opt domain %d)",
			kind.Name(), mix.Name, o.domain), "threads", "MOp/s")
		for _, st := range sim.AllStrategies {
			for th := 48; th <= 384; th += 48 {
				r, err := sim.Run(sim.Scenario{Kind: kind, Mix: mix, Strategy: st, Threads: th, OptDomainSize: o.domain})
				if err != nil {
					return err
				}
				fig.SeriesNamed(st.Name()).Add(float64(th), r.ThroughputMOps)
			}
		}
		fmt.Fprint(w, fig.Table())
	default:
		r, err := sim.Run(sim.Scenario{
			Kind: kind, Mix: mix, Strategy: strat, Threads: o.threads, OptDomainSize: o.domain, Instances: o.instances,
		})
		if err != nil {
			return err
		}
		limited := ""
		if r.BandwidthLimited {
			limited = " (bandwidth limited)"
		}
		fmt.Fprintf(w, "%s / %s / %s at %d threads\n", kind.Name(), mix.Name, strat.Name(), o.threads)
		fmt.Fprintf(w, "  layout:        %d domains × %d workers (span level %d), %d instances\n",
			r.Layout.Domains, r.Layout.DomainSize, r.Layout.SpanLevel, r.Instances)
		fmt.Fprintf(w, "  throughput:    %.1f MOp/s%s\n", r.ThroughputMOps, limited)
		fmt.Fprintf(w, "  per-op cost:   %.0f ns (%s)\n", r.Cost.TotalNs(), r.TMAM.String())
		fmt.Fprintf(w, "  L2 misses/op:  %.1f\n", r.L2MissesPerOp)
		fmt.Fprintf(w, "  abort ratio:   %.2f (fallback %.4f)\n", r.AbortRatio, r.Cost.FallbackProb)
		fmt.Fprintf(w, "  interconnect:  %.0f GB for the full run (%.0f B/op)\n", r.InterconnectGB, r.Cost.CrossBytes)
	}
	return nil
}

func scheduleNames() string {
	var names []string
	for _, s := range harness.ChaosSchedules() {
		names = append(names, s.Name)
	}
	return strings.Join(names, ", ")
}

// cmdChaos drives the real runtime (not the simulator) under seeded fault
// schedules, with one observer attached to every run, and fails unless
// every submitted future resolved.
func cmdChaos(o *opts, w io.Writer) error {
	var stop <-chan os.Signal
	if o.hold {
		stop = stopSignal()
	}
	ob, faults, stopObs, err := o.startObserver(w)
	if err != nil {
		return err
	}
	defer stopObs()
	opts := harness.ChaosOptions{Observer: ob, Faults: faults}
	if o.schedule == "all" {
		out, err := harness.RunChaosAllOpts(o.seed, o.clients, o.ops, opts)
		fmt.Fprint(w, out)
		if err != nil {
			return err
		}
	} else {
		sched, err := harness.ChaosScheduleNamed(o.schedule)
		if err != nil {
			return usageError{err}
		}
		r, err := harness.RunChaosOpts(sched, o.seed, o.clients, o.ops, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, r)
		if !r.Complete() {
			return fmt.Errorf("chaos %s: %d futures hung", o.schedule, r.Hangs)
		}
	}
	fmt.Fprint(w, "chaos: complete, no hung futures\n", ob.Report())
	if o.hold {
		fmt.Fprintln(w, "obs: holding the endpoint open until SIGINT or SIGTERM")
		<-stop
	}
	return nil
}
