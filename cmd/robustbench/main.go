// Command robustbench reproduces the paper's evaluation figures and tables
// on the simulated reference machine.
//
// Usage:
//
//	robustbench                 # run every experiment
//	robustbench -exp fig7       # one experiment (fig1, table2, fig6..fig13, ablations, read-policy)
//	robustbench -exp fig7 -format csv   # machine-readable series for plotting
//	robustbench -exp chaos      # fault-injection schedules on the real runtime
//	robustbench -exp skew-shift # windowed health detection on the real runtime
//	robustbench -list           # list experiment names
//	robustbench -obs :6060      # live metrics/pprof endpoint during the run
//	robustbench -exp chaos -signals -signals-stream signals.ndjson
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"robustconf/internal/harness"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (default: all)")
	format := flag.String("format", "text", "output format: text or csv (figures only)")
	list := flag.Bool("list", false, "list experiment names")
	obsAddr := flag.String("obs", "", "serve the observability endpoint on this address during the run (e.g. :6060)")
	signals := flag.Bool("signals", false, "run the continuous-signal sampler during the run (adds /signals + gauges, report block)")
	signalsEvery := flag.Duration("signals-every", obs.DefaultSamplerEvery, "sampler cadence (with -signals)")
	signalsStream := flag.String("signals-stream", "", "stream per-tick domain signals as NDJSON to this file (implies -signals)")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(append(append([]string{}, harness.Experiments...), "chaos", "skew-shift"), "\n"))
		return
	}

	faults := &metrics.FaultCounters{}
	observer := obs.New(obs.Options{Faults: faults})
	if *obsAddr != "" {
		addr, stopSrv, err := observer.Serve(*obsAddr)
		if err != nil {
			fatal(err)
		}
		defer stopSrv()
		fmt.Printf("obs: serving http://%s/metrics (also /signals, /spans, /events, /debug/pprof/)\n", addr)
	}
	samplerOn := *signals || *signalsStream != ""
	if samplerOn {
		stopSampler, err := observer.StartSamplerToPath(*signalsEvery, *signalsStream)
		if err != nil {
			fatal(err)
		}
		defer stopSampler()
	}
	opts := harness.ChaosOptions{Observer: observer, Faults: faults}

	var out string
	var err error
	switch {
	case *exp == "":
		out, err = harness.RunAll()
	case *exp == "chaos":
		// On the real runtime rather than the simulator: every fault
		// schedule, with telemetry attached.
		out, err = harness.RunChaosAllOpts(1, 6, 300, opts)
	case *exp == "skew-shift":
		// Also on the real runtime: hammer one domain until the sampler
		// reports Degraded, shift the load away, watch it recover.
		var r harness.SkewShiftReport
		r, err = harness.RunSkewShift(harness.SkewShiftOptions{})
		out = r.String()
	default:
		out, err = harness.RunFormat(*exp, *format)
	}
	if err != nil {
		fmt.Fprint(os.Stdout, out)
		fatal(err)
	}
	fmt.Print(out)
	// Every report ends with the fault summary: zero counters assert the
	// run saw no runtime faults, non-zero ones (chaos) quantify them.
	if *exp == "chaos" || samplerOn {
		fmt.Print(observer.Report())
	} else {
		fmt.Printf("faults: %s\n", faults.Snapshot())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "robustbench:", err)
	os.Exit(1)
}
