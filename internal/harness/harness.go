// Package harness reproduces every table and figure of the paper's
// evaluation (Section 7) on the simulated reference machine. Each Figure*
// function returns the same rows/series the paper plots; RunAll renders
// them as text for EXPERIMENTS.md and the robustbench tool.
//
// Methodology follows the paper: every measurement point is taken as the
// median of seven executions and checked against the CV ≤ 5% reliability
// criterion (the simulator is deterministic, so CV is 0, but the harness
// keeps the paper's procedure so a nondeterministic measure could be
// substituted).
package harness

import (
	"fmt"
	"sort"
	"strings"

	"robustconf/internal/config"
	"robustconf/internal/index/kinds"
	"robustconf/internal/metrics"
	"robustconf/internal/sim"
	"robustconf/internal/workload"
)

// Executions per measurement point (the paper uses seven).
const Executions = 7

// SystemSizes is the x-axis of the scaling figures: 1–8 sockets.
var SystemSizes = []int{48, 96, 144, 192, 240, 288, 336, 384}

// point measures one scenario Executions times and returns the median
// throughput, verifying the reliability criterion.
func point(s sim.Scenario) (sim.Result, float64, error) {
	var sample metrics.Sample
	var last sim.Result
	for i := 0; i < Executions; i++ {
		r, err := sim.Run(s)
		if err != nil {
			return sim.Result{}, 0, err
		}
		sample.Add(r.ThroughputMOps)
		last = r
	}
	if !metrics.Reliable(sample.Values) {
		return sim.Result{}, 0, fmt.Errorf("harness: unreliable measurement (CV %.3f > %.2f)", sample.CV(), metrics.ReliableCV)
	}
	return last, sample.Median(), nil
}

// OptimalSizes returns the calibrated Table 2 sizes, memoised.
var optimalSizes map[kinds.Kind]map[string]int

// OptSize returns the calibrated optimal domain size for (kind, mix).
func OptSize(kind kinds.Kind, mix workload.Mix) (int, error) {
	if optimalSizes == nil {
		t2, err := config.Table2(sim.ConfiguredThroughput)
		if err != nil {
			return 0, err
		}
		optimalSizes = t2
	}
	s, ok := optimalSizes[kind][mix.Name]
	if !ok || s == 0 {
		return 0, fmt.Errorf("harness: no calibrated size for %s/%s", kind.Name(), mix.Name)
	}
	return s, nil
}

// scenario builds a Scenario with the calibrated size for Opt. Configured.
func scenario(kind kinds.Kind, mix workload.Mix, strat sim.Strategy, threads int) (sim.Scenario, error) {
	s := sim.Scenario{Kind: kind, Mix: mix, Strategy: strat, Threads: threads}
	if strat == sim.StratConfigured {
		opt, err := OptSize(kind, mix)
		if err != nil {
			return sim.Scenario{}, err
		}
		s.OptDomainSize = opt
	}
	return s, nil
}

// Figure1 reproduces the teaser: FP-Tree throughput at 8 sockets under the
// three YCSB workloads for Opt. Configured vs SN-NUMA, SN-Thread and SE.
func Figure1() (*metrics.Figure, error) {
	fig := metrics.NewFigure("Figure 1: FP-Tree on 8 sockets, MOp/s", "workload", "MOp/s")
	for wi, mix := range []workload.Mix{workload.A, workload.D, workload.C} {
		for _, strat := range []sim.Strategy{sim.StratConfigured, sim.StratSNNUMA, sim.StratSNThread, sim.StratSE} {
			sc, err := scenario(kinds.FPTree, mix, strat, 384)
			if err != nil {
				return nil, err
			}
			_, thr, err := point(sc)
			if err != nil {
				return nil, err
			}
			fig.SeriesNamed(strat.Name()).Add(float64(wi), thr)
		}
	}
	return fig, nil
}

// Table2 reproduces the calibrated optimal domain sizes.
func Table2() (string, error) {
	t2, err := config.Table2(sim.ConfiguredThroughput)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Table 2: optimal virtual-domain sizes (no. of workers)\n")
	fmt.Fprintf(&b, "%-10s %12s %12s %12s\n", "Workload", "Read-Only", "Read-Update", "Read-Insert")
	order := []kinds.Kind{kinds.BTree, kinds.FPTree, kinds.BWTree, kinds.HashMap}
	for _, kind := range order {
		fmt.Fprintf(&b, "%-10s %12d %12d %12d\n", kind.Name(),
			t2[kind][workload.C.Name], t2[kind][workload.A.Name], t2[kind][workload.D.Name])
	}
	return b.String(), nil
}

// Figure6 reproduces the full cross of structures × workloads at 8 sockets
// for the five strategies.
func Figure6() (map[string]*metrics.Figure, error) {
	out := map[string]*metrics.Figure{}
	for _, mix := range []workload.Mix{workload.A, workload.D, workload.C} {
		fig := metrics.NewFigure(fmt.Sprintf("Figure 6 (%s): throughput at 8 sockets", mix.Name), "structure", "MOp/s")
		for ki, kind := range kinds.All {
			for _, strat := range sim.AllStrategies {
				sc, err := scenario(kind, mix, strat, 384)
				if err != nil {
					return nil, err
				}
				_, thr, err := point(sc)
				if err != nil {
					return nil, err
				}
				fig.SeriesNamed(strat.Name()).Add(float64(ki), thr)
			}
		}
		out[mix.Name] = fig
	}
	return out, nil
}

// scalingFigure sweeps system sizes for one workload across all structures.
func scalingFigure(title string, mix workload.Mix) (map[string]*metrics.Figure, error) {
	out := map[string]*metrics.Figure{}
	for _, kind := range kinds.All {
		fig := metrics.NewFigure(fmt.Sprintf("%s — %s", title, kind.Name()), "threads", "MOp/s")
		for _, strat := range sim.AllStrategies {
			for _, threads := range SystemSizes {
				sc, err := scenario(kind, mix, strat, threads)
				if err != nil {
					return nil, err
				}
				_, thr, err := point(sc)
				if err != nil {
					return nil, err
				}
				fig.SeriesNamed(strat.Name()).Add(float64(threads), thr)
			}
		}
		out[kind.Name()] = fig
	}
	return out, nil
}

// Figure7 reproduces read-update throughput across system sizes.
func Figure7() (map[string]*metrics.Figure, error) {
	return scalingFigure("Figure 7: read-update scaling", workload.A)
}

// Figure10 reproduces read-only throughput across system sizes.
func Figure10() (map[string]*metrics.Figure, error) {
	return scalingFigure("Figure 10: read-only scaling", workload.C)
}

// Figure8 reproduces the FP-Tree hardware metrics under read-update:
// HTM abort ratio (left) and L2 misses per op (right) across system sizes.
func Figure8() (abort, l2 *metrics.Figure, err error) {
	abort = metrics.NewFigure("Figure 8 (left): FP-Tree HTM abort ratio, read-update", "threads", "abort ratio")
	l2 = metrics.NewFigure("Figure 8 (right): FP-Tree L2 misses/op, read-update", "threads", "L2 misses/op")
	for _, strat := range sim.AllStrategies {
		for _, threads := range SystemSizes {
			sc, e := scenario(kinds.FPTree, workload.A, strat, threads)
			if e != nil {
				return nil, nil, e
			}
			r, _, e := point(sc)
			if e != nil {
				return nil, nil, e
			}
			abort.SeriesNamed(strat.Name()).Add(float64(threads), r.AbortRatio)
			l2.SeriesNamed(strat.Name()).Add(float64(threads), r.L2MissesPerOp)
		}
	}
	return abort, l2, nil
}

// Figure9 reproduces the BW-Tree interconnect communication volume (GB)
// under read-update across system sizes.
func Figure9() (*metrics.Figure, error) {
	fig := metrics.NewFigure("Figure 9: BW-Tree interconnect volume, read-update", "threads", "GB")
	for _, strat := range sim.AllStrategies {
		for _, threads := range SystemSizes {
			sc, err := scenario(kinds.BWTree, workload.A, strat, threads)
			if err != nil {
				return nil, err
			}
			r, _, err := point(sc)
			if err != nil {
				return nil, err
			}
			fig.SeriesNamed(strat.Name()).Add(float64(threads), r.InterconnectGB)
		}
	}
	return fig, nil
}

// Figure11 reproduces aggregate throughput for 16–1024 index instances
// (application size) under read-update for FP-Tree and Hash Map.
func Figure11() (map[string]*metrics.Figure, error) {
	counts := []int{16, 32, 64, 128, 256, 512, 1024}
	out := map[string]*metrics.Figure{}
	for _, kind := range []kinds.Kind{kinds.FPTree, kinds.HashMap} {
		fig := metrics.NewFigure(fmt.Sprintf("Figure 11: instance sweep — %s", kind.Name()), "indexes", "MOp/s")
		opt, err := OptSize(kind, workload.A)
		if err != nil {
			return nil, err
		}
		for _, strat := range sim.AllStrategies {
			for _, n := range counts {
				sc := sim.Scenario{Kind: kind, Mix: workload.A, Strategy: strat, Threads: 384, Instances: n}
				if strat == sim.StratConfigured {
					sc.OptDomainSize = opt
				}
				_, thr, err := point(sc)
				if err != nil {
					return nil, err
				}
				fig.SeriesNamed(strat.Name()).Add(float64(n), thr)
			}
		}
		out[kind.Name()] = fig
	}
	return out, nil
}

// Figure12Row is one stacked bar of Figure 12: the TMAM cost breakdown per
// operation for a structure/strategy/system-size combination.
type Figure12Row struct {
	Structure string
	Strategy  string
	Sockets   int
	TMAM      metrics.TMAM
}

// Figure12 reproduces the execution cost breakdown (cycles per op) at 2 vs
// 8 sockets under read-update.
func Figure12() ([]Figure12Row, error) {
	var rows []Figure12Row
	for _, kind := range kinds.All {
		for _, strat := range sim.AllStrategies {
			for _, sockets := range []int{2, 8} {
				sc, err := scenario(kind, workload.A, strat, sockets*48)
				if err != nil {
					return nil, err
				}
				r, _, err := point(sc)
				if err != nil {
					return nil, err
				}
				rows = append(rows, Figure12Row{
					Structure: kind.Name(),
					Strategy:  strat.Name(),
					Sockets:   sockets,
					TMAM:      r.TMAM,
				})
			}
		}
	}
	return rows, nil
}

// Figure13 reproduces the TPC-C experiment: throughput vs system size at 1%
// remote transactions (left) and vs remote fraction at 384 threads (right).
func Figure13() (left, right *metrics.Figure, err error) {
	left = metrics.NewFigure("Figure 13 (left): TPC-C NO+P, 8 warehouses, 1% remote", "threads", "Ktxn/s")
	right = metrics.NewFigure("Figure 13 (right): TPC-C at 384 threads", "% remote", "Ktxn/s")
	engines := []sim.EngineKind{sim.EngineDelegated, sim.EngineDirectSNNUMA}
	tpccKinds := []kinds.Kind{kinds.FPTree, kinds.BWTree}
	for _, eng := range engines {
		for _, kind := range tpccKinds {
			name := fmt.Sprintf("%s (%s)", eng.Name(), kind.Name())
			for _, threads := range SystemSizes {
				r, e := sim.RunTPCC(sim.TPCCScenario{Engine: eng, Kind: kind, Threads: threads, Warehouses: 8, RemoteFrac: 0.01})
				if e != nil {
					return nil, nil, e
				}
				left.SeriesNamed(name).Add(float64(threads), r.KTxnPerSec)
			}
			for _, rf := range []float64{0, 0.01, 0.15, 0.25, 0.50, 0.75} {
				r, e := sim.RunTPCC(sim.TPCCScenario{Engine: eng, Kind: kind, Threads: 384, Warehouses: 8, RemoteFrac: rf})
				if e != nil {
					return nil, nil, e
				}
				right.SeriesNamed(name).Add(rf*100, r.KTxnPerSec)
			}
		}
	}
	return left, right, nil
}

// RenderFigure12 formats the Figure 12 rows as text.
func RenderFigure12(rows []Figure12Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Figure 12: cost breakdown, K cycles/op (active | backend | frontend | speculation)\n")
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Structure != rows[j].Structure {
			return rows[i].Structure < rows[j].Structure
		}
		if rows[i].Strategy != rows[j].Strategy {
			return rows[i].Strategy < rows[j].Strategy
		}
		return rows[i].Sockets < rows[j].Sockets
	})
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-16s %d sockets: %8.2f | %8.2f | %8.2f | %8.2f  (total %8.2f)\n",
			r.Structure, r.Strategy, r.Sockets,
			r.TMAM.ActiveCycles/1000, r.TMAM.BackEndStalls/1000,
			r.TMAM.FrontEndStalls/1000, r.TMAM.SpeculationStls/1000, r.TMAM.Total()/1000)
	}
	return b.String()
}

// Experiment names accepted by Run.
var Experiments = []string{"fig1", "table2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "ablations", "read-policy"}

// Tables are the experiments that render a table, not a figure, so they
// have no CSV form (skew-shift runs through RunSkewShift).
var Tables = map[string]bool{"table2": true, "fig12": true, "ablations": true, "read-policy": true, "skew-shift": true}

// Run executes one named experiment and renders its result as text.
func Run(name string) (string, error) { return RunFormat(name, "text") }

// RunFormat executes one named experiment rendering either aligned "text"
// or machine-readable "csv" (figures only; tables and breakdowns always
// render as text).
func RunFormat(name, format string) (string, error) {
	if format != "text" && format != "csv" {
		return "", fmt.Errorf("harness: unknown format %q (text, csv)", format)
	}
	render := func(f *metrics.Figure) string {
		if format == "csv" {
			return "# " + f.Title + "\n" + f.CSV()
		}
		return f.Table()
	}
	switch name {
	case "fig1":
		f, err := Figure1()
		if err != nil {
			return "", err
		}
		return render(f) + "\n(x: 0=Read-Update 50/50, 1=Read-Insert 95/5, 2=Read-Only)\n", nil
	case "table2":
		return Table2()
	case "fig6":
		figs, err := Figure6()
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, mix := range []workload.Mix{workload.A, workload.D, workload.C} {
			b.WriteString(render(figs[mix.Name]))
			b.WriteString("(x: 0=FP-Tree, 1=BW-Tree, 2=Hash Map, 3=B-Tree)\n\n")
		}
		return b.String(), nil
	case "fig7", "fig10":
		var figs map[string]*metrics.Figure
		var err error
		if name == "fig7" {
			figs, err = Figure7()
		} else {
			figs, err = Figure10()
		}
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, kind := range []string{"FP-Tree", "BW-Tree", "Hash Map", "B-Tree"} {
			b.WriteString(render(figs[kind]))
			b.WriteString("\n")
		}
		return b.String(), nil
	case "fig8":
		abort, l2, err := Figure8()
		if err != nil {
			return "", err
		}
		return render(abort) + "\n" + render(l2), nil
	case "fig9":
		f, err := Figure9()
		if err != nil {
			return "", err
		}
		return render(f), nil
	case "fig11":
		figs, err := Figure11()
		if err != nil {
			return "", err
		}
		var b strings.Builder
		for _, kind := range []string{"FP-Tree", "Hash Map"} {
			b.WriteString(render(figs[kind]))
			b.WriteString("\n")
		}
		return b.String(), nil
	case "fig12":
		rows, err := Figure12()
		if err != nil {
			return "", err
		}
		return RenderFigure12(rows), nil
	case "fig13":
		left, right, err := Figure13()
		if err != nil {
			return "", err
		}
		return render(left) + "\n" + render(right), nil
	case "ablations":
		return Ablations()
	case "read-policy":
		return ReadPolicyAblation()
	default:
		return "", fmt.Errorf("harness: unknown experiment %q (have %s)", name, strings.Join(Experiments, ", "))
	}
}

// RunAll renders every experiment in order.
func RunAll() (string, error) {
	var b strings.Builder
	for _, name := range Experiments {
		out, err := Run(name)
		if err != nil {
			return "", fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(&b, "==================== %s ====================\n%s\n", name, out)
	}
	return b.String(), nil
}
