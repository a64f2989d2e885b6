package harness

import (
	"fmt"
	"strings"

	"robustconf/internal/index/kinds"
	"robustconf/internal/sim"
	"robustconf/internal/workload"
)

// Ablations quantifies the design choices DESIGN.md calls out, by switching
// individual mechanisms off in the cost model and re-running the FP-Tree
// read-update scenario at the largest system size. Each row reports the
// throughput with the mechanism on, off, and the resulting factor.
func Ablations() (string, error) {
	baseOpt, err := OptSize(kinds.FPTree, workload.A)
	if err != nil {
		return "", err
	}
	type ablation struct {
		name     string
		scenario sim.Scenario
		mutate   func(*sim.Params)
	}
	base := sim.Scenario{
		Kind: kinds.FPTree, Mix: workload.A,
		Strategy: sim.StratConfigured, Threads: 384, OptDomainSize: baseOpt,
	}
	rows := []ablation{
		{
			name:     "NUMA-aware slot assignment",
			scenario: base,
			mutate: func(p *sim.Params) {
				// Without locality-aware slots every delegated message
				// fully stalls the worker and crosses sockets both ways.
				p.MsgTransferDiscount = 1.0
				p.MsgBytes *= 2
			},
		},
		{
			name:     "response batching (sweep answers ≤15 clients)",
			scenario: base,
			mutate: func(p *sim.Params) {
				// One response line per task instead of one per sweep.
				p.MsgBytes += 64
				p.DelegActiveNs += 25
			},
		},
		{
			name:     "HTM retry budget (8 retries vs none)",
			scenario: base,
			mutate: func(p *sim.Params) {
				// No retries: every abort goes straight to the global
				// fallback lock.
				p.HTM.MaxRetries = 0
			},
		},
		{
			name:     "Zipfian hot-set caching",
			scenario: base,
			mutate: func(p *sim.Params) {
				p.HotDataFrac = 0
			},
		},
		{
			name:     "calibrated domains (24) vs whole-socket (48)",
			scenario: base,
			mutate:   nil, // handled via the scenario below
		},
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Ablations: FP-Tree, read-update, 384 threads, Opt. Configured\n")
	fmt.Fprintf(&b, "%-48s %10s %10s %8s\n", "mechanism", "on MOp/s", "off MOp/s", "factor")
	for _, a := range rows {
		on, err := sim.Run(a.scenario)
		if err != nil {
			return "", err
		}
		off := a.scenario
		if a.mutate != nil {
			p := sim.DefaultParams()
			a.mutate(&p)
			off.Params = &p
		} else {
			off.OptDomainSize = 48
		}
		offRes, err := sim.Run(off)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-48s %10.1f %10.1f %7.2fx\n",
			a.name, on.ThroughputMOps, offRes.ThroughputMOps,
			on.ThroughputMOps/offRes.ThroughputMOps)
	}
	return b.String(), nil
}
