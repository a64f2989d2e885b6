package harness

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"robustconf/internal/core"
	"robustconf/internal/index"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

// policyReps is how many times ReadPolicyAblation times each cell: one
// timing of a cell swings 2x between runs on a shared host.
const policyReps = 5

// ReadPolicyAblation is the real-execution ablation of the read-path policy
// axis (DESIGN.md §12): the same seeded YCSB streams run against a Hash Map
// under each Session.SubmitRead policy — always-delegate and validated local
// bypass — plus an undelegated direct baseline. Each row reports measured
// per-op latency on this host as the median of policyReps runs, each from a
// fresh structure and runtime, with the runs' spread beside it; the factor
// column shows what the bypass recovers of the delegation round-trip.
func ReadPolicyAblation() (string, error) {
	const records = 50_000
	const ops = 40_000
	const seed = int64(1)

	m, err := topology.Restricted(1)
	if err != nil {
		return "", err
	}
	preload := func() *hashmap.Map {
		idx := hashmap.New()
		for _, k := range workload.LoadKeys(records) {
			idx.Insert(k, k, nil)
		}
		return idx
	}
	apply := func(idx index.Index, op workload.Op) {
		switch op.Type {
		case workload.OpRead:
			idx.Get(op.Key, nil)
		case workload.OpUpdate:
			idx.Update(op.Key, op.Val, nil)
		default:
			idx.Insert(op.Key, op.Val, nil)
		}
	}

	runDirect := func(mix workload.Mix) (time.Duration, error) {
		idx := preload()
		gen, err := workload.NewGenerator(mix, records, 0, seed)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < ops; i++ {
			apply(idx, gen.Next())
		}
		return time.Since(start), nil
	}

	runPolicy := func(mix workload.Mix, p core.ReadPolicy) (time.Duration, error) {
		rt, err := core.Start(core.Config{
			Machine:      m,
			Domains:      []core.DomainSpec{{Name: "d0", CPUs: topology.Range(0, 4)}},
			Assignment:   map[string]int{"ycsb": 0},
			ReadPolicies: map[string]core.ReadPolicy{"ycsb": p},
		}, map[string]any{"ycsb": preload()})
		if err != nil {
			return 0, err
		}
		defer rt.Stop()
		session, err := rt.NewSession(0, 14)
		if err != nil {
			return 0, err
		}
		defer session.Close()
		gen, err := workload.NewGenerator(mix, records, 0, seed)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < ops; i++ {
			op := gen.Next()
			if op.Type == workload.OpRead {
				_, err = session.SubmitRead(core.Task{Structure: "ycsb", Op: func(ds any) any {
					v, _ := ds.(index.Index).Get(op.Key, nil)
					return v
				}})
			} else {
				_, err = session.Invoke(core.Task{Structure: "ycsb", Op: func(ds any) any {
					tr := ds.(index.Index)
					if op.Type == workload.OpUpdate {
						return tr.Update(op.Key, op.Val, nil)
					}
					return tr.Insert(op.Key, op.Val, nil)
				}})
			}
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Read-policy ablation: Hash Map, %d records, %d ops, one client, 4-worker domain, median of %d runs\n", records, ops, policyReps)
	fmt.Fprintf(&b, "%-28s %12s %8s %12s %12s\n", "mix / read path", "ns/op", "spread", "ops/s", "vs delegate")
	for _, mix := range []workload.Mix{workload.C, workload.D, workload.A} {
		cells := [3]struct {
			label      string
			run        func() (time.Duration, error)
			ns, spread float64 // median run, (max-min)/median
		}{
			{label: "direct", run: func() (time.Duration, error) { return runDirect(mix) }},
			{label: "delegate", run: func() (time.Duration, error) { return runPolicy(mix, core.ReadDelegate) }},
			{label: "bypass", run: func() (time.Duration, error) { return runPolicy(mix, core.ReadBypass) }},
		}
		for i := range cells {
			c := &cells[i]
			var runs [policyReps]float64
			for r := range runs {
				dur, err := c.run()
				if err != nil {
					return "", fmt.Errorf("%s %s: %w", mix.Name, c.label, err)
				}
				runs[r] = float64(dur.Nanoseconds()) / ops
			}
			slices.Sort(runs[:])
			c.ns = runs[policyReps/2]
			c.spread = (runs[policyReps-1] - runs[0]) / c.ns
		}
		for _, c := range cells {
			fmt.Fprintf(&b, "%-28s %12.0f %7.0f%% %12.0f %11.2fx\n",
				mix.Name+" "+c.label, c.ns, 100*c.spread, 1e9/c.ns, cells[1].ns/c.ns)
		}
		b.WriteByte('\n')
	}
	b.WriteString("(ns/op is the median run; spread is (max-min)/median over the runs; vs delegate > 1 means faster than always-delegating; direct is the no-runtime bound)\n")
	return b.String(), nil
}
