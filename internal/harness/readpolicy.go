package harness

import (
	"fmt"
	"strings"
	"time"

	"robustconf/internal/core"
	"robustconf/internal/index"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

// ReadPolicyAblation is the real-execution ablation of the read-path policy
// axis (DESIGN.md §12): the same seeded YCSB streams run against a Hash Map
// under each Session.SubmitRead policy — always-delegate and validated local
// bypass — plus an undelegated direct baseline. Each row reports measured
// per-op latency on this host; the factor column shows what the bypass
// recovers of the delegation round-trip.
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
	fmt.Fprintf(&b, "# Read-policy ablation: Hash Map, %d records, %d ops, one client, 4-worker domain\n", records, ops)
	fmt.Fprintf(&b, "%-24s %12s %12s %12s\n", "mix / read path", "ns/op", "ops/s", "vs delegate")
	for _, mix := range []workload.Mix{workload.C, workload.D, workload.A} {
		dDur, err := runDirect(mix)
		if err != nil {
			return "", fmt.Errorf("%s direct: %w", mix.Name, err)
		}
		delDur, err := runPolicy(mix, core.ReadDelegate)
		if err != nil {
			return "", fmt.Errorf("%s delegate: %w", mix.Name, err)
		}
		delNs := float64(delDur.Nanoseconds()) / ops
		row := func(label string, dur time.Duration) {
			ns := float64(dur.Nanoseconds()) / ops
			fmt.Fprintf(&b, "%-24s %12.0f %12.0f %11.2fx\n",
				mix.Name+" "+label, ns, float64(ops)/dur.Seconds(), delNs/ns)
		}
		byDur, err := runPolicy(mix, core.ReadBypass)
		if err != nil {
			return "", fmt.Errorf("%s bypass: %w", mix.Name, err)
		}
		row("direct", dDur)
		row("delegate", delDur)
		row("bypass", byDur)
		b.WriteByte('\n')
	}
	b.WriteString("(vs delegate > 1 means faster than always-delegating; direct is the no-runtime bound)\n")
	return b.String(), nil
}
