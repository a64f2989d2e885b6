package harness

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"robustconf/internal/core"
	"robustconf/internal/index"
	"robustconf/internal/index/kinds"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

// policyReps is how many times ReadPolicyAblation times each cell: one
// timing of a cell swings 2x between runs on a shared host.
const policyReps = 5

// The read paths ReadPolicyAblation compares: the undelegated direct bound,
// every read delegated through Session.Invoke, and reads through
// Session.SubmitRead, which tries the validated local bypass first.
const (
	pathDirect = iota
	pathDelegate
	pathBypass
)

var pathNames = [...]string{"direct", "delegate", "bypass"}

// ReadPolicyAblation is the real-execution ablation of the read path
// (DESIGN.md §12): the same seeded YCSB streams run against each
// concurrent-reader-safe structure with reads delegated, bypassed, or
// applied directly without the runtime, from 1 and from 4 client sessions.
// Each row reports measured wall time per op on this host (all clients'
// ops over the run's wall time) as the median of policyReps runs, each
// from a fresh structure and runtime, with the runs' spread beside it; the
// last column shows what the bypass recovers of the delegation round trip.
func ReadPolicyAblation() (string, error) {
	const records = 50_000
	const ops = 40_000 // per client

	m, err := topology.Restricted(1)
	if err != nil {
		return "", err
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

	// run times one cell: clients goroutines each apply their own stream
	// of ops, drawn before the clock starts as robustconf ycsb draws it.
	run := func(kind kinds.Kind, mix workload.Mix, clients, path int) (time.Duration, error) {
		idx := kind.New()
		for _, k := range workload.LoadKeys(records) {
			idx.Insert(k, k, nil)
		}
		streams := make([][]workload.Op, clients)
		for c := range streams {
			gen, err := workload.NewGenerator(mix, records, uint64(c), int64(c)+1)
			if err != nil {
				return 0, err
			}
			streams[c] = make([]workload.Op, ops)
			for i := range streams[c] {
				streams[c][i] = gen.Next()
			}
		}
		sessions := make([]*core.Session, clients)
		if path != pathDirect {
			rt, err := core.Start(core.Config{
				Machine:    m,
				Domains:    []core.DomainSpec{{Name: "d0", CPUs: topology.Range(0, 4)}},
				Assignment: map[string]int{"ycsb": 0},
			}, map[string]any{"ycsb": idx})
			if err != nil {
				return 0, err
			}
			defer rt.Stop()
			for c := range sessions {
				if sessions[c], err = rt.NewSession(c, 14); err != nil {
					return 0, err
				}
				defer sessions[c].Close()
			}
		}
		errs := make(chan error, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := sessions[c]
				for _, op := range streams[c] {
					if path == pathDirect {
						apply(idx, op)
						continue
					}
					task := core.Task{Structure: "ycsb", Op: func(ds any) any { apply(ds.(index.Index), op); return nil }}
					var err error
					if path == pathBypass && op.Type == workload.OpRead {
						_, err = s.SubmitRead(task)
					} else {
						_, err = s.Invoke(task)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		return time.Since(start), <-errs
	}

	var b strings.Builder
	fmt.Fprintf(&b, "# Read-path ablation: %d records, %d ops per client, 4-worker domain, median of %d runs\n", records, ops, policyReps)
	fmt.Fprintf(&b, "%-10s %-6s %7s %-9s %8s %7s %10s %12s\n", "structure", "mix", "clients", "path", "ns/op", "spread", "ops/s", "vs delegate")
	for _, kind := range []kinds.Kind{kinds.HashMap, kinds.FPTree, kinds.BWTree} {
		for _, mix := range []struct {
			name string
			mix  workload.Mix
		}{{"C", workload.C}, {"D", workload.D}, {"A", workload.A}} {
			for _, clients := range []int{1, 4} {
				// The paths alternate run by run, so host drift hits all three.
				var runs [len(pathNames)][policyReps]float64
				for r := range policyReps {
					for p := range pathNames {
						dur, err := run(kind, mix.mix, clients, p)
						if err != nil {
							return "", fmt.Errorf("%s %s %d clients %s: %w", kind.Name(), mix.name, clients, pathNames[p], err)
						}
						runs[p][r] = float64(dur.Nanoseconds()) / float64(clients*ops)
					}
				}
				var ns, spread [len(pathNames)]float64 // median run, (max-min)/median
				for p := range pathNames {
					slices.Sort(runs[p][:])
					ns[p] = runs[p][policyReps/2]
					spread[p] = (runs[p][policyReps-1] - runs[p][0]) / ns[p]
				}
				for p, name := range pathNames {
					fmt.Fprintf(&b, "%-10s %-6s %7d %-9s %8.0f %6.0f%% %10.0f %11.2fx\n",
						kind.Name(), "ycsb-"+strings.ToLower(mix.name), clients, name, ns[p], 100*spread[p], 1e9/ns[p], ns[pathDelegate]/ns[p])
				}
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString("(ns/op is all clients' ops over the median run's wall time; spread is (max-min)/median over the runs; vs delegate > 1 means faster than delegating every read; direct is the no-runtime bound)\n")
	return b.String(), nil
}
