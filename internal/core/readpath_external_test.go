package core_test

import (
	"testing"

	"robustconf/internal/core"
	"robustconf/internal/harness"
	"robustconf/internal/index"
	"robustconf/internal/index/kinds"
	"robustconf/internal/obs"
	"robustconf/internal/topology"
)

// TestSubmitReadBypassesIffConcurrentReadSafe pins the one read-path rule:
// with no configuration, a SubmitRead bypasses delegation if and only if
// the registered structure answers ConcurrentReadSafe() == true. It runs
// over every structure robustconf ycsb registers, bare and behind the
// write-ahead-log adapters, and checks both the predicate and the bypass
// hits the observer counted.
func TestSubmitReadBypassesIffConcurrentReadSafe(t *testing.T) {
	type getter interface {
		Get(k uint64) (uint64, bool)
	}
	type readCase struct {
		name string
		ds   any
		want bool
	}
	var cases []readCase
	for _, kind := range kinds.All {
		want := kind != kinds.BTree
		cases = append(cases, readCase{kind.Name(), kind.New(), want})
		if wt, err := harness.NewWALTree(kind); err == nil {
			cases = append(cases, readCase{"wal-" + kind.Flag(), wt, want})
		}
	}
	m, err := topology.Restricted(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if crs, ok := c.ds.(interface{ ConcurrentReadSafe() bool }); !ok || crs.ConcurrentReadSafe() != c.want {
				t.Fatalf("ConcurrentReadSafe marker is not %v", c.want)
			}
			observer := obs.New(obs.Options{})
			rt, err := core.Start(core.Config{
				Machine:    m,
				Domains:    []core.DomainSpec{{Name: "d0", CPUs: topology.Range(0, 2)}},
				Assignment: map[string]int{"s": 0},
				Obs:        observer,
			}, map[string]any{"s": c.ds})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Stop()
			if got := rt.BypassReads("s"); got != c.want {
				t.Errorf("BypassReads = %v, want %v", got, c.want)
			}
			s, err := rt.NewSession(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			const reads = 10
			for range reads {
				if _, err := s.SubmitRead(core.Task{Structure: "s", Op: func(ds any) any {
					if g, ok := ds.(getter); ok {
						v, _ := g.Get(7)
						return v
					}
					v, _ := ds.(index.Index).Get(7, nil)
					return v
				}}); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()
			var hits uint64
			for _, d := range observer.Snapshot().Domains {
				hits += d.BypassHits
			}
			if want := map[bool]uint64{true: reads, false: 0}[c.want]; hits != want {
				t.Errorf("%d bypass hits from %d idle reads, want %d", hits, reads, want)
			}
		})
	}
}
