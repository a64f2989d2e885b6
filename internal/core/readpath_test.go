package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"robustconf/internal/delegation"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

// TestReadPolicyEquivalence is the read-path acceptance gate: the same
// seeded operation trace, replayed sequentially with every read delegated
// through Invoke and then with every read through SubmitRead (which
// bypasses on the Hash Map), must return identical values from every read
// and leave the structure in an identical final state — the bypass changes
// where reads execute, never what they or the writes they interleave with
// produce.
func TestReadPolicyEquivalence(t *testing.T) {
	const records = 2000
	const ops = 4000
	for _, mix := range []workload.Mix{workload.A, workload.D, workload.C} {
		gen, err := workload.NewGenerator(mix, records, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		trace := make([]workload.Op, ops)
		// YCSB keys are sparse 64-bit values; collect the exact key set the
		// run can touch (preload + trace) for the final-state dump.
		keySet := map[uint64]struct{}{}
		for _, k := range workload.LoadKeys(records) {
			keySet[k] = struct{}{}
		}
		for i := range trace {
			trace[i] = gen.Next()
			keySet[trace[i].Key] = struct{}{}
		}
		keys := make([]uint64, 0, len(keySet))
		for k := range keySet {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

		type outcome struct {
			reads []uint64
			state string
		}
		run := func(bypass bool) outcome {
			t.Helper()
			idx := hashmap.New()
			for _, k := range workload.LoadKeys(records) {
				idx.Insert(k, k, nil)
			}
			m, _ := topology.Restricted(1)
			rt, err := Start(Config{
				Machine:    m,
				Domains:    []DomainSpec{{Name: "d0", CPUs: topology.Range(0, 4)}},
				Assignment: map[string]int{"map": 0},
			}, map[string]any{"map": idx})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Stop()
			s, err := rt.NewSession(0, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var out outcome
			for _, op := range trace {
				op := op
				if op.Type == workload.OpRead {
					read := Task{Structure: "map", Op: func(ds any) any {
						v, _ := ds.(*hashmap.Map).Get(op.Key, nil)
						return v
					}}
					var v any
					var err error
					if bypass {
						v, err = s.SubmitRead(read)
					} else {
						v, err = s.Invoke(read)
					}
					if err != nil {
						t.Fatal(err)
					}
					out.reads = append(out.reads, v.(uint64))
				} else {
					_, err := s.Invoke(Task{Structure: "map", Op: func(ds any) any {
						if op.Type == workload.OpUpdate {
							return idx.Update(op.Key, op.Val, nil)
						}
						return idx.Insert(op.Key, op.Val, nil)
					}})
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			rt.Stop()
			// Serialize the final state: every key the run could have
			// touched, in ascending order.
			var b []byte
			for _, k := range keys {
				v, ok := idx.Get(k, nil)
				b = fmt.Appendf(b, "%d=%d,%v;", k, v, ok)
			}
			out.state = string(b)
			return out
		}

		base, got := run(false), run(true)
		if len(got.reads) != len(base.reads) {
			t.Fatalf("%s: %d reads under bypass vs %d under delegate", mix.Name, len(got.reads), len(base.reads))
		}
		for i := range got.reads {
			if got.reads[i] != base.reads[i] {
				t.Fatalf("%s: read %d returned %d under bypass, delegate returned %d",
					mix.Name, i, got.reads[i], base.reads[i])
			}
		}
		if got.state != base.state {
			t.Errorf("%s: final state under bypass diverged from delegate", mix.Name)
		}
	}
}

// TestSubmitReadZeroAlloc pins the bypass read hot path at zero allocations:
// route under the runtime lock, publication-word loads, the operation
// itself, and the re-validation — no closure wrapping, no future, no boxing
// (the pinned Op returns nil; value boxing is the caller's choice, not the
// path's).
func TestSubmitReadZeroAlloc(t *testing.T) {
	m, _ := topology.Restricted(1)
	rt, err := Start(Config{
		Machine:    m,
		Domains:    []DomainSpec{{Name: "d0", CPUs: topology.Range(0, 4)}},
		Assignment: map[string]int{"map": 0},
	}, map[string]any{"map": hashmap.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, err := rt.NewSession(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	task := Task{Structure: "map", Op: func(ds any) any {
		ds.(*hashmap.Map).Get(42, nil)
		return nil
	}}
	if _, err := s.SubmitRead(task); err != nil { // warm up lazy state
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := s.SubmitRead(task); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Session.SubmitRead (bypass hit) allocates %.1f objects/op, want 0", n)
	}
}

// TestSubmitReadBypassPanic pins SubmitRead's error contract against the
// path taken: a panicking read op must come back as the same typed
// delegation.PanicError on the bypass path as it does delegated, not escape
// into the caller's goroutine.
func TestSubmitReadBypassPanic(t *testing.T) {
	m, _ := topology.Restricted(1)
	rt, err := Start(Config{
		Machine:    m,
		Domains:    []DomainSpec{{Name: "d0", CPUs: topology.Range(0, 4)}},
		Assignment: map[string]int{"map": 0},
	}, map[string]any{"map": hashmap.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, err := rt.NewSession(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !rt.BypassReads("map") {
		t.Fatal("Hash Map reads do not bypass")
	}

	_, err = s.SubmitRead(Task{Structure: "map", Op: func(any) any {
		panic("boom")
	}})
	var pe delegation.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("bypass read panic: got %v, want delegation.PanicError", err)
	}
	if pe.Value != "boom" {
		t.Errorf("PanicError.Value = %v, want boom", pe.Value)
	}
}
