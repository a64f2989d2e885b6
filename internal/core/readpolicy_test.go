package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"robustconf/internal/delegation"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

func TestParseReadPolicy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want ReadPolicy
	}{{"delegate", ReadDelegate}, {"bypass", ReadBypass}} {
		got, err := ParseReadPolicy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseReadPolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if got.String() != c.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), c.in)
		}
	}
	for _, bad := range []string{"sometimes", "adaptive"} {
		if _, err := ParseReadPolicy(bad); err == nil {
			t.Errorf("ParseReadPolicy accepted %q", bad)
		}
	}
}

func TestConfigValidateReadPolicies(t *testing.T) {
	m, _ := topology.Restricted(1)
	cfg := Config{
		Machine:    m,
		Domains:    []DomainSpec{{Name: "a", CPUs: topology.Range(0, 4)}},
		Assignment: map[string]int{"x": 0},
	}
	cfg.ReadPolicies = map[string]ReadPolicy{"ghost": ReadBypass}
	if err := cfg.Validate(); err == nil {
		t.Error("read policy for unassigned structure accepted")
	}
	for _, bad := range []ReadPolicy{-1, 2, 9} {
		cfg.ReadPolicies = map[string]ReadPolicy{"x": bad}
		if err := cfg.Validate(); err == nil {
			t.Errorf("out-of-range read policy %d accepted", int(bad))
		}
	}
	for _, ok := range []ReadPolicy{ReadDelegate, ReadBypass} {
		cfg.ReadPolicies = map[string]ReadPolicy{"x": ok}
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid read policy %v rejected: %v", ok, err)
		}
	}
}

// TestEffectiveReadPolicyGating pins the safety gate: a structure that does
// not answer ConcurrentReadSafe() == true silently degrades to delegation no
// matter what the configuration asked for.
func TestEffectiveReadPolicyGating(t *testing.T) {
	m, _ := topology.Restricted(1)
	cfg := Config{
		Machine:    m,
		Domains:    []DomainSpec{{Name: "d0", CPUs: topology.Range(0, 4)}},
		Assignment: map[string]int{"tree": 0, "map": 0},
		ReadPolicies: map[string]ReadPolicy{
			"tree": ReadBypass, // B-Tree: in-place leaf stores, not read-safe
			"map":  ReadBypass, // Hash Map: bucket RW lock, read-safe
		},
	}
	rt, err := Start(cfg, map[string]any{"tree": btree.New(), "map": hashmap.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if got := rt.EffectiveReadPolicy("tree"); got != ReadDelegate {
		t.Errorf("unsafe structure: effective policy %v, want delegate", got)
	}
	if got := rt.EffectiveReadPolicy("map"); got != ReadBypass {
		t.Errorf("safe structure: effective policy %v, want bypass", got)
	}
	if got := rt.EffectiveReadPolicy("ghost"); got != ReadDelegate {
		t.Errorf("unknown structure: effective policy %v, want delegate", got)
	}
}

// TestReadPolicyEquivalence is the cross-policy acceptance gate: the same
// seeded operation trace, replayed sequentially under both read policies,
// must return identical values from every read and leave the structure in
// an identical final state — the policy axis changes where reads execute,
// never what they or the writes they interleave with produce.
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
		run := func(p ReadPolicy) outcome {
			t.Helper()
			idx := hashmap.New()
			for _, k := range workload.LoadKeys(records) {
				idx.Insert(k, k, nil)
			}
			m, _ := topology.Restricted(1)
			rt, err := Start(Config{
				Machine:      m,
				Domains:      []DomainSpec{{Name: "d0", CPUs: topology.Range(0, 4)}},
				Assignment:   map[string]int{"map": 0},
				ReadPolicies: map[string]ReadPolicy{"map": p},
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
					v, err := s.SubmitRead(Task{Structure: "map", Op: func(ds any) any {
						v, _ := ds.(*hashmap.Map).Get(op.Key, nil)
						return v
					}})
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

		base, got := run(ReadDelegate), run(ReadBypass)
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
		Machine:      m,
		Domains:      []DomainSpec{{Name: "d0", CPUs: topology.Range(0, 4)}},
		Assignment:   map[string]int{"map": 0},
		ReadPolicies: map[string]ReadPolicy{"map": ReadBypass},
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
// effective policy: a panicking read op must come back as the same typed
// delegation.PanicError on the bypass path as it does delegated, not escape
// into the caller's goroutine.
func TestSubmitReadBypassPanic(t *testing.T) {
	m, _ := topology.Restricted(1)
	rt, err := Start(Config{
		Machine:      m,
		Domains:      []DomainSpec{{Name: "d0", CPUs: topology.Range(0, 4)}},
		Assignment:   map[string]int{"map": 0},
		ReadPolicies: map[string]ReadPolicy{"map": ReadBypass},
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
	if got := rt.EffectiveReadPolicy("map"); got != ReadBypass {
		t.Fatalf("effective policy = %v, want bypass", got)
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
