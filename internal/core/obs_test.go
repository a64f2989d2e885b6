package core

import (
	"testing"
	"time"

	"robustconf/internal/delegation"
	"robustconf/internal/faultinject"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
)

// TestRuntimeObsWiring attaches an observer to a runtime and checks that the
// traffic a session drives shows up in the aggregated snapshot with domain
// attribution, and that lifecycle events cover start and stop.
func TestRuntimeObsWiring(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	o := obs.New(obs.Options{SampleEvery: 1})
	cfg.Obs = o
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	s, err := rt.NewSession(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	const perStructure = 200
	for i := 0; i < perStructure; i++ {
		for _, name := range []string{"tree", "map"} {
			if _, err := s.Invoke(Task{Structure: name, Op: func(ds any) any { return nil }}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rt.Stop()

	snap := o.Snapshot()
	if len(snap.Domains) != 2 {
		t.Fatalf("snapshot has %d domains, want 2", len(snap.Domains))
	}
	for _, d := range snap.Domains {
		if d.Name != "d0" && d.Name != "d1" {
			t.Errorf("unexpected domain %q", d.Name)
		}
		if d.Posts != perStructure || d.Tasks != perStructure {
			t.Errorf("domain %s: posts %d tasks %d, want %d/%d", d.Name, d.Posts, d.Tasks, perStructure, perStructure)
		}
		if d.RespNs.Count != perStructure {
			t.Errorf("domain %s: response samples %d, want %d", d.Name, d.RespNs.Count, perStructure)
		}
	}
	if snap.EventCounts[obs.EventWorkerStart] != 48 {
		t.Errorf("worker-start events = %d, want 48", snap.EventCounts[obs.EventWorkerStart])
	}
	if snap.EventCounts[obs.EventDomainStop] != 2 {
		t.Errorf("domain-stop events = %d, want 2", snap.EventCounts[obs.EventDomainStop])
	}
}

// TestInjectedFaultCountersIsolated is the regression test for per-runtime
// fault counters: a runtime given its own counter set must report crashes
// there and only there — a second counter set and the process-global
// metrics.Faults stay untouched.
func TestInjectedFaultCountersIsolated(t *testing.T) {
	globalBefore := metrics.Faults.Snapshot()

	mine := &metrics.FaultCounters{}
	other := &metrics.FaultCounters{}
	cfg, structures := twoDomainConfig(t)
	cfg.Faults = mine
	cfg.FaultHook = faultinject.New(1, faultinject.Rule{
		Kind: faultinject.WorkerKill, Worker: -1, EveryNth: 50,
	})
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Faults() != mine {
		t.Fatal("runtime not using the injected counters")
	}
	s, err := rt.NewSession(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		// Results may be PanicErrors from kills racing posted tasks; the
		// chaos invariants are covered elsewhere, this test only tracks
		// where the counters land.
		_, _ = s.Invoke(Task{Structure: "tree", Op: func(ds any) any { return nil }})
	}
	_ = s.Close()
	rt.Stop()

	got := mine.Snapshot()
	if got.WorkerPanics == 0 {
		t.Error("injected counters saw no worker panics despite WorkerKill every 50 sweeps")
	}
	if got.WorkerRestarts == 0 {
		t.Error("injected counters saw no respawns")
	}
	if o := other.Snapshot(); o != (metrics.FaultSnapshot{}) {
		t.Errorf("unrelated counter set contaminated: %+v", o)
	}
	if g := metrics.Faults.Snapshot(); g != globalBefore {
		t.Errorf("process-global counters moved: before %+v after %+v", globalBefore, g)
	}
}

// TestDefaultFaultsIsGlobal pins the default: without cfg.Faults the runtime
// reports to metrics.Faults, preserving pre-injection behaviour.
func TestDefaultFaultsIsGlobal(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	if rt.Faults() != metrics.Faults {
		t.Error("default fault counters are not the process-global set")
	}
}

// TestTypedGetsCountAsReads pins read accounting on the typed pipelined
// path: a pure-GET SubmitKV stream must read as write fraction 0 in the
// sampler's signals, exactly like the same GETs through InvokeKV.
func TestTypedGetsCountAsReads(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	o := obs.New(obs.Options{})
	cfg.Obs = o
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	smp := o.StartSampler(obs.SamplerOptions{Every: -1})
	defer smp.Stop()
	smp.TickNow() // baseline window

	s, _ := rt.NewSession(0, 14)
	var futs [14]*AsyncFuture
	for w := 0; w < 2000; w++ {
		for j := range futs {
			if futs[j], err = s.SubmitKV("map", delegation.KVGet, uint64(j), 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range futs {
			if _, _, err := f.WaitKV(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 200; i++ {
		if _, _, err := s.InvokeKV("map", delegation.KVGet, uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil { // flushes the client shard
		t.Fatal(err)
	}
	time.Sleep(time.Millisecond)
	smp.TickNow()

	var found bool
	for _, d := range o.Signals() {
		if d.Domain != "d1" {
			continue
		}
		found = true
		if d.PostRate.Value <= 0 {
			t.Fatalf("d1 post rate = %g, want > 0 (the window saw no traffic)", d.PostRate.Value)
		}
		if d.WriteFraction.Value != 0 {
			t.Errorf("write fraction of a pure typed-GET window = %g, want 0", d.WriteFraction.Value)
		}
	}
	if !found {
		t.Fatal("no signals for domain d1")
	}
}
