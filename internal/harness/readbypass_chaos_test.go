package harness

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robustconf/internal/core"
	"robustconf/internal/delegation"
	"robustconf/internal/faultinject"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
	"robustconf/internal/topology"
)

// TestChaosReadBypassNoTornReads is the torn-read acceptance gate of the
// read-bypass protocol (DESIGN.md §12): bypass readers hammer a structure
// whose single-worker domain is being killed, stalled and delayed mid-write
// by the fault injector. Every write task updates a key pair (k and k+N) to
// the same generation inside one delegated task, so the pair is torn exactly
// while that task is mid-flight; a validated bypass read that overlapped it
// would observe unequal halves. The test asserts that no read — validated
// local or delegated fallback — ever returns a torn pair, and that every
// SubmitRead call resolves (the loop finishing is the resolution proof:
// fallbacks wait on their futures internally).
//
// Injected kills are crash-atomic with respect to the pair: WorkerKill
// panics before the sweep touches a slot and BeforeTask fires before the
// closure runs, so a torn pair can only come from a reader overlapping a
// live writer — precisely what publication-word validation must exclude.
func TestChaosReadBypassNoTornReads(t *testing.T) {
	const pairs = 1 << 10
	writes := 6000
	readers := 4
	seeds := []int64{1, 7}
	if testing.Short() {
		writes, seeds = 1500, []int64{1}
	}
	m, err := topology.Restricted(1)
	if err != nil {
		t.Fatal(err)
	}

	var totalHits, totalFallbacks, totalKills uint64
	for _, seed := range seeds {
		idx := hashmap.New()
		for k := uint64(0); k < pairs; k++ {
			idx.Insert(k, 0, nil)
			idx.Insert(k+pairs, 0, nil)
		}
		injector := faultinject.New(seed,
			faultinject.Rule{Kind: faultinject.WorkerKill, Worker: -1, EveryNth: 200},
			faultinject.Rule{Kind: faultinject.WorkerStall, Worker: -1, EveryNth: 100, Stall: 100 * time.Microsecond},
			faultinject.Rule{Kind: faultinject.SweepDelay, Worker: -1, Probability: 0.01, Stall: 100 * time.Microsecond},
		)
		observer := obs.New(obs.Options{})
		cfg := core.Config{
			Machine: m,
			// One worker: delegated tasks (writes and fallback reads)
			// serialize, so the only route to a torn observation is a local
			// read overlapping the worker mid-task.
			Domains:    []core.DomainSpec{{Name: "d0", CPUs: topology.Range(0, 1), RestartBudget: 1 << 20}},
			Assignment: map[string]int{"map": 0},
			FaultHook:  injector,
			Faults:     &metrics.FaultCounters{},
			Obs:        observer,
		}
		rt, err := core.Start(cfg, map[string]any{"map": idx})
		if err != nil {
			t.Fatal(err)
		}
		if !rt.BypassReads("map") {
			t.Fatalf("seed %d: hash map should arm bypass", seed)
		}

		var done atomic.Bool
		var torn atomic.Uint64
		var readsDone atomic.Uint64
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				s, err := rt.NewSession(r%m.LogicalCPUs(), 2)
				if err != nil {
					t.Error(err)
					return
				}
				defer s.Close()
				rng := rand.New(rand.NewSource(seed<<8 | int64(r)))
				for !done.Load() {
					k := uint64(rng.Intn(pairs))
					res, err := s.SubmitRead(core.Task{Structure: "map", Op: func(ds any) any {
						mp := ds.(*hashmap.Map)
						v1, _ := mp.Get(k, nil)
						v2, _ := mp.Get(k+pairs, nil)
						return [2]uint64{v1, v2}
					}})
					readsDone.Add(1)
					if err != nil {
						continue // typed failure under chaos; resolution is what counts
					}
					pair := res.([2]uint64)
					if pair[0] != pair[1] {
						torn.Add(1)
					}
				}
			}(r)
		}

		ws, err := rt.NewSession(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var futs []*delegation.Future
		for i := 0; i < writes; i++ {
			g := uint64(i + 1)
			k := uint64(rng.Intn(pairs))
			f, err := ws.Submit(core.Task{Structure: "map", Op: func(ds any) any {
				mp := ds.(*hashmap.Map)
				mp.Update(k, g, nil)
				mp.Update(k+pairs, g, nil)
				return g
			}})
			if err != nil {
				continue // acquisition error under chaos: no future to track
			}
			futs = append(futs, f)
		}
		hangs := 0
		for _, f := range futs {
			if _, err := f.WaitTimeout(10 * time.Second); errors.Is(err, delegation.ErrWaitTimeout) {
				hangs++
			}
		}
		done.Store(true)
		wg.Wait()
		_ = ws.Close()
		rt.Stop()

		if hangs > 0 {
			t.Errorf("seed %d: %d write futures hung", seed, hangs)
		}
		if n := torn.Load(); n > 0 {
			t.Errorf("seed %d: %d torn pair reads observed (of %d reads)", seed, n, readsDone.Load())
		}
		var hits, fallbacks uint64
		for _, d := range observer.Snapshot().Domains {
			hits += d.BypassHits
			fallbacks += d.BypassFallbacks
		}
		kills := injector.Triggered(faultinject.WorkerKill)
		t.Logf("seed %d: reads=%d bypass-hits=%d fallbacks=%d kills=%d stalls=%d",
			seed, readsDone.Load(), hits, fallbacks, kills,
			injector.Triggered(faultinject.WorkerStall))
		totalHits += hits
		totalFallbacks += fallbacks
		totalKills += kills
	}
	if totalHits == 0 {
		t.Error("no bypass read ever validated; the bypass path was not exercised")
	}
	if totalFallbacks == 0 {
		t.Error("no bypass read ever fell back; the fallback path was not exercised")
	}
	if totalKills == 0 {
		t.Log("no worker kill fired on this machine's sweep rate; torn-read window still exercised by stalls")
	}
}
