package harness

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"robustconf/internal/core"
	"robustconf/internal/faultinject"
	"robustconf/internal/index/kinds"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
	"robustconf/internal/topology"
	"robustconf/internal/wal"
)

// TestChaosWALArenaGoldenEquality is the durability gate for per-worker
// batch arenas (DESIGN.md §14): with Config.Arena enabled the WAL's record
// staging lives in arena memory that is recycled at every sweep-batch
// boundary, reset at every checkpoint and discarded on every crash
// recovery — and the crash-storm runs must still converge to a final state
// byte-equal to the crash-free run of the same seed. A divergence here
// means recycled arena bytes leaked into a durable record (reset too
// early) or a committed record was lost with its arena (discard too
// eagerly). The commit-kill and mixed-storm schedules are the sharp ones:
// they crash workers while staged records sit in arena memory, so recovery
// must discard that memory and rebuild purely from the on-disk log.
func TestChaosWALArenaGoldenEquality(t *testing.T) {
	sessions, ops, seeds, div := walChaosScale(t)
	schedules := WALChaosSchedules()
	storm := []ChaosSchedule{schedules[1], schedules[3]} // wal-kill-commit, wal-mixed
	sawRecovery := false
	for _, sched := range storm {
		sched := sched.Scaled(div)
		for _, seed := range seeds {
			r, err := RunWALChaosArena(t.TempDir(), sched, seed, sessions, ops, wal.FsyncBatch)
			if err != nil {
				t.Fatalf("%s/seed %d: %v", sched.Name, seed, err)
			}
			t.Logf("%v arena-resets=%d arena-discards=%d", r, r.ArenaResets, r.ArenaDiscards)
			if !r.Equal() {
				t.Errorf("%s/seed %d: arena-backed faulted state diverged from golden (hash %x, golden %x)",
					sched.Name, seed, r.Hash, r.Golden)
			}
			if r.Ops != sessions*ops {
				t.Errorf("%s/seed %d: only %d of %d ops committed", sched.Name, seed, r.Ops, sessions*ops)
			}
			if r.ArenaResets == 0 {
				t.Errorf("%s/seed %d: arenas enabled but never recycled; staging never drew from them", sched.Name, seed)
			}
			if r.Recoveries > 0 {
				sawRecovery = true
				if r.ArenaDiscards == 0 {
					t.Errorf("%s/seed %d: %d recoveries ran but no arena was discarded", sched.Name, seed, r.Recoveries)
				}
			}
		}
	}
	if !sawRecovery {
		t.Error("no schedule triggered a recovery; the arena discard-on-recovery path was never exercised")
	}
}

// TestChaosWALArenaResetVsBypassReads races every arena lifecycle edge —
// sweep-boundary recycling, checkpoint segment reset under the gate, crash
// discard-and-replay — against validated bypass reads on a Bw-Tree-backed
// durable structure. Arena memory only ever backs WAL staging, never the
// structure itself, so a bypass read must either validate against live
// (non-recycled) state or fail validation and fall back to delegation; it
// must never observe recycled bytes. The pair encoding makes a violation
// visible as a torn read, and the race detector (`go test -race`, run by
// make verify) pins the memory-ordering side: no reset may race a read
// that could still reach the recycled allocation.
func TestChaosWALArenaResetVsBypassReads(t *testing.T) {
	const pairs = 1 << 9
	writes, readers := 3000, 3
	seeds := []int64{1, 7}
	if testing.Short() {
		writes, seeds = 1000, []int64{1}
	}
	m, err := topology.Restricted(1)
	if err != nil {
		t.Fatal(err)
	}

	for _, seed := range seeds {
		tree := mustWALTree(t, kinds.BWTree)
		for k := uint64(0); k < pairs; k++ {
			tree.Set(k, 0)
			tree.Set(k+pairs, 0)
		}
		injector := &gatedInjector{Injector: faultinject.New(seed,
			faultinject.Rule{Kind: faultinject.WorkerKill, Worker: -1, EveryNth: 170},
			faultinject.Rule{Kind: faultinject.WALKillCommit, Worker: -1, EveryNth: 70},
			faultinject.Rule{Kind: faultinject.WALTornTail, Worker: -1, EveryNth: 90},
		)}
		observer := obs.New(obs.Options{})
		cfg := core.Config{
			Machine:    m,
			Domains:    []core.DomainSpec{{Name: "a0", CPUs: topology.Range(0, 2), RestartBudget: 1 << 20}},
			Assignment: map[string]int{"wtree": 0},
			FaultHook:  injector,
			Faults:     &metrics.FaultCounters{},
			Obs:        observer,
			// A short checkpoint cadence keeps the quiescence gate's write
			// side cycling against the lazily-held read side, so checkpoints
			// run adjacent to (and must stay ordered against) the owner's
			// sweep-boundary arena recycles.
			WAL:   core.WALConfig{Dir: t.TempDir(), Fsync: wal.FsyncBatch, CheckpointEvery: 20 * time.Millisecond},
			Arena: core.ArenaConfig{Enabled: true},
		}
		rt, err := core.Start(cfg, map[string]any{"wtree": tree})
		if err != nil {
			t.Fatal(err)
		}
		if !rt.BypassReads("wtree") {
			t.Fatalf("seed %d: Bw-Tree wrapper should arm bypass", seed)
		}

		var done atomic.Bool
		var torn, readsDone atomic.Uint64
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
					res, err := s.SubmitRead(core.Task{Structure: "wtree", Op: func(ds any) any {
						wt := ds.(*WALTree)
						v1, _ := wt.Get(k)
						v2, _ := wt.Get(k + pairs)
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

		// A worker crash disarms bypass on its buffer for good, and idle
		// sweeps alone reach the first injected kill within microseconds of
		// Start — on a two-core host often before a reader goroutine has run
		// at all. The faults therefore stay gated until one bypass read has
		// validated; the writer and the kills then race readers that are
		// known to be on the bypass path.
		for deadline := time.Now().Add(5 * time.Second); bypassHits(observer) == 0 && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
		injector.armed.Store(true)

		ws, err := rt.NewSession(0, 4)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		committed := 0
		for i := 0; i < writes; i++ {
			g := uint64(i + 1)
			k := uint64(rng.Intn(pairs))
			task := core.Task{
				Structure: "wtree",
				Op: func(ds any) any {
					wt := ds.(*WALTree)
					wt.Set(k, g)
					wt.Set(k+pairs, g)
					return g
				},
				Log: func(dst []byte) []byte { return AppendWALPair(dst, k, k+pairs, g) },
			}
			if _, err := ws.Invoke(task); err == nil {
				committed++
			}
			// A failed pair write crashed before its group commit; recovery
			// wipes both halves together, so the pair invariant holds
			// without a retry.
		}
		done.Store(true)
		wg.Wait()
		_ = ws.Close()
		rt.Stop()

		if n := torn.Load(); n > 0 {
			t.Errorf("seed %d: %d torn pair reads observed (of %d reads)", seed, n, readsDone.Load())
		}
		finalTorn := 0
		tree.Scan(func(k, v uint64) bool {
			if k < pairs {
				if v2, ok := tree.Get(k + pairs); !ok || v2 != v {
					finalTorn++
				}
			}
			return true
		})
		if finalTorn > 0 {
			t.Errorf("seed %d: %d pairs torn in the final recovered state", seed, finalTorn)
		}
		if committed == 0 {
			t.Errorf("seed %d: no pair write ever committed", seed)
		}

		var hits, fallbacks uint64
		var resets, discards int64
		for _, d := range observer.Snapshot().Domains {
			hits += d.BypassHits
			fallbacks += d.BypassFallbacks
			resets += d.ArenaResets
			discards += d.ArenaDiscards
		}
		t.Logf("seed %d: writes=%d committed=%d reads=%d bypass-hits=%d fallbacks=%d arena-resets=%d arena-discards=%d injected=%v",
			seed, writes, committed, readsDone.Load(), hits, fallbacks, resets, discards, injector.Counts())
		if hits == 0 {
			t.Errorf("seed %d: no bypass read ever validated; the racing path was not exercised", seed)
		}
		if resets == 0 {
			t.Errorf("seed %d: arenas enabled but never reset; staging never drew from them", seed)
		}
	}
}

// gatedInjector holds every worker-crashing fault back until armed.
type gatedInjector struct {
	*faultinject.Injector
	armed atomic.Bool
}

func (g *gatedInjector) BeforeSweep(worker int) {
	if g.armed.Load() {
		g.Injector.BeforeSweep(worker)
	}
}

func (g *gatedInjector) DecideWALFault(worker int) int {
	if !g.armed.Load() {
		return 0
	}
	return g.Injector.DecideWALFault(worker)
}

func bypassHits(o *obs.Observer) (hits uint64) {
	for _, d := range o.Snapshot().Domains {
		hits += d.BypassHits
	}
	return hits
}
