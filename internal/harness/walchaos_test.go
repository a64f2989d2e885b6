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
	"robustconf/internal/topology"
	"robustconf/internal/wal"
)

// walChaosScale shrinks the WAL suite under -short; like chaosScale it also
// returns the EveryNth divisor keeping crash rules firing in shrunk runs.
func walChaosScale(t *testing.T) (sessions, ops int, seeds []int64, div uint64) {
	if testing.Short() {
		return 4, 150, []int64{1}, 4
	}
	return 6, 400, []int64{1, 7}, 1
}

// TestChaosWALGoldenEquality is the durability acceptance gate (DESIGN.md
// §13): for every crash schedule — worker kills, kills inside the group
// commit, torn segment tails, and the mixed storm — a seeded run with
// injected crashes plus checkpoint/replay recovery must reach a final state
// byte-equal to the crash-free run of the same seed.
func TestChaosWALGoldenEquality(t *testing.T) {
	sessions, ops, seeds, div := walChaosScale(t)
	sawRecovery := false
	for _, sched := range WALChaosSchedules() {
		sched := sched.Scaled(div)
		for _, seed := range seeds {
			r, err := RunWALChaos(t.TempDir(), sched, seed, sessions, ops, wal.FsyncBatch)
			if err != nil {
				t.Fatalf("%s/seed %d: %v", sched.Name, seed, err)
			}
			t.Log(r)
			if !r.Equal() {
				t.Errorf("%s/seed %d: faulted state diverged from golden (hash %x, golden %x)",
					sched.Name, seed, r.Hash, r.Golden)
			}
			if r.Ops != sessions*ops {
				t.Errorf("%s/seed %d: only %d of %d ops committed", sched.Name, seed, r.Ops, sessions*ops)
			}
			if r.Recoveries > 0 {
				sawRecovery = true
			}
		}
	}
	if !sawRecovery {
		t.Error("no schedule triggered a recovery; the replay path was never exercised")
	}
}

// TestChaosWALRecoveryObserved pins that the kill-inside-commit schedule
// actually loses batches and heals them: retries happened (a client saw a
// commit fail), recovery ran, and committed records were replayed.
func TestChaosWALRecoveryObserved(t *testing.T) {
	sessions, ops, _, div := walChaosScale(t)
	sched := WALChaosSchedules()[1].Scaled(div) // wal-kill-commit
	for _, seed := range []int64{3, 5, 9} {
		r, err := RunWALChaos(t.TempDir(), sched, seed, sessions, ops, wal.FsyncBatch)
		if err != nil {
			t.Fatal(err)
		}
		t.Log(r)
		if !r.Equal() {
			t.Fatalf("seed %d: state diverged: %v", seed, r)
		}
		if r.Kills > 0 {
			if r.Recoveries == 0 {
				t.Fatalf("seed %d: %d commit kills fired but no recovery ran", seed, r.Kills)
			}
			if r.Retries == 0 {
				t.Fatalf("seed %d: commit kills fired but no client ever retried", seed)
			}
			return
		}
	}
	t.Skip("no commit kill fired on this machine's sweep rate; equality still held")
}

// TestChaosWALCrashDuringMigration composes the three robustness layers:
// crash recovery (WAL replay), online migration (epoch-validated bypass
// reads) and the fault injector. A Bw-Tree-backed durable structure is
// migrated back and forth between two WAL-enabled domains while writers
// update key pairs atomically (one two-key record per task), readers hammer
// the bypass path, and the injector kills workers in and out of group
// commits. A half-migrated or half-recovered structure serving a bypass
// read would show up as a torn pair; pair atomicity through checkpoint,
// replay and migration is the assertion.
func TestChaosWALCrashDuringMigration(t *testing.T) {
	const pairs = 1 << 9
	writes, readers := 4000, 3
	seeds := []int64{1, 7}
	if testing.Short() {
		writes, seeds = 1200, []int64{1}
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
		injector := faultinject.New(seed,
			faultinject.Rule{Kind: faultinject.WorkerKill, Worker: -1, EveryNth: 180},
			faultinject.Rule{Kind: faultinject.WALKillCommit, Worker: -1, EveryNth: 80},
			faultinject.Rule{Kind: faultinject.WALTornTail, Worker: -1, EveryNth: 90},
		)
		cfg := core.Config{
			Machine: m,
			Domains: []core.DomainSpec{
				{Name: "m0", CPUs: topology.Range(0, 2), RestartBudget: 1 << 20},
				{Name: "m1", CPUs: topology.Range(2, 4), RestartBudget: 1 << 20},
			},
			Assignment: map[string]int{"wtree": 0},
			FaultHook:  injector,
			Faults:     &metrics.FaultCounters{},
			WAL:        core.WALConfig{Dir: t.TempDir(), Fsync: wal.FsyncBatch, CheckpointEvery: 20 * time.Millisecond},
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

		migrations := 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			for to := 1; !done.Load(); to ^= 1 {
				if err := rt.Migrate("wtree", to); err != nil {
					t.Error(err)
					return
				}
				migrations++
				time.Sleep(500 * time.Microsecond)
			}
		}()

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
			// A failed pair write crashed before its group commit: recovery
			// wipes both halves together (the record is atomic), so no retry
			// is needed for the pair invariant.
		}
		done.Store(true)
		wg.Wait()
		_ = ws.Close()
		rt.Stop()

		if n := torn.Load(); n > 0 {
			t.Errorf("seed %d: %d torn pair reads observed (of %d reads)", seed, n, readsDone.Load())
		}
		// The final state must also hold the invariant structurally.
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
		if migrations == 0 {
			t.Errorf("seed %d: migration loop never ran", seed)
		}
		var recoveries, replayed uint64
		for _, d := range rt.Domains() {
			st := d.WALStats()
			recoveries += st.Recoveries
			replayed += st.Replayed
		}
		t.Logf("seed %d: writes=%d committed=%d reads=%d migrations=%d recoveries=%d replayed=%d injected=%v",
			seed, writes, committed, readsDone.Load(), migrations, recoveries, replayed, injector.Counts())
		if committed == 0 {
			t.Errorf("seed %d: no pair write ever committed", seed)
		}
	}
}
