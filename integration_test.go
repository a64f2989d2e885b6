package robustconf_test

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"robustconf"
	"robustconf/internal/config"
	"robustconf/internal/index"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/index/kinds"
	"robustconf/internal/oltp"
	"robustconf/internal/sim"
	"robustconf/internal/tpcc"
	"robustconf/internal/workload"
)

// TestIntegrationStress exercises the whole stack at once: four structures
// in four domains, concurrent client sessions running mixed YCSB streams,
// occasional panicking tasks, live migrations bouncing a structure between
// domains, and a final offline reconfiguration — all while verifying no
// operation result is lost and final structure contents are consistent.
func TestIntegrationStress(t *testing.T) {
	machine := robustconf.Machine(1)
	cfg := robustconf.Config{
		Machine: machine,
		Domains: []robustconf.Domain{
			{Name: "q0", CPUs: robustconf.CPURange(0, 12)},
			{Name: "q1", CPUs: robustconf.CPURange(12, 24)},
			{Name: "q2", CPUs: robustconf.CPURange(24, 36)},
			{Name: "q3", CPUs: robustconf.CPURange(36, 48)},
		},
		Assignment: map[string]int{
			"btree": 0, "fptree": 1, "bwtree": 2, "hashmap": 3,
		},
	}
	structures := map[string]any{
		"btree":   btree.New(),
		"fptree":  fptree.New(),
		"bwtree":  bwtree.New(),
		"hashmap": hashmap.New(),
	}
	rt, err := robustconf.Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	const records = 5000
	names := []string{"btree", "fptree", "bwtree", "hashmap"}
	// Load every structure through the runtime itself.
	boot, err := rt.NewSession(0, robustconf.PaperBurstSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		keys := workload.LoadKeys(records)
		_, err := boot.SubmitBulk(name, []func(ds any) any{func(ds any) any {
			idx := ds.(index.Index)
			for _, k := range keys {
				idx.Insert(k, k, nil)
			}
			return nil
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	boot.Close()

	const clients, opsPer = 6, 2000
	var completed atomic.Uint64
	var panicsSeen atomic.Uint64
	var wg, migrWG sync.WaitGroup
	stopMigrate := make(chan struct{})

	// Live migration in the background: bounce the hash map across domains.
	migrWG.Add(1)
	go func() {
		defer migrWG.Done()
		d := 0
		for {
			select {
			case <-stopMigrate:
				return
			default:
			}
			if err := rt.Migrate("hashmap", d%4); err != nil {
				t.Error(err)
				return
			}
			d++
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			gen, err := workload.NewGenerator(workload.A, records, uint64(c), int64(c))
			if err != nil {
				t.Error(err)
				return
			}
			session, err := rt.NewSession(c*8%48, 8)
			if err != nil {
				t.Error(err)
				return
			}
			defer session.Close()
			for i := 0; i < opsPer; i++ {
				name := names[rng.Intn(len(names))]
				if rng.Intn(500) == 0 {
					// Inject a faulty task; the domain must survive and the
					// panic must come back through the error channel.
					_, err := session.Invoke(robustconf.Task{Structure: name, Op: func(any) any {
						panic("injected failure")
					}})
					var pe robustconf.PanicError
					if !errors.As(err, &pe) {
						t.Errorf("injected panic returned %v, want PanicError", err)
						return
					}
					panicsSeen.Add(1)
					continue
				}
				op := gen.Next()
				res, err := session.Invoke(robustconf.Task{Structure: name, Op: func(ds any) any {
					idx := ds.(index.Index)
					switch op.Type {
					case workload.OpRead:
						v, ok := idx.Get(op.Key, nil)
						if !ok {
							return "missing"
						}
						return v
					default:
						return idx.Update(op.Key, op.Val, nil)
					}
				}})
				if err != nil {
					t.Error(err)
					return
				}
				if res == "missing" || res == false {
					t.Errorf("client %d op %d: loaded key %d vanished", c, i, op.Key)
					return
				}
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(stopMigrate)
	migrWG.Wait()

	if panicsSeen.Load() == 0 {
		t.Error("stress never exercised the panic path")
	}
	wantOps := uint64(clients*opsPer) - panicsSeen.Load()
	if completed.Load() != wantOps {
		t.Errorf("completed %d ops, want %d", completed.Load(), wantOps)
	}

	// Offline reconfiguration at the end: merge everything, verify reads.
	rt2, err := rt.Reconfigure(robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "all", CPUs: robustconf.CPURange(0, 48)}},
		Assignment: map[string]int{"btree": 0, "fptree": 0, "bwtree": 0, "hashmap": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Stop()
	s, _ := rt2.NewSession(0, 4)
	defer s.Close()
	for _, name := range names {
		res, err := s.Invoke(robustconf.Task{Structure: name, Op: func(ds any) any {
			return ds.(index.Index).Len()
		}})
		if err != nil {
			t.Fatal(err)
		}
		if res.(int) != records {
			t.Errorf("%s holds %v keys after stress, want %d", name, res, records)
		}
	}
}

// TestComposedTPCCEngine runs the paper's configuration process for the
// OLTP engine (Section 3.3: "configure tables into virtual domains with the
// procedure outlined in Section 5"): each warehouse is one composite
// instance whose tables and indexes are co-located, calibrated for its
// structure under the read-update mix TPC-C statements amount to, composed
// into domains, materialised, and then loaded and run.
func TestComposedTPCCEngine(t *testing.T) {
	cfg := tpcc.Config{Warehouses: 2, Customers: 100, Items: 500}
	instances := make([]config.Instance, cfg.Warehouses)
	for w := 1; w <= cfg.Warehouses; w++ {
		instances[w-1] = config.Instance{Name: oltp.WarehouseName(w), Kind: kinds.FPTree, Mix: workload.A, Load: 1}
	}
	m := robustconf.Machine(1)
	plan, err := config.Compose(instances, m.LogicalCPUs(), sim.ConfiguredThroughput)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := config.Materialise(plan, m)
	if err != nil {
		t.Fatal(err)
	}
	e, err := oltp.NewEngineWithConfig(cfg, func() index.Index { return fptree.New() }, rc)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	// Calibration sizes FP-Tree read-update at 24 workers; the socket's 48
	// CPUs hold two such domains, one per warehouse.
	if got := len(e.Runtime().Domains()); got != 2 {
		t.Errorf("composed engine has %d domains, want 2", got)
	}
	for _, d := range e.Runtime().Domains() {
		if d.Workers() != 24 {
			t.Errorf("domain %q has %d workers, want 24 (calibrated)", d.Spec().Name, d.Workers())
		}
	}
	loader, _ := tpcc.NewLoader(cfg, 1)
	store, err := e.NewStore(0, 14)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := loader.Load(store); err != nil {
		t.Fatal(err)
	}
	term, _ := tpcc.NewTerminal(cfg, store, 1, 0, 3)
	for i := 0; i < 100; i++ {
		if err := term.NextFullMix(); err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
	}
}
