package robustconf_test

import (
	"errors"
	"testing"

	"robustconf"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/index/kinds"
	"robustconf/internal/workload"
)

func TestPublicAPIQuickstart(t *testing.T) {
	machine := robustconf.Machine(1)
	cfg := robustconf.Config{
		Machine: machine,
		Domains: []robustconf.Domain{
			{Name: "hot", CPUs: robustconf.CPURange(0, 24)},
			{Name: "cold", CPUs: robustconf.CPURange(24, 48)},
		},
		Assignment: map[string]int{"orders": 0, "archive": 1},
	}
	rt, err := robustconf.Start(cfg, map[string]any{
		"orders":  btree.New(),
		"archive": hashmap.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	session, err := rt.NewSession(0, robustconf.PaperBurstSize)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()

	f, err := session.Submit(robustconf.Task{
		Structure: "orders",
		Op: func(ds any) any {
			tr := ds.(*btree.Tree)
			tr.Insert(1, 42, nil)
			v, _ := tr.Get(1, nil)
			return v
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Wait(); got != uint64(42) {
		t.Errorf("result = %v, want 42", got)
	}
}

func TestMachinePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Machine(0) should panic")
		}
	}()
	robustconf.Machine(0)
}

func TestCPUHelpers(t *testing.T) {
	s := robustconf.CPUs(5, 1, 3)
	if s.Len() != 3 || !s.Contains(3) {
		t.Errorf("CPUs: %v", s)
	}
	r := robustconf.CPURange(0, 4)
	if r.Len() != 4 {
		t.Errorf("CPURange: %v", r)
	}
}

func TestComposeAndMaterialise(t *testing.T) {
	instances := []robustconf.PlanInstance{
		{Name: "idx-a", Kind: kinds.FPTree, Mix: workload.A, Load: 1},
		{Name: "idx-b", Kind: kinds.FPTree, Mix: workload.A, Load: 1},
	}
	plan, err := robustconf.Compose(instances, 48)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WorkersUsed() > 48 {
		t.Errorf("plan uses %d workers of 48", plan.WorkersUsed())
	}
	cfg, err := robustconf.Materialise(plan, robustconf.Machine(1))
	if err != nil {
		t.Fatal(err)
	}
	// The materialised config must boot and execute.
	rt, err := robustconf.Start(cfg, map[string]any{
		"idx-a": btree.New(),
		"idx-b": btree.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	session, _ := rt.NewSession(0, 2)
	defer session.Close()
	res, err := session.Invoke(robustconf.Task{Structure: "idx-b", Op: func(ds any) any {
		return ds.(*btree.Tree).Insert(9, 9, nil)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res != true {
		t.Errorf("insert via composed config = %v", res)
	}
}

func TestPublicAPIMigrationAndPanicIsolation(t *testing.T) {
	machine := robustconf.Machine(1)
	cfg := robustconf.Config{
		Machine: machine,
		Domains: []robustconf.Domain{
			{Name: "a", CPUs: robustconf.CPURange(0, 8)},
			{Name: "b", CPUs: robustconf.CPURange(8, 16)},
		},
		Assignment: map[string]int{"x": 0},
	}
	rt, err := robustconf.Start(cfg, map[string]any{"x": btree.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 2)
	defer s.Close()

	// A panicking task is isolated into a PanicError on the error channel;
	// the domain survives.
	_, err = s.Invoke(robustconf.Task{Structure: "x", Op: func(any) any {
		panic("bad task")
	}})
	var pe robustconf.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Invoke error = %v, want PanicError", err)
	}
	if v, err := s.Invoke(robustconf.Task{Structure: "x", Op: func(any) any { return "ok" }}); err != nil || v != "ok" {
		t.Fatalf("domain dead after panic: %v, %v", v, err)
	}

	// Online migration through the facade.
	if err := rt.Migrate("x", 1); err != nil {
		t.Fatal(err)
	}
	if di, _ := rt.AssignmentOf("x"); di != 1 {
		t.Errorf("x in domain %d after migration", di)
	}
	if v, err := s.Invoke(robustconf.Task{Structure: "x", Op: func(any) any { return "moved" }}); err != nil || v != "moved" {
		t.Fatalf("post-migration invoke: %v, %v", v, err)
	}
}
