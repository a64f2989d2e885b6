package config

import (
	"fmt"
	"strings"
	"testing"

	"robustconf/internal/core"
	"robustconf/internal/sim"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

// syntheticMeasure returns a curve peaking at `peak` and falling beyond.
func syntheticMeasure(peak int) MeasureFunc {
	return func(kind sim.StructureKind, mix workload.Mix, size int) (float64, error) {
		if size <= peak {
			return float64(size) / float64(peak) * 100, nil
		}
		return 100 / (float64(size) / float64(peak)), nil
	}
}

func TestCalibrateFindsPeak(t *testing.T) {
	cal, err := Calibrate(sim.KindBTree, workload.A, []int{1, 24, 48, 96}, syntheticMeasure(48))
	if err != nil {
		t.Fatal(err)
	}
	if cal.OptimalSize != 48 {
		t.Errorf("OptimalSize = %d, want 48", cal.OptimalSize)
	}
	if len(cal.Curve) < 3 {
		t.Errorf("curve has %d points", len(cal.Curve))
	}
}

func TestCalibratePrefersLargerWithinTolerance(t *testing.T) {
	// Flat within 2% between 24 and 48 → pick 48 (the ILP's preference).
	measure := func(kind sim.StructureKind, mix workload.Mix, size int) (float64, error) {
		switch size {
		case 24:
			return 100, nil
		case 48:
			return 99, nil // 1% dip: noise
		default:
			return 50, nil
		}
	}
	cal, err := Calibrate(sim.KindBTree, workload.A, []int{1, 24, 48, 96}, measure)
	if err != nil {
		t.Fatal(err)
	}
	if cal.OptimalSize != 48 {
		t.Errorf("OptimalSize = %d, want 48 (larger within tolerance)", cal.OptimalSize)
	}
}

func TestCalibrateStopsAtNegativeSlope(t *testing.T) {
	calls := 0
	measure := func(kind sim.StructureKind, mix workload.Mix, size int) (float64, error) {
		calls++
		if size == 1 {
			return 100, nil
		}
		return 10, nil // cliff after size 1 (the Hash Map pattern)
	}
	cal, err := Calibrate(sim.KindHashMap, workload.A, []int{1, 24, 48, 96, 192, 384}, measure)
	if err != nil {
		t.Fatal(err)
	}
	if cal.OptimalSize != 1 {
		t.Errorf("OptimalSize = %d, want 1", cal.OptimalSize)
	}
	if calls > 2 {
		t.Errorf("calibration kept sweeping after a clear cliff (%d calls)", calls)
	}
}

func TestCalibrateErrorPropagates(t *testing.T) {
	measure := func(sim.StructureKind, workload.Mix, int) (float64, error) {
		return 0, fmt.Errorf("boom")
	}
	if _, err := Calibrate(sim.KindBTree, workload.A, nil, measure); err == nil {
		t.Error("measure error swallowed")
	}
}

// TestTable2MatchesPaper is the E2 reproduction: the simulator-driven
// calibration must produce the paper's Table 2 exactly.
func TestTable2MatchesPaper(t *testing.T) {
	got, err := Table2(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[sim.StructureKind]map[string]int{
		sim.KindBTree:   {workload.C.Name: 48, workload.A.Name: 24, workload.D.Name: 24},
		sim.KindFPTree:  {workload.C.Name: 48, workload.A.Name: 24, workload.D.Name: 24},
		sim.KindBWTree:  {workload.C.Name: 48, workload.A.Name: 48, workload.D.Name: 48},
		sim.KindHashMap: {workload.C.Name: 1, workload.A.Name: 1, workload.D.Name: 1},
	}
	for kind, mixes := range want {
		for mix, size := range mixes {
			if got[kind][mix] != size {
				t.Errorf("Table 2 %s / %s = %d, want %d", kind.Name(), mix, got[kind][mix], size)
			}
		}
	}
}

func TestComposeHomogeneous(t *testing.T) {
	instances := []Instance{
		{Name: "a", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
		{Name: "b", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
	}
	plan, err := Compose(instances, 192, syntheticMeasure(24))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != "homogeneous" {
		t.Errorf("Kind = %q", plan.Kind)
	}
	// Two instances → at most two domains of the calibrated size 24.
	if len(plan.Domains) != 2 {
		t.Errorf("domains = %d, want 2", len(plan.Domains))
	}
	for _, d := range plan.Domains {
		if d.Size != 24 {
			t.Errorf("domain size = %d, want 24", d.Size)
		}
		if len(d.Instances) != 1 {
			t.Errorf("domain holds %d instances, want 1", len(d.Instances))
		}
	}
}

func TestComposeIsolated(t *testing.T) {
	instances := []Instance{
		{Name: "locktable", Kind: sim.KindHashMap, Mix: workload.A, Load: 1, Crucial: true},
		{Name: "idx1", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
		{Name: "idx2", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
	}
	measure := func(kind sim.StructureKind, mix workload.Mix, size int) (float64, error) {
		if kind == sim.KindHashMap {
			return syntheticMeasure(1)(kind, mix, size)
		}
		return syntheticMeasure(24)(kind, mix, size)
	}
	plan, err := Compose(instances, 96, measure)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != "isolated+homogeneous" {
		t.Errorf("Kind = %q", plan.Kind)
	}
	di, err := plan.DomainOf("locktable")
	if err != nil {
		t.Fatal(err)
	}
	d := plan.Domains[di]
	if !d.Isolated || d.Size != 1 || len(d.Instances) != 1 {
		t.Errorf("crucial instance domain: %+v", d)
	}
}

func TestComposeHeterogeneousUsesILP(t *testing.T) {
	// The paper's OLTP2-like scenario: two write-heavy (24) and three
	// read-heavy (48) instances on 192 workers → 2×24 + 3×48.
	measure := func(kind sim.StructureKind, mix workload.Mix, size int) (float64, error) {
		peak := 24
		if mix.Name == workload.C.Name {
			peak = 48
		}
		return syntheticMeasure(peak)(kind, mix, size)
	}
	instances := []Instance{
		{Name: "w1", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
		{Name: "w2", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
		{Name: "r1", Kind: sim.KindFPTree, Mix: workload.C, Load: 1},
		{Name: "r2", Kind: sim.KindFPTree, Mix: workload.C, Load: 1},
		{Name: "r3", Kind: sim.KindFPTree, Mix: workload.C, Load: 1},
	}
	plan, err := Compose(instances, 192, measure)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != "heterogeneous" {
		t.Errorf("Kind = %q", plan.Kind)
	}
	if plan.WorkersUsed() != 192 {
		t.Errorf("workers used = %d, want 192", plan.WorkersUsed())
	}
	c24, c48 := 0, 0
	for _, d := range plan.Domains {
		switch d.Size {
		case 24:
			c24++
		case 48:
			c48++
		default:
			t.Errorf("unexpected domain size %d", d.Size)
		}
	}
	if c24 != 2 || c48 != 3 {
		t.Errorf("domains = %d×24 + %d×48, want 2×24 + 3×48", c24, c48)
	}
	// Write-heavy instances must not land in 48-sized domains (Eq. 4).
	for _, n := range []string{"w1", "w2"} {
		di, _ := plan.DomainOf(n)
		if plan.Domains[di].Size != 24 {
			t.Errorf("%s in size-%d domain", n, plan.Domains[di].Size)
		}
	}
}

func TestComposeCoLocation(t *testing.T) {
	instances := []Instance{
		{Name: "table", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
		{Name: "index", Kind: sim.KindFPTree, Mix: workload.A, Load: 1, CoLocateWith: "table"},
		{Name: "other", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
	}
	plan, err := Compose(instances, 96, syntheticMeasure(24))
	if err != nil {
		t.Fatal(err)
	}
	dt, _ := plan.DomainOf("table")
	di, _ := plan.DomainOf("index")
	if dt != di {
		t.Errorf("co-located instances in different domains: %d vs %d", dt, di)
	}
}

func TestComposeValidation(t *testing.T) {
	if _, err := Compose(nil, 48, syntheticMeasure(24)); err == nil {
		t.Error("no instances accepted")
	}
	if _, err := Compose([]Instance{{Name: "a", Load: 1}}, 0, syntheticMeasure(24)); err == nil {
		t.Error("no workers accepted")
	}
	dup := []Instance{
		{Name: "a", Kind: sim.KindBTree, Mix: workload.A, Load: 1},
		{Name: "a", Kind: sim.KindBTree, Mix: workload.A, Load: 1},
	}
	if _, err := Compose(dup, 48, syntheticMeasure(24)); err == nil {
		t.Error("duplicate names accepted")
	}
	unnamed := []Instance{{Kind: sim.KindBTree, Mix: workload.A, Load: 1}}
	if _, err := Compose(unnamed, 48, syntheticMeasure(24)); err == nil {
		t.Error("unnamed instance accepted")
	}
}

func TestComposeManyInstancesGreedy(t *testing.T) {
	// Figure 11 scale: 64 instances on 384 workers, shared domains.
	var instances []Instance
	for i := 0; i < 64; i++ {
		instances = append(instances, Instance{
			Name: fmt.Sprintf("idx%d", i), Kind: sim.KindFPTree, Mix: workload.A, Load: 1,
		})
	}
	// Heterogeneous mix to force the greedy path: one read-only instance.
	instances[63].Mix = workload.C
	measure := func(kind sim.StructureKind, mix workload.Mix, size int) (float64, error) {
		peak := 24
		if mix.Name == workload.C.Name {
			peak = 48
		}
		return syntheticMeasure(peak)(kind, mix, size)
	}
	plan, err := Compose(instances, 384, measure)
	if err != nil {
		t.Fatal(err)
	}
	if plan.WorkersUsed() > 384 {
		t.Errorf("plan exceeds workers: %d", plan.WorkersUsed())
	}
	for _, inst := range instances {
		if _, err := plan.DomainOf(inst.Name); err != nil {
			t.Errorf("instance %s unplaced", inst.Name)
		}
	}
}

func TestMaterialise(t *testing.T) {
	instances := []Instance{
		{Name: "a", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
		{Name: "b", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
	}
	plan, err := Compose(instances, 48, syntheticMeasure(24))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := topology.Restricted(1)
	cfg, err := Materialise(plan, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Domains) != len(plan.Domains) {
		t.Errorf("domains = %d, want %d", len(cfg.Domains), len(plan.Domains))
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("materialised config invalid: %v", err)
	}
	// Domains must be disjoint and within the machine (Validate checks);
	// instance assignment must match the plan.
	for _, inst := range instances {
		pd, _ := plan.DomainOf(inst.Name)
		if cfg.Assignment[inst.Name] != pd {
			t.Errorf("assignment mismatch for %s", inst.Name)
		}
	}
}

func TestMaterialiseTooBig(t *testing.T) {
	plan := &Plan{Domains: []PlanDomain{{Size: 100, Instances: []string{"x"}}}}
	m, _ := topology.Restricted(1) // 48 CPUs
	if _, err := Materialise(plan, m); err == nil {
		t.Error("oversized plan accepted")
	}
}

func TestPlanString(t *testing.T) {
	instances := []Instance{
		{Name: "hot", Kind: sim.KindHashMap, Mix: workload.A, Load: 1, Crucial: true},
		{Name: "cold", Kind: sim.KindFPTree, Mix: workload.A, Load: 1},
	}
	measure := func(kind sim.StructureKind, mix workload.Mix, size int) (float64, error) {
		if kind == sim.KindHashMap {
			return syntheticMeasure(1)(kind, mix, size)
		}
		return syntheticMeasure(24)(kind, mix, size)
	}
	plan, err := Compose(instances, 48, measure)
	if err != nil {
		t.Fatal(err)
	}
	s := plan.String()
	for _, want := range []string{"isolated", "hot", "cold", "domain"} {
		if !strings.Contains(s, want) {
			t.Errorf("Plan.String missing %q:\n%s", want, s)
		}
	}
}

func TestRecommendReadPolicy(t *testing.T) {
	for _, c := range []struct {
		mix  workload.Mix
		want core.ReadPolicy
	}{{workload.C, core.ReadBypass}, {workload.D, core.ReadBypass}, {workload.A, core.ReadDelegate}} {
		if got := RecommendReadPolicy(c.mix); got != c.want {
			t.Errorf("RecommendReadPolicy(%s) = %v, want %v", c.mix.Name, got, c.want)
		}
	}
}
