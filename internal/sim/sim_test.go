package sim

import (
	"testing"

	"robustconf/internal/index"
	"robustconf/internal/index/kinds"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

// run is a test helper with the defaults of the paper's setup.
func run(t *testing.T, kind kinds.Kind, mix workload.Mix, strat Strategy, threads, opt int) Result {
	t.Helper()
	r, err := Run(Scenario{Kind: kind, Mix: mix, Strategy: strat, Threads: threads, OptDomainSize: opt})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMeasureProducesPlausibleProfile(t *testing.T) {
	p, err := Measure(kinds.BTree, workload.A, 50000, 5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NodesPerOp < 2 || p.NodesPerOp > 20 {
		t.Errorf("NodesPerOp = %v", p.NodesPerOp)
	}
	if p.DepthPerOp < 1 {
		t.Errorf("DepthPerOp = %v", p.DepthPerOp)
	}
	if p.LinesPerOp < p.NodesPerOp {
		t.Errorf("LinesPerOp %v < NodesPerOp %v", p.LinesPerOp, p.NodesPerOp)
	}
	if _, err := Measure(kinds.BTree, workload.A, 0, 100, 1); err == nil {
		t.Error("zero records accepted")
	}
	if _, err := Measure(kinds.BTree, workload.A, 100, 0, 1); err == nil {
		t.Error("zero ops accepted")
	}
}

func TestProfileAtScale(t *testing.T) {
	p, _ := Measure(kinds.BTree, workload.A, 50000, 5000, 1)
	big := p.AtScale(300_000_000)
	if big.DepthPerOp <= p.DepthPerOp {
		t.Error("depth should grow with scale")
	}
	if big.Records != 300_000_000 {
		t.Errorf("Records = %d", big.Records)
	}
	// Hash map footprint is scale-free.
	h, _ := Measure(kinds.HashMap, workload.A, 50000, 5000, 1)
	hbig := h.AtScale(300_000_000)
	if hbig.NodesPerOp != h.NodesPerOp {
		t.Error("hash map profile should not scale with records")
	}
	same := p.AtScale(p.Records)
	if same != p {
		t.Error("AtScale to same size should be identity")
	}
}

func TestLayouts(t *testing.T) {
	l, err := NewLayout(StratSNNUMA, 384, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.Domains != 8 || l.DomainSize != 48 || l.SpanLevel != 0 {
		t.Errorf("SN-NUMA layout: %+v", l)
	}
	l, _ = NewLayout(StratSNThread, 384, 0)
	if l.Domains != 384 || l.DomainSize != 1 {
		t.Errorf("SN-Thread layout: %+v", l)
	}
	l, _ = NewLayout(StratSE, 384, 0)
	if l.Domains != 1 || l.DomainSize != 384 || l.SpanLevel != 3 {
		t.Errorf("SE layout: %+v", l)
	}
	l, _ = NewLayout(StratConfigured, 384, 24)
	if l.Domains != 16 || l.DomainSize != 24 || l.SpanLevel != 0 {
		t.Errorf("Configured-24 layout: %+v", l)
	}
	// Domain size larger than one socket spans NUMA levels.
	l, _ = NewLayout(StratConfigured, 384, 96)
	if l.SpanLevel == 0 {
		t.Error("96-thread domain should span sockets")
	}
	if _, err := NewLayout(StratConfigured, 384, 0); err == nil {
		t.Error("configured without size accepted")
	}
	if _, err := NewLayout(StratSE, 0, 0); err == nil {
		t.Error("0 threads accepted")
	}
	if _, err := NewLayout(StratSE, 500, 0); err == nil {
		t.Error("threads beyond machine accepted")
	}
}

func TestStrategyNamesAndDelegation(t *testing.T) {
	if StratSE.Delegated() || StratSENUMA.Delegated() {
		t.Error("shared everything must not delegate")
	}
	if !StratConfigured.Delegated() || !StratSNNUMA.Delegated() || !StratSNThread.Delegated() {
		t.Error("shared nothing strategies must delegate")
	}
	names := map[Strategy]string{
		StratSE: "SE", StratSENUMA: "SE-NUMA", StratSNNUMA: "SN-NUMA",
		StratSNThread: "SN-Thread", StratConfigured: "Opt. Configured",
	}
	for s, want := range names {
		if s.Name() != want {
			t.Errorf("Name(%d) = %q, want %q", s, s.Name(), want)
		}
	}
}

// --- Paper-shape assertions (the simulator's contract) -------------------

// TestFPTreeSECollapse asserts Figure 7's headline: shared everything with
// the FP-Tree collapses by over 90% between 1 and 2 sockets.
func TestFPTreeSECollapse(t *testing.T) {
	one := run(t, kinds.FPTree, workload.A, StratSE, 48, 0)
	two := run(t, kinds.FPTree, workload.A, StratSE, 96, 0)
	if two.ThroughputMOps > 0.2*one.ThroughputMOps {
		t.Errorf("SE 2-socket = %.1f, 1-socket = %.1f: expected >80%% collapse",
			two.ThroughputMOps, one.ThroughputMOps)
	}
}

// TestFPTreeOptWinsAtScale asserts the Figure 1/7 ratios at 384 threads:
// Opt ≫ SE, Opt > SN-NUMA, Opt > SN-Thread.
func TestFPTreeOptWinsAtScale(t *testing.T) {
	opt := run(t, kinds.FPTree, workload.A, StratConfigured, 384, 24)
	se := run(t, kinds.FPTree, workload.A, StratSE, 384, 0)
	snn := run(t, kinds.FPTree, workload.A, StratSNNUMA, 384, 0)
	snt := run(t, kinds.FPTree, workload.A, StratSNThread, 384, 0)
	if opt.ThroughputMOps < 50*se.ThroughputMOps {
		t.Errorf("Opt/SE = %.0fx, want ≥50x (paper: 560x)", opt.ThroughputMOps/se.ThroughputMOps)
	}
	if r := opt.ThroughputMOps / snn.ThroughputMOps; r < 1.2 || r > 2.5 {
		t.Errorf("Opt/SN-NUMA = %.2fx, want ≈1.8x", r)
	}
	if r := opt.ThroughputMOps / snt.ThroughputMOps; r < 1.1 || r > 2.0 {
		t.Errorf("Opt/SN-Thread = %.2fx, want ≈1.4x", r)
	}
}

// TestFPTreeAbortRatios asserts Figure 8 (left): shared everything and
// SN-NUMA suffer high HTM abort ratios, SN-Thread none, Opt low.
func TestFPTreeAbortRatios(t *testing.T) {
	se := run(t, kinds.FPTree, workload.A, StratSE, 384, 0)
	snn := run(t, kinds.FPTree, workload.A, StratSNNUMA, 384, 0)
	snt := run(t, kinds.FPTree, workload.A, StratSNThread, 384, 0)
	opt := run(t, kinds.FPTree, workload.A, StratConfigured, 384, 24)
	if se.AbortRatio < 0.6 {
		t.Errorf("SE abort ratio = %.2f, want ≥0.6", se.AbortRatio)
	}
	if snt.AbortRatio != 0 {
		t.Errorf("SN-Thread abort ratio = %.2f, want 0", snt.AbortRatio)
	}
	if opt.AbortRatio >= snn.AbortRatio {
		t.Errorf("Opt abort %.2f not below SN-NUMA %.2f", opt.AbortRatio, snn.AbortRatio)
	}
	if opt.AbortRatio > 0.4 {
		t.Errorf("Opt abort ratio = %.2f, want low", opt.AbortRatio)
	}
}

// TestFPTreeL2Misses asserts Figure 8 (right): SN-Thread pays clearly more
// L2 misses per op than the other settings (delegation/cache competition).
func TestFPTreeL2Misses(t *testing.T) {
	snt := run(t, kinds.FPTree, workload.A, StratSNThread, 384, 0)
	opt := run(t, kinds.FPTree, workload.A, StratConfigured, 384, 24)
	se := run(t, kinds.FPTree, workload.A, StratSE, 384, 0)
	if snt.L2MissesPerOp < 2*opt.L2MissesPerOp {
		t.Errorf("SN-Thread L2 = %.1f vs Opt %.1f: want ≥2x", snt.L2MissesPerOp, opt.L2MissesPerOp)
	}
	if snt.L2MissesPerOp < 2*se.L2MissesPerOp {
		t.Errorf("SN-Thread L2 = %.1f vs SE %.1f: want ≥2x", snt.L2MissesPerOp, se.L2MissesPerOp)
	}
}

// TestBWTreeSEScalesButOptWins asserts Figure 7's BW-Tree panel: COW makes
// shared everything scale, yet Opt is ~1.9x better at the largest size.
func TestBWTreeSEScalesButOptWins(t *testing.T) {
	se48 := run(t, kinds.BWTree, workload.A, StratSE, 48, 0)
	se384 := run(t, kinds.BWTree, workload.A, StratSE, 384, 0)
	if se384.ThroughputMOps < 1.5*se48.ThroughputMOps {
		t.Errorf("BW-Tree SE does not scale: %.1f → %.1f", se48.ThroughputMOps, se384.ThroughputMOps)
	}
	opt := run(t, kinds.BWTree, workload.A, StratConfigured, 384, 48)
	if r := opt.ThroughputMOps / se384.ThroughputMOps; r < 1.4 || r > 3.5 {
		t.Errorf("BW-Tree Opt/SE = %.2fx, want ≈1.9x", r)
	}
}

// TestBWTreeInterconnectVolume asserts Figure 9: the COW scheme pushes ~5x
// more data over the interconnects under SE than under Opt/SN-NUMA, with
// SN-Thread in between.
func TestBWTreeInterconnectVolume(t *testing.T) {
	se := run(t, kinds.BWTree, workload.A, StratSE, 384, 0)
	opt := run(t, kinds.BWTree, workload.A, StratConfigured, 384, 48)
	snt := run(t, kinds.BWTree, workload.A, StratSNThread, 384, 0)
	if r := se.InterconnectGB / opt.InterconnectGB; r < 3 || r > 12 {
		t.Errorf("SE/Opt interconnect = %.1fx, want ≈5x", r)
	}
	if snt.InterconnectGB <= opt.InterconnectGB {
		t.Errorf("SN-Thread volume %.0f ≤ Opt %.0f, want in between", snt.InterconnectGB, opt.InterconnectGB)
	}
	if snt.InterconnectGB >= se.InterconnectGB {
		t.Errorf("SN-Thread volume %.0f ≥ SE %.0f, want in between", snt.InterconnectGB, se.InterconnectGB)
	}
}

// TestHashMapShapes asserts Figure 7's Hash Map panel: SE collapses beyond
// one socket, SN-NUMA insufficiently controls contention, and thread-sized
// domains (Opt = SN-Thread) win.
func TestHashMapShapes(t *testing.T) {
	se48 := run(t, kinds.HashMap, workload.A, StratSE, 48, 0)
	se384 := run(t, kinds.HashMap, workload.A, StratSE, 384, 0)
	if se384.ThroughputMOps > 0.5*se48.ThroughputMOps {
		t.Errorf("Hash Map SE should collapse: %.1f → %.1f", se48.ThroughputMOps, se384.ThroughputMOps)
	}
	opt := run(t, kinds.HashMap, workload.A, StratConfigured, 384, 1)
	snt := run(t, kinds.HashMap, workload.A, StratSNThread, 384, 0)
	snn := run(t, kinds.HashMap, workload.A, StratSNNUMA, 384, 0)
	if opt.ThroughputMOps != snt.ThroughputMOps {
		t.Errorf("Opt (size 1) = %.1f ≠ SN-Thread %.1f", opt.ThroughputMOps, snt.ThroughputMOps)
	}
	if snn.ThroughputMOps >= opt.ThroughputMOps {
		t.Errorf("SN-NUMA %.1f should trail thread-sized %.1f", snn.ThroughputMOps, opt.ThroughputMOps)
	}
}

// TestBTreeOptMatchesSNNUMA asserts the B-Tree result: Opt performs as well
// as the NUMA-partitioned strategy (within a few percent).
func TestBTreeOptMatchesSNNUMA(t *testing.T) {
	opt := run(t, kinds.BTree, workload.A, StratConfigured, 384, 24)
	snn := run(t, kinds.BTree, workload.A, StratSNNUMA, 384, 0)
	r := opt.ThroughputMOps / snn.ThroughputMOps
	if r < 0.9 || r > 1.15 {
		t.Errorf("B-Tree Opt/SN-NUMA = %.2f, want ≈1.0", r)
	}
}

// TestReadOnlyShapes asserts Figure 10: Opt and SN-NUMA scale best for the
// trees (≈3x over SE for FP-Tree at 8 sockets), and the Hash Map again
// prefers thread-sized domains (2.3x over SE).
func TestReadOnlyShapes(t *testing.T) {
	opt := run(t, kinds.FPTree, workload.C, StratConfigured, 384, 48)
	snn := run(t, kinds.FPTree, workload.C, StratSNNUMA, 384, 0)
	se := run(t, kinds.FPTree, workload.C, StratSE, 384, 0)
	if r := opt.ThroughputMOps / se.ThroughputMOps; r < 1.5 || r > 5 {
		t.Errorf("FP-Tree R-O Opt/SE = %.2fx, want ≈3.2x", r)
	}
	if opt.ThroughputMOps != snn.ThroughputMOps {
		t.Errorf("FP-Tree R-O Opt (48) = %.1f ≠ SN-NUMA %.1f", opt.ThroughputMOps, snn.ThroughputMOps)
	}
	hOpt := run(t, kinds.HashMap, workload.C, StratConfigured, 384, 1)
	hSE := run(t, kinds.HashMap, workload.C, StratSE, 384, 0)
	if r := hOpt.ThroughputMOps / hSE.ThroughputMOps; r < 1.8 {
		t.Errorf("Hash Map R-O Opt/SE = %.2fx, want ≥2.3x-ish", r)
	}
	// No HTM aborts on read-only.
	if opt.AbortRatio != 0 || se.AbortRatio != 0 {
		t.Error("read-only workload must not abort")
	}
}

// TestInstanceSweepStability asserts Figure 11: the configured framework
// stays stable under growing application size while SN-Thread degrades
// beyond 256 instances and SE shows only a minor positive trend.
func TestInstanceSweepStability(t *testing.T) {
	at := func(strat Strategy, inst int) float64 {
		r, err := Run(Scenario{Kind: kinds.FPTree, Mix: workload.A, Strategy: strat,
			Threads: 384, OptDomainSize: 24, Instances: inst})
		if err != nil {
			t.Fatal(err)
		}
		return r.ThroughputMOps
	}
	opt16, opt1024 := at(StratConfigured, 16), at(StratConfigured, 1024)
	if opt1024 < 0.8*opt16 {
		t.Errorf("Opt degrades with instances: %.1f → %.1f", opt16, opt1024)
	}
	snt256, snt1024 := at(StratSNThread, 256), at(StratSNThread, 1024)
	if snt1024 > 0.9*snt256 {
		t.Errorf("SN-Thread should degrade beyond 256 instances: %.1f → %.1f", snt256, snt1024)
	}
	se16, se1024 := at(StratSE, 16), at(StratSE, 1024)
	if se1024 < se16 || se1024 > 2.5*se16 {
		t.Errorf("SE trend %.1f → %.1f, want minor positive (paper: 1.4x)", se16, se1024)
	}
	// Opt remains the best (or ties thread-sized) at every count.
	for _, inst := range []int{16, 64, 256, 1024} {
		opt := at(StratConfigured, inst)
		for _, s := range []Strategy{StratSE, StratSENUMA} {
			if other := at(s, inst); other > opt {
				t.Errorf("at %d instances %v (%.1f) beats Opt (%.1f)", inst, s, other, opt)
			}
		}
	}
}

// TestCostBreakdownShape asserts Figure 12: Opt has the highest active
// cycles (delegation instructions) among delegated/SE settings but the
// lowest total cost at the large system size for the FP-Tree.
func TestCostBreakdownShape(t *testing.T) {
	opt := run(t, kinds.FPTree, workload.A, StratConfigured, 384, 24)
	se := run(t, kinds.FPTree, workload.A, StratSE, 384, 0)
	snn := run(t, kinds.FPTree, workload.A, StratSNNUMA, 384, 0)
	if opt.TMAM.ActiveCycles <= se.TMAM.ActiveCycles {
		t.Error("delegation should add active cycles over SE")
	}
	if opt.TMAM.Total() >= se.TMAM.Total() {
		t.Error("Opt total cost should be below SE at 8 sockets")
	}
	if opt.TMAM.Total() >= snn.TMAM.Total() {
		t.Error("Opt total cost should be below SN-NUMA at 8 sockets")
	}
	// Costs grow from 2 to 8 sockets for SE (remote latencies, aborts).
	se2 := run(t, kinds.FPTree, workload.A, StratSE, 96, 0)
	if se.TMAM.Total() <= se2.TMAM.Total() {
		t.Error("SE cost should grow with system size")
	}
}

// TestSMTAccountedOnce checks the effective-thread model: the first socket's
// 48 threads yield fewer than 48 core-equivalents but more than 24.
func TestSMTAccountedOnce(t *testing.T) {
	eff := effectiveThreads(48, 0.45)
	if eff <= 24 || eff >= 48 {
		t.Errorf("effectiveThreads(48) = %v, want in (24,48)", eff)
	}
	if e2 := effectiveThreads(96, 0.45); e2 != 2*eff {
		t.Errorf("effectiveThreads not linear per socket: %v vs %v", e2, 2*eff)
	}
	if e := effectiveThreads(24, 0.45); e != 24 {
		t.Errorf("physical-only allocation should count fully, got %v", e)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Scenario{Kind: kinds.BTree, Mix: workload.A, Strategy: StratSE, Threads: 0}); err == nil {
		t.Error("0 threads accepted")
	}
	if _, err := Run(Scenario{Kind: kinds.BTree, Mix: workload.A, Strategy: StratConfigured, Threads: 48}); err == nil {
		t.Error("configured without OptDomainSize accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, kinds.FPTree, workload.A, StratConfigured, 384, 24)
	b := run(t, kinds.FPTree, workload.A, StratConfigured, 384, 24)
	if a.ThroughputMOps != b.ThroughputMOps || a.TMAM != b.TMAM {
		t.Error("simulation is not deterministic")
	}
}

func TestSchemeCoverage(t *testing.T) {
	// Every scheme branch of the cost model must be exercised and produce
	// positive finite costs.
	for _, k := range kinds.All {
		r := run(t, k, workload.A, StratConfigured, 96, 24)
		if r.Cost.TotalNs() <= 0 {
			t.Errorf("%s: non-positive cost", k.Name())
		}
		if r.ThroughputMOps <= 0 {
			t.Errorf("%s: non-positive throughput", k.Name())
		}
		if k.Scheme() == index.SchemeHTM && r.AbortRatio == 0 {
			t.Errorf("%s: expected some aborts at 24-thread domains", k.Name())
		}
	}
}

func TestAvgMemLatencyGeometry(t *testing.T) {
	m := topology.MC990X()
	// One socket: pure local latency.
	if got := avgMemLatency(m, 1); got != 114 {
		t.Errorf("avgMemLatency(1) = %v, want 114", got)
	}
	// Two sockets: average of local and one-hop, symmetric.
	want := (114 + 217) / 2.0
	if got := avgMemLatency(m, 2); got != want {
		t.Errorf("avgMemLatency(2) = %v, want %v", got, want)
	}
	// Monotone in socket count.
	prev := 0.0
	for n := 1; n <= 8; n++ {
		got := avgMemLatency(m, n)
		if got < prev {
			t.Errorf("avgMemLatency not monotone at %d sockets: %v < %v", n, got, prev)
		}
		prev = got
	}
	// Clamps out-of-range inputs.
	if avgMemLatency(m, 0) != 114 || avgMemLatency(m, 99) != avgMemLatency(m, 8) {
		t.Error("avgMemLatency clamp failed")
	}
}

func TestRemoteFraction(t *testing.T) {
	if remoteFraction(1) != 0 {
		t.Error("single socket has no remote data")
	}
	if got := remoteFraction(2); got != 0.5 {
		t.Errorf("remoteFraction(2) = %v", got)
	}
	if got := remoteFraction(8); got != 0.875 {
		t.Errorf("remoteFraction(8) = %v", got)
	}
}

func TestSpanSockets(t *testing.T) {
	for level, want := range map[int]int{0: 1, 1: 2, 2: 4, 3: 8} {
		if got := spanSockets(level); got != want {
			t.Errorf("spanSockets(%d) = %d, want %d", level, got, want)
		}
	}
}

func TestProfileForCached(t *testing.T) {
	a, err := ProfileFor(kinds.BTree, workload.C)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProfileFor(kinds.BTree, workload.C)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache returned a different profile")
	}
}
