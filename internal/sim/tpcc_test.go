package sim

import (
	"testing"

	"robustconf/internal/index/kinds"
)

func tpcc(t *testing.T, engine EngineKind, kind kinds.Kind, threads int, remote float64) TPCCResult {
	t.Helper()
	r, err := RunTPCC(TPCCScenario{Engine: engine, Kind: kind, Threads: threads, Warehouses: 8, RemoteFrac: remote})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTPCCValidation(t *testing.T) {
	if _, err := RunTPCC(TPCCScenario{Engine: EngineDelegated, Kind: kinds.FPTree, Threads: 48, Warehouses: 0}); err == nil {
		t.Error("0 warehouses accepted")
	}
	if _, err := RunTPCC(TPCCScenario{Engine: EngineDelegated, Kind: kinds.FPTree, Threads: 48, Warehouses: 8, RemoteFrac: 1.5}); err == nil {
		t.Error("remote fraction > 1 accepted")
	}
	if _, err := RunTPCC(TPCCScenario{Engine: EngineDelegated, Kind: kinds.HashMap, Threads: 48, Warehouses: 8}); err == nil {
		t.Error("hash map TPC-C accepted (paper evaluates the two trees)")
	}
	if _, err := RunTPCC(TPCCScenario{Engine: EngineKind(9), Kind: kinds.FPTree, Threads: 48, Warehouses: 8}); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestTPCCOursScalesLinearly asserts Figure 13 (left): our engine with the
// FP-Tree scales TPC-C throughput linearly with system size.
func TestTPCCOursScalesLinearly(t *testing.T) {
	small := tpcc(t, EngineDelegated, kinds.FPTree, 48, 0.01)
	large := tpcc(t, EngineDelegated, kinds.FPTree, 384, 0.01)
	ratio := large.KTxnPerSec / small.KTxnPerSec
	if ratio < 6 || ratio > 9 {
		t.Errorf("ours+FP-Tree 48→384 scaling = %.1fx, want ≈8x (linear)", ratio)
	}
	// ≈1.1–1.2M txn/s at the largest size in the paper; same order here.
	if large.KTxnPerSec < 800 || large.KTxnPerSec > 2500 {
		t.Errorf("ours+FP-Tree at 384 = %.0f Ktxn/s, want ≈1.2M order", large.KTxnPerSec)
	}
}

// TestTPCCBaselineBrittleWithFPTree asserts Figure 13: the NUMA-aware
// direct-execution baseline with the FP-Tree is best at the smallest system
// size but collapses at larger sizes (with just 1% remote transactions).
func TestTPCCBaselineBrittleWithFPTree(t *testing.T) {
	base48 := tpcc(t, EngineDirectSNNUMA, kinds.FPTree, 48, 0.01)
	ours48 := tpcc(t, EngineDelegated, kinds.FPTree, 48, 0.01)
	if base48.KTxnPerSec <= ours48.KTxnPerSec {
		t.Errorf("baseline at 48 threads (%.0f) should beat ours (%.0f)", base48.KTxnPerSec, ours48.KTxnPerSec)
	}
	base384 := tpcc(t, EngineDirectSNNUMA, kinds.FPTree, 384, 0.01)
	ours384 := tpcc(t, EngineDelegated, kinds.FPTree, 384, 0.01)
	if base384.KTxnPerSec > 0.2*ours384.KTxnPerSec {
		t.Errorf("baseline at 384 (%.0f) should collapse far below ours (%.0f)", base384.KTxnPerSec, ours384.KTxnPerSec)
	}
	if base384.KTxnPerSec >= base48.KTxnPerSec {
		t.Error("baseline should degrade with system size")
	}
}

// TestTPCCRemoteSensitivity asserts Figure 13 (right): at 384 threads the
// baseline with FP-Tree drops from ≈1.5M txn/s at 0% remote to barely any
// throughput at 1%, while ours is insensitive to the remote fraction.
func TestTPCCRemoteSensitivity(t *testing.T) {
	base0 := tpcc(t, EngineDirectSNNUMA, kinds.FPTree, 384, 0)
	base1 := tpcc(t, EngineDirectSNNUMA, kinds.FPTree, 384, 0.01)
	if base1.KTxnPerSec > 0.1*base0.KTxnPerSec {
		t.Errorf("baseline 0%%→1%% remote: %.0f → %.0f, want >90%% collapse", base0.KTxnPerSec, base1.KTxnPerSec)
	}
	// At 0% remote the baseline (no delegation overhead) beats ours.
	ours0 := tpcc(t, EngineDelegated, kinds.FPTree, 384, 0)
	if base0.KTxnPerSec <= ours0.KTxnPerSec {
		t.Errorf("baseline at 0%% remote (%.0f) should edge out ours (%.0f)", base0.KTxnPerSec, ours0.KTxnPerSec)
	}
	// Ours is flat across the whole remote range (within 1%).
	for _, rf := range []float64{0, 0.15, 0.25, 0.5, 0.75} {
		r := tpcc(t, EngineDelegated, kinds.FPTree, 384, rf)
		if r.KTxnPerSec < 0.99*ours0.KTxnPerSec || r.KTxnPerSec > 1.01*ours0.KTxnPerSec {
			t.Errorf("ours at %.0f%% remote = %.0f, want flat ≈%.0f", rf*100, r.KTxnPerSec, ours0.KTxnPerSec)
		}
	}
}

// TestTPCCBWTreeRobustness asserts the BW-Tree side of Figure 13: the
// baseline is far more robust with the BW-Tree than with the FP-Tree, but
// degrades with remote transactions while ours stays flat and wins at high
// remote fractions.
func TestTPCCBWTreeRobustness(t *testing.T) {
	base1 := tpcc(t, EngineDirectSNNUMA, kinds.BWTree, 384, 0.01)
	base75 := tpcc(t, EngineDirectSNNUMA, kinds.BWTree, 384, 0.75)
	if base75.KTxnPerSec > 0.85*base1.KTxnPerSec {
		t.Errorf("baseline BW should degrade with remote: %.0f → %.0f", base1.KTxnPerSec, base75.KTxnPerSec)
	}
	if base75.KTxnPerSec < 0.4*base1.KTxnPerSec {
		t.Errorf("baseline BW should stay robust (no collapse): %.0f → %.0f", base1.KTxnPerSec, base75.KTxnPerSec)
	}
	ours75 := tpcc(t, EngineDelegated, kinds.BWTree, 384, 0.75)
	if ours75.KTxnPerSec <= base75.KTxnPerSec {
		t.Errorf("ours+BW at 75%% remote (%.0f) should beat the baseline (%.0f)", ours75.KTxnPerSec, base75.KTxnPerSec)
	}
	// FP-Tree baseline at 1% remote is far below BW-Tree baseline.
	baseFP := tpcc(t, EngineDirectSNNUMA, kinds.FPTree, 384, 0.01)
	if baseFP.KTxnPerSec > 0.2*base1.KTxnPerSec {
		t.Error("BW-Tree should make the baseline far more robust than FP-Tree")
	}
}

func TestTPCCAbortRatioSurfaceed(t *testing.T) {
	r := tpcc(t, EngineDirectSNNUMA, kinds.FPTree, 384, 0.01)
	if r.AbortRatio < 0.5 {
		t.Errorf("collapsed baseline abort ratio = %.2f, want high", r.AbortRatio)
	}
	rb := tpcc(t, EngineDirectSNNUMA, kinds.BWTree, 384, 0.01)
	if rb.AbortRatio != 0 {
		t.Error("BW-Tree has no HTM aborts")
	}
}

func TestTPCCDeterministic(t *testing.T) {
	a := tpcc(t, EngineDelegated, kinds.FPTree, 192, 0.25)
	b := tpcc(t, EngineDelegated, kinds.FPTree, 192, 0.25)
	if a != b {
		t.Error("TPC-C simulation not deterministic")
	}
}
