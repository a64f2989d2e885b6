package sim

import (
	"fmt"

	"robustconf/internal/index/kinds"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

// EngineKind selects one of the two OLTP engines of Experiment 3
// (Figure 13): the paper's light-weight engine running statements as
// delegated tasks on the runtime, or the NUMA-aware shared-nothing baseline
// in the style of Porobic et al., whose transaction managers execute
// operations directly on the partitions.
type EngineKind int

const (
	// EngineDelegated is "Our OLTP Engine".
	EngineDelegated EngineKind = iota
	// EngineDirectSNNUMA is the "SN-NUMA OLTP Engine" baseline.
	EngineDirectSNNUMA
)

// Name returns the figure label.
func (e EngineKind) Name() string {
	switch e {
	case EngineDelegated:
		return "Our OLTP Engine"
	case EngineDirectSNNUMA:
		return "SN-NUMA OLTP Engine"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(e))
	}
}

// TPCCParams holds the OLTP-layer constants on top of the per-op cost model.
type TPCCParams struct {
	// OpsPerTxn is the average number of index operations per transaction
	// for the New-Order/Payment mix (New-Order touches warehouse,
	// district, customer, item/stock per line and inserts order rows;
	// Payment is short). Both engines map each to one statement/task.
	OpsPerTxn float64
	// StmtOverheadNs is the per-statement engine cost shared by both
	// engines: key encoding, record buffers, transaction bookkeeping.
	StmtOverheadNs float64
	// DelegRoundTripNs is the extra latency our engine pays per statement:
	// the naive statement→task mapping (Section 3.3) makes the manager
	// await each task's future before issuing the next.
	DelegRoundTripNs float64
	// RemoteWindowFactor amplifies a remote transaction's HTM conflict
	// window beyond the pure NUMA-level factor: its memory accesses are
	// several times slower, so the transaction stays open far longer, and
	// every retry re-opens the window (the cascade that kills the
	// baseline at even 1% remote transactions).
	RemoteWindowFactor float64
	// HotRowNsPerSharer models the TPC-C hot-row ping the direct engine
	// pays and delegation avoids: every New-Order updates its district's
	// D_NEXT_O_ID row, so with direct execution that cache line bounces
	// between all managers sharing the partition. Delegated execution
	// keeps each hot row in its owning worker's cache.
	HotRowNsPerSharer float64
	// StmtMix is the read/update/insert profile of TPC-C statements.
	StmtMix workload.Mix
}

// DefaultTPCCParams returns the calibrated OLTP constants.
func DefaultTPCCParams() TPCCParams {
	return TPCCParams{
		OpsPerTxn:          48,
		StmtOverheadNs:     2000,
		DelegRoundTripNs:   700,
		RemoteWindowFactor: 40,
		HotRowNsPerSharer:  16.7,
		StmtMix:            workload.Mix{Name: "TPC-C NO+P", Read: 0.65, Update: 0.20, Insert: 0.15},
	}
}

// TPCCScenario is one point of Figure 13.
type TPCCScenario struct {
	Machine *topology.Machine // nil → MC990X
	Engine  EngineKind
	// Kind is the index structure backing tables and indexes (the paper
	// evaluates FP-Tree and BW-Tree).
	Kind kinds.Kind
	// Threads is the system size (48 … 384).
	Threads int
	// Warehouses is the TPC-C scale (8 in the paper — one per NUMA region).
	Warehouses int
	// RemoteFrac is the fraction of transactions touching a remote
	// warehouse (0 … 0.75 in the paper).
	RemoteFrac float64
	// Params / TPCC override the cost models.
	Params *Params
	TPCC   *TPCCParams
}

// TPCCResult is the simulated outcome.
type TPCCResult struct {
	KTxnPerSec float64
	// AbortRatio is the HTM abort ratio on the table indexes (FP-Tree).
	AbortRatio float64
	// PerTxnNs is the modelled per-transaction cost on one manager thread.
	PerTxnNs float64
}

// RunTPCC simulates one Figure 13 point.
func RunTPCC(s TPCCScenario) (TPCCResult, error) {
	m := s.Machine
	if m == nil {
		m = topology.MC990X()
	}
	if s.Warehouses < 1 {
		return TPCCResult{}, fmt.Errorf("sim: need at least one warehouse")
	}
	if s.RemoteFrac < 0 || s.RemoteFrac > 1 {
		return TPCCResult{}, fmt.Errorf("sim: remote fraction %v out of [0,1]", s.RemoteFrac)
	}
	if s.Kind != kinds.FPTree && s.Kind != kinds.BWTree {
		return TPCCResult{}, fmt.Errorf("sim: TPC-C evaluates FP-Tree and BW-Tree, got %s", s.Kind.Name())
	}
	p := DefaultParams()
	if s.Params != nil {
		p = *s.Params
	}
	tp := DefaultTPCCParams()
	if s.TPCC != nil {
		tp = *s.TPCC
	}
	base, err := ProfileFor(s.Kind, tp.StmtMix)
	if err != nil {
		return TPCCResult{}, err
	}
	// The TPC-C database (8 warehouses) is far smaller than the YCSB
	// dataset; stock+customers+orders sum to a few GB.
	const tpccRecords = 40_000_000
	prof := base.AtScale(tpccRecords)

	var res TPCCResult
	switch s.Engine {
	case EngineDelegated:
		res, err = runDelegatedTPCC(p, tp, m, prof, s)
	case EngineDirectSNNUMA:
		res, err = runDirectTPCC(p, tp, m, prof, s)
	default:
		return TPCCResult{}, fmt.Errorf("sim: unknown engine %d", s.Engine)
	}
	return res, err
}

// runDelegatedTPCC models our engine: tables are hash-partitioned into as
// many composite instances as the configuration opens domains, every
// statement is a task executed inside the owning domain, so execution is
// always domain-local — remote transactions only change which inbox a task
// lands in, which the runtime's messaging already averages over.
func runDelegatedTPCC(p Params, tp TPCCParams, m *topology.Machine, prof Profile, s TPCCScenario) (TPCCResult, error) {
	optSize := 24
	if s.Kind == kinds.BWTree {
		optSize = 48
	}
	layout, err := NewLayout(StratConfigured, s.Threads, optSize)
	if err != nil {
		return TPCCResult{}, err
	}
	in := modelInput{
		layout:           layout,
		prof:             prof,
		sharers:          float64(layout.DomainSize),
		instPerDomain:    1,
		instances:        layout.Domains,
		bytesPerInstance: float64(tpccRecordsBytes(p, prof.Kind)) / float64(layout.Domains),
	}
	cost := costModel(p, m, in)
	perStmt := cost.TotalNs() + tp.StmtOverheadNs + tp.DelegRoundTripNs
	perTxn := perStmt * tp.OpsPerTxn
	eff := effectiveThreads(layout.Threads, p.SMTYield)
	return TPCCResult{
		KTxnPerSec: eff * 1e9 / perTxn / 1e3,
		AbortRatio: cost.AbortRatio,
		PerTxnNs:   perTxn,
	}, nil
}

// runDirectTPCC models the baseline: the database is partitioned by
// warehouse across NUMA regions, and transaction managers execute
// statements directly. Local statements run at socket-local cost; a remote
// transaction's statements cross the machine, and — for the HTM-synchronised
// FP-Tree — its slow cross-socket transactions amplify the abort rate of
// every transaction on the touched partitions (htm.Model.MixedStats).
func runDirectTPCC(p Params, tp TPCCParams, m *topology.Machine, prof Profile, s TPCCScenario) (TPCCResult, error) {
	// Direct execution: no delegation machinery at all.
	direct := p
	direct.DelegActiveNs = 0
	direct.MsgBytes = 0
	direct.MsgTransferDiscount = 0
	direct.L2CompetitionLines = 0
	// Suppress the generic scheme contention of costModel: the HTM term
	// is recomputed below with remote mixing, and we want the plain
	// local/remote memory cost here.
	plain := direct
	plain.HTM.BaseConflict = 0
	plain.CASConflict = 0
	plain.HotPairProb = 0
	plain.COWHotProb = 0
	plain.BucketHotProb = 0

	layout, err := NewLayout(StratSNNUMA, s.Threads, 0)
	if err != nil {
		return TPCCResult{}, err
	}
	sharers := float64(s.Threads) / float64(s.Warehouses)
	if sharers < 1 {
		sharers = 1
	}
	in := modelInput{
		layout:           layout,
		prof:             prof,
		sharers:          sharers,
		instPerDomain:    1,
		instances:        s.Warehouses,
		bytesPerInstance: float64(tpccRecordsBytes(p, prof.Kind)) / float64(s.Warehouses),
	}
	local := costModel(plain, m, in)

	// A remote statement reaches across the machine: its data lines pay
	// the full cross-machine average latency instead of local DRAM.
	remotePenalty := (avgMemLatency(m, layout.SocketsUsed) - m.LatencyOfLevel(0)) * (prof.NodesPerOp * 1.2)
	if remotePenalty < 0 {
		remotePenalty = 0
	}
	execNs := local.TotalNs() + s.RemoteFrac*remotePenalty

	wf := tp.StmtMix.WriteFraction()
	abortRatio := 0.0
	if prof.Kind == kinds.FPTree && sharers > 1 {
		span := layout.DataSpanLevel
		ar, fb, attempts := p.HTM.MixedStats(int(sharers+0.5), wf, s.RemoteFrac, span, tp.RemoteWindowFactor)
		abortRatio = ar
		execNs *= attempts
		if fb > 0 {
			execNs += fb * (sharers - 1) * (local.TotalNs() + 2*m.LatencyOfLevel(span))
		}
	}
	if prof.Kind == kinds.BWTree && sharers > 1 {
		// CAS retries grow with sharers and with remote slow-path writers.
		pc := p.CASConflict * (sharers - 1) * wf * (1 + 3*s.RemoteFrac)
		if pc > 0.85 {
			pc = 0.85
		}
		execNs *= 1 + pc/(1-pc)*0.7
	}

	// Hot-row ping-pong between the partition's managers (district and
	// warehouse rows updated by every transaction).
	execNs += tp.HotRowNsPerSharer * sharers

	perStmt := execNs + tp.StmtOverheadNs
	perTxn := perStmt * tp.OpsPerTxn
	eff := effectiveThreads(layout.Threads, p.SMTYield)
	return TPCCResult{
		KTxnPerSec: eff * 1e9 / perTxn / 1e3,
		AbortRatio: abortRatio,
		PerTxnNs:   perTxn,
	}, nil
}

// tpccRecordsBytes estimates the resident bytes of the TPC-C database.
func tpccRecordsBytes(p Params, kind kinds.Kind) int64 {
	const tpccRecords = 40_000_000
	return int64(float64(tpccRecords) * 64 * p.Overhead[kind] / 2)
}
