package sim

import (
	"fmt"

	"robustconf/internal/index/kinds"
	"robustconf/internal/metrics"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

// DefaultOpsPerThread matches the paper: 2M key/value operations per client
// thread per execution.
const DefaultOpsPerThread = 2_000_000

// DefaultRecords is the paper's dataset: ten times the cumulative LLC of the
// full 8-socket machine (the paper reports 314M records with its layout).
var DefaultRecords = workload.PaperRecordCount(8 * topology.DefaultL3Bytes)

// Scenario describes one simulated execution point.
type Scenario struct {
	Machine  *topology.Machine // nil → the full MC990X
	Kind     kinds.Kind
	Mix      workload.Mix
	Strategy Strategy
	// Threads is the system size in logical CPUs (the figures' x-axis;
	// each socket contributes 48).
	Threads int
	// OptDomainSize is the configured domain size (StratConfigured only).
	OptDomainSize int
	// Records overrides the dataset size (0 → DefaultRecords).
	Records uint64
	// Instances overrides the number of structure instances (0 → one per
	// execution domain; for shared everything, one per socket as the
	// paper's partitioned-but-shared setup).
	Instances int
	// OpsPerThread overrides the executed operations per thread (0 →
	// DefaultOpsPerThread); it scales volume metrics, not rates.
	OpsPerThread int
	// Params overrides the cost model (zero value → DefaultParams()).
	Params *Params
}

// Result is the simulated outcome of a scenario.
type Result struct {
	Layout    Layout
	Cost      PerOpCost
	Instances int

	// ThroughputMOps is the aggregate operation rate in million ops/s.
	ThroughputMOps float64
	// TMAM is the per-op cost breakdown in CPU cycles (Figure 12).
	TMAM metrics.TMAM
	// AbortRatio is the HTM abort ratio (Figure 8, FP-Tree only).
	AbortRatio float64
	// L2MissesPerOp (Figure 8, right).
	L2MissesPerOp float64
	// InterconnectGB is the total cross-socket volume of the whole
	// execution (Figure 9).
	InterconnectGB float64
	// BandwidthLimited reports whether a bandwidth ceiling (interconnect
	// or DRAM), rather than per-op cost, set the throughput.
	BandwidthLimited bool
}

// ConfiguredThroughput is the calibration measure of the configuration
// process on the reference machine: the whole-machine throughput (MOp/s)
// at all 384 threads of the mix over the structure, partitioned into
// domains of the given size. It has the shape of config.MeasureFunc.
func ConfiguredThroughput(kind kinds.Kind, mix workload.Mix, size int) (float64, error) {
	r, err := Run(Scenario{
		Kind:          kind,
		Mix:           mix,
		Strategy:      StratConfigured,
		Threads:       384,
		OptDomainSize: size,
	})
	if err != nil {
		return 0, err
	}
	return r.ThroughputMOps, nil
}

// Run simulates one scenario.
func Run(s Scenario) (Result, error) {
	m := s.Machine
	if m == nil {
		m = topology.MC990X()
	}
	records := s.Records
	if records == 0 {
		records = DefaultRecords
	}
	opsPerThread := s.OpsPerThread
	if opsPerThread == 0 {
		opsPerThread = DefaultOpsPerThread
	}
	p := DefaultParams()
	if s.Params != nil {
		p = *s.Params
	}
	layout, err := NewLayout(s.Strategy, s.Threads, s.OptDomainSize)
	if err != nil {
		return Result{}, err
	}
	if layout.SocketsUsed > len(m.Sockets) {
		return Result{}, fmt.Errorf("sim: %d threads need %d sockets, machine has %d",
			s.Threads, layout.SocketsUsed, len(m.Sockets))
	}
	base, err := ProfileFor(s.Kind, s.Mix)
	if err != nil {
		return Result{}, err
	}
	prof := base.AtScale(records)

	instances := s.Instances
	if instances == 0 {
		if layout.Strategy.Delegated() {
			instances = layout.Domains
		} else {
			// The paper's shared-everything setup still partitions the
			// structures (one per NUMA region); only execution is shared.
			instances = layout.SocketsUsed
		}
	}

	var sharers, instPerDomain float64
	if layout.Strategy.Delegated() {
		instPerDomain = float64(instances) / float64(layout.Domains)
		if instPerDomain < 1 {
			instPerDomain = 1
		}
		sharers = float64(layout.DomainSize) / instPerDomain
	} else {
		instPerDomain = float64(instances)
		sharers = float64(layout.Threads) / float64(instances)
	}
	if sharers < 1 {
		sharers = 1
	}

	bytesPerInstance := float64(records) * 16 * p.Overhead[s.Kind] / float64(instances)
	cost := costModel(p, m, modelInput{
		layout:           layout,
		prof:             prof,
		sharers:          sharers,
		instPerDomain:    instPerDomain,
		instances:        instances,
		bytesPerInstance: bytesPerInstance,
	})

	// Effective compute: SMT siblings yield less than physical cores.
	eff := effectiveThreads(layout.Threads, p.SMTYield)
	opsPerSec := eff * 1e9 / cost.TotalNs()

	// Bandwidth ceilings.
	limited := false
	if cost.CrossBytes > 0 {
		crossCap := p.LinkGBs * float64(layout.SocketsUsed) * 1e9
		if layout.SocketsUsed > 4 {
			// Roughly half the uniform cross-socket traffic must pass
			// the NUMAlink controller between the two partitions.
			if nl := p.NUMALinkGBs * 1e9 / 0.5; nl < crossCap {
				crossCap = nl
			}
		}
		if capOps := crossCap / cost.CrossBytes; capOps < opsPerSec {
			opsPerSec = capOps
			limited = true
		}
	}
	if cost.MemBytes > 0 {
		memCap := p.MemGBs * float64(layout.SocketsUsed) * 1e9
		if capOps := memCap / cost.MemBytes; capOps < opsPerSec {
			opsPerSec = capOps
			limited = true
		}
	}

	totalOps := float64(opsPerThread) * float64(layout.Threads)
	ghz := p.ClockGHz
	res := Result{
		Layout:    layout,
		Cost:      cost,
		Instances: instances,

		ThroughputMOps: opsPerSec / 1e6,
		TMAM: metrics.TMAM{
			ActiveCycles:    cost.ActiveNs * ghz,
			BackEndStalls:   cost.BackEndNs * ghz,
			FrontEndStalls:  cost.FrontEndNs * ghz,
			SpeculationStls: cost.SpecNs * ghz,
		},
		AbortRatio:       cost.AbortRatio,
		L2MissesPerOp:    cost.L2MissesPerOp,
		InterconnectGB:   cost.CrossBytes * totalOps / 1e9,
		BandwidthLimited: limited,
	}
	return res, nil
}

// effectiveThreads converts a socket-major thread allocation into core
// equivalents: each socket contributes 24 physical cores first, then 24 SMT
// siblings at the configured yield.
func effectiveThreads(threads int, smtYield float64) float64 {
	eff := 0.0
	remaining := threads
	for remaining > 0 {
		inSocket := remaining
		if inSocket > threadsPerSocket {
			inSocket = threadsPerSocket
		}
		phys := inSocket
		if phys > topology.DefaultCoresPerSkt {
			phys = topology.DefaultCoresPerSkt
		}
		smt := inSocket - phys
		eff += float64(phys) + float64(smt)*smtYield
		remaining -= inSocket
	}
	return eff
}
