package sim

import (
	"math"

	"robustconf/internal/htm"
	"robustconf/internal/index"
	"robustconf/internal/index/kinds"
	"robustconf/internal/topology"
)

// Params holds every constant of the cost model. The defaults are calibrated
// so the reference machine reproduces the qualitative results of the paper's
// figures (who wins, where the cliffs are, approximate factors); they are
// exported so ablation benchmarks and tests can vary them.
type Params struct {
	// ClockGHz converts nanoseconds to cycles (Xeon E7-8890 v4 base clock).
	ClockGHz float64

	// --- Active execution (instructions actually retiring) -------------

	// OpBaseNs is the fixed instruction cost of one key/value operation
	// (argument handling, hashing, comparison loop setup).
	OpBaseNs float64
	// NodeNs is the instruction cost per node visited (binary search
	// within a node, pointer-chasing arithmetic).
	NodeNs float64
	// ProbeNs is the cost of one fingerprint byte comparison (FP-Tree).
	ProbeNs float64
	// HashExtraNs is the extra per-op instruction cost of the
	// general-purpose (TBB-style) hash map implementation whose overhead
	// the paper's read-only analysis points at.
	HashExtraNs float64
	// DelegActiveNs is the extra instruction cost of delegation per op:
	// client-side post + worker-side poll/dispatch + future completion.
	// Figure 12 shows this as slightly higher active cycles for Opt.
	DelegActiveNs float64
	// FrontEndFrac charges instruction-supply stalls proportional to
	// active work (decode/icache pressure).
	FrontEndFrac float64
	// SpecBaseFrac charges baseline branch-misprediction stalls
	// proportional to active work.
	SpecBaseFrac float64

	// --- Cache & memory -------------------------------------------------

	// TouchLinesPerNode: how many distinct lines a binary search or chain
	// step actually touches within one node (nodes are larger than what
	// an operation inspects).
	TouchLinesPerNode float64
	// InnerTouchPerLevel: lines touched per inner level descended.
	InnerTouchPerLevel float64
	// InnerL2Frac / InnerL3Frac: where the hot inner-node lines hit.
	InnerL2Frac, InnerL3Frac float64
	// HotDataFrac is the fraction of leaf/record accesses served from
	// cache purely because Zipfian skew keeps the hot records resident,
	// even when the structure vastly exceeds cache capacity.
	HotDataFrac float64
	// OnSocketTransferNs is a cache-to-cache line transfer between cores
	// of one socket (via the shared L3), far cheaper than DRAM.
	OnSocketTransferNs float64
	// Overhead multiplies raw record bytes into resident structure bytes
	// (node headers, pointers, fill factor), indexed by structure kind.
	Overhead [4]float64

	// --- Delegation locality ---------------------------------------------

	// MsgBytes is the interconnect volume of one delegated op whose
	// client and worker sit on different sockets: the request line plus
	// the batched-response share (FFWD answers up to 15 clients with one
	// response write).
	MsgBytes float64
	// MsgTransferDiscount discounts the worker-side stall of fetching a
	// remote request line, because a buffer sweep overlaps up to 15 line
	// transfers (memory-level parallelism).
	MsgTransferDiscount float64
	// L2CompetitionLines models the paper's SN-Thread pathology: with
	// thread-sized domains the data structure partition and the
	// delegation machinery compete for the core's private L2. Charged as
	// extra L2-to-L3 misses per op, scaled by 1/domainSize and by how
	// cache-hungry the structure's hot set is (deep trees suffer, the
	// flat hash map does not).
	L2CompetitionLines float64

	// --- Synchronisation-scheme contention ------------------------------

	// HTM is the abort model for the FP-Tree's transactional traversal.
	HTM htm.Model
	// CASConflict is the pairwise CAS-failure probability per concurrent
	// writer on the same BW-Tree node (Zipf-hot mapping-table slots).
	CASConflict float64
	// HotPairProb is the probability two concurrent operations contend on
	// the same hot record line under the YCSB-Zipfian key distribution.
	HotPairProb float64
	// COWHotProb is the equivalent for BW-Tree delta lines: lower, because
	// every update prepends a fresh delta, so readers rarely collide with
	// the same line twice — COW's conflict resistance.
	COWHotProb float64
	// BucketHotProb is the analogous probability for hash bucket lock
	// lines, higher because every operation (reads included) performs an
	// atomic reader registration on the bucket's lock word.
	BucketHotProb float64
	// AtomicNs is the cost of one uncontended atomic read-modify-write.
	AtomicNs float64
	// ZipfTopMass is the access share of the hottest key under the YCSB
	// Zipfian distribution. Partitioning a structure does not dilute the
	// contention on that key — it lives in exactly one partition — so
	// per-instance concurrency never drops below accessors×ZipfTopMass.
	ZipfTopMass float64
	// InsertLockNs is the hold time of the B-Tree's global insert lock.
	InsertLockNs float64
	// COWSpillFrac scales how much of the BW-Tree's copy-on-write volume
	// crosses sockets in delegated layouts (delta areas allocated from
	// pools that outlive domain boundaries); divided by √domainSize.
	COWSpillFrac float64

	// --- Bandwidth -------------------------------------------------------

	// LinkGBs is the usable cross-socket bandwidth per socket (QPI).
	LinkGBs float64
	// NUMALinkGBs is the total bandwidth of the NUMAlink controller
	// joining the two 4-socket hardware partitions.
	NUMALinkGBs float64
	// MemGBs is the usable DRAM bandwidth per socket.
	MemGBs float64

	// --- SMT -------------------------------------------------------------

	// SMTYield is the marginal throughput of the second hardware thread
	// of a core relative to the first.
	SMTYield float64
}

// DefaultParams returns the calibrated model.
func DefaultParams() Params {
	return Params{
		ClockGHz:      2.2,
		OpBaseNs:      18,
		NodeNs:        5,
		ProbeNs:       0.5,
		HashExtraNs:   150,
		DelegActiveNs: 55,
		FrontEndFrac:  0.22,
		SpecBaseFrac:  0.06,

		TouchLinesPerNode:  2.0,
		InnerTouchPerLevel: 1.5,
		InnerL2Frac:        0.70,
		InnerL3Frac:        0.28,
		HotDataFrac:        0.35,
		OnSocketTransferNs: 40,

		Overhead: [...]float64{kinds.BTree: 1.9, kinds.FPTree: 1.8, kinds.BWTree: 2.6, kinds.HashMap: 1.6},

		MsgBytes:            192, // 128B request slot + 64B batched response share
		MsgTransferDiscount: 0.30,
		L2CompetitionLines:  60,

		HTM:           htm.DefaultModel(),
		CASConflict:   0.0035,
		HotPairProb:   0.045,
		COWHotProb:    0.02,
		BucketHotProb: 0.08,
		AtomicNs:      9,
		ZipfTopMass:   0.045,
		InsertLockNs:  45,
		COWSpillFrac:  1.0,

		LinkGBs:     30,
		NUMALinkGBs: 120,
		MemGBs:      55,

		SMTYield: 0.45,
	}
}

// PerOpCost is the simulated cost breakdown of one operation, in
// nanoseconds per TMAM bucket, plus the hardware counters the figures plot.
type PerOpCost struct {
	ActiveNs   float64 // retiring instructions
	BackEndNs  float64 // memory stalls (cache misses, coherence transfers)
	FrontEndNs float64 // instruction supply
	SpecNs     float64 // wasted work (branch mispredictions, HTM aborts)

	L2MissesPerOp float64
	CrossBytes    float64 // interconnect bytes per op
	MemBytes      float64 // DRAM bytes per op
	AbortRatio    float64 // HTM abort ratio (FP-Tree)
	FallbackProb  float64 // HTM fallback probability
}

// TotalNs is the full per-op wall time a worker spends.
func (c PerOpCost) TotalNs() float64 {
	return c.ActiveNs + c.BackEndNs + c.FrontEndNs + c.SpecNs
}

// modelInput bundles the geometry facts the cost model consumes.
type modelInput struct {
	layout Layout
	prof   Profile
	// sharers is the expected number of threads concurrently operating on
	// one structure instance under uniform load.
	sharers float64
	// instPerDomain is how many instances share one domain's caches.
	instPerDomain float64
	// instances is the total instance count (application size, Fig. 11).
	instances        int
	bytesPerInstance float64
}

// costModel computes the per-op cost for a scenario's layout.
func costModel(p Params, m *topology.Machine, in modelInput) PerOpCost {
	layout, prof := in.layout, in.prof
	sharers, instPerDomain := in.sharers, in.instPerDomain
	bytesPerInstance := in.bytesPerInstance

	var c PerOpCost
	wf := prof.Mix.WriteFraction()

	// The pool of threads that can reach one instance: everybody for
	// shared everything, the domain's workers when delegated.
	accessors := float64(layout.Threads)
	if layout.Strategy.Delegated() {
		accessors = float64(layout.DomainSize)
	}
	// Partitioning cannot dilute contention below the hottest key's share:
	// that key lives in exactly one partition (Zipfian skew).
	conc := maxf(sharers, accessors*p.ZipfTopMass)

	// --- Active work -----------------------------------------------------
	c.ActiveNs = p.OpBaseNs + prof.NodesPerOp*p.NodeNs + prof.ProbesPerOp*p.ProbeNs
	if prof.Kind == kinds.HashMap {
		c.ActiveNs += p.HashExtraNs + p.AtomicNs // reader registration RMW
	}
	if layout.Strategy.Delegated() {
		c.ActiveNs += p.DelegActiveNs
	}

	// --- Memory hierarchy ------------------------------------------------
	// An operation inspects only part of each node it visits: binary
	// search touches ~2 lines of a node, each inner level ~1.5. The
	// measured LinesPerOp (full node sizes) is an upper bound.
	touched := prof.NodesPerOp*p.TouchLinesPerNode + prof.ProbesPerOp/8
	if touched > prof.LinesPerOp {
		touched = prof.LinesPerOp
	}
	innerLines := prof.DepthPerOp * p.InnerTouchPerLevel
	if innerLines > touched {
		innerLines = touched
	}
	dataLines := touched - innerLines
	if dataLines < 1 {
		dataLines = 1
	}

	// Where does this layout's data live, and how far is it?
	var dataSockets int
	var dramLat float64
	switch layout.Strategy {
	case StratSE, StratSENUMA:
		dataSockets = layout.SocketsUsed
		dramLat = avgMemLatency(m, dataSockets)
		if layout.Strategy == StratSE {
			// OS placement is additionally unbalanced vs. explicit
			// NUMA-aware allocation.
			dramLat *= 1.06
		}
	default:
		dataSockets = ceilDiv(layout.DomainSize, threadsPerSocket)
		dramLat = avgMemLatency(m, dataSockets)
	}

	// Cache residency of the cold data lines: the domain owns its share
	// of the socket's L3 (proportional to the threads it occupies),
	// divided among the instances living there, plus the Zipfian hot set.
	l3PerSocket := float64(m.Sockets[0].L3Bytes)
	var cacheBytes float64
	if layout.Strategy == StratSE || layout.Strategy == StratSENUMA {
		cacheBytes = float64(m.TotalL3Bytes()) / maxf(instPerDomain, 1)
	} else {
		share := minf(1, float64(layout.DomainSize)/float64(threadsPerSocket))
		cacheBytes = l3PerSocket * float64(dataSockets) * share / maxf(instPerDomain, 1)
	}
	pResident := 0.0
	if bytesPerInstance > 0 {
		pResident = cacheBytes / bytesPerInstance
		if pResident > 1 {
			pResident = 1
		}
	}
	pHit := maxf(pResident, p.HotDataFrac)

	innerStall := innerLines * (p.InnerL2Frac*topology.LatencyL2 + p.InnerL3Frac*topology.LatencyL3 +
		(1-p.InnerL2Frac-p.InnerL3Frac)*dramLat)
	dataStall := dataLines * (pHit*topology.LatencyL3 + (1-pHit)*dramLat)
	c.BackEndNs = innerStall + dataStall
	c.L2MissesPerOp = dataLines + innerLines*(1-p.InnerL2Frac)
	c.MemBytes = dataLines * 64 * (1 - pHit)
	c.CrossBytes = dataLines * 64 * (1 - pHit) * remoteFraction(dataSockets)

	// --- Delegation ------------------------------------------------------
	if layout.Strategy.Delegated() {
		domSockets := ceilDiv(layout.DomainSize, threadsPerSocket)
		// Clients are spread over all used sockets; NUMA-aware slot
		// assignment makes the message local whenever the client's socket
		// hosts part of the domain.
		remoteMsgFrac := 1 - float64(domSockets)/float64(layout.SocketsUsed)
		if remoteMsgFrac < 0 {
			remoteMsgFrac = 0
		}
		transfer := avgMemLatency(m, layout.SocketsUsed)
		c.BackEndNs += remoteMsgFrac * transfer * p.MsgTransferDiscount
		c.CrossBytes += remoteMsgFrac * p.MsgBytes
		// Private-cache competition between structure and delegation
		// machinery in small domains (the SN-Thread pathology). Scaled by
		// how much the structure's hot set relies on the private caches,
		// and worsened when each worker serves several instances whose
		// hot sets thrash its L2 (Fig. 11's SN-Thread degradation).
		hunger := innerLines / 10
		instPerWorker := maxf(1, float64(in.instances)/float64(layout.Threads))
		extraMiss := p.L2CompetitionLines / float64(layout.DomainSize) * hunger * (1 + (instPerWorker-1)*0.5)
		if extraMiss > 0.25 {
			c.L2MissesPerOp += extraMiss
			c.BackEndNs += extraMiss * topology.LatencyL3
		}
	}

	// --- Synchronisation scheme ------------------------------------------
	span := layout.SpanLevel
	if !layout.Strategy.Delegated() {
		span = layout.DataSpanLevel
	}
	transferLat := p.OnSocketTransferNs
	if span > 0 {
		transferLat = m.LatencyOfLevel(span)
	}
	baseCost := c.ActiveNs + c.BackEndNs

	switch prof.Kind.Scheme() {
	case index.SchemeHTM:
		model := p.HTM
		n := int(conc + 0.5)
		// Inserts conflict more than in-place updates: they may split
		// leaves, which lengthens the transaction and widens its write
		// set (the reason Table 2 calibrates read-insert to the same
		// small domains as read-update).
		wfHTM := minf(1, prof.Mix.Update+2.5*prof.Mix.Insert)
		c.AbortRatio = model.AbortRatio(n, wfHTM, span)
		c.FallbackProb = model.FallbackProbability(n, wfHTM, span)
		attempts := model.ExpectedAttempts(n, wfHTM, span)
		// Aborted attempts are wasted, speculatively executed work.
		c.SpecNs += (attempts - 1) * baseCost
		// A fallback serialises the whole instance behind a global lock
		// whose line additionally ping-pongs across the span.
		if c.FallbackProb > 0 && conc > 1 {
			c.BackEndNs += c.FallbackProb * (conc - 1) * (baseCost + 2*transferLat)
		}
		// Every abort refetches the transactional region's lines.
		c.CrossBytes += (attempts - 1) * 2 * 64 * remoteFraction(spanSockets(span))

	case index.SchemeCOW:
		if conc > 1 {
			pc := p.CASConflict * (conc - 1) * maxf(wf, 0.02)
			if pc > 0.85 {
				pc = 0.85
			}
			// Failed CAS installs redo the traversal.
			c.SpecNs += pc / (1 - pc) * baseCost * 0.7
			// Writers invalidate the hot delta lines readers hold.
			c.BackEndNs += (conc - 1) * wf * p.COWHotProb * transferLat
		}
		// Consolidation and delta copies stream through the hierarchy;
		// in layouts whose sharers span sockets the copy-on-write volume
		// crosses the interconnect — Figure 9's traffic.
		c.BackEndNs += prof.CopiedPerOp / 64 * topology.LatencyL3 * 0.25
		c.MemBytes += prof.CopiedPerOp
		if layout.Strategy.Delegated() {
			spill := p.COWSpillFrac / sqrtf(float64(layout.DomainSize))
			c.CrossBytes += prof.CopiedPerOp * remoteFraction(layout.SocketsUsed) * spill
		} else {
			c.CrossBytes += (prof.CopiedPerOp + wf*128) * remoteFraction(dataSockets) * minf(conc, 8)
		}

	case index.SchemeBucketRW:
		// Reader registration is an atomic RMW on the bucket lock line.
		// Under Zipfian skew the hottest buckets act as global
		// serialisation points: every thread that can reach the instance
		// pool contends there, so the ping-pong scales with the full
		// accessor count, not the per-instance share — the paper's
		// "highly contended synchronisation" bottleneck.
		if accessors > 1 {
			// Any sharing at all moves the lock line out of the worker's
			// private cache: the registration RMW pays a cache-to-cache
			// transfer — why Table 2 calibrates the Hash Map to
			// single-worker domains even for read-only workloads.
			c.BackEndNs += transferLat * (accessors - 1) / accessors
			c.BackEndNs += (accessors - 1) * p.BucketHotProb * (transferLat + p.AtomicNs)
			// Writers hold the bucket exclusively.
			c.BackEndNs += (accessors - 1) * wf * p.BucketHotProb * transferLat
			c.CrossBytes += (accessors - 1) * p.BucketHotProb * 64 * remoteFraction(spanSockets(span)) * 0.5
		}

	case index.SchemeAtomicRecord:
		if conc > 1 {
			// In-place atomic stores invalidate hot record lines: the
			// reader that hits an invalidated record pays the transfer,
			// and the writer pays the RFO.
			c.BackEndNs += (conc - 1) * prof.Mix.Update * p.HotPairProb * transferLat * 3.0
			c.CrossBytes += (conc - 1) * prof.Mix.Update * p.HotPairProb * 64 * remoteFraction(spanSockets(span)) * 0.3
			// Inserts serialise on the global structural lock.
			if prof.Mix.Insert > 0 {
				c.BackEndNs += prof.Mix.Insert * (conc - 1) * (p.InsertLockNs + 2*transferLat) * 0.5
			}
		}
	}

	// --- Front-end and baseline speculation -------------------------------
	c.FrontEndNs = c.ActiveNs * p.FrontEndFrac
	c.SpecNs += c.ActiveNs * p.SpecBaseFrac
	return c
}

// spanSockets maps a NUMA level back to a representative socket count.
func spanSockets(level int) int {
	switch level {
	case 0:
		return 1
	case 1:
		return 2
	case 2:
		return 4
	default:
		return 8
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Sqrt(x)
}
