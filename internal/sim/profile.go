// Package sim is the machine-model substrate that replaces the paper's
// 8-socket HPE MC990 X testbed (see DESIGN.md §2). It computes, in
// deterministic virtual time, the throughput and hardware metrics of running
// a YCSB or OLTP workload over the four index structures under any
// partitioning strategy — shared everything, NUMA- or thread-sized shared
// nothing, or a freely configured virtual-domain layout.
//
// The simulator separates two concerns:
//
//   - What an operation does structurally — nodes visited, cache lines
//     touched, bytes copied, fingerprints probed — is *measured* by really
//     executing the Go index implementations over a sampled workload
//     (Measure), then extrapolated to the paper's 314M-record scale by
//     depth scaling (Profile.AtScale).
//
//   - What that behaviour costs on a given machine under a given degree of
//     sharing — cache hits and NUMA latencies, synchronisation-scheme
//     contention (HTM aborts, CAS retries, lock ping-pong), interconnect
//     volume and bandwidth saturation — is computed by the cost model in
//     cost.go, with every constant documented and adjustable.
package sim

import (
	"fmt"
	"math"

	"robustconf/internal/index"
	"robustconf/internal/index/kinds"
	"robustconf/internal/workload"
)

// Profile is the measured structural footprint of one operation of a given
// workload mix on a given structure, averaged over a sampled execution.
type Profile struct {
	Kind    kinds.Kind
	Mix     workload.Mix
	Records uint64 // record count the footprint corresponds to

	NodesPerOp  float64 // nodes / deltas / chain entries traversed
	LinesPerOp  float64 // distinct cache lines examined
	DepthPerOp  float64 // tree levels descended
	ProbesPerOp float64 // fingerprint comparisons (FP-Tree)
	CopiedPerOp float64 // bytes copied (COW, splits, consolidation)
	SplitsPerOp float64
	LocksPerOp  float64 // pessimistic lock acquisitions
}

// MeasureOps is the default number of sampled operations per profile.
const MeasureOps = 30000

// MeasureRecords is the default sample scale: large enough for realistic
// tree depths, small enough to build in tens of milliseconds.
const MeasureRecords = 200000

// Measure builds the structure with `records` pre-loaded keys, runs `ops`
// operations of the mix against it, and returns the per-op averages. The
// execution is real: inserts split nodes, the BW-Tree chains and
// consolidates deltas, the FP-Tree commits software-HTM transactions.
func Measure(kind kinds.Kind, mix workload.Mix, records uint64, ops int, seed int64) (Profile, error) {
	if records == 0 || ops <= 0 {
		return Profile{}, fmt.Errorf("sim: invalid sample size %d records / %d ops", records, ops)
	}
	idx := kind.New()
	for _, k := range workload.LoadKeys(records) {
		idx.Insert(k, k, nil)
	}
	gen, err := workload.NewGenerator(mix, records, 0, seed)
	if err != nil {
		return Profile{}, err
	}
	var st index.OpStats
	for i := 0; i < ops; i++ {
		op := gen.Next()
		switch op.Type {
		case workload.OpRead:
			idx.Get(op.Key, &st)
		case workload.OpUpdate:
			idx.Update(op.Key, op.Val, &st)
		case workload.OpInsert:
			idx.Insert(op.Key, op.Val, &st)
		}
	}
	n := float64(st.Ops)
	if n == 0 {
		return Profile{}, fmt.Errorf("sim: no operations accounted")
	}
	return Profile{
		Kind:        kind,
		Mix:         mix,
		Records:     records,
		NodesPerOp:  float64(st.NodesVisited) / n,
		LinesPerOp:  float64(st.LinesTouched) / n,
		DepthPerOp:  float64(st.Depth) / n,
		ProbesPerOp: float64(st.FPProbes) / n,
		CopiedPerOp: float64(st.BytesCopied) / n,
		SplitsPerOp: float64(st.Splits) / n,
		LocksPerOp:  float64(st.LockAcquires) / n,
	}, nil
}

// AtScale extrapolates the profile to a different record count. Tree
// traversal footprints grow with depth, i.e. logarithmically in the record
// count; hash table footprints are scale-free at constant load factor.
func (p Profile) AtScale(records uint64) Profile {
	if records == 0 || records == p.Records || p.Kind == kinds.HashMap {
		out := p
		if records != 0 {
			out.Records = records
		}
		return out
	}
	ratio := math.Log(float64(records)) / math.Log(float64(p.Records))
	if ratio < 0.1 {
		ratio = 0.1
	}
	out := p
	out.Records = records
	out.NodesPerOp = p.NodesPerOp * ratio
	out.LinesPerOp = p.LinesPerOp * ratio
	out.DepthPerOp = p.DepthPerOp * ratio
	// Leaf-local quantities (probes, copies, splits, locks) don't scale
	// with depth; splits per op even shrink slightly, ignored.
	return out
}

// profileCache memoises profiles per (kind, mix name): the harness requests
// the same profile for every strategy and system size.
var profileCache = map[string]Profile{}

// ProfileFor returns the cached default-scale profile for (kind, mix),
// measuring it on first use with deterministic seeding.
func ProfileFor(kind kinds.Kind, mix workload.Mix) (Profile, error) {
	key := fmt.Sprintf("%d/%s", kind, mix.Name)
	if p, ok := profileCache[key]; ok {
		return p, nil
	}
	p, err := Measure(kind, mix, MeasureRecords, MeasureOps, 0xC0FFEE)
	if err != nil {
		return Profile{}, err
	}
	profileCache[key] = p
	return p, nil
}
