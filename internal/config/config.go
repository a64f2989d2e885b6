// Package config implements the paper's configuration process (Section 5.2,
// Figure 4): calibrating the optimal virtual-domain size of each data
// structure instance under its workload, then composing the calibrated
// sizes into a single configuration — homogeneous when one size fits all,
// isolated for crucial instances, and shared heterogeneous via the GAP-MQ
// integer linear program otherwise — and finally materialising the plan as
// a runtime configuration over a concrete machine.
package config

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"robustconf/internal/core"
	"robustconf/internal/ilp"
	"robustconf/internal/index/kinds"
	"robustconf/internal/metrics"
	"robustconf/internal/topology"
	"robustconf/internal/wal"
	"robustconf/internal/workload"
)

// DefaultSizes is the calibration sweep grid: thread-sized, half-socket,
// socket, and socket multiples of the reference machine — the granularities
// the paper's experiments use (Table 2 reports 1, 24 and 48).
var DefaultSizes = []int{1, 24, 48, 96, 192, 384}

// SlopeTolerance treats a throughput dip of up to 3% as measurement noise:
// calibration keeps growing the domain while throughput stays within this
// tolerance of the best seen, preferring larger domains as the ILP's
// objective does, and stops at the first clearly negative slope.
const SlopeTolerance = 0.03

// MeasureFunc measures the whole-machine throughput (MOp/s) of running the
// mix over the structure partitioned into domains of the given size. The
// caller chooses it: sim.ConfiguredThroughput simulates the reference
// machine, and tests inject synthetic curves.
type MeasureFunc func(kind kinds.Kind, mix workload.Mix, size int) (float64, error)

// Calibration is the result of calibrating one (structure, workload) pair.
type Calibration struct {
	Kind        kinds.Kind
	Mix         workload.Mix
	OptimalSize int
	// Curve is the measured throughput at each swept size (Fig. 4 step 1).
	Curve []metrics.Point
}

// Calibrate sweeps the sizes (ascending) and picks the optimal domain size:
// the largest size whose throughput is within SlopeTolerance of the best
// observed before the slope turns clearly negative.
func Calibrate(kind kinds.Kind, mix workload.Mix, sizes []int, measure MeasureFunc) (Calibration, error) {
	if len(sizes) == 0 {
		sizes = DefaultSizes
	}
	if measure == nil {
		return Calibration{}, fmt.Errorf("config: calibrating %s/%s: no measure", kind.Name(), mix.Name)
	}
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	cal := Calibration{Kind: kind, Mix: mix}
	best := 0.0
	bestSize := 0
	for _, s := range sorted {
		thr, err := measure(kind, mix, s)
		if err != nil {
			return Calibration{}, fmt.Errorf("config: calibrating %s/%s at size %d: %w", kind.Name(), mix.Name, s, err)
		}
		cal.Curve = append(cal.Curve, metrics.Point{X: float64(s), Y: thr})
		switch {
		case thr > best:
			best, bestSize = thr, s
		case thr >= best*(1-SlopeTolerance):
			bestSize = s // flat within noise: prefer the larger domain
		default:
			// Clearly negative slope: stop growing (Fig. 4 step 1).
			cal.OptimalSize = bestSize
			return cal, nil
		}
	}
	cal.OptimalSize = bestSize
	return cal, nil
}

// Table2 calibrates every structure under the three YCSB workloads,
// reproducing the paper's Table 2.
func Table2(measure MeasureFunc) (map[kinds.Kind]map[string]int, error) {
	out := map[kinds.Kind]map[string]int{}
	for _, kind := range kinds.All {
		out[kind] = map[string]int{}
		for _, mix := range []workload.Mix{workload.C, workload.A, workload.D} {
			cal, err := Calibrate(kind, mix, nil, measure)
			if err != nil {
				return nil, err
			}
			out[kind][mix.Name] = cal.OptimalSize
		}
	}
	return out, nil
}

// Instance is one data structure instance entering composition.
type Instance struct {
	Name string
	Kind kinds.Kind
	Mix  workload.Mix
	// Load is the abstract expected load l_i of Equation 6; uniform loads
	// are fine for symmetric workloads.
	Load float64
	// Crucial marks instances needing predictable performance (e.g. a
	// lock table); they are isolated into dedicated domains (Fig. 4.2).
	Crucial bool
	// CoLocateWith optionally names another instance that must share this
	// instance's domain (e.g. a table's secondary index).
	CoLocateWith string
	// RetainsReferences marks instances whose task results hand back
	// references into long-lived buffers the client keeps (e.g. a structure
	// that returns views instead of copies). Batch-boundary arena recycling
	// is unsound for them — the reference would outlive the reset — so
	// RecommendArena disables the arena axis for any composition containing
	// one.
	RetainsReferences bool
}

// Durability is the composed durability configuration: the WAL fsync
// discipline and the checkpoint cadence, two further configuration axes
// alongside domain size. The zero value (FsyncNone, default cadence) is
// what read-only compositions get.
type Durability struct {
	Fsync           wal.FsyncMode
	CheckpointEvery time.Duration
}

// RecommendDurability derives the durability axes from the composed
// workload: read-only compositions log nothing, so syncing buys nothing
// (FsyncNone, relaxed checkpoints); write-heavy compositions group-commit
// with fsync per batch and checkpoint tightly, bounding the replay tail a
// crash leaves behind; mixed compositions batch-fsync at the default
// cadence. FsyncAlways is never recommended — it is the explicit opt-in for
// strict per-record durability, surfaced as a flag on the binaries.
func RecommendDurability(instances []Instance) Durability {
	maxWF := 0.0
	for _, inst := range instances {
		if wf := inst.Mix.WriteFraction(); wf > maxWF {
			maxWF = wf
		}
	}
	switch {
	case maxWF == 0:
		return Durability{Fsync: wal.FsyncNone, CheckpointEvery: time.Second}
	case maxWF > 0.15:
		return Durability{Fsync: wal.FsyncBatch, CheckpointEvery: core.DefaultCheckpointEvery / 2}
	default:
		return Durability{Fsync: wal.FsyncBatch, CheckpointEvery: core.DefaultCheckpointEvery}
	}
}

// RecommendArena derives the arena switch from the composition: any
// instance that retains references into result buffers turns it off
// (batch-boundary recycling would invalidate memory the client still
// holds), and every other composition gets arenas.
func RecommendArena(instances []Instance) core.ArenaConfig {
	for _, inst := range instances {
		if inst.RetainsReferences {
			return core.ArenaConfig{}
		}
	}
	return core.ArenaConfig{Enabled: true}
}

// PlanDomain is one virtual domain of a composed plan.
type PlanDomain struct {
	Size      int
	Instances []string
	Isolated  bool
}

// Plan is a composed configuration before machine materialisation.
type Plan struct {
	Domains []PlanDomain
	// Kind records which composition case applied: "homogeneous",
	// "isolated+homogeneous", "heterogeneous", ...
	Kind string
	// CalibratedSizes records each instance's calibrated optimal size.
	CalibratedSizes map[string]int
	// Durability records the recommended durability axes
	// (RecommendDurability over the composition); Materialise carries them
	// into core.Config.WAL, which stays disabled until a log directory is
	// supplied.
	Durability Durability
	// Arena records the recommended worker-arena switch (RecommendArena over
	// the composition); Materialise carries it into core.Config.Arena.
	Arena core.ArenaConfig
}

// String renders the plan as robustconf plan prints it.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s composition, %d domains, %d workers\n", p.Kind, len(p.Domains), p.WorkersUsed())
	for i, d := range p.Domains {
		tag := ""
		if d.Isolated {
			tag = " [isolated]"
		}
		fmt.Fprintf(&b, "  domain %2d: %3d workers%s ← %s\n", i, d.Size, tag, strings.Join(d.Instances, ", "))
	}
	fmt.Fprintf(&b, "  durability: fsync=%s checkpoint=%s\n", p.Durability.Fsync, p.Durability.cadence())
	arena := "off"
	if p.Arena.Enabled {
		arena = "on"
	}
	fmt.Fprintf(&b, "  arena: %s\n", arena)
	return b.String()
}

func (d Durability) cadence() time.Duration {
	if d.CheckpointEvery <= 0 {
		return core.DefaultCheckpointEvery
	}
	return d.CheckpointEvery
}

// WorkersUsed sums the plan's domain sizes.
func (p *Plan) WorkersUsed() int {
	n := 0
	for _, d := range p.Domains {
		n += d.Size
	}
	return n
}

// DomainOf returns the index of the domain holding the named instance.
func (p *Plan) DomainOf(name string) (int, error) {
	for i, d := range p.Domains {
		for _, inst := range d.Instances {
			if inst == name {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("config: instance %q not in plan", name)
}

// Compose runs the composition step of Figure 4 over the instances for a
// machine with `workers` worker threads. Calibration is performed per
// (kind, mix) pair through measure.
func Compose(instances []Instance, workers int, measure MeasureFunc) (*Plan, error) {
	if len(instances) == 0 {
		return nil, fmt.Errorf("config: no instances to compose")
	}
	if workers < 1 {
		return nil, fmt.Errorf("config: no workers")
	}
	names := map[string]int{}
	for i, inst := range instances {
		if inst.Name == "" {
			return nil, fmt.Errorf("config: instance %d has no name", i)
		}
		if _, dup := names[inst.Name]; dup {
			return nil, fmt.Errorf("config: duplicate instance %q", inst.Name)
		}
		names[inst.Name] = i
	}

	plan := &Plan{CalibratedSizes: map[string]int{}}

	// Step 1+2: calibrated optimal size per instance.
	plan.Durability = RecommendDurability(instances)
	plan.Arena = RecommendArena(instances)
	calCache := map[string]int{}
	for _, inst := range instances {
		key := fmt.Sprintf("%d/%s", inst.Kind, inst.Mix.Name)
		size, ok := calCache[key]
		if !ok {
			cal, err := Calibrate(inst.Kind, inst.Mix, nil, measure)
			if err != nil {
				return nil, err
			}
			size = cal.OptimalSize
			calCache[key] = size
		}
		if size > workers {
			size = workers
		}
		plan.CalibratedSizes[inst.Name] = size
	}

	// Step 3a: isolate crucial instances first (Fig. 4.2) — each gets a
	// dedicated domain of its calibrated size.
	remaining := workers
	var shared []Instance
	for _, inst := range instances {
		if !inst.Crucial {
			shared = append(shared, inst)
			continue
		}
		size := plan.CalibratedSizes[inst.Name]
		if size > remaining {
			return nil, fmt.Errorf("config: not enough workers to isolate %q (needs %d, %d left)", inst.Name, size, remaining)
		}
		plan.Domains = append(plan.Domains, PlanDomain{Size: size, Instances: []string{inst.Name}, Isolated: true})
		remaining -= size
	}
	isolated := len(plan.Domains) > 0

	if len(shared) == 0 {
		plan.Kind = "isolated"
		return plan, nil
	}
	if remaining == 0 {
		return nil, fmt.Errorf("config: isolation consumed all workers, none left for %d shared instances", len(shared))
	}

	// Step 3b: homogeneous or heterogeneous composition of the rest.
	sizes := map[int]struct{}{}
	for _, inst := range shared {
		sizes[plan.CalibratedSizes[inst.Name]] = struct{}{}
	}
	if len(sizes) == 1 {
		if err := composeHomogeneous(plan, shared, remaining); err != nil {
			return nil, err
		}
		plan.Kind = "homogeneous"
	} else {
		if err := composeHeterogeneous(plan, shared, remaining, names); err != nil {
			return nil, err
		}
		plan.Kind = "heterogeneous"
	}
	if isolated {
		plan.Kind = "isolated+" + plan.Kind
	}
	return plan, nil
}

// composeHomogeneous fills the workers with domains of the single calibrated
// size and spreads the instances round-robin (load balancing, Fig. 4.1).
func composeHomogeneous(plan *Plan, shared []Instance, workers int) error {
	size := plan.CalibratedSizes[shared[0].Name]
	n := workers / size
	if n == 0 {
		n = 1
		size = workers
	}
	if n > len(shared) {
		n = len(shared) // a domain without instances is pointless
	}
	start := len(plan.Domains)
	for i := 0; i < n; i++ {
		plan.Domains = append(plan.Domains, PlanDomain{Size: size})
	}
	// Honour co-location by assigning pairs together.
	assigned := map[string]int{}
	next := 0
	for _, inst := range shared {
		var d int
		if inst.CoLocateWith != "" {
			if prev, ok := assigned[inst.CoLocateWith]; ok {
				d = prev
			} else {
				d = start + next%n
				next++
			}
		} else {
			d = start + next%n
			next++
		}
		plan.Domains[d].Instances = append(plan.Domains[d].Instances, inst.Name)
		assigned[inst.Name] = d
	}
	return nil
}

// composeHeterogeneous solves the GAP-MQ ILP (Equations 1–7) for mixed
// calibrated sizes; beyond exact reach it falls back to the greedy
// first-fit composition.
func composeHeterogeneous(plan *Plan, shared []Instance, workers int, names map[string]int) error {
	gap := make([]ilp.GAPInstance, len(shared))
	totalLoad := 0.0
	for i, inst := range shared {
		load := inst.Load
		if load <= 0 {
			load = 1
		}
		size := plan.CalibratedSizes[inst.Name]
		if size > workers {
			// Isolation may have shrunk the shared pool below the
			// calibrated optimum; a smaller domain only lowers worst-case
			// contention (Section 5.2), so clamping is safe.
			size = workers
		}
		gap[i] = ilp.GAPInstance{Name: inst.Name, OptimalSize: size, Load: load}
		totalLoad += load
	}
	var coLocate [][2]int
	sharedIdx := map[string]int{}
	for i, inst := range shared {
		sharedIdx[inst.Name] = i
	}
	for i, inst := range shared {
		if inst.CoLocateWith == "" {
			continue
		}
		j, ok := sharedIdx[inst.CoLocateWith]
		if !ok {
			return fmt.Errorf("config: %q co-locates with unknown or isolated instance %q", inst.Name, inst.CoLocateWith)
		}
		coLocate = append(coLocate, [2]int{i, j})
	}
	// Load window: balanced within a factor of ~2 around the mean domain
	// load, assuming roughly one domain per distinct size per instance.
	maxLoad := totalLoad // permissive upper bound; Eq. 2 still forces ≥ 1
	minLoad := 0.0
	var res *ilp.GAPResult
	var err error
	const exactLimit = 12
	if len(shared) <= exactLimit {
		res, err = ilp.SolveGAPMQ(gap, workers, minLoad, maxLoad, coLocate, 0)
	} else {
		res, err = ilp.GreedyGAPMQ(gap, workers, totalLoad/float64(len(shared))*4)
	}
	if err != nil {
		return err
	}
	start := len(plan.Domains)
	for _, size := range res.DomainSizes {
		plan.Domains = append(plan.Domains, PlanDomain{Size: size})
	}
	for i, d := range res.Assignment {
		plan.Domains[start+d].Instances = append(plan.Domains[start+d].Instances, shared[i].Name)
	}
	return nil
}

// Materialise turns a plan into a runnable core.Config on the machine,
// carving socket-major CPU sets for each domain in plan order.
func Materialise(plan *Plan, m *topology.Machine) (core.Config, error) {
	need := plan.WorkersUsed()
	if need > m.LogicalCPUs() {
		return core.Config{}, fmt.Errorf("config: plan needs %d CPUs, machine has %d", need, m.LogicalCPUs())
	}
	// Socket-major CPU order, mirroring topology.PartitionEven.
	var order []int
	for _, sk := range m.Sockets {
		order = append(order, m.CPUsOfSocket(sk.ID)...)
	}
	cfg := core.Config{Machine: m, Assignment: map[string]int{}}
	cursor := 0
	for i, d := range plan.Domains {
		cpus := topology.NewCPUSet(order[cursor : cursor+d.Size]...)
		cursor += d.Size
		name := fmt.Sprintf("domain-%d", i)
		if d.Isolated {
			name = fmt.Sprintf("isolated-%d", i)
		}
		cfg.Domains = append(cfg.Domains, core.DomainSpec{
			Name:      name,
			CPUs:      cpus,
			Placement: core.PlacePinned,
		})
		for _, inst := range d.Instances {
			cfg.Assignment[inst] = i
		}
	}
	// Durability axes ride along; the WAL stays off (Dir == "") until the
	// caller points it at a log directory. The arena axis is live
	// immediately — it needs no external resource.
	cfg.WAL.Fsync = plan.Durability.Fsync
	cfg.WAL.CheckpointEvery = plan.Durability.CheckpointEvery
	cfg.Arena = plan.Arena
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}
