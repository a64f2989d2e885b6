// Command robustconf is the command-line front end of the runtime. Its verbs
// reproduce the paper's evaluation on the simulated reference machine (bench,
// calib, sim), run the configuration process (plan), and drive the real
// runtime (chaos, ycsb, tpcc, serve):
//
//	robustconf bench -exp fig7 -format csv
//	robustconf plan -scenario oltp2 -workers 192 -run 2000
//	robustconf ycsb -structure fptree -mix a -domain 24 -clients 4 -wal /tmp/wal
//	robustconf serve -addr :7070 -structure btree -shards 4
//
// `robustconf <verb> -h` lists a verb's flags. A usage error, including a
// flag the chosen mode would ignore, exits 2; a failed run exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"robustconf"
	"robustconf/internal/config"
	"robustconf/internal/core"
	"robustconf/internal/delegation"
	"robustconf/internal/index/kinds"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
	"robustconf/internal/server"
	"robustconf/internal/sim"
	"robustconf/internal/topology"
	"robustconf/internal/wal"
	"robustconf/internal/workload"
)

// verb is one subcommand: the flags it takes ("name=value" gives one a
// default of the verb's own) and its body.
type verb struct {
	flags []string
	run   func(o *opts, w io.Writer) error
}

var (
	obsFlags = []string{"obs", "obs-trace", "signals", "signals-every", "signals-stream"}
	walFlags = []string{"wal", "fsync", "checkpoint"}
	verbs    = map[string]verb{
		"bench": {[]string{"exp", "format", "list"}, cmdBench},
		"calib": {[]string{"curves"}, cmdCalib},
		"sim":   {[]string{"topology", "sweep", "structure", "mix", "strategy", "threads", "domain", "instances"}, cmdSim},
		"plan":  {append([]string{"scenario", "workers", "run", "records=10000"}, obsFlags...), cmdPlan},
		"chaos": {append([]string{"schedule", "seed", "clients=6", "ops=300", "hold"}, obsFlags...), cmdChaos},
		"ycsb": {append(append([]string{"addr", "pipeline=16", "tenant", "structure", "mix", "domain", "clients",
			"records", "ops", "burst", "trace"}, obsFlags...), walFlags...), cmdYCSB},
		"tpcc": {append(append([]string{"engine", "structure", "warehouses", "customers", "items", "clients", "txns",
			"remote"}, obsFlags...), walFlags...), cmdTPCC},
		"serve": {append([]string{"addr=:7070", "structure", "shards", "domain=0", "records", "sessions", "burst",
			"pipeline", "acquire-timeout", "write-timeout", "tenant-ops", "drain-timeout"}, obsFlags...), cmdServe},
	}
)

// opts holds every flag of every verb; a verb registers the ones it reads.
type opts struct {
	set       map[string]bool // flags given on the command line
	structure kinds.Kind
	mix       choice[workload.Mix]
	strategy  choice[sim.Strategy]
	scenario  choice[[]config.Instance]
	engine    choice[sim.EngineKind]

	exp, format, schedule, addr, tenant, trace, obs, wal, signalsStream, fsync           string
	list, curves, hold, topology, sweep, signals                                         bool
	clients, ops, threads, domain, instances, workers, run, customers, warehouses, items int
	txns, pipeline, burst, shards, sessions, tenantOps, obsTrace                         int
	seed                                                                                 int64
	records                                                                              uint64
	remote                                                                               float64
	signalsEvery, checkpoint, acquireTimeout, writeTimeout, drain                        time.Duration
}

// flagSet registers a verb's flags. Every flag is defined once, here, so a
// name means the same thing under every verb.
func (o *opts) flagSet(name string, specs []string) *flag.FlagSet {
	o.structure, o.mix, o.strategy = kinds.FPTree, pick(mixes, "a"), pick(strategies, "opt")
	o.scenario, o.engine = pick(scenarios, "oltp2"), pick(engines, "delegated")
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.StringVar(&o.exp, "exp", "", "experiment to run (default: all)")
	all.StringVar(&o.format, "format", "text", "output format: text or csv (figures only)")
	all.BoolVar(&o.list, "list", false, "list experiment names")
	all.BoolVar(&o.curves, "curves", false, "print the full calibration curves")
	all.BoolVar(&o.topology, "topology", false, "print the reference machine topology")
	all.BoolVar(&o.sweep, "sweep", false, "print a strategies × system-sizes throughput table")
	all.Var(&o.structure, "structure", "index structure: "+kinds.Flags())
	all.Var(&o.mix, "mix", "YCSB mix: a (read-update), c (read-only), d (read-insert)")
	all.Var(&o.strategy, "strategy", "strategy: "+keys(strategies))
	all.IntVar(&o.threads, "threads", 384, "system size in threads (48 per socket)")
	all.IntVar(&o.domain, "domain", 24, "virtual domain size in workers (0 = one domain over all CPUs)")
	all.IntVar(&o.instances, "instances", 0, "structure instances (0 = one per domain)")
	all.Var(&o.scenario, "scenario", "Figure 4 scenario: "+keys(scenarios))
	all.IntVar(&o.workers, "workers", 192, "available worker threads")
	all.IntVar(&o.run, "run", 0, "materialise the plan and drive this many ops per instance through it")
	all.Uint64Var(&o.records, "records", 100_000, "pre-loaded records per structure")
	all.StringVar(&o.schedule, "schedule", "all", "fault schedule: all or one of "+scheduleNames())
	all.Int64Var(&o.seed, "seed", 1, "fault-injection seed")
	all.IntVar(&o.clients, "clients", 4, "concurrent clients (sessions, connections or TPC-C terminals)")
	all.IntVar(&o.ops, "ops", 50_000, "operations per client")
	all.BoolVar(&o.hold, "hold", false, "keep the -obs endpoint serving after the run until SIGINT or SIGTERM")
	all.StringVar(&o.addr, "addr", "", "serve: listen address (:0 picks a free port); ycsb: drive the server there")
	all.IntVar(&o.pipeline, "pipeline", server.DefaultMaxPipeline, "requests pipelined per connection")
	all.StringVar(&o.tenant, "tenant", "", "tenant name for server-side quota accounting")
	all.IntVar(&o.burst, "burst", robustconf.PaperBurstSize, "per-session burst window (outstanding tasks)")
	all.StringVar(&o.trace, "trace", "", "write each client's ops to FILE.<client> first, then replay them")
	all.Var(&o.engine, "engine", "TPC-C engine: "+keys(engines))
	all.IntVar(&o.warehouses, "warehouses", 4, "TPC-C warehouses")
	all.IntVar(&o.customers, "customers", 300, "customers per district (scaled down)")
	all.IntVar(&o.items, "items", 1000, "items (scaled down)")
	all.IntVar(&o.txns, "txns", 2000, "transactions per client")
	all.Float64Var(&o.remote, "remote", 0.01, "remote transaction fraction")
	all.IntVar(&o.shards, "shards", 4, "structure shards keys are consistent-hashed over")
	all.IntVar(&o.sessions, "sessions", 0, "session pool size (0 = derive from slot capacity)")
	all.DurationVar(&o.acquireTimeout, "acquire-timeout", server.DefaultAcquireTimeout, "session-lease deadline before BUSY")
	all.DurationVar(&o.writeTimeout, "write-timeout", server.DefaultWriteTimeout, "per-response-run write deadline (slow readers are dropped)")
	all.IntVar(&o.tenantOps, "tenant-ops", 0, "per-tenant in-flight op quota (0 = unlimited)")
	all.DurationVar(&o.drain, "drain-timeout", 10*time.Second, "graceful shutdown bound")
	all.StringVar(&o.obs, "obs", "", "serve the observability endpoint on this address (e.g. :6060)")
	all.IntVar(&o.obsTrace, "obs-trace", 0, "commit every Nth sampled task span to the trace ring (0 = off)")
	all.BoolVar(&o.signals, "signals", false, "run the continuous-signal sampler (adds /signals, gauges and a report block)")
	all.DurationVar(&o.signalsEvery, "signals-every", obs.DefaultSamplerEvery, "sampler cadence")
	all.StringVar(&o.signalsStream, "signals-stream", "", "stream per-tick domain signals as NDJSON to this file (implies -signals)")
	all.StringVar(&o.wal, "wal", "", "directory for per-domain write-ahead logs (empty = durability off)")
	all.StringVar(&o.fsync, "fsync", "batch", "WAL flush discipline: none, batch or always")
	all.DurationVar(&o.checkpoint, "checkpoint", 0, "WAL checkpoint cadence (0 = default)")

	// fs.Var reads a flag's default from its value, so a verb's own goes in first.
	fs := flag.NewFlagSet("robustconf "+name, flag.ContinueOnError)
	for _, spec := range specs {
		n, def, own := strings.Cut(spec, "=")
		f := all.Lookup(n)
		if own {
			if err := f.Value.Set(def); err != nil {
				panic(err)
			}
		}
		fs.Var(f.Value, n, f.Usage)
	}
	return fs
}

// choice is a flag whose value names one entry of a table.
type choice[T any] struct {
	name string
	val  T
	of   map[string]T
}

func pick[T any](of map[string]T, name string) choice[T] { return choice[T]{name, of[name], of} }

func (c *choice[T]) String() string { return c.name }

func (c *choice[T]) Set(s string) error {
	v, ok := c.of[s]
	if !ok {
		return fmt.Errorf("want one of %s", keys(c.of))
	}
	c.name, c.val = s, v
	return nil
}

func keys[T any](m map[string]T) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

var (
	mixes      = map[string]workload.Mix{"a": workload.A, "c": workload.C, "d": workload.D}
	strategies = map[string]sim.Strategy{"opt": sim.StratConfigured, "sn-numa": sim.StratSNNUMA,
		"sn-thread": sim.StratSNThread, "se-numa": sim.StratSENUMA, "se": sim.StratSE}
	engines = map[string]sim.EngineKind{"delegated": sim.EngineDelegated, "direct": sim.EngineDirectSNNUMA}
)

// usageError marks an error in how a verb was invoked: exit 2 with usage.
type usageError struct{ error }

// reject names the first of names given on the command line as ignored why.
func (o *opts) reject(why string, names ...string) error {
	for _, n := range names {
		if o.set[n] {
			return usageError{fmt.Errorf("-%s is ignored %s", n, why)}
		}
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || verbs[args[0]].run == nil {
		fmt.Fprintf(stderr, "usage: robustconf <verb> [flags]\nverbs: %s\n", keys(verbs))
		return 2
	}
	v, o := verbs[args[0]], &opts{set: map[string]bool{}}
	fs := o.flagSet(args[0], v.flags)
	fs.SetOutput(stderr)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if fs.NArg() > 0 {
		return fatal(stderr, fs, usageError{fmt.Errorf("unexpected argument %q", fs.Arg(0))})
	}
	return fatal(stderr, fs, v.run(o, stdout))
}

// fatal reports a verb's error and returns the exit code.
func fatal(stderr io.Writer, fs *flag.FlagSet, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "%s: %v\n", fs.Name(), err)
	if errors.As(err, new(usageError)) {
		fs.Usage()
		return 2
	}
	return 1
}

// startObserver builds the run's observer and starts what the obs flags ask for.
func (o *opts) startObserver(w io.Writer) (ob *obs.Observer, faults *metrics.FaultCounters, stop func(), err error) {
	faults = &metrics.FaultCounters{}
	ob = obs.New(obs.Options{TraceEvery: o.obsTrace, Faults: faults})
	stop = func() {}
	if o.obs != "" {
		addr, stopSrv, err := ob.Serve(o.obs)
		if err != nil {
			return nil, nil, nil, err
		}
		stop = func() { stopSrv() }
		fmt.Fprintf(w, "obs: serving http://%s/metrics (also /signals, /spans, /events, /debug/pprof/)\n", addr)
	}
	if o.signals || o.signalsStream != "" {
		stopSampler, err := ob.StartSamplerToPath(o.signalsEvery, o.signalsStream)
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		stopSrv := stop
		stop = func() { stopSampler(); stopSrv() }
	}
	return ob, faults, stop, nil
}

// start starts a runtime under cfg with the obs flags' observer attached.
func (o *opts) start(w io.Writer, cfg core.Config, structures map[string]any) (*core.Runtime, *obs.Observer, func(), error) {
	ob, faults, stopObs, err := o.startObserver(w)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.Faults, cfg.Obs = faults, ob
	rt, err := core.Start(cfg, structures)
	if err != nil {
		stopObs()
		return nil, nil, nil, err
	}
	return rt, ob, func() { rt.Stop(); stopObs() }, nil
}

// walConfig is the WAL setting -wal, -fsync and -checkpoint ask for.
func (o *opts) walConfig() (core.WALConfig, error) {
	if o.wal == "" {
		return core.WALConfig{}, o.reject("without -wal", "fsync", "checkpoint")
	}
	mode, err := wal.ParseFsyncMode(o.fsync)
	if err != nil {
		return core.WALConfig{}, usageError{err}
	}
	return core.WALConfig{Dir: o.wal, Fsync: mode, CheckpointEvery: o.checkpoint}, nil
}

// walSummary prints the line a logged run ends with.
func walSummary(w io.Writer, rt *core.Runtime, fsync string) {
	var committed, replayed, recoveries uint64
	for _, d := range rt.Domains() {
		st := d.WALStats()
		committed, replayed, recoveries = committed+st.Committed, replayed+st.Replayed, recoveries+st.Recoveries
	}
	fmt.Fprintf(w, "wal: fsync=%s committed=%d recoveries=%d replayed=%d\n", fsync, committed, recoveries, replayed)
}

// carve splits the one-socket reference machine into domains of size
// workers, the last taking the remainder; size ≤ 0 gives one domain.
func carve(size int) (*topology.Machine, []core.DomainSpec) {
	m, _ := topology.Restricted(1) // one socket is always in range
	cpus := m.LogicalCPUs()
	if size <= 0 {
		size = cpus
	}
	var domains []core.DomainSpec
	for lo := 0; lo < cpus; lo += size {
		domains = append(domains, core.DomainSpec{Name: fmt.Sprintf("d%d", len(domains)), CPUs: topology.Range(lo, min(lo+size, cpus))})
	}
	return m, domains
}

// slotCapacity is how many slots a structure can count on in the smallest
// of domains: each worker's buffer holds delegation.SlotsPerBuffer, and a
// session reserves its burst in every buffer of a domain it posts to.
func slotCapacity(domains []core.DomainSpec) int {
	n := domains[0].CPUs.Len()
	for _, d := range domains[1:] {
		n = min(n, d.CPUs.Len())
	}
	return n * delegation.SlotsPerBuffer
}

// parallel runs body(0) … body(n-1) concurrently: wall time, first error.
func parallel(n int, body func(c int) error) (time.Duration, error) {
	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := body(c); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	return elapsed, <-errs
}

// stopSignal returns a channel that receives SIGINT or SIGTERM. Registering
// it before the work starts keeps an early signal from killing the process.
func stopSignal() <-chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig
}
