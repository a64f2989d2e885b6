// Command robustserved serves the delegation runtime over TCP: the network
// front end of internal/server wired to a sharded index composition, so
// remote clients (robustconf/client, robustycsb -addr) drive the same
// two-phase batched sweeps as in-process sessions — one pipelined network
// batch per delegation burst.
//
// Usage:
//
//	robustserved -addr :7070 -structure fptree -shards 4 -records 100000
//	robustserved -addr :0 -structure hashmap -obs :6060 -signals
//
// The session pool defaults to what the composition can absorb (every
// session reserves -burst slots per domain; a domain of w workers exposes
// w×15), mirroring config.RecommendServer. SIGINT/SIGTERM drain
// gracefully: the listener closes, in-flight pipelined batches execute and
// flush, then the pool and runtime come down.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"robustconf"
	"robustconf/internal/delegation"
	"robustconf/internal/index"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/metrics"
	"robustconf/internal/server"
	"robustconf/internal/workload"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address (:0 picks a free port)")
	structure := flag.String("structure", "fptree", "btree, fptree, bwtree, hashmap")
	shards := flag.Int("shards", 4, "structure shards keys are consistent-hashed over")
	domain := flag.Int("domain", 0, "virtual domain size in workers (0 = one domain over all CPUs)")
	records := flag.Uint64("records", 100_000, "pre-loaded records")
	sessions := flag.Int("sessions", 0, "session pool size (0 = derive from slot capacity)")
	burst := flag.Int("burst", robustconf.PaperBurstSize, "per-session burst window")
	pipeline := flag.Int("pipeline", server.DefaultMaxPipeline, "max requests decoded into one batch per connection")
	stripe := flag.Int("stripe", 1, "max pooled sessions one batch widens across (1 = single sliding window)")
	acquireTimeout := flag.Duration("acquire-timeout", server.DefaultAcquireTimeout, "session-lease deadline before BUSY")
	writeTimeout := flag.Duration("write-timeout", server.DefaultWriteTimeout, "per-response-run write deadline (slow readers are dropped)")
	tenantOps := flag.Int("tenant-ops", 0, "per-tenant in-flight op quota (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown bound")
	obsAddr := flag.String("obs", "", "serve the observability endpoint on this address (e.g. :6060)")
	signals := flag.Bool("signals", false, "run the continuous-signal sampler (adds /signals + server-rate gauges)")
	signalsEvery := flag.Duration("signals-every", robustconf.DefaultSamplerEvery, "sampler cadence (with -signals)")
	flag.Parse()

	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be ≥ 1"))
	}
	newIndex := map[string]func() index.Index{
		"btree":   func() index.Index { return btree.New() },
		"fptree":  func() index.Index { return fptree.New() },
		"bwtree":  func() index.Index { return bwtree.New() },
		"hashmap": func() index.Index { return hashmap.New() },
	}[*structure]
	if newIndex == nil {
		fatal(fmt.Errorf("unknown structure %q", *structure))
	}

	machine := robustconf.Machine(1)
	size := *domain
	if size <= 0 {
		size = machine.LogicalCPUs()
	}
	var domains []robustconf.Domain
	for lo := 0; lo < machine.LogicalCPUs(); lo += size {
		hi := lo + size
		if hi > machine.LogicalCPUs() {
			hi = machine.LogicalCPUs()
		}
		domains = append(domains, robustconf.Domain{
			Name: fmt.Sprintf("d%d", len(domains)),
			CPUs: robustconf.CPURange(lo, hi),
		})
	}

	// Shards spread round-robin over the domains; the shard names seed the
	// server's consistent-hash ring, and building the same ring here lets
	// the preload place each key on the shard the server will route it to.
	shardNames := make([]string, *shards)
	assignment := map[string]int{}
	registered := map[string]any{}
	indexes := map[string]index.Index{}
	for i := range shardNames {
		name := fmt.Sprintf("shard%d", i)
		shardNames[i] = name
		assignment[name] = i % len(domains)
		idx := newIndex()
		registered[name] = idx
		indexes[name] = idx
	}
	router, err := server.NewRouter(shardNames)
	if err != nil {
		fatal(err)
	}
	for _, k := range workload.LoadKeys(*records) {
		indexes[router.Lookup(k)].Insert(k, k, nil)
	}

	faults := &metrics.FaultCounters{}
	observer := robustconf.NewObserver(robustconf.ObserverOptions{Faults: faults})
	if *obsAddr != "" {
		oaddr, stopSrv, err := observer.Serve(*obsAddr)
		if err != nil {
			fatal(err)
		}
		defer stopSrv()
		fmt.Printf("obs: serving http://%s/metrics (also /signals, /spans, /events, /debug/pprof/)\n", oaddr)
	}
	if *signals {
		stopSampler, err := observer.StartSamplerToPath(*signalsEvery, "")
		if err != nil {
			fatal(err)
		}
		defer stopSampler()
	}

	rt, err := robustconf.Start(robustconf.Config{
		Machine:    machine,
		Domains:    domains,
		Assignment: assignment,
		Faults:     faults,
		Obs:        observer,
	}, registered)
	if err != nil {
		fatal(err)
	}
	defer rt.Stop()

	// Pool sizing mirrors config.RecommendServer: the smallest domain's
	// slot capacity bounds how many sessions can hold a full burst there.
	nSessions := *sessions
	if nSessions <= 0 {
		minSize := domains[0].CPUs.Len()
		for _, d := range domains[1:] {
			if d.CPUs.Len() < minSize {
				minSize = d.CPUs.Len()
			}
		}
		nSessions = minSize * delegation.SlotsPerBuffer / *burst
		if nSessions < 1 {
			nSessions = 1
		}
	}

	srv, err := server.Listen(*addr, server.Config{
		Runtime:        rt,
		Shards:         shardNames,
		Sessions:       nSessions,
		Burst:          *burst,
		MaxPipeline:    *pipeline,
		Stripe:         *stripe,
		AcquireTimeout: *acquireTimeout,
		WriteTimeout:   *writeTimeout,
		TenantOps:      *tenantOps,
		Obs:            observer,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("robustserved: serving %s (%s ×%d shards over %d domains, %d sessions, burst %d, pipeline ≤%d)\n",
		srv.Addr(), *structure, *shards, len(domains), nSessions, *burst, *pipeline)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("robustserved: draining…")
	if err := srv.Close(*drainTimeout); err != nil {
		fmt.Fprintln(os.Stderr, "robustserved: drain:", err)
	}
	st := srv.Stats()
	fmt.Printf("robustserved: served %d ops in %d batches over %d connections (pipeline max %d, busy %d, quota %d)\n",
		st.Ops, st.Batches, st.ConnsAccepted, st.PipelineMax, st.BusyRejects, st.QuotaRejects)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "robustserved:", err)
	os.Exit(1)
}
