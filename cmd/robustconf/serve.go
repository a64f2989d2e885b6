package main

import (
	"fmt"
	"io"

	"robustconf/internal/core"
	"robustconf/internal/index"
	"robustconf/internal/server"
	"robustconf/internal/workload"
)

// cmdServe serves the runtime over TCP: the network front end of
// internal/server over -shards instances of one structure, so remote
// clients (robustconf/client, ycsb -addr) drive the same batched sweeps as
// in-process sessions, one pipelined network batch per delegation burst.
// SIGINT or SIGTERM drains: the listener closes, in-flight batches execute
// and flush, then the session pool and the runtime come down.
func cmdServe(o *opts, w io.Writer) error {
	if o.shards < 1 || o.burst < 1 {
		return usageError{fmt.Errorf("-shards and -burst must be ≥ 1")}
	}
	stopped := stopSignal()
	m, domains := carve(o.domain)

	// Shards spread round-robin over the domains. The shard names seed the
	// server's consistent-hash ring, and building the same ring here lets
	// the preload place each key on the shard the server routes it to.
	shards := make([]string, o.shards)
	assignment := map[string]int{}
	registered := map[string]any{}
	for i := range shards {
		shards[i] = fmt.Sprintf("shard%d", i)
		assignment[shards[i]] = i % len(domains)
		registered[shards[i]] = o.structure.New()
	}
	router, err := server.NewRouter(shards)
	if err != nil {
		return err
	}
	for _, k := range workload.LoadKeys(o.records) {
		registered[router.Lookup(k)].(index.Index).Insert(k, k, nil)
	}

	rt, ob, stop, err := o.start(w, core.Config{Machine: m, Domains: domains, Assignment: assignment}, registered)
	if err != nil {
		return err
	}
	defer stop()

	// The one home of the pool-size rule: every session may hold a full
	// burst in every domain, so the smallest domain bounds the pool.
	sessions := o.sessions
	if sessions <= 0 {
		sessions = max(1, slotCapacity(domains)/o.burst)
	}
	srv, err := server.Listen(o.addr, server.Config{
		Runtime:        rt,
		Shards:         shards,
		Sessions:       sessions,
		Burst:          o.burst,
		MaxPipeline:    o.pipeline,
		AcquireTimeout: o.acquireTimeout,
		WriteTimeout:   o.writeTimeout,
		TenantOps:      o.tenantOps,
		Obs:            ob,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "robustconf serve: serving %s (%s ×%d shards over %d domains, %d sessions, burst %d, pipeline ≤%d)\n",
		srv.Addr(), o.structure, o.shards, len(domains), sessions, o.burst, o.pipeline)
	<-stopped
	fmt.Fprintln(w, "robustconf serve: draining…")
	if err := srv.Close(o.drain); err != nil {
		fmt.Fprintln(w, "robustconf serve: drain:", err)
	}
	st := srv.Stats()
	fmt.Fprintf(w, "robustconf serve: served %d ops in %d batches over %d connections (pipeline max %d, busy %d, quota %d)\n",
		st.Ops, st.Batches, st.ConnsAccepted, st.PipelineMax, st.BusyRejects, st.QuotaRejects)
	return nil
}
