package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"robustconf"
	"robustconf/client"
	"robustconf/internal/config"
	"robustconf/internal/core"
	"robustconf/internal/harness"
	"robustconf/internal/index"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/index/kinds"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
	"robustconf/internal/sim"
	"robustconf/internal/topology"
	"robustconf/internal/workload"
)

// cmdYCSB runs a YCSB mix for real on this host, through the runtime under
// the -domain partitioning (the measurement loop of the paper's Experiment
// 1 at laptop scale), or with -addr against a serve process over TCP.
func cmdYCSB(o *opts, w io.Writer) error {
	if o.clients < 1 {
		return usageError{fmt.Errorf("-clients must be ≥ 1")}
	}
	if o.addr != "" {
		if err := o.reject("with -addr (the server owns the structure, the runtime and the log)",
			append(append([]string{"structure", "domain", "burst", "trace"}, walFlags...), obsFlags...)...); err != nil {
			return err
		}
		return network(o, w)
	}
	if err := o.reject("without -addr", "pipeline", "tenant"); err != nil {
		return err
	}
	kind, mix := o.structure, o.mix.val
	walCfg, err := o.walConfig()
	if err != nil {
		return err
	}
	// With -wal the durable adapter is registered in place of the bare
	// index, so the structure can checkpoint and replay.
	var ds any
	if o.wal == "" {
		ds = kind.New()
	} else if ds, err = harness.NewWALTree(kind); err != nil {
		return usageError{fmt.Errorf("-wal: %w", err)}
	}
	m, domains := carve(o.domain)
	streams := make([]stream, o.clients)
	for c := range streams {
		if streams[c], err = o.stream("ycsb", mix, c, o.ops); err != nil {
			return err
		}
	}
	r, err := o.drive(w, core.Config{
		Machine:    m,
		Domains:    domains,
		Assignment: map[string]int{"ycsb": 0},
		WAL:        walCfg,
	}, map[string]any{"ycsb": ds}, streams, o.burst)
	if err != nil {
		return err
	}
	defer r.stop()

	total := float64(o.clients * o.ops)
	fmt.Fprintf(w, "%s / %s: domains of %d workers, %d clients, burst %d, bypass reads %t\n",
		kind.Name(), mix.Name, domains[0].CPUs.Len(), o.clients, r.burst, r.rt.BypassReads("ycsb"))
	fmt.Fprintf(w, "throughput: %.0f ops/s (%d ops in %v)\n",
		total/r.elapsed.Seconds(), int(total), r.elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "latency ns: %s\n", r.latency.String())
	switch t := ds.(type) {
	case *fptree.Tree:
		st := t.HTMStats()
		fmt.Fprintf(w, "htm: commits=%d aborts=%d fallbacks=%d abort-ratio=%.4f\n",
			st.Commits.Load(), st.Aborts.Load(), st.Fallbacks.Load(), st.AbortRatio())
	case *bwtree.Tree:
		fmt.Fprintf(w, "bwtree: cas-failures=%d consolidations=%d\n", t.CASFailures.Load(), t.Consolidations.Load())
	case *hashmap.Map:
		fmt.Fprintf(w, "hashmap: reader-registrations=%d bucket-stddev=%.2f\n", t.ReaderRegistrations(), t.BucketSizeStdDev())
	case *harness.WALTree:
		walSummary(w, r.rt, o.fsync)
	}
	fmt.Fprint(w, r.ob.Report())
	return nil
}

type stream struct {
	structure string
	ops       []workload.Op
}

// stream draws client c's n operations on structure name. With -trace it
// writes them to FILE.<c> and replays the file: the paper's method of
// generating a stream once and replaying it identically everywhere.
func (o *opts) stream(name string, mix workload.Mix, c, n int) (stream, error) {
	gen, err := workload.NewGenerator(mix, o.records, uint64(c), int64(c)+1)
	if err != nil {
		return stream{}, err
	}
	if o.trace != "" {
		ops, err := replay(fmt.Sprintf("%s.%d", o.trace, c), gen, n)
		return stream{name, ops}, err
	}
	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = gen.Next()
	}
	return stream{name, ops}, nil
}

func replay(path string, gen *workload.Generator, n int) ([]workload.Op, error) {
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, gen, n); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr, err := workload.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var ops []workload.Op
	for op, ok := tr.Next(); ok; op, ok = tr.Next() {
		ops = append(ops, op)
	}
	return ops, tr.Err()
}

// driven is what a drive leaves for the report; stop ends the observer.
type driven struct {
	rt      *core.Runtime
	ob      *obs.Observer
	stop    func()
	burst   int
	latency metrics.Histogram
	elapsed time.Duration
}

// drive loads -records keys into every structure, starts the runtime under
// cfg, runs stream c on a session on CPU c, and stops the runtime so its
// last flush reaches the observer. A session takes its burst in the domain
// it posts to: the burst shrinks until each domain's sessions fit. Reads go
// through SubmitRead, so they bypass wherever the structure allows; on a
// durable structure a write resolves after its group commit, so a nil error
// means durable.
func (o *opts) drive(w io.Writer, cfg core.Config, structures map[string]any, streams []stream, burst int) (*driven, error) {
	sessions := map[int]int{}
	for _, s := range streams {
		sessions[cfg.Assignment[s.structure]]++
	}
	want := burst
	for d, n := range sessions {
		if burst = min(burst, slotCapacity(cfg.Domains[d:d+1])/n); burst < 1 {
			return nil, fmt.Errorf("domain %s of %d workers cannot serve %d clients", cfg.Domains[d].Name, cfg.Domains[d].CPUs.Len(), n)
		}
	}
	if burst < want {
		fmt.Fprintf(w, "note: burst clamped to %d so every domain's sessions fit its slots\n", burst)
	}
	for _, ds := range structures {
		for _, k := range workload.LoadKeys(o.records) {
			if wt, ok := ds.(*harness.WALTree); ok {
				wt.Set(k, k)
			} else {
				ds.(index.Index).Insert(k, k, nil)
			}
		}
	}
	rt, ob, stop, err := o.start(w, cfg, structures)
	if err != nil {
		return nil, err
	}
	r := &driven{rt: rt, ob: ob, stop: stop, burst: burst}
	cpus := cfg.Machine.LogicalCPUs()
	r.elapsed, err = parallel(len(streams), func(c int) error {
		session, err := rt.NewSession(c%cpus, burst)
		if err != nil {
			return err
		}
		defer session.Close()
		name := streams[c].structure
		_, durable := structures[name].(*harness.WALTree)
		for _, op := range streams[c].ops {
			t0 := time.Now()
			var err error
			switch {
			case op.Type == workload.OpRead && durable:
				_, err = session.SubmitRead(core.Task{Structure: name, Op: func(ds any) any {
					v, _ := ds.(*harness.WALTree).Get(op.Key)
					return v
				}})
			case op.Type == workload.OpRead:
				_, err = session.SubmitRead(core.Task{Structure: name, Op: func(ds any) any {
					v, _ := ds.(index.Index).Get(op.Key, nil)
					return v
				}})
			case durable:
				_, err = session.Invoke(core.Task{
					Structure: name,
					Op: func(ds any) any {
						ds.(*harness.WALTree).Set(op.Key, op.Val)
						return nil
					},
					Log: func(dst []byte) []byte { return harness.AppendWALSet(dst, op.Key, op.Val) },
				})
			default:
				_, err = session.Invoke(core.Task{Structure: name, Op: func(ds any) any {
					tr := ds.(index.Index)
					if op.Type == workload.OpUpdate {
						return tr.Update(op.Key, op.Val, nil)
					}
					return tr.Insert(op.Key, op.Val, nil)
				}})
			}
			r.latency.Record(uint64(time.Since(t0).Nanoseconds()))
			if err != nil {
				return err
			}
		}
		return nil
	})
	rt.Stop()
	if err != nil {
		stop()
		return nil, err
	}
	return r, nil
}

// network drives a serve process: one connection per client, each keeping
// a window of -pipeline requests in flight so the server turns every
// network read into one delegation burst. Latency is recorded per flushed
// window (a depth-k window's round trip covers k ops); a BUSY answer is
// counted, not retried.
func network(o *opts, w io.Writer) error {
	depth := max(o.pipeline, 1)
	var latency metrics.Histogram
	var busy atomic.Uint64
	elapsed, err := parallel(o.clients, func(c int) error {
		gen, err := workload.NewGenerator(o.mix.val, o.records, uint64(c), int64(c)+1)
		if err != nil {
			return err
		}
		conn, err := client.DialTenant(o.addr, o.tenant)
		if err != nil {
			return err
		}
		defer conn.Close()
		for sent := 0; sent < o.ops; sent += depth {
			window := min(depth, o.ops-sent)
			for i := 0; i < window; i++ {
				if op := gen.Next(); op.Type == workload.OpRead {
					conn.QueueGet(op.Key)
				} else {
					conn.QueuePut(op.Key, op.Val)
				}
			}
			t0 := time.Now()
			if err := conn.Flush(); err != nil {
				return err
			}
			for conn.Pending() > 0 {
				_, _, err := conn.Recv()
				if errors.Is(err, client.ErrBusy) {
					busy.Add(1)
				} else if err != nil {
					return err
				}
			}
			ns := uint64(time.Since(t0).Nanoseconds())
			for i := 0; i < window; i++ {
				latency.Record(ns)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	total := float64(o.clients * o.ops)
	fmt.Fprintf(w, "network / %s: %s, %d clients, pipeline depth %d\n", o.mix.val.Name, o.addr, o.clients, depth)
	fmt.Fprintf(w, "throughput: %.0f ops/s (%d ops in %v, %d busy-rejected)\n",
		total/elapsed.Seconds(), int(total), elapsed.Round(time.Millisecond), busy.Load())
	fmt.Fprintf(w, "window latency ns: %s\n", latency.String())
	return nil
}

// scenarios are the paper's example compositions (Figure 4).
var scenarios = map[string][]config.Instance{
	// Homogeneous: all indexes write-heavy.
	"oltp1": {
		{Name: "orders-idx", Kind: kinds.FPTree, Mix: workload.A, Load: 1},
		{Name: "stock-idx", Kind: kinds.FPTree, Mix: workload.A, Load: 1},
		{Name: "customer-idx", Kind: kinds.FPTree, Mix: workload.A, Load: 1},
		{Name: "district-idx", Kind: kinds.FPTree, Mix: workload.A, Load: 1},
	},
	// Mixed OLTP with two crucial indexes isolated (Fig. 4.2).
	"oltp2": {
		{Name: "lock-table", Kind: kinds.HashMap, Mix: workload.A, Load: 0.5, Crucial: true},
		{Name: "hot-orders", Kind: kinds.FPTree, Mix: workload.A, Load: 0.5, Crucial: true},
		{Name: "write-idx-1", Kind: kinds.FPTree, Mix: workload.A, Load: 1},
		{Name: "write-idx-2", Kind: kinds.FPTree, Mix: workload.A, Load: 1},
		{Name: "read-idx-1", Kind: kinds.FPTree, Mix: workload.C, Load: 1},
		{Name: "read-idx-2", Kind: kinds.FPTree, Mix: workload.C, Load: 1},
		{Name: "read-idx-3", Kind: kinds.FPTree, Mix: workload.C, Load: 1},
	},
	// Shared heterogeneous: write-heavy, read-update, read-only.
	"htap": {
		{Name: "oltp-idx-1", Kind: kinds.FPTree, Mix: workload.A, Load: 1},
		{Name: "oltp-idx-2", Kind: kinds.FPTree, Mix: workload.A, Load: 1, CoLocateWith: "oltp-idx-1"},
		{Name: "fresh-idx", Kind: kinds.BWTree, Mix: workload.D, Load: 1},
		{Name: "olap-idx-1", Kind: kinds.BTree, Mix: workload.C, Load: 1},
		{Name: "olap-idx-2", Kind: kinds.BTree, Mix: workload.C, Load: 1},
	},
}

// cmdPlan composes one of the paper's example scenarios; with -run it also
// materialises the plan with real structures and drives ops through it.
func cmdPlan(o *opts, w io.Writer) error {
	if o.run <= 0 {
		if err := o.reject("without -run", append([]string{"records"}, obsFlags...)...); err != nil {
			return err
		}
	}
	instances := o.scenario.val
	plan, err := config.Compose(instances, o.workers, sim.ConfiguredThroughput)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scenario %s on %d workers → %s", o.scenario.name, o.workers, plan)
	if o.run <= 0 {
		return nil
	}

	m, err := topology.Restricted(max(1, (plan.WorkersUsed()+47)/48))
	if err != nil {
		return err
	}
	cfg, err := config.Materialise(plan, m)
	if err != nil {
		return err
	}
	registered := make(map[string]any, len(instances))
	streams := make([]stream, len(instances))
	for c, inst := range instances {
		registered[inst.Name] = inst.Kind.New()
		if streams[c], err = o.stream(inst.Name, inst.Mix, c, o.run); err != nil {
			return err
		}
	}
	r, err := o.drive(w, cfg, registered, streams, robustconf.PaperBurstSize)
	if err != nil {
		return err
	}
	defer r.stop()
	total := len(instances) * o.run
	fmt.Fprintf(w, "run: %d ops in %v → %.0f ops/s across %d instances\n",
		total, r.elapsed.Round(time.Millisecond), float64(total)/r.elapsed.Seconds(), len(instances))
	fmt.Fprint(w, r.ob.Report())
	return nil
}
