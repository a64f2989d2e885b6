package main

import (
	"fmt"
	"io"
	"time"

	"robustconf"
	"robustconf/internal/core"
	"robustconf/internal/metrics"
	"robustconf/internal/obs"
	"robustconf/internal/oltp"
	"robustconf/internal/sim"
	"robustconf/internal/topology"
	"robustconf/internal/tpcc"
)

// cmdTPCC runs the TPC-C mix for real on the light-weight OLTP engine
// (delegated: a single-warehouse transaction is one task in its domain, a
// cross-warehouse one a task per warehouse) or on the direct-execution
// shared-nothing baseline, and ends with the simulated Figure 13 point for
// the same parameters on the reference machine.
func cmdTPCC(o *opts, w io.Writer) error {
	kind, direct := o.structure, o.engine.val == sim.EngineDirectSNNUMA
	if direct {
		if err := o.reject("with -engine direct (it has no runtime to log or observe)", append(walFlags, obsFlags...)...); err != nil {
			return err
		}
	}
	// The simulated point goes first: it also refuses a structure TPC-C
	// does not evaluate before anything is loaded.
	point, err := sim.RunTPCC(sim.TPCCScenario{Engine: o.engine.val, Kind: kind, Threads: 384, Warehouses: 8, RemoteFrac: o.remote})
	if err != nil {
		return err
	}
	cfg := tpcc.Config{Warehouses: o.warehouses, Customers: o.customers, Items: o.items}
	loader, err := tpcc.NewLoader(cfg, 1)
	if err != nil {
		return err
	}

	// open gives client g its store; a session store is closed after use.
	var open func(g int) (tpcc.Store, error)
	var rt *core.Runtime
	var ob *obs.Observer
	if direct {
		e, err := oltp.NewDirectEngine(cfg, kind.New)
		if err != nil {
			return err
		}
		open = func(int) (tpcc.Store, error) { return e, nil }
	} else {
		m, _ := topology.Restricted(1) // one socket is always in range
		rc, err := oltp.EvenConfig(cfg, m)
		if err != nil {
			return err
		}
		if rc.WAL, err = o.walConfig(); err != nil {
			return err
		}
		var stop func()
		if ob, rc.Faults, stop, err = o.startObserver(w); err != nil {
			return err
		}
		defer stop()
		rc.Obs = ob
		e, err := oltp.NewEngineWithConfig(cfg, kind.New, rc)
		if err != nil {
			return err
		}
		defer e.Stop()
		rt = e.Runtime()
		open = func(g int) (tpcc.Store, error) { return e.NewStore(g%m.LogicalCPUs(), robustconf.PaperBurstSize) }
	}
	boot, err := open(0)
	if err != nil {
		return err
	}
	if err := loader.Load(boot); err != nil {
		return err
	}
	if c, ok := boot.(io.Closer); ok {
		if err := c.Close(); err != nil {
			return err
		}
	}

	var latency metrics.Histogram
	elapsed, err := parallel(o.clients, func(g int) error {
		store, err := open(g)
		if err != nil {
			return err
		}
		if c, ok := store.(io.Closer); ok {
			defer c.Close()
		}
		term, err := tpcc.NewTerminal(cfg, store, 1+g%cfg.Warehouses, o.remote, int64(g+1))
		if err != nil {
			return err
		}
		for i := 0; i < o.txns; i++ {
			t0 := time.Now()
			if err := term.NextTransaction(); err != nil {
				return err
			}
			latency.Record(uint64(time.Since(t0).Nanoseconds()))
		}
		return nil
	})
	if err != nil {
		return err
	}
	txns := o.clients * o.txns
	fmt.Fprintf(w, "engine=%s structure=%s warehouses=%d clients=%d remote=%.0f%%\n",
		o.engine.name, o.structure, o.warehouses, o.clients, o.remote*100)
	fmt.Fprintf(w, "measured: %d txns in %v → %.0f txn/s on this host\n",
		txns, elapsed.Round(time.Millisecond), float64(txns)/elapsed.Seconds())
	fmt.Fprintf(w, "txn latency ns: %s\n", latency.String())
	if ob != nil {
		fmt.Fprint(w, ob.Report())
	}
	if o.wal != "" {
		walSummary(w, rt, o.fsync)
	}
	fmt.Fprintf(w, "simulated reference machine (384 threads, 8 warehouses): %.0f Ktxn/s\n", point.KTxnPerSec)
	return nil
}
