package robustconf_test

import (
	"fmt"
	"sync"
	"sync/atomic"

	"robustconf"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
	"robustconf/internal/index/kinds"
	"robustconf/internal/workload"
)

// ExampleStart partitions a one-socket machine into two virtual domains of
// half a socket each (a granularity no rigid NUMA partitioning offers),
// assigns a structure to each, delegates a burst of asynchronous tasks and a
// synchronous one, and then reconfigures offline (the paper's Section 2.2):
// drain, restart under a new layout, data structures untouched.
func ExampleStart() {
	machine := robustconf.Machine(1) // 24 cores / 48 SMT threads
	orders, sessions := btree.New(), hashmap.New()
	rt, err := robustconf.Start(robustconf.Config{
		Machine: machine,
		Domains: []robustconf.Domain{
			{Name: "orders-domain", CPUs: robustconf.CPURange(0, 24)},
			{Name: "sessions-domain", CPUs: robustconf.CPURange(24, 48)},
		},
		Assignment: map[string]int{"orders": 0, "sessions": 1},
	}, map[string]any{"orders": orders, "sessions": sessions})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer rt.Stop()

	// A session is one client thread's connection: tasks route to the
	// domain owning their structure, results come back through futures.
	session, _ := rt.NewSession(0, robustconf.PaperBurstSize)
	defer session.Close()
	var futures []*robustconf.Future
	for i := uint64(1); i <= 1000; i++ {
		f, err := session.Submit(robustconf.Task{Structure: "orders", Op: func(ds any) any {
			return ds.(*btree.Tree).Insert(i, i*100, nil)
		}})
		if err != nil {
			fmt.Println(err)
			return
		}
		futures = append(futures, f)
	}
	// A future always completes, with the task's value or a typed error
	// (robustconf.PanicError, robustconf.ErrWorkerStopped); Result
	// separates the two.
	for _, f := range futures {
		if _, err := f.Result(); err != nil {
			fmt.Println(err)
			return
		}
	}
	res, _ := session.Invoke(robustconf.Task{Structure: "sessions", Op: func(ds any) any {
		m := ds.(*hashmap.Map)
		m.Insert(7, 77, nil)
		v, _ := m.Get(7, nil)
		return v
	}})
	fmt.Println("orders holds", orders.Len(), "keys after the burst")
	fmt.Println("sessions answered", res, "through its own domain")

	rt2, err := rt.Reconfigure(robustconf.Config{
		Machine:    machine,
		Domains:    []robustconf.Domain{{Name: "everything", CPUs: robustconf.CPURange(0, 48)}},
		Assignment: map[string]int{"orders": 0, "sessions": 0},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer rt2.Stop()
	s2, _ := rt2.NewSession(0, 4)
	defer s2.Close()
	v, _ := s2.Invoke(robustconf.Task{Structure: "orders", Op: func(ds any) any {
		v, _ := ds.(*btree.Tree).Get(500, nil)
		return v
	}})
	fmt.Println("after reconfiguration, key 500 maps to", v)
	// Output:
	// orders holds 1000 keys after the burst
	// sessions answered 77 through its own domain
	// after reconfiguration, key 500 maps to 50000
}

// ExampleCompose lets the configuration process lay out an HTAP mix (the
// paper's Figure 4 scenario): write-heavy OLTP indexes with a co-located
// secondary, read-only analytical indexes and a crucial lock table.
// Calibration picks each instance's domain size, the lock table is
// isolated, and the GAP-MQ ILP assigns the rest. The plan need not use
// every worker: of the 48 offered it takes 25, in two domains. It is then
// materialised and run with the real structures.
func ExampleCompose() {
	plan, err := robustconf.Compose([]robustconf.PlanInstance{
		{Name: "lock-table", Kind: kinds.HashMap, Mix: workload.A, Load: 0.4, Crucial: true},
		{Name: "orders-idx", Kind: kinds.FPTree, Mix: workload.A, Load: 1},
		{Name: "orders-2nd", Kind: kinds.FPTree, Mix: workload.A, Load: 0.6, CoLocateWith: "orders-idx"},
		{Name: "olap-idx-1", Kind: kinds.BTree, Mix: workload.C, Load: 1},
		{Name: "olap-idx-2", Kind: kinds.BTree, Mix: workload.C, Load: 1},
	}, 48)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Print(plan)
	fmt.Println("calibrated sizes: orders-idx", plan.CalibratedSizes["orders-idx"], "olap-idx-1", plan.CalibratedSizes["olap-idx-1"])

	cfg, err := robustconf.Materialise(plan, robustconf.Machine(1))
	if err != nil {
		fmt.Println(err)
		return
	}
	rt, err := robustconf.Start(cfg, map[string]any{
		"lock-table": hashmap.New(),
		"orders-idx": fptree.New(),
		"orders-2nd": fptree.New(),
		"olap-idx-1": btree.New(),
		"olap-idx-2": btree.New(),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer rt.Stop()
	session, _ := rt.NewSession(0, robustconf.PaperBurstSize)
	defer session.Close()

	// Transactional path: lock, write the primary and its secondary index.
	for i := uint64(1); i <= 200; i++ {
		session.Invoke(robustconf.Task{Structure: "lock-table", Op: func(ds any) any { return ds.(*hashmap.Map).Insert(i, 1, nil) }})
		session.Invoke(robustconf.Task{Structure: "orders-idx", Op: func(ds any) any { return ds.(*fptree.Tree).Insert(i, i*10, nil) }})
		session.Invoke(robustconf.Task{Structure: "orders-2nd", Op: func(ds any) any { return ds.(*fptree.Tree).Insert(i*10, i, nil) }})
	}
	// Analytical path: bulk-load an OLAP index, then scan it in its domain.
	var ops []func(ds any) any
	for i := uint64(0); i < 5000; i++ {
		ops = append(ops, func(ds any) any { return ds.(*btree.Tree).Insert(i, i, nil) })
	}
	session.SubmitBulk("olap-idx-1", ops)
	count, _ := session.Invoke(robustconf.Task{Structure: "olap-idx-1", Op: func(ds any) any {
		return ds.(*btree.Tree).Scan(1000, 1999, func(k, v uint64) bool { return true }, nil)
	}})
	fmt.Println("scan over olap-idx-1 visited", count, "keys")
	for _, name := range []string{"lock-table", "orders-idx", "orders-2nd"} {
		d, _ := rt.DomainOf(name)
		fmt.Println(name, "runs in", d.Spec().Name)
	}
	// Output:
	// isolated+heterogeneous composition, 2 domains, 25 workers
	//   domain  0:   1 workers [isolated] ← lock-table
	//   domain  1:  24 workers ← orders-idx, orders-2nd, olap-idx-1, olap-idx-2
	//   durability: fsync=batch checkpoint=100ms
	//   arena: on
	// calibrated sizes: orders-idx 24 olap-idx-1 48
	// scan over olap-idx-1 visited 1000 keys
	// lock-table runs in isolated-0
	// orders-idx runs in domain-1
	// orders-2nd runs in domain-1
}

// ExampleRuntime_Migrate demonstrates online reconfiguration (the paper's
// future work, implemented here): the structure moves to another domain
// while four client sessions keep inserting into it, and no operation is
// lost.
func ExampleRuntime_Migrate() {
	tree := fptree.New()
	rt, err := robustconf.Start(robustconf.Config{
		Machine: robustconf.Machine(1),
		Domains: []robustconf.Domain{
			{Name: "day", CPUs: robustconf.CPURange(0, 24)},
			{Name: "night", CPUs: robustconf.CPURange(24, 48)},
		},
		Assignment: map[string]int{"orders": 0},
	}, map[string]any{"orders": tree})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer rt.Stop()

	const clients, opsPer = 4, 3000
	var done, halfway sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < clients; c++ {
		done.Add(1)
		halfway.Add(1)
		go func() {
			defer done.Done()
			session, _ := rt.NewSession(c, 8)
			defer session.Close()
			for i := 0; i < opsPer; i++ {
				if i == opsPer/2 {
					halfway.Done()
				}
				k := uint64(c*opsPer + i)
				res, err := session.Invoke(robustconf.Task{Structure: "orders", Op: func(ds any) any {
					return ds.(*fptree.Tree).Insert(k, k, nil)
				}})
				if err != nil || res != true {
					failed.Add(1)
				}
			}
		}()
	}
	// Once every client is halfway through, move the structure; the
	// clients keep going and never notice.
	halfway.Wait()
	before, _ := rt.AssignmentOf("orders")
	if err := rt.Migrate("orders", 1); err != nil {
		fmt.Println(err)
	}
	after, _ := rt.AssignmentOf("orders")
	done.Wait()
	fmt.Println(before, "->", after)
	fmt.Println(clients*opsPer-failed.Load(), "inserts completed; the tree holds", tree.Len(), "keys")
	// Output:
	// 0 -> 1
	// 12000 inserts completed; the tree holds 12000 keys
}
