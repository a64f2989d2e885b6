package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"robustconf/internal/delegation"
	"robustconf/internal/topology"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// whereKernel is a batch kernel over a map that records, per key, the
// goroutine — hence the domain worker — that executed the op. A GET answers
// key*10 + tag, so a caller can tell which structure answered.
type whereKernel struct {
	tag uint64
	mu  sync.Mutex
	ran map[uint64]string
}

func newWhereKernel(tag uint64) *whereKernel {
	return &whereKernel{tag: tag, ran: map[uint64]string{}}
}

func (k *whereKernel) ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	g := goid()
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, key := range keys {
		k.ran[key] = g
		outVals[i], outOKs[i] = key*10+k.tag, true
	}
}

func (k *whereKernel) ranOn(key uint64) string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.ran[key]
}

// routeConfig puts each named kernel in its own one-worker domain, in order.
func routeConfig(t *testing.T, names ...string) (Config, map[string]any) {
	t.Helper()
	m, err := topology.Restricted(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: m, Assignment: map[string]int{}}
	structures := map[string]any{}
	for i, n := range names {
		cfg.Domains = append(cfg.Domains, DomainSpec{Name: "d" + n, CPUs: topology.Range(i, i+1)})
		cfg.Assignment[n] = i
		structures[n] = newWhereKernel(uint64(i))
	}
	return cfg, structures
}

// TestMigrateReroutesCachedSessions streams pipelined SubmitKV ops at a
// structure from a session whose route table already holds it, while
// another goroutine migrates the structure. Every op issued after Migrate
// returned must run on the destination domain's worker.
func TestMigrateReroutesCachedSessions(t *testing.T) {
	cfg, structures := routeConfig(t, "moving", "anchor")
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 14)
	defer s.Close()
	moving, anchor := structures["moving"].(*whereKernel), structures["anchor"].(*whereKernel)
	if _, _, err := s.InvokeKV("anchor", delegation.KVGet, 0, 0); err != nil {
		t.Fatal(err)
	}
	dst := anchor.ranOn(0) // the destination domain's only worker

	var migrated atomic.Bool
	after := map[uint64]bool{} // key → issued after Migrate returned
	done := make(chan error, 1)
	go func() {
		var futs [14]*AsyncFuture
		postMigrate := 0
		for key := uint64(1); postMigrate < 2000; {
			for j := range futs {
				if migrated.Load() {
					after[key] = true
					postMigrate++
				}
				f, err := s.SubmitKV("moving", delegation.KVGet, key, 0)
				if err != nil {
					done <- err
					return
				}
				futs[j] = f
				key++
			}
			for _, f := range futs {
				if _, _, err := f.WaitKV(); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	for moving.ranOn(1) == "" { // let the session cache the old route first
		runtime.Gosched()
	}
	if err := rt.Migrate("moving", 1); err != nil {
		t.Fatal(err)
	}
	migrated.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for key := range after {
		if g := moving.ranOn(key); g != dst {
			t.Fatalf("key %d issued after Migrate ran on goroutine %s, want the destination worker %s", key, g, dst)
		}
	}
	if moving.ranOn(1) == dst {
		t.Error("the first op already ran on the destination: the migration raced nothing")
	}
}

// TestCachedRouteSeesDeadDomain kills a domain (no restart budget) after the
// session cached its route: the next submission must fail with ErrDomainDead
// from the cached entry, without a re-route.
func TestCachedRouteSeesDeadDomain(t *testing.T) {
	cfg, structures := routeConfig(t, "x")
	cfg.Domains[0].RestartBudget = -1
	kill := &killSwitch{}
	cfg.FaultHook = kill
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 2)
	defer s.Close()
	if _, _, err := s.InvokeKV("x", delegation.KVGet, 1, 0); err != nil {
		t.Fatal(err)
	}
	kill.armed.Store(true)
	for !rt.Domains()[0].Dead() {
		runtime.Gosched()
	}
	_, _, err = s.InvokeKV("x", delegation.KVGet, 1, 0)
	if !errors.Is(err, ErrDomainDead) {
		t.Fatalf("submission to a dead domain: err = %v, want ErrDomainDead", err)
	}
	if want := `core: structure "x": ` + ErrDomainDead.Error(); err.Error() != want {
		t.Errorf("error = %q, want route's %q", err, want)
	}
	if s.nRoutes != 1 || s.gen != rt.routeGen.Load() {
		t.Errorf("route table re-filled (%d entries, gen %d of %d): the cached path was not taken", s.nRoutes, s.gen, rt.routeGen.Load())
	}
}

// killSwitch crashes every worker sweep once armed.
type killSwitch struct{ armed atomic.Bool }

func (k *killSwitch) BeforeSweep(int) {
	if k.armed.Load() {
		panic("killed")
	}
}
func (k *killSwitch) BeforeTask(int) {}

// TestRouteTableAlternatingNames submits pipelined GETs cycling over two,
// three and more names than the table holds, in separate domains: every
// answer must come from the structure the op named.
func TestRouteTableAlternatingNames(t *testing.T) {
	for _, n := range []int{2, 3, 10} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("s%d", i)
			}
			cfg, structures := routeConfig(t, names...)
			rt, err := Start(cfg, structures)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Stop()
			s, _ := rt.NewSession(0, 14)
			defer s.Close()
			var futs [14]*AsyncFuture
			var want [14]uint64
			for op := 0; op < 50*14; op += 14 {
				for j := range futs {
					i := (op + j) % n
					key := uint64(op + j)
					want[j] = key*10 + uint64(i)
					if futs[j], err = s.SubmitKV(names[i], delegation.KVGet, key, 0); err != nil {
						t.Fatal(err)
					}
				}
				for j, f := range futs {
					if v, ok, err := f.WaitKV(); err != nil || !ok || v != want[j] {
						t.Fatalf("op %d: got %d,%v,%v, want %d", op+j, v, ok, err, want[j])
					}
				}
			}
		})
	}
}

// TestUnknownStructureError pins the unknown-name error, first and repeated.
func TestUnknownStructureError(t *testing.T) {
	cfg, structures := routeConfig(t, "x")
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 2)
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.SubmitKV("nope", delegation.KVGet, 1, 0); err == nil || err.Error() != `core: unknown structure "nope"` {
			t.Fatalf("attempt %d: err = %v, want core: unknown structure \"nope\"", i, err)
		}
		if _, _, err := s.InvokeKV("x", delegation.KVGet, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAlternatingNamesZeroAlloc pins a SubmitKV/WaitKV window of 14 over two
// alternating names in two domains — the net.pipe64 and TPC-C shape — at
// zero allocations.
func TestAlternatingNamesZeroAlloc(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 14)
	defer s.Close()
	names := [2]string{"tree", "map"}
	var futs [14]*AsyncFuture
	window := func() {
		for j := range futs {
			f, err := s.SubmitKV(names[j&1], delegation.KVGet, uint64(j), 0)
			if err != nil {
				t.Fatal(err)
			}
			futs[j] = f
		}
		for _, f := range futs {
			if _, _, err := f.WaitKV(); err != nil {
				t.Fatal(err)
			}
		}
	}
	window() // warm up: lazy clients, route table, future pools
	if n := testing.AllocsPerRun(500, window); n != 0 {
		t.Errorf("SubmitKV/WaitKV window over two names allocates %.1f objects, want 0", n)
	}
}
