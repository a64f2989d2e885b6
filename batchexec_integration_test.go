package robustconf_test

import (
	"errors"
	"testing"

	"robustconf"
	"robustconf/internal/index"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
)

// kvResult is one typed op's observable outcome (errors compare by message).
type kvResult struct {
	v   uint64
	ok  bool
	err string
}

// applyKV runs one typed op on idx through its public methods, returning
// what the delegated kernel must answer: Get's value/found pair, or 0 and
// the mutation's boolean result.
func applyKV(idx index.Index, kind uint8, key, val uint64) kvResult {
	switch kind {
	case robustconf.KVInsert:
		return kvResult{ok: idx.Insert(key, val, nil)}
	case robustconf.KVUpdate:
		return kvResult{ok: idx.Update(key, val, nil)}
	case robustconf.KVDelete:
		return kvResult{ok: idx.Delete(key, nil)}
	default:
		v, ok := idx.Get(key, nil)
		return kvResult{v: v, ok: ok}
	}
}

// checkKVStream drives a seeded mixed stream of typed ops — and, when
// panicEvery > 0, a panicking closure task inside the bursts — through a
// single-worker runtime over a hashmap and an FP-Tree, and checks every op
// against twin structures driven through their public methods in submit
// order. The ops of one burst are in flight together, so their execution
// order is not the submit order (the client's free-slot stack even reverses
// it on alternate bursts); each burst therefore draws its keys without
// replacement, which makes the submit-order answer the only correct one.
func checkKVStream(t *testing.T, panicEvery int) {
	t.Helper()
	const keys = 512
	const ops = 50 * robustconf.PaperBurstSize

	cfg := robustconf.Config{
		Machine: robustconf.Machine(1),
		Domains: []robustconf.Domain{
			// A single-worker domain concentrates every burst in one buffer,
			// so sweep passes claim full groups.
			{Name: "d0", CPUs: robustconf.CPURange(0, 1)},
		},
		Assignment: map[string]int{"h": 0, "f": 0},
	}
	live := map[string]index.Index{"h": hashmap.New(), "f": fptree.New()}
	twin := map[string]index.Index{"h": hashmap.New(), "f": fptree.New()}
	rt, err := robustconf.Start(cfg, map[string]any{"h": live["h"], "f": live["f"]})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	session, err := rt.NewSession(0, robustconf.PaperBurstSize)
	if err != nil {
		t.Fatal(err)
	}
	defer session.Close()

	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	var futs []*robustconf.AsyncFuture
	var want []kvResult
	var used [keys + 1]bool
	flush := func(base int) {
		for i, f := range futs {
			v, ok, err := f.WaitKV()
			got := kvResult{v: v, ok: ok}
			if err != nil {
				got.err = err.Error()
			}
			if got != want[i] {
				t.Fatalf("op %d: delegated %+v, serial oracle %+v", base+i, got, want[i])
			}
		}
		futs, want = futs[:0], want[:0]
		used = [keys + 1]bool{}
	}
	for i := 0; i < ops; i++ {
		if panicEvery > 0 && i%panicEvery == panicEvery/2 {
			// A closure task in the middle of the burst splits typed runs;
			// its panic must fail only itself.
			f, err := session.SubmitAsync("h", func(ds, arg any) any {
				panic("equivalence boom")
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, werr := f.Wait()
			var pe robustconf.PanicError
			if !errors.As(werr, &pe) {
				t.Fatalf("closure panic came back as %v, want PanicError", werr)
			}
		}
		structure := "h"
		if next()%2 == 0 {
			structure = "f"
		}
		kind := uint8(robustconf.KVGet)
		switch next() % 4 {
		case 1:
			kind = robustconf.KVInsert
		case 2:
			kind = robustconf.KVUpdate
		case 3:
			kind = robustconf.KVDelete
		}
		key := next()%keys + 1
		for used[key] {
			key = key%keys + 1
		}
		used[key] = true
		val := next()
		f, err := session.SubmitKV(structure, kind, key, val)
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
		want = append(want, applyKV(twin[structure], kind, key, val))
		if len(futs) == robustconf.PaperBurstSize {
			flush(i + 1 - len(futs))
		}
	}
	flush(ops - len(futs))

	for name, idx := range live {
		if got, w := idx.Len(), twin[name].Len(); got != w {
			t.Fatalf("%q: %d keys delegated, %d in the oracle", name, got, w)
		}
		for k := uint64(1); k <= keys; k++ {
			got, w := applyKV(idx, robustconf.KVGet, k, 0), applyKV(twin[name], robustconf.KVGet, k, 0)
			if got != w {
				t.Fatalf("%q key %d: delegated %+v, oracle %+v", name, k, got, w)
			}
		}
	}
}

// TestBatchExecEquivalence is the serial-equivalence pin for the batched
// sweep: a seeded typed op stream through the runtime must produce, op by
// op and in final state, exactly what serial execution in submit order
// produces.
func TestBatchExecEquivalence(t *testing.T) { checkKVStream(t, 0) }

// TestBatchExecEquivalenceWithPanics re-runs the equivalence pin with a
// panicking closure task injected into every burst: the panic must fail
// only its own future, leaving every typed result and the final states
// equal to the oracle's.
func TestBatchExecEquivalenceWithPanics(t *testing.T) { checkKVStream(t, 14) }

// TestBatchExecStopWithOutstandingBurst stops the runtime while a full
// typed burst is outstanding: every future must still resolve — with its
// value if the final sweep executed it, or with ErrWorkerStopped if the
// seal rescued it — and never hang.
func TestBatchExecStopWithOutstandingBurst(t *testing.T) {
	cfg := robustconf.Config{
		Machine:    robustconf.Machine(1),
		Domains:    []robustconf.Domain{{Name: "d0", CPUs: robustconf.CPURange(0, 1)}},
		Assignment: map[string]int{"h": 0},
	}
	rt, err := robustconf.Start(cfg, map[string]any{"h": hashmap.New()})
	if err != nil {
		t.Fatal(err)
	}
	session, err := rt.NewSession(0, robustconf.PaperBurstSize)
	if err != nil {
		t.Fatal(err)
	}
	var futs [robustconf.PaperBurstSize]*robustconf.AsyncFuture
	for i := range futs {
		if futs[i], err = session.SubmitKV("h", robustconf.KVInsert, uint64(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	rt.Stop()
	for i, f := range futs {
		if _, _, err := f.WaitKV(); err != nil && !errors.Is(err, robustconf.ErrWorkerStopped) {
			t.Fatalf("op %d: err = %v, want nil or ErrWorkerStopped", i, err)
		}
	}
	session.Close()
}
