package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"time"

	"robustconf/internal/delegation"
	"robustconf/internal/topology"
	"robustconf/internal/wal"
)

// TestInvokeZeroAlloc pins the session-level half of the zero-allocation
// round trip: Invoke rides the slot's argument block and recycled embedded
// future, so the steady state — route, reserve, post, await — allocates
// nothing.
func TestInvokeZeroAlloc(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 1)
	defer s.Close()

	task := Task{Structure: "tree", Op: func(any) any { return nil }}
	if _, err := s.Invoke(task); err != nil { // warm up: lazy client creation
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(2000, func() {
		if _, err := s.Invoke(task); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Session.Invoke allocates %.1f objects/op, want 0", n)
	}
}

// TestTypedRoundTripsZeroAlloc pins the typed paths at zero allocations:
// InvokeKV, and a SubmitKV/WaitKV window of 14 — the loop the kv.* and
// net.pipe64 workloads run.
func TestTypedRoundTripsZeroAlloc(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 14)
	defer s.Close()
	for k := uint64(0); k < 64; k++ {
		if _, _, err := s.InvokeKV("map", delegation.KVInsert, k, k); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(2000, func() {
		if _, _, err := s.InvokeKV("map", delegation.KVGet, 7, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Session.InvokeKV allocates %.1f objects/op, want 0", n)
	}
	var futs [14]*AsyncFuture
	window := func() {
		for j := range futs {
			f, err := s.SubmitKV("map", delegation.KVGet, uint64(j), 0)
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
	window() // warm up: mint the pooled futures
	if n := testing.AllocsPerRun(500, window); n != 0 {
		t.Errorf("SubmitKV/WaitKV window allocates %.1f objects/window, want 0", n)
	}
}

// TestInvokeBesideUnconsumedFutureZeroAlloc is the guard for synchronous
// ops: they await their handle directly and never enter the pipelined FIFO,
// so a session holding one unconsumed SubmitAsync future at the FIFO head
// still runs 10⁵ Invokes without allocating (a FIFO entry per Invoke would
// pile up behind the head and never recycle).
func TestInvokeBesideUnconsumedFutureZeroAlloc(t *testing.T) {
	cfg, structures := twoDomainConfig(t)
	rt, err := Start(cfg, structures)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 4)
	defer s.Close()

	head, err := s.SubmitAsync("tree", func(ds, arg any) any { return arg }, "head")
	if err != nil {
		t.Fatal(err)
	}
	task := Task{Structure: "tree", Op: func(any) any { return nil }}
	if n := testing.AllocsPerRun(100_000, func() {
		if _, err := s.Invoke(task); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Invoke beside an unconsumed future allocates %.2f objects/op, want 0", n)
	}
	if v, err := head.Wait(); err != nil || v != "head" {
		t.Fatalf("head future = %v, %v", v, err)
	}
}

// cells is a minimal Durable structure for the logged-path pin: a fixed
// array of words, so a logged write allocates nothing of its own.
type cells struct{ v [1024]uint64 }

func (c *cells) WALSnapshot(w io.Writer) error { return binary.Write(w, binary.LittleEndian, c.v[:]) }
func (c *cells) WALRestore(r io.Reader) error  { return binary.Read(r, binary.LittleEndian, c.v[:]) }
func (c *cells) WALApply(rec []byte) error {
	if len(rec) != 16 {
		return fmt.Errorf("cells: record of %d bytes", len(rec))
	}
	c.v[binary.LittleEndian.Uint64(rec)%uint64(len(c.v))] = binary.LittleEndian.Uint64(rec[8:])
	return nil
}

// blob is a Durable whose snapshot is its retained bytes, so a checkpoint's
// allocations are the runtime's and the log's own.
type blob struct{ b []byte }

func (x *blob) WALSnapshot(w io.Writer) error { _, err := w.Write(x.b); return err }
func (x *blob) WALRestore(r io.Reader) error  { _, err := io.ReadFull(r, x.b); return err }
func (x *blob) WALApply([]byte) error         { return nil }

// TestCheckpointAllocsConstant pins a steady-state checkpoint of unchanged
// structures at a few allocations that do not grow with their size: the
// checkpoint set, the snapshot buffer and the slot writer are retained.
func TestCheckpointAllocsConstant(t *testing.T) {
	m, err := topology.Restricted(1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := map[int]float64{}
	for _, size := range []int{4 << 10, 1 << 20} {
		cfg := Config{
			Machine:    m,
			Domains:    []DomainSpec{{Name: "d", CPUs: topology.Range(0, 1)}},
			Assignment: map[string]int{"a": 0, "b": 0},
			WAL:        WALConfig{Dir: t.TempDir(), Fsync: wal.FsyncNone, CheckpointEvery: time.Hour},
		}
		rt, err := Start(cfg, map[string]any{"a": &blob{make([]byte, size)}, "b": &blob{make([]byte, size)}})
		if err != nil {
			t.Fatal(err)
		}
		d := rt.Domains()[0]
		for i := 0; i < 3; i++ { // both slots grown, buffers at size
			if err := rt.checkpointDomain(d); err != nil {
				t.Fatal(err)
			}
		}
		allocs[size] = testing.AllocsPerRun(20, func() {
			if err := rt.checkpointDomain(d); err != nil {
				t.Fatal(err)
			}
		})
		rt.Stop()
	}
	if allocs[4<<10] != allocs[1<<20] || allocs[1<<20] > 8 {
		t.Fatalf("checkpoint allocations by structure size: %v, want the same few at both sizes", allocs)
	}
}

// TestLoggedInvokeZeroAlloc pins the logged synchronous round trip over a
// WAL-enabled runtime at zero allocations per call: the record stages into
// the worker's reused buffers and the group commit completes the slot's
// recycled future.
func TestLoggedInvokeZeroAlloc(t *testing.T) {
	m, err := topology.Restricted(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Machine:    m,
		Domains:    []DomainSpec{{Name: "d", CPUs: topology.Range(0, 1)}},
		Assignment: map[string]int{"x": 0},
		WAL:        WALConfig{Dir: t.TempDir(), Fsync: wal.FsyncNone, CheckpointEvery: time.Hour},
	}
	rt, err := Start(cfg, map[string]any{"x": &cells{}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	s, _ := rt.NewSession(0, 1)
	defer s.Close()
	var k, v uint64
	task := Task{
		Structure: "x",
		Op:        func(ds any) any { c := ds.(*cells); c.v[k%uint64(len(c.v))] = v; return nil },
		Log: func(dst []byte) []byte {
			return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(dst, k), v)
		},
	}
	for i := 0; i < 1024; i++ { // warm up: client, staging buffers
		k, v = uint64(i), uint64(i)
		if _, err := s.Invoke(task); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(5000, func() {
		k, v = k+1, v+1
		if _, err := s.Invoke(task); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("logged Session.Invoke allocates %.2f objects/op, want 0", n)
	}
}
