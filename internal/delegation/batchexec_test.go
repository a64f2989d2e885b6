package delegation

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"robustconf/internal/index"
)

// TestKVKindsMatchIndexBatchKinds pins the structural-typing contract
// between the two packages: delegation's KV op kinds must equal index's
// batch-kernel kinds value for value, because a Slot's kind byte is handed
// to index kernels verbatim (through the structurally-identical BatchKernel
// interfaces). A drift here would silently execute the wrong operations.
func TestKVKindsMatchIndexBatchKinds(t *testing.T) {
	if KVGet != index.BatchGet || KVInsert != index.BatchInsert ||
		KVUpdate != index.BatchUpdate || KVDelete != index.BatchDelete {
		t.Fatalf("delegation KV kinds (%d,%d,%d,%d) != index batch kinds (%d,%d,%d,%d)",
			KVGet, KVInsert, KVUpdate, KVDelete,
			index.BatchGet, index.BatchInsert, index.BatchUpdate, index.BatchDelete)
	}
}

// mapKernel is the protocol fake: a BatchKernel over a plain map that
// records the group size of every ExecBatch call and can be armed to panic
// on a specific key.
type mapKernel struct {
	mu       sync.Mutex // sealed and live sweeps may run the kernel concurrently
	m        map[uint64]uint64
	groups   []int
	panicKey uint64 // ExecBatch panics on reaching this key (0 = never)
}

func newMapKernel() *mapKernel { return &mapKernel{m: map[uint64]uint64{}} }

func (k *mapKernel) ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.groups = append(k.groups, len(kinds))
	for i := range kinds {
		if k.panicKey != 0 && keys[i] == k.panicKey {
			panic("kernel boom")
		}
		_, present := k.m[keys[i]]
		switch kinds[i] {
		case KVGet:
			outVals[i], outOKs[i] = k.m[keys[i]], present
		case KVInsert:
			if !present {
				k.m[keys[i]] = vals[i]
			}
			outOKs[i] = !present
		case KVUpdate:
			if present {
				k.m[keys[i]] = vals[i]
			}
			outOKs[i] = present
		case KVDelete:
			if present {
				delete(k.m, keys[i])
			}
			outOKs[i] = present
		}
	}
}

// newBatchedClient builds a single 15-slot buffer and a client owning 14 of
// its slots.
func newBatchedClient(t *testing.T) (*Buffer, *Client) {
	t.Helper()
	b, err := NewBuffer(0, SlotsPerBuffer)
	if err != nil {
		t.Fatal(err)
	}
	in, err := NewInbox([]*Buffer{b})
	if err != nil {
		t.Fatal(err)
	}
	slots, err := in.AcquireSlots(14, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(slots)
	if err != nil {
		t.Fatal(err)
	}
	return b, c
}

func postKVt(t *testing.T, c *Client, kern BatchKernel, kind uint8, key, val uint64) InvokeHandle {
	t.Helper()
	i, ok := c.Reserve()
	if !ok {
		t.Fatal("no free slot")
	}
	return c.PostReservedKV(i, kern, kind, key, val)
}

// TestBatchedSweepGroupsAndAnswers drives one batched pass over a mixed
// burst: typed ops on two kernels with an opaque closure task in between.
// The pass must execute everything in slot order, group only adjacent
// same-kernel typed ops, and answer every future with the serially-correct
// result.
func TestBatchedSweepGroupsAndAnswers(t *testing.T) {
	buf, c := newBatchedClient(t)
	ka, kb := newMapKernel(), newMapKernel()
	ka.m[7] = 70
	kb.m[9] = 90

	h1 := postKVt(t, c, ka, KVGet, 7, 0) // group A: [get, insert]
	h2 := postKVt(t, c, ka, KVInsert, 8, 80)
	h3 := c.Post(reserve(c), &Op{Task: func() any { return "opaque" }}) // splits the runs
	h4 := postKVt(t, c, ka, KVUpdate, 7, 71)                            // group B: same kernel, split by the closure
	h5 := postKVt(t, c, kb, KVDelete, 9, 0)                             // group C: different kernel ⇒ own group
	h6 := postKVt(t, c, kb, KVGet, 9, 0)                                // group C continued: delete then get ⇒ miss

	if n := buf.Sweep(); n != 6 {
		t.Fatalf("sweep answered %d, want 6", n)
	}
	if v, ok, err := c.AwaitKV(h1); err != nil || !ok || v != 70 {
		t.Fatalf("get(7) = %d,%v,%v want 70,true,nil", v, ok, err)
	}
	if _, ok, err := c.AwaitKV(h2); err != nil || !ok {
		t.Fatalf("insert(8) ok=%v err=%v, want true,nil", ok, err)
	}
	if v, err := c.Await(h3); err != nil || v != "opaque" {
		t.Fatalf("opaque = %v,%v", v, err)
	}
	if _, ok, err := c.AwaitKV(h4); err != nil || !ok {
		t.Fatalf("update(7) ok=%v err=%v, want true,nil", ok, err)
	}
	if _, ok, err := c.AwaitKV(h5); err != nil || !ok {
		t.Fatalf("delete(9) ok=%v err=%v, want true,nil", ok, err)
	}
	if _, ok, err := c.AwaitKV(h6); err != nil || ok {
		t.Fatalf("get(9) after delete ok=%v err=%v, want false,nil", ok, err)
	}
	if ka.m[7] != 71 || ka.m[8] != 80 {
		t.Fatalf("kernel A state = %v", ka.m)
	}
	if len(ka.groups) != 2 || ka.groups[0] != 2 || ka.groups[1] != 1 {
		t.Fatalf("kernel A groups = %v, want [2 1]", ka.groups)
	}
	if len(kb.groups) != 1 || kb.groups[0] != 2 {
		t.Fatalf("kernel B groups = %v, want [2]", kb.groups)
	}
	buf.SyncStats()
	if got := buf.BatchKernelOps.Load(); got != 5 {
		t.Errorf("BatchKernelOps = %d, want 5", got)
	}
}

// TestBatchedSweepKernelPanicFailsRun arms the kernel to panic mid-group.
// The whole run fails with a PanicError (its ops may have half-executed
// inside the kernel — exactly a task panic's contract), while the opaque
// task and the second kernel's run in the same pass still succeed, and the
// buffer keeps serving afterwards.
func TestBatchedSweepKernelPanicFailsRun(t *testing.T) {
	buf, c := newBatchedClient(t)
	ka, kb := newMapKernel(), newMapKernel()
	ka.panicKey = 2

	h1 := postKVt(t, c, ka, KVInsert, 1, 10)
	h2 := postKVt(t, c, ka, KVInsert, 2, 20) // boom
	h3 := postKVt(t, c, ka, KVInsert, 3, 30) // same run: fails wholesale
	h4 := c.Post(reserve(c), &Op{Task: func() any { return 44 }})
	h5 := postKVt(t, c, kb, KVInsert, 5, 50)

	buf.Sweep()
	for i, h := range []InvokeHandle{h1, h2, h3} {
		var pe PanicError
		if _, _, err := c.AwaitKV(h); !errors.As(err, &pe) {
			t.Fatalf("typed op %d err = %v, want PanicError", i+1, err)
		}
	}
	if v, err := c.Await(h4); err != nil || v != 44 {
		t.Fatalf("opaque = %v,%v", v, err)
	}
	if _, ok, err := c.AwaitKV(h5); err != nil || !ok {
		t.Fatalf("kernel B insert ok=%v err=%v", ok, err)
	}
	if buf.Failed.Load() != 3 {
		t.Errorf("Failed = %d, want 3", buf.Failed.Load())
	}
	// The worker survives a kernel panic like any task panic.
	h6 := postKVt(t, c, kb, KVGet, 5, 0)
	buf.Sweep()
	if v, ok, err := c.AwaitKV(h6); err != nil || !ok || v != 50 {
		t.Fatalf("post-panic get = %d,%v,%v", v, ok, err)
	}
}

// TestBatchedSweepOpaquePanicMidBatch interleaves a panicking closure task
// between typed runs: only it fails, and in slot order the typed ops before
// and after still execute.
func TestBatchedSweepOpaquePanicMidBatch(t *testing.T) {
	buf, c := newBatchedClient(t)
	k := newMapKernel()
	h1 := postKVt(t, c, k, KVInsert, 1, 10)
	h2 := c.Post(reserve(c), &Op{Task: func() any { panic("task boom") }})
	h3 := postKVt(t, c, k, KVGet, 1, 0)

	if n := buf.Sweep(); n != 3 {
		t.Fatalf("sweep answered %d, want 3", n)
	}
	if _, ok, err := c.AwaitKV(h1); err != nil || !ok {
		t.Fatalf("insert ok=%v err=%v", ok, err)
	}
	var pe PanicError
	if _, err := c.Await(h2); !errors.As(err, &pe) || pe.Value != "task boom" {
		t.Fatalf("opaque err = %v, want PanicError(task boom)", err)
	}
	if v, ok, err := c.AwaitKV(h3); err != nil || !ok || v != 10 {
		t.Fatalf("get = %d,%v,%v want 10,true,nil", v, ok, err)
	}
}

// recordingWAL is a WALSink fake: it applies encoders eagerly (like the
// real sink), remembers every staged record, and can fail the commit or
// panic on a chosen StageRecord call.
type recordingWAL struct {
	begins, commits, aborts int
	records                 [][]byte
	commitAllowFaults       []bool // the allowFaults argument of each Commit
	commitErr               error
	panicOnStage            int // 1-based staged-record ordinal; 0 = never
}

func (w *recordingWAL) Begin() { w.begins++ }

func (w *recordingWAL) StageRecord(enc func(dst []byte) []byte) {
	if w.panicOnStage != 0 && len(w.records)+1 == w.panicOnStage {
		panic("stage boom")
	}
	w.records = append(w.records, enc(nil))
}

func (w *recordingWAL) Commit(allowFaults bool) error {
	w.commits++
	w.commitAllowFaults = append(w.commitAllowFaults, allowFaults)
	return w.commitErr
}

func (w *recordingWAL) Abort() { w.aborts++ }

// rec returns a record encoder that appends tag.
func rec(tag string) func(dst []byte) []byte {
	return func(dst []byte) []byte { return append(dst, tag...) }
}

// TestBatchedSweepWALStagesAndCommits runs a logged pass mixing logged
// closure mutations with typed ops and a read-flagged closure: the logged
// mutations stage their records in execution order and complete only after
// the group commit; typed ops (never logged, even with a WAL installed) and
// the read stage nothing, and every op sees its predecessors' effects.
func TestBatchedSweepWALStagesAndCommits(t *testing.T) {
	buf, c := newBatchedClient(t)
	w := &recordingWAL{}
	buf.SetWAL(w)
	k := newMapKernel()

	h1 := c.Post(reserve(c), &Op{Task: func() any { k.m[1] = 11; return "ins" }, Log: rec("ins 1")})
	h2 := postKVt(t, c, k, KVGet, 1, 0)     // typed read: sees the logged insert
	h3 := postKVt(t, c, k, KVInsert, 2, 22) // typed mutation: unlogged
	h4 := c.Post(reserve(c), &Op{Task: func() any { k.m[1] = 12; return "upd" }, Log: rec("upd 1")})
	h5 := c.Post(reserve(c), &Op{Task: func() any { return k.m[1] }, Log: rec("read"), Read: true})

	if n := buf.Sweep(); n != 5 {
		t.Fatalf("sweep answered %d, want 5", n)
	}
	if v, err := c.Await(h1); err != nil || v != "ins" {
		t.Fatalf("logged insert = %v,%v", v, err)
	}
	if v, ok, err := c.AwaitKV(h2); err != nil || !ok || v != 11 {
		t.Fatalf("get = %d,%v,%v want 11,true,nil", v, ok, err)
	}
	if _, ok, err := c.AwaitKV(h3); err != nil || !ok {
		t.Fatalf("typed insert ok=%v err=%v", ok, err)
	}
	if v, err := c.Await(h4); err != nil || v != "upd" {
		t.Fatalf("logged update = %v,%v", v, err)
	}
	if v, err := c.Await(h5); err != nil || v != uint64(12) {
		t.Fatalf("read = %v,%v want 12", v, err)
	}
	if w.begins != 1 || w.commits != 1 || w.aborts != 0 {
		t.Fatalf("wal begins/commits/aborts = %d/%d/%d, want 1/1/0", w.begins, w.commits, w.aborts)
	}
	if len(w.records) != 2 || string(w.records[0]) != "ins 1" || string(w.records[1]) != "upd 1" {
		t.Fatalf("records = %q, want [ins 1, upd 1] (logged mutations, in execution order)", w.records)
	}
}

// TestBatchedSweepWALCommitErrorFailsStashed pins the group-commit rule:
// when Commit fails, every stashed (logged-mutation) future fails with a
// PanicError carrying the commit error, while inline completions — the
// typed read and the unlogged closure — keep their results.
func TestBatchedSweepWALCommitErrorFailsStashed(t *testing.T) {
	buf, c := newBatchedClient(t)
	w := &recordingWAL{commitErr: errors.New("disk gone")}
	buf.SetWAL(w)
	k := newMapKernel()
	k.m[5] = 55

	h1 := c.Post(reserve(c), &Op{Task: func() any { return 1 }, Log: rec("a")})
	h2 := postKVt(t, c, k, KVGet, 5, 0)
	h3 := c.Post(reserve(c), &Op{Task: func() any { return 3 }})
	h4 := c.Post(reserve(c), &Op{Task: func() any { return 4 }, Log: rec("b")})

	buf.Sweep()
	for i, h := range []InvokeHandle{h1, h4} {
		var pe PanicError
		if _, err := c.Await(h); !errors.As(err, &pe) || pe.Value != w.commitErr {
			t.Fatalf("logged op %d err = %v, want PanicError(disk gone)", i, err)
		}
	}
	if v, ok, err := c.AwaitKV(h2); err != nil || !ok || v != 55 {
		t.Fatalf("inline get = %d,%v,%v want 55,true,nil", v, ok, err)
	}
	if v, err := c.Await(h3); err != nil || v != 3 {
		t.Fatalf("unlogged closure = %v,%v want 3", v, err)
	}
	if buf.Failed.Load() != 2 {
		t.Errorf("Failed = %d, want 2", buf.Failed.Load())
	}
}

// TestBatchedSweepWALPanicAborts panics the pass itself (StageRecord blows
// up mid-pass, as an injected worker kill would): the defer must Abort the
// log batch, fail the already-stashed and the claimed-but-unanswered futures
// with PanicError — a typed op after the panic included — and re-raise to
// the sweep's caller.
func TestBatchedSweepWALPanicAborts(t *testing.T) {
	buf, c := newBatchedClient(t)
	w := &recordingWAL{panicOnStage: 2}
	buf.SetWAL(w)
	k := newMapKernel()

	h1 := c.Post(reserve(c), &Op{Task: func() any { return 1 }, Log: rec("a")}) // stages fine
	h2 := c.Post(reserve(c), &Op{Task: func() any { return 2 }, Log: rec("b")}) // stage boom
	h3 := c.Post(reserve(c), &Op{Task: func() any { return 3 }, Log: rec("c")}) // never runs
	h4 := postKVt(t, c, k, KVInsert, 4, 44)                                     // never runs

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("sweep did not re-panic")
			}
		}()
		buf.Sweep()
	}()
	if w.aborts != 1 || w.commits != 0 {
		t.Fatalf("wal aborts/commits = %d/%d, want 1/0", w.aborts, w.commits)
	}
	var pe PanicError
	for i, h := range []InvokeHandle{h1, h2, h3} {
		if _, err := c.Await(h); !errors.As(err, &pe) {
			t.Fatalf("op %d err = %v, want PanicError", i+1, err)
		}
	}
	if _, _, err := c.AwaitKV(h4); !errors.As(err, &pe) {
		t.Fatalf("typed op err = %v, want PanicError", err)
	}
	if len(k.m) != 0 {
		t.Fatalf("typed op after the panic executed: %v", k.m)
	}
}

// TestBatchedSweepSealRace races a batched local sweep against a foreign
// Seal over a full burst of typed posts. Whoever wins each slot's claim
// CAS, every future must resolve exactly once — a value from the kernel or
// ErrWorkerStopped from the seal — with no hang and no double completion.
// Run under -race this also exercises the sealMu/claim interplay of the
// batched body.
func TestBatchedSweepSealRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		buf, c := newBatchedClient(t)
		k := newMapKernel()
		var hs [14]InvokeHandle
		for i := range hs {
			hs[i] = postKVt(t, c, k, KVInsert, uint64(i+1), uint64(i))
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); buf.Sweep() }()
		go func() { defer wg.Done(); buf.Seal() }()
		wg.Wait()
		executed, stopped := 0, 0
		for i := range hs {
			_, ok, err := c.AwaitKV(hs[i])
			switch {
			case err == nil && ok:
				executed++
			case errors.Is(err, ErrWorkerStopped):
				stopped++
			default:
				t.Fatalf("round %d op %d: ok=%v err=%v", round, i, ok, err)
			}
		}
		if executed+stopped != 14 {
			t.Fatalf("round %d: %d executed + %d stopped != 14", round, executed, stopped)
		}
		if len(k.m) != executed {
			t.Fatalf("round %d: kernel holds %d keys, %d ops executed", round, len(k.m), executed)
		}
	}
}

// TestBatchedSweepPostAfterSealRescued: a typed post into a sealed buffer
// must be rescued with ErrWorkerStopped (the stop/post race contract,
// extended to typed ops).
func TestBatchedSweepPostAfterSealRescued(t *testing.T) {
	buf, c := newBatchedClient(t)
	buf.Seal()
	k := newMapKernel()
	h := postKVt(t, c, k, KVInsert, 1, 10)
	if _, _, err := c.AwaitKV(h); !errors.Is(err, ErrWorkerStopped) {
		t.Fatalf("err = %v, want ErrWorkerStopped", err)
	}
	if len(k.m) != 0 {
		t.Fatal("sealed post executed")
	}
}

// TestInvokeKVSerialFallback: there is no serial fallback any more. A buffer
// whose batching is "disabled" through the deprecated SetBatchExec(0) still
// runs the one sweep body, so adjacent same-kernel typed ops share one
// ExecBatch call and answer exactly as serial execution would.
func TestInvokeKVSerialFallback(t *testing.T) {
	buf, c := newBatchedClient(t)
	buf.SetBatchExec(0)
	k := newMapKernel()
	h1 := postKVt(t, c, k, KVInsert, 1, 10)
	h2 := postKVt(t, c, k, KVGet, 1, 0)
	buf.Sweep()
	if _, ok, err := c.AwaitKV(h1); err != nil || !ok {
		t.Fatalf("insert ok=%v err=%v", ok, err)
	}
	if v, ok, err := c.AwaitKV(h2); err != nil || !ok || v != 10 {
		t.Fatalf("get = %d,%v,%v", v, ok, err)
	}
	if len(k.groups) != 1 || k.groups[0] != 2 {
		t.Fatalf("groups = %v, want [2]", k.groups)
	}
}

// countingArena is an ArenaSink fake that counts resets.
type countingArena struct{ resets int }

func (a *countingArena) Reset() { a.resets++ }

// postMixedPass posts one mixed pass in slot order — a typed run on ka (two
// inserts), a logged closure, a typed run on kb (an insert, then a get of a
// preloaded key), and a second logged closure — and
// returns a check that every op executed exactly once and answered its
// serially-correct result. Every op touches its own key, so the answers do
// not depend on which sweeper claims which slot.
func postMixedPass(t *testing.T, c *Client, ka, kb *mapKernel) (check func()) {
	t.Helper()
	kb.m[4] = 40
	var opaqueRuns, loggedRuns atomic.Int32
	h1 := postKVt(t, c, ka, KVInsert, 1, 10)
	h2 := postKVt(t, c, ka, KVInsert, 2, 20)
	h3 := c.Post(reserve(c), &Op{Task: func() any { opaqueRuns.Add(1); return "opaque" }, Log: rec("first")})
	h4 := postKVt(t, c, kb, KVInsert, 3, 30)
	h5 := postKVt(t, c, kb, KVGet, 4, 0)
	h6 := c.Post(reserve(c), &Op{Task: func() any { loggedRuns.Add(1); return "logged" }, Log: rec("second")})
	return func() {
		t.Helper()
		for i, h := range []InvokeHandle{h1, h2, h4} {
			if _, ok, err := c.AwaitKV(h); err != nil || !ok {
				t.Fatalf("typed insert %d: ok=%v err=%v", i, ok, err)
			}
		}
		if v, ok, err := c.AwaitKV(h5); err != nil || !ok || v != 40 {
			t.Fatalf("get(4) = %d,%v,%v want 40,true,nil", v, ok, err)
		}
		if v, err := c.Await(h3); err != nil || v != "opaque" {
			t.Fatalf("opaque = %v,%v", v, err)
		}
		if v, err := c.Await(h6); err != nil || v != "logged" {
			t.Fatalf("logged opaque = %v,%v", v, err)
		}
		if opaqueRuns.Load() != 1 || loggedRuns.Load() != 1 {
			t.Fatalf("closures ran %d and %d times, want once each", opaqueRuns.Load(), loggedRuns.Load())
		}
		for name, k := range map[string]*mapKernel{"A": ka, "B": kb} {
			ops := 0
			for _, g := range k.groups {
				ops += g
			}
			if ops != 2 {
				t.Fatalf("kernel %s executed %d ops (groups %v), want 2", name, ops, k.groups)
			}
		}
		if ka.m[1] != 10 || ka.m[2] != 20 || kb.m[3] != 30 {
			t.Fatalf("kernel state A=%v B=%v", ka.m, kb.m)
		}
	}
}

// TestSealSweepRunsTheOneBody drives Seal's final pass over a mixed burst
// with no live worker. The sealed path runs the same body as a live sweep,
// with its own rules: every future answers exactly once, logged records
// stage in execution order and group-commit once with injected faults
// suppressed, the arena is left alone (Reset is owner-only) and the
// worker's stat mirrors do not move.
func TestSealSweepRunsTheOneBody(t *testing.T) {
	buf, c := newBatchedClient(t)
	w := &recordingWAL{}
	buf.SetWAL(w)
	arena := &countingArena{}
	buf.SetArena(arena)
	ka, kb := newMapKernel(), newMapKernel()
	check := postMixedPass(t, c, ka, kb)

	if n := buf.Seal(); n != 6 {
		t.Fatalf("seal's final sweep answered %d, want 6", n)
	}
	check()
	if len(ka.groups) != 1 || len(kb.groups) != 1 {
		t.Fatalf("groups A=%v B=%v, want one run per kernel", ka.groups, kb.groups)
	}
	if len(w.records) != 2 || string(w.records[0]) != "first" || string(w.records[1]) != "second" {
		t.Fatalf("records = %q, want [first second] (execution order)", w.records)
	}
	if w.begins != 1 || w.commits != 1 || w.aborts != 0 {
		t.Fatalf("wal begins/commits/aborts = %d/%d/%d, want 1/1/0", w.begins, w.commits, w.aborts)
	}
	if w.commitAllowFaults[0] {
		t.Fatal("sealed pass committed with faults allowed, want Commit(false)")
	}
	if arena.resets != 0 {
		t.Fatalf("sealed pass reset the arena %d times", arena.resets)
	}
	if d := buf.MutEnter() - buf.MutExit(); d != 1 {
		t.Fatalf("mutating window imbalance %d, want 1 (the seal's poison only)", d)
	}
	buf.SyncStats()
	if buf.Sweeps.Load() != 0 || buf.Executed.Load() != 0 || buf.BatchKernelOps.Load() != 0 {
		t.Fatalf("sealed pass moved the worker stats: sweeps=%d executed=%d kernel ops=%d",
			buf.Sweeps.Load(), buf.Executed.Load(), buf.BatchKernelOps.Load())
	}
	if n := buf.Seal(); n != 0 {
		t.Fatalf("second seal answered %d", n)
	}
}

// TestSealSweepRacesLiveSweep repeats the mixed pass with a live Sweep
// racing Seal and no WAL: whichever sweeper claims a slot, every op executes
// exactly once. Under -race it also checks that the sealed and live passes
// stage in separate arrays.
func TestSealSweepRacesLiveSweep(t *testing.T) {
	for round := 0; round < 50; round++ {
		buf, c := newBatchedClient(t)
		ka, kb := newMapKernel(), newMapKernel()
		check := postMixedPass(t, c, ka, kb)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); buf.Sweep() }()
		go func() { defer wg.Done(); buf.Seal() }()
		wg.Wait()
		check()
	}
}
