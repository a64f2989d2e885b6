package delegation

import (
	"encoding/binary"
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
	i3, _ := c.Reserve()
	h3 := c.PostReserved(i3, func() any { return "opaque" }) // splits the runs
	h4 := postKVt(t, c, ka, KVUpdate, 7, 71)                 // group B: same kernel, split by the closure
	h5 := postKVt(t, c, kb, KVDelete, 9, 0)                  // group C: different kernel ⇒ own group
	h6 := postKVt(t, c, kb, KVGet, 9, 0)                     // group C continued: delete then get ⇒ miss

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
	i4, _ := c.Reserve()
	h4 := c.PostReserved(i4, func() any { return 44 })
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
	i2, _ := c.Reserve()
	h2 := c.PostReserved(i2, func() any { panic("task boom") })
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

func testKVEnc(dst []byte, kind uint8, key, val uint64) []byte {
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, key)
	return binary.LittleEndian.AppendUint64(dst, val)
}

// TestBatchedSweepWALStagesAndCommits runs a logged batched pass: typed
// mutations stage records in execution order and complete only after the
// group commit; the typed read completes inline and stages nothing.
func TestBatchedSweepWALStagesAndCommits(t *testing.T) {
	buf, c := newBatchedClient(t)
	w := &recordingWAL{}
	buf.SetWAL(w)
	k := newMapKernel()

	post := func(kind uint8, key, val uint64) InvokeHandle {
		i, ok := c.Reserve()
		if !ok {
			t.Fatal("no free slot")
		}
		return c.PostReservedKVLogged(i, k, kind, key, val, testKVEnc)
	}
	h1 := post(KVInsert, 1, 11)
	h2 := post(KVGet, 1, 0) // read-only: never staged
	h3 := post(KVUpdate, 1, 12)

	if n := buf.Sweep(); n != 3 {
		t.Fatalf("sweep answered %d, want 3", n)
	}
	if _, ok, err := c.AwaitKV(h1); err != nil || !ok {
		t.Fatalf("insert ok=%v err=%v", ok, err)
	}
	if v, ok, err := c.AwaitKV(h2); err != nil || !ok || v != 11 {
		t.Fatalf("get = %d,%v,%v want 11,true,nil", v, ok, err)
	}
	if _, ok, err := c.AwaitKV(h3); err != nil || !ok {
		t.Fatalf("update ok=%v err=%v", ok, err)
	}
	if w.begins != 1 || w.commits != 1 || w.aborts != 0 {
		t.Fatalf("wal begins/commits/aborts = %d/%d/%d, want 1/1/0", w.begins, w.commits, w.aborts)
	}
	if len(w.records) != 2 {
		t.Fatalf("staged %d records, want 2 (mutations only)", len(w.records))
	}
	want1 := testKVEnc(nil, KVInsert, 1, 11)
	want2 := testKVEnc(nil, KVUpdate, 1, 12)
	if string(w.records[0]) != string(want1) || string(w.records[1]) != string(want2) {
		t.Fatalf("records = %x / %x, want %x / %x", w.records[0], w.records[1], want1, want2)
	}
}

// TestBatchedSweepWALCommitErrorFailsStashed pins the group-commit rule on
// the batched path: when Commit fails, every stashed (logged-mutation)
// future fails with a PanicError carrying the commit error, while inline
// completions (the typed read) keep their results.
func TestBatchedSweepWALCommitErrorFailsStashed(t *testing.T) {
	buf, c := newBatchedClient(t)
	w := &recordingWAL{commitErr: errors.New("disk gone")}
	buf.SetWAL(w)
	k := newMapKernel()
	k.m[5] = 55

	i1, _ := c.Reserve()
	h1 := c.PostReservedKVLogged(i1, k, KVInsert, 1, 11, testKVEnc)
	i2, _ := c.Reserve()
	h2 := c.PostReservedKVLogged(i2, k, KVGet, 5, 0, testKVEnc)

	buf.Sweep()
	var pe PanicError
	if _, _, err := c.AwaitKV(h1); !errors.As(err, &pe) {
		t.Fatalf("logged insert err = %v, want PanicError", err)
	}
	if v, ok, err := c.AwaitKV(h2); err != nil || !ok || v != 55 {
		t.Fatalf("inline get = %d,%v,%v want 55,true,nil", v, ok, err)
	}
}

// TestBatchedSweepWALPanicAborts panics the pass itself (StageRecord blows
// up, as an injected worker kill would): the defer must Abort the log
// batch, fail the already-stashed and the claimed-but-unanswered futures
// with PanicError, and re-raise to the sweep's caller.
func TestBatchedSweepWALPanicAborts(t *testing.T) {
	buf, c := newBatchedClient(t)
	w := &recordingWAL{panicOnStage: 2}
	buf.SetWAL(w)
	k := newMapKernel()

	i1, _ := c.Reserve()
	h1 := c.PostReservedKVLogged(i1, k, KVInsert, 1, 11, testKVEnc) // stages fine
	i2, _ := c.Reserve()
	h2 := c.PostReservedKVLogged(i2, k, KVInsert, 2, 22, testKVEnc) // stage boom
	i3, _ := c.Reserve()
	h3 := c.PostReservedKVLogged(i3, k, KVInsert, 3, 33, testKVEnc) // never staged

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
		if _, _, err := c.AwaitKV(h); !errors.As(err, &pe) {
			t.Fatalf("op %d err = %v, want PanicError", i+1, err)
		}
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
// extended to postKV).
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

func opaqueRec(dst []byte) []byte { return append(dst, "opaque-rec"...) }

// postMixedPass posts one mixed pass in slot order — a typed run on ka (an
// insert, then a logged insert), an opaque closure, a typed run on kb (an
// insert, then a get of a preloaded key), and a logged opaque closure — and
// returns a check that every op executed exactly once and answered its
// serially-correct result. Every op touches its own key, so the answers do
// not depend on which sweeper claims which slot.
func postMixedPass(t *testing.T, c *Client, ka, kb *mapKernel) (check func()) {
	t.Helper()
	kb.m[4] = 40
	var opaqueRuns, loggedRuns atomic.Int32
	reserve := func() int32 {
		i, ok := c.Reserve()
		if !ok {
			t.Fatal("no free slot")
		}
		return i
	}
	h1 := c.PostReservedKV(reserve(), ka, KVInsert, 1, 10)
	h2 := c.PostReservedKVLogged(reserve(), ka, KVInsert, 2, 20, testKVEnc)
	h3 := c.PostReserved(reserve(), func() any { opaqueRuns.Add(1); return "opaque" })
	h4 := c.PostReservedKV(reserve(), kb, KVInsert, 3, 30)
	h5 := c.PostReservedKV(reserve(), kb, KVGet, 4, 0)
	h6 := c.PostReservedLogged(reserve(), func() any { loggedRuns.Add(1); return "logged" }, opaqueRec)
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
	want := [][]byte{testKVEnc(nil, KVInsert, 2, 20), opaqueRec(nil)}
	if len(w.records) != len(want) {
		t.Fatalf("staged %d records, want %d", len(w.records), len(want))
	}
	for i := range want {
		if string(w.records[i]) != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, w.records[i], want[i])
		}
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
