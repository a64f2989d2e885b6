package delegation

import (
	"sync/atomic"
	"testing"
	"time"
)

// commitWAL is a WALSink fake that counts group commits and runs onCommit
// (when set) inside each Commit, before the sweep answers the stash. The
// sweeping goroutine calls it; tests read the counts after the sweep
// returns.
type commitWAL struct {
	staged, commits int
	onCommit        func()
}

func (w *commitWAL) Begin()                                  {}
func (w *commitWAL) StageRecord(enc func(dst []byte) []byte) { enc(nil); w.staged++ }
func (w *commitWAL) Abort()                                  {}
func (w *commitWAL) Commit(bool) error {
	w.commits++
	if w.onCommit != nil {
		w.onCommit()
	}
	return nil
}

// oneSlotClients acquires n one-slot clients on b, in slot order.
func oneSlotClients(t *testing.T, b *Buffer, n int) []*Client {
	t.Helper()
	in, err := NewInbox([]*Buffer{b})
	if err != nil {
		t.Fatal(err)
	}
	cs := make([]*Client, n)
	for i := range cs {
		slots, err := in.AcquireSlots(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cs[i], err = NewClient(slots); err != nil {
			t.Fatal(err)
		}
	}
	return cs
}

// TestLatePostJoinsFlush: logged task A blocks until a second client has
// posted logged task B, so B lands after the pass's claim. The pass claims
// again before its flush, so one sweep executes both and one commit covers
// both records; neither future is answered before that commit.
func TestLatePostJoinsFlush(t *testing.T) {
	b, err := NewBuffer(0, SlotsPerBuffer)
	if err != nil {
		t.Fatal(err)
	}
	w := &commitWAL{}
	b.SetWAL(w)
	cs := oneSlotClients(t, b, 2)
	ca, cb := cs[0], cs[1]

	running := make(chan struct{})
	bPosted := make(chan struct{})
	ha := ca.Post(reserve(ca), &Op{Log: rec("a"), Task: func() any {
		close(running)
		select {
		case <-bPosted:
		case <-time.After(5 * time.Second):
		}
		return "a"
	}})
	var hb InvokeHandle
	earlyAnswer := false
	w.onCommit = func() {
		if w.commits == 1 {
			earlyAnswer = ca.HandleDone(ha) || cb.HandleDone(hb)
		}
	}

	swept := make(chan int)
	go func() { swept <- b.Sweep() }()
	<-running
	hb = cb.Post(reserve(cb), &Op{Log: rec("b"), Task: func() any { return "b" }})
	close(bPosted)
	n := <-swept
	if n < 2 {
		n += b.Sweep() // drain B so both futures resolve below
	}

	if n != 2 || w.commits != 1 || w.staged != 2 {
		t.Errorf("executed %d ops over %d commits (%d records), want 2 ops, 1 commit, 2 records", n, w.commits, w.staged)
	}
	if earlyAnswer {
		t.Error("a future was answered before the commit that holds its record")
	}
	if v, err := ca.Await(ha); err != nil || v != "a" {
		t.Errorf("A = %v, %v", v, err)
	}
	if v, err := cb.Await(hb); err != nil || v != "b" {
		t.Errorf("B = %v, %v", v, err)
	}
}

// TestLateClaimBounded: two clients keep re-posting read-only ops while a
// logged pass runs — each read's task posts the other client's next read,
// so every claim the pass makes finds exactly one new op. The pass must
// still commit after SlotsPerBuffer claims, answering the logged op and
// leaving the next read posted for the following sweep.
func TestLateClaimBounded(t *testing.T) {
	b, err := NewBuffer(0, SlotsPerBuffer)
	if err != nil {
		t.Fatal(err)
	}
	w := &commitWAL{}
	b.SetWAL(w)
	cs := oneSlotClients(t, b, 3)
	writer, readers := cs[0], cs[1:]

	var stop atomic.Bool
	var reads [2]InvokeHandle
	var posted [2]bool
	var readOp [2]Op
	repost := func(i int) {
		r := readers[i]
		if posted[i] {
			if _, err := r.Await(reads[i]); err != nil {
				t.Errorf("reader %d: %v", i, err)
			}
		}
		reads[i] = r.Post(reserve(r), &readOp[i])
		posted[i] = true
	}
	for i := range readOp {
		other := 1 - i
		readOp[i] = Op{Read: true, Task: func() any {
			if !stop.Load() {
				repost(other)
			}
			return nil
		}}
	}

	hw := writer.Post(reserve(writer), &Op{Log: rec("w"), Task: func() any {
		repost(0)
		return "w"
	}})
	if n := b.Sweep(); n != SlotsPerBuffer {
		t.Errorf("logged pass executed %d ops, want exactly %d (the claim bound)", n, SlotsPerBuffer)
	}
	if w.commits != 1 {
		t.Errorf("%d commits, want 1", w.commits)
	}
	if !writer.HandleDone(hw) {
		t.Fatal("the logged op was not answered by its pass")
	}
	if v, err := writer.Await(hw); err != nil || v != "w" {
		t.Errorf("logged op = %v, %v", v, err)
	}
	if p := b.Pending(); p != 1 {
		t.Errorf("%d ops left posted after the bounded pass, want 1", p)
	}
	stop.Store(true)
	b.Sweep()
	for i, r := range readers {
		if posted[i] {
			if _, err := r.Await(reads[i]); err != nil {
				t.Errorf("reader %d: %v", i, err)
			}
		}
	}
}
