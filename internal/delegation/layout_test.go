package delegation

import (
	"fmt"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestSlotLayout pins the one-line-per-op layout: every field a typed post
// and its answer touch lies in the slot's first 64 bytes, the closure-only
// and diagnostic fields lie past them, and a Slot is exactly slotBytes — a
// multiple of 64 no larger than 512, the sizes the allocator places on a
// line boundary with no malloc header in front.
func TestSlotLayout(t *testing.T) {
	var s Slot
	futWord := unsafe.Offsetof(s.fut0) + unsafe.Offsetof(s.fut0.word)
	hot := map[string][2]uintptr{
		"state":     {unsafe.Offsetof(s.state), unsafe.Sizeof(s.state)},
		"kern":      {unsafe.Offsetof(s.kern), unsafe.Sizeof(s.kern)},
		"key":       {unsafe.Offsetof(s.key), unsafe.Sizeof(s.key)},
		"val":       {unsafe.Offsetof(s.val), unsafe.Sizeof(s.val)},
		"outV":      {unsafe.Offsetof(s.outV), unsafe.Sizeof(s.outV)},
		"kind":      {unsafe.Offsetof(s.kind), unsafe.Sizeof(s.kind)},
		"ro":        {unsafe.Offsetof(s.ro), unsafe.Sizeof(s.ro)},
		"outOK":     {unsafe.Offsetof(s.outOK), unsafe.Sizeof(s.outOK)},
		"fut0.word": {futWord, unsafe.Sizeof(s.fut0.word)},
	}
	for name, at := range hot {
		if at[0]+at[1] > 64 {
			t.Errorf("hot field %s spans [%d,%d), want inside the first line", name, at[0], at[0]+at[1])
		}
	}
	if off := unsafe.Offsetof(s.state); off != 0 {
		t.Errorf("state at offset %d, want 0: the line's alignment is the slot's", off)
	}
	cold := map[string]uintptr{
		"fut0.val":  unsafe.Offsetof(s.fut0) + unsafe.Offsetof(s.fut0.val),
		"fut0.err":  unsafe.Offsetof(s.fut0) + unsafe.Offsetof(s.fut0.err),
		"fut0.span": unsafe.Offsetof(s.fut0) + unsafe.Offsetof(s.fut0.span),
		"task":      unsafe.Offsetof(s.task),
		"enc":       unsafe.Offsetof(s.enc),
		"fut":       unsafe.Offsetof(s.fut),
		"buf":       unsafe.Offsetof(s.buf),
		"owner":     unsafe.Offsetof(s.owner),
	}
	for name, off := range cold {
		if off < 64 {
			t.Errorf("cold field %s at offset %d, want outside the hot line", name, off)
		}
	}
	if size := unsafe.Sizeof(s); size != slotBytes || size%64 != 0 || size > 512 {
		t.Errorf("Slot is %d bytes, want slotBytes = %d, a multiple of 64 and at most 512", size, slotBytes)
	}
}

// TestSlotsLineAligned checks the alignment rule where it is made: the state
// word of every slot of every buffer size starts a cache line.
func TestSlotsLineAligned(t *testing.T) {
	for n := 1; n <= SlotsPerBuffer; n++ {
		b, err := NewBuffer(0, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range b.slots {
			if addr := uintptr(unsafe.Pointer(&s.state)); addr%64 != 0 {
				t.Errorf("NewBuffer(0, %d): slot %d state at %#x, %d bytes past a line", n, i, addr, addr%64)
			}
		}
	}
}

// countingWAL counts staged records; the live worker calls it, the test
// goroutine reads it.
type countingWAL struct{ staged atomic.Int64 }

func (w *countingWAL) Begin()                                  {}
func (w *countingWAL) StageRecord(enc func(dst []byte) []byte) { enc(nil); w.staged.Add(1) }
func (w *countingWAL) Commit(bool) error                       { return nil }
func (w *countingWAL) Abort()                                  {}

// TestColdFieldsNeverStale cycles every op shape through one slot with a
// live, logging worker: typed, closure, logged closure, typed, read-flagged
// closure with an encoder, detached closure. Cold fields are written only
// when they change, so each step checks that nothing an earlier shape left
// behind is visible to the sweep: a closure after a typed op runs its own
// task, a typed op after a logged one stages no record, a read stages none,
// and a post after a detached one answers through the slot's own future.
// Run it under -race: the client's conditional writes and the worker's reads
// of the same fields must be ordered by the slot protocol alone.
func TestColdFieldsNeverStale(t *testing.T) {
	b, err := NewBuffer(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := &countingWAL{}
	b.SetWAL(w)
	in, err := NewInbox([]*Buffer{b})
	if err != nil {
		t.Fatal(err)
	}
	stop := startWorkers(in.Buffers())
	defer stop()
	slots, _ := in.AcquireSlots(1, nil)
	c, _ := NewClient(slots)
	k := newMapKernel()
	k.m[7] = 70

	const ops = 100000
	staged := int64(0)
	check := func(i int, what string, ok bool) {
		t.Helper()
		if !ok {
			t.Fatalf("op %d (%s): stale cold field visible", i, what)
		}
	}
	for i := 0; i < ops; i++ {
		switch i % 6 {
		case 0, 3: // typed; 3 follows the logged closure
			v, found, err := c.AwaitKV(c.Post(reserve(c), &Op{Kern: k, Kind: KVGet, Key: 7}))
			check(i, "typed", err == nil && found && v == 70 && w.staged.Load() == staged)
		case 1: // closure right after a typed op
			v, err := invoke(c, &Op{Task: func() any { return i }})
			check(i, "closure", err == nil && v == i && w.staged.Load() == staged)
		case 2: // logged closure
			v, err := invoke(c, &Op{Task: func() any { return i }, Log: rec("r")})
			staged++
			check(i, "logged", err == nil && v == i && w.staged.Load() == staged)
		case 4: // read with an encoder: never staged
			v, err := invoke(c, &Op{Task: func() any { return i }, Log: rec("never"), Read: true})
			check(i, "read", err == nil && v == i && w.staged.Load() == staged)
		case 5: // detached: the next post must answer through fut0 again
			v, err := c.Delegate(reserve(c), &Op{Task: func() any { return fmt.Sprint(i) }}).Result()
			check(i, "detached", err == nil && v == fmt.Sprint(i))
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
}
