package delegation

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestInvokeErrZeroAlloc pins the tentpole property: the synchronous
// Reserve → Post → Await round trip through the slot-embedded recycled
// future allocates nothing in steady state, for a closure op and a typed op
// alike.
func TestInvokeErrZeroAlloc(t *testing.T) {
	in := newInboxT(t, 1, 4)
	stop := startWorkers(in.Buffers())
	defer stop()

	slots, _ := in.AcquireSlots(1, nil)
	c, _ := NewClient(slots)
	task := Task(func() any { return nil })
	invoke(c, &Op{Task: task}) // warm up: first post touches cold paths

	if n := testing.AllocsPerRun(2000, func() {
		if _, err := invoke(c, &Op{Task: task}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("closure Post/Await allocates %.1f objects/op, want 0", n)
	}
	k := newMapKernel()
	if n := testing.AllocsPerRun(2000, func() {
		if _, _, err := c.AwaitKV(c.Post(reserve(c), &Op{Kern: k, Kind: KVGet, Key: 1})); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("typed Post/AwaitKV allocates %.1f objects/op, want 0", n)
	}
}

// TestDelegateCyclingDoesNotGrow is the Client.pending regression test: the
// old implementation resliced pending[1:] and re-appended, so a long-lived
// client kept re-growing its backing array. The ring must hold steady-state
// delegation at exactly 1 alloc/op (the detached future) no matter how many
// operations cycle through.
func TestDelegateCyclingDoesNotGrow(t *testing.T) {
	if testing.Short() {
		t.Skip("1e6-op cycling test skipped under -short")
	}
	in := newInboxT(t, 1, SlotsPerBuffer)
	stop := startWorkers(in.Buffers())
	defer stop()

	slots, _ := in.AcquireSlots(14, nil) // the paper's burst size
	c, _ := NewClient(slots)
	task := Task(func() any { return nil })
	for i := 0; i < 100; i++ { // cycle the window a few times before measuring
		delegate(c, task)
	}
	c.Drain()

	const ops = 1_000_000
	if n := testing.AllocsPerRun(ops, func() {
		delegate(c, task)
	}); n > 1 {
		t.Errorf("Delegate allocates %.2f objects/op over %d ops, want ≤1 (no bookkeeping growth)", n, ops)
	}
	c.Drain()
	if got := c.n; got != 0 {
		t.Errorf("outstanding after drain = %d", got)
	}
}

// TestEmbeddedFutureGenerations drives one slot's recycled future through
// several generations by hand and checks stale completers cannot touch a
// newer generation (the ABA guard).
func TestEmbeddedFutureGenerations(t *testing.T) {
	var f Future
	tok1 := f.begin()
	f.complete(1)
	if err := f.await(tok1); err != nil || f.val != 1 {
		t.Fatalf("gen1 = %v, %v", f.val, err)
	}
	tok2 := f.begin()
	if tok2 <= tok1 {
		t.Fatalf("generation did not advance: %d -> %d", tok1, tok2)
	}
	// A stale completer still holding gen-1's token must not land.
	f.err = nil
	if f.word.CompareAndSwap(tok1, tok1|futError) {
		t.Fatal("stale generation CAS succeeded")
	}
	f.complete(2)
	if err := f.await(tok2); err != nil || f.val != 2 {
		t.Fatalf("gen2 = %v, %v", f.val, err)
	}
	// completeErr after completion is a no-op.
	if f.completeErr(errors.New("late")) {
		t.Fatal("completeErr landed on a completed future")
	}
}

// TestGenerationStressChaos is the -race stress test for future recycling:
// clients reuse their slot-embedded futures across many generations while a
// chaos schedule crashes the worker (via a fault hook), respawns it, and
// finally seals the buffer. Every generation must resolve exactly once —
// with its own value, or with a typed lifecycle error — and the recycled
// future's generation counter must have advanced once per invocation.
func TestGenerationStressChaos(t *testing.T) {
	const (
		nClients = 4
		perGen   = 200 // invocations per client per phase; ≥3 phases below
	)
	b, _ := NewBuffer(0, SlotsPerBuffer)
	in, _ := NewInbox([]*Buffer{b})

	kill := &killEveryNHook{n: 97} // crash the worker repeatedly mid-stream
	b.SetFaultHook(kill)

	stopCh := make(chan struct{})
	workersDone := make(chan struct{})
	go func() {
		defer close(workersDone)
		// Supervisor loop: respawn the worker after every crash until stop.
		for {
			if crash := NewWorker(b).Run(stopCh); crash == nil {
				return
			}
			select {
			case <-stopCh:
				// Run crashed while stop was pending; seal so late posts
				// cannot dangle.
				b.Seal()
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, nClients)
	for ci := 0; ci < nClients; ci++ {
		slots, err := in.AcquireSlots(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ci int, s *Slot) {
			defer wg.Done()
			c, _ := NewClient([]*Slot{s})
			startGen := s.fut0.word.Load() >> futGenShift
			invocations := uint64(0)
			// Three phases ≈ three generations-of-life for the embedded
			// future: pre-crash, across crashes, and into the seal.
			for phase := 0; phase < 3; phase++ {
				for i := 0; i < perGen; i++ {
					want := ci*1_000_000 + phase*1_000 + i
					v, err := invoke(c, &Op{Task: func() any { return want }})
					invocations++
					switch {
					case err == nil:
						if v != want {
							errCh <- fmt.Errorf("client %d: got %v, want %d (cross-generation bleed)", ci, v, want)
							return
						}
					case errors.Is(err, ErrWorkerStopped):
						// Sealed under us: a valid exactly-once resolution.
					default:
						var pe PanicError
						if !errors.As(err, &pe) {
							errCh <- fmt.Errorf("client %d: unexpected error %v", ci, err)
							return
						}
						// Crash fail-over: also exactly-once.
					}
				}
			}
			// The recycled future must have advanced exactly one generation
			// per invocation: more would mean a double-begin, fewer a reuse
			// without recycling.
			endGen := s.fut0.word.Load() >> futGenShift
			if endGen-startGen != invocations {
				errCh <- fmt.Errorf("client %d: %d invocations advanced %d generations", ci, invocations, endGen-startGen)
			}
		}(ci, slots[0])
	}
	wg.Wait()
	close(stopCh)
	<-workersDone
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if kill.fired.Load() == 0 {
		t.Error("chaos schedule never crashed the worker")
	}
	if !b.Sealed() {
		t.Error("buffer not sealed after shutdown")
	}
}

// killEveryNHook panics out of every n-th sweep, simulating repeated worker
// crashes for the generation stress test.
type killEveryNHook struct {
	n     int
	calls int
	fired atomic.Int64
}

func (h *killEveryNHook) BeforeSweep(worker int) {
	h.calls++
	if h.calls%h.n == 0 {
		h.fired.Add(1)
		panic(fmt.Sprintf("injected crash #%d", h.fired.Load()))
	}
}

func (h *killEveryNHook) BeforeTask(worker int) {}
