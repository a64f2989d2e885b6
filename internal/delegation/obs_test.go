package delegation

import (
	"sync"
	"testing"

	"robustconf/internal/obs"
)

// startWorker spawns a polling worker over buf and returns a stop-and-join
// function.
func startWorker(t *testing.T, buf *Buffer) func() {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := NewWorker(buf).Run(stop); err != nil {
			t.Errorf("worker crashed: %v", err)
		}
	}()
	return func() { close(stop); wg.Wait() }
}

// TestDelegateNoObsAllocs pins the disabled-observability cost of the post
// path: exactly the one Future allocation it always had, nothing more.
func TestDelegateNoObsAllocs(t *testing.T) {
	buf, err := NewBuffer(0, SlotsPerBuffer)
	if err != nil {
		t.Fatal(err)
	}
	join := startWorker(t, buf)
	defer join()
	in, _ := NewInbox([]*Buffer{buf})
	slots, err := in.AcquireSlots(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(slots)
	defer c.Drain()

	task := Task(func() any { return nil })
	if n := testing.AllocsPerRun(2000, func() {
		delegate(c, task).Wait()
	}); n > 1 {
		t.Errorf("Invoke with no probe allocates %.1f objects, want ≤1 (the Future)", n)
	}
}

// TestInvokeObservedZeroAlloc pins the observed hot path: with a client
// probe attached and EVERY post sampled, Invoke must not allocate — the
// sampled span recycles through the shard's one-deep spare as soon as the
// previous generation resolves. (Before span recycling this path allocated
// one Span per sampled post — the stray byte/op in the committed
// BenchmarkDelegationInvokeObserved snapshot.)
func TestInvokeObservedZeroAlloc(t *testing.T) {
	o := obs.New(obs.Options{SampleEvery: 1})
	d := o.Domain("dom", 1)
	buf, err := NewBuffer(0, SlotsPerBuffer)
	if err != nil {
		t.Fatal(err)
	}
	buf.SetProbe(d.Worker(0))
	join := startWorker(t, buf)
	defer join()
	in, _ := NewInbox([]*Buffer{buf})
	slots, err := in.AcquireSlots(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewClient(slots)
	c.SetProbe(d.NewClient())
	defer c.Drain()

	op := &Op{Task: func() any { return nil }}
	for i := 0; i < 100; i++ {
		invoke(c, op) // warm the spare span and the shard
	}
	if n := testing.AllocsPerRun(5000, func() {
		invoke(c, op)
	}); n != 0 {
		t.Errorf("observed Invoke allocates %.2f objects/op, want 0", n)
	}
}

// TestProbeCountsDelegations attaches worker and client shards and checks
// the aggregated counters line up with the actual traffic.
func TestProbeCountsDelegations(t *testing.T) {
	o := obs.New(obs.Options{SampleEvery: 1})
	d := o.Domain("dom", 1)

	buf, err := NewBuffer(0, SlotsPerBuffer)
	if err != nil {
		t.Fatal(err)
	}
	buf.SetProbe(d.Worker(0))
	join := startWorker(t, buf)
	in, _ := NewInbox([]*Buffer{buf})
	slots, _ := in.AcquireSlots(2, nil)
	c, _ := NewClient(slots)
	c.SetProbe(d.NewClient())

	const posts = 500
	for i := 0; i < posts; i++ {
		delegate(c, func() any { return i })
	}
	c.Drain()
	join() // worker exit flushes its shard

	s := o.Snapshot().Domains[0]
	if s.Posts != posts {
		t.Errorf("posts = %d, want %d", s.Posts, posts)
	}
	if s.Tasks != posts {
		t.Errorf("tasks = %d, want %d", s.Tasks, posts)
	}
	// Burst 2 with 500 posts must have stalled on the window repeatedly.
	if s.BurstWaits == 0 {
		t.Error("burst waits = 0, want > 0 with burst 2")
	}
	if s.Sweeps == 0 || s.ExecNs.Count != posts {
		t.Errorf("sweeps %d exec samples %d, want >0 and %d", s.Sweeps, s.ExecNs.Count, posts)
	}
	if s.RespNs.Count != posts {
		t.Errorf("response samples %d, want %d (SampleEvery=1)", s.RespNs.Count, posts)
	}
}

// TestSpanLifecycleThroughWorker traces every task and checks the committed
// spans carry monotone stage stamps from a real client→worker round trip.
func TestSpanLifecycleThroughWorker(t *testing.T) {
	o := obs.New(obs.Options{SampleEvery: 1, TraceEvery: 1})
	d := o.Domain("dom", 1)

	buf, err := NewBuffer(0, SlotsPerBuffer)
	if err != nil {
		t.Fatal(err)
	}
	buf.SetProbe(d.Worker(0))
	join := startWorker(t, buf)
	defer join()
	in, _ := NewInbox([]*Buffer{buf})
	slots, _ := in.AcquireSlots(4, nil)
	c, _ := NewClient(slots)
	c.SetProbe(d.NewClient())

	const posts = 100
	for i := 0; i < posts; i++ {
		if v, err := invoke(c, &Op{Task: func() any { return i * 2 }}); err != nil || v != i*2 {
			t.Fatalf("invoke(%d) = %v, %v", i, v, err)
		}
	}
	c.Drain()

	spans := o.Tracer().Spans()
	if len(spans) != posts {
		t.Fatalf("committed %d spans, want %d", len(spans), posts)
	}
	for _, r := range spans {
		if r.Failed {
			t.Errorf("span marked failed: %+v", r)
		}
		if r.Worker != 0 || r.Domain != "dom" {
			t.Errorf("span attribution: %+v", r)
		}
		if !(r.PostedNs <= r.SweptNs && r.SweptNs <= r.ExecStartNs &&
			r.ExecStartNs <= r.ExecEndNs && r.ExecEndNs <= r.RespondedNs &&
			r.RespondedNs <= r.ResolvedNs) {
			t.Errorf("non-monotone span: %+v", r)
		}
	}
}

// TestSpanResolvedOnSealRescue checks the failure path: a traced task posted
// into a sealed buffer resolves its span with failed=true.
func TestSpanResolvedOnSealRescue(t *testing.T) {
	o := obs.New(obs.Options{SampleEvery: 1, TraceEvery: 1})
	d := o.Domain("dom", 1)

	buf, err := NewBuffer(0, SlotsPerBuffer)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := NewInbox([]*Buffer{buf})
	slots, _ := in.AcquireSlots(1, nil)
	c, _ := NewClient(slots)
	c.SetProbe(d.NewClient())

	buf.Seal() // no worker ever runs
	f := delegate(c, func() any { return 1 })
	if _, err := f.Result(); err != ErrWorkerStopped {
		t.Fatalf("err = %v, want ErrWorkerStopped", err)
	}
	spans := o.Tracer().Spans()
	if len(spans) != 1 || !spans[0].Failed {
		t.Errorf("spans = %+v, want one failed span", spans)
	}
	if spans[0].SweptNs != 0 {
		t.Errorf("rescued span has a swept stamp: %+v", spans[0])
	}
}

// BenchmarkDelegateProbed measures the probed post path at the default
// sampling rate — the overhead budget for obs-enabled runs.
func BenchmarkDelegateProbed(b *testing.B) {
	o := obs.New(obs.Options{})
	d := o.Domain("dom", 1)
	buf, err := NewBuffer(0, SlotsPerBuffer)
	if err != nil {
		b.Fatal(err)
	}
	buf.SetProbe(d.Worker(0))
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { defer close(done); _ = NewWorker(buf).Run(stop) }()
	in, _ := NewInbox([]*Buffer{buf})
	slots, _ := in.AcquireSlots(14, nil)
	c, _ := NewClient(slots)
	c.SetProbe(d.NewClient())
	task := Task(func() any { return nil })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delegate(c, task)
	}
	c.Drain()
	b.StopTimer()
	close(stop)
	<-done
}
