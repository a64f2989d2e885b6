package obs

import (
	"sync/atomic"
	"time"
)

// epoch anchors every timestamp the layer records; spans and events carry
// nanoseconds since it, read off the monotonic clock.
var epoch = time.Now()

// nanos returns monotonic nanoseconds since the package epoch.
func nanos() int64 { return int64(time.Since(epoch)) }

// Flush cadences. Worker shards publish every flushEvery sweeps (a busy or
// idle worker sweeps continuously, so wall-clock staleness stays in the
// microsecond-to-millisecond range); client shards publish every
// clientFlushEvery posts and on Drain.
const (
	flushEvery       = 256
	clientFlushEvery = 64
)

// Published stat slots of a WorkerShard.
const (
	wsTasks = iota
	wsSweeps
	wsEmptySweeps
	wsBatched
	wsMaxBatch
	wsNumStats
)

// WorkerShard is one worker's telemetry shard. The hot-path counters are
// plain uint64s written only by the owning worker goroutine — no atomics,
// no sharing — separated from neighbouring shards by cache-line padding.
// The worker publishes them to the atomic `pub` image every flushEvery
// sweeps (and on exit); aggregation reads only `pub`, so a snapshot lags a
// live worker by at most flushEvery-1 sweeps.
//
// Latency is sampled, not measured per operation: every sampleEvery-th
// sweep (and task) brackets the work with two monotonic clock reads and
// records the duration into the domain's histogram. Everything else costs
// an increment and a predictable branch.
type WorkerShard struct {
	_ [64]byte // no false sharing with whatever precedes the shard

	// Owner-local mirror: written only by the worker goroutine.
	tasks      uint64
	sweeps     uint64
	empty      uint64
	batched    uint64
	maxBatch   uint64
	sinceFlush uint64

	mask uint64 // sampleEvery-1 (sampleEvery is a power of two)
	dom  *DomainObs

	_ [64]byte // local mirror and published image on separate lines

	pub [wsNumStats]atomic.Uint64

	_ [64]byte
}

// SweepBegin counts a poll round. It returns a start timestamp when this
// sweep is latency-sampled, 0 otherwise.
func (s *WorkerShard) SweepBegin() int64 {
	s.sweeps++
	if s.sweeps&s.mask == 0 {
		return nanos()
	}
	return 0
}

// SweepEnd closes the round opened by SweepBegin: n is the batch size the
// sweep answered. Records the sampled sweep latency and publishes the shard
// on the flush cadence.
func (s *WorkerShard) SweepEnd(t0 int64, n int) {
	if n == 0 {
		s.empty++
	} else {
		if n > 1 {
			s.batched += uint64(n)
		}
		if uint64(n) > s.maxBatch {
			s.maxBatch = uint64(n)
		}
	}
	if t0 != 0 {
		s.dom.sweepNs.Record(uint64(nanos() - t0))
	}
	s.sinceFlush++
	if s.sinceFlush >= flushEvery {
		s.Flush()
	}
}

// TaskBegin counts one task execution, returning a start timestamp when it
// is latency-sampled.
func (s *WorkerShard) TaskBegin() int64 {
	s.tasks++
	if s.tasks&s.mask == 0 {
		return nanos()
	}
	return 0
}

// TaskEnd records the sampled execute latency.
func (s *WorkerShard) TaskEnd(t0 int64) {
	if t0 != 0 {
		s.dom.execNs.Record(uint64(nanos() - t0))
	}
}

// Flush publishes the local mirror. Must be called from the owning worker
// goroutine (the sweep loop does, on a cadence and on worker exit).
func (s *WorkerShard) Flush() {
	s.sinceFlush = 0
	s.pub[wsTasks].Store(s.tasks)
	s.pub[wsSweeps].Store(s.sweeps)
	s.pub[wsEmptySweeps].Store(s.empty)
	s.pub[wsBatched].Store(s.batched)
	s.pub[wsMaxBatch].Store(s.maxBatch)
}

// Published stat slots of a ClientShard.
const (
	csPosts = iota
	csBurstWaits
	csReads
	csBypassHits
	csBypassRetries
	csBypassFallbacks
	csNumStats
)

// ClientShard is the client-side counterpart: owned by one delegation
// client (one application thread, as in FFWD), counting posts and
// full-burst waits, and making the sampling decision that creates a task
// lifecycle span.
type ClientShard struct {
	_ [64]byte

	posts           uint64
	burstWaits      uint64
	reads           uint64
	bypassHits      uint64
	bypassRetries   uint64
	bypassFallbacks uint64
	sinceFlush      uint64
	sampled         uint64

	mask       uint64
	traceEvery uint64 // commit every Nth sampled span to the ring; 0 = off
	dom        *DomainObs
	tracer     *Tracer
	spare      *Span // recycled span for PostRecycled; single-owner, reused once resolved

	_ [64]byte

	pub [csNumStats]atomic.Uint64

	_ [64]byte
}

// Post counts one delegation. On sampled posts it allocates and returns a
// lifecycle span for the task (stamped Posted); the caller threads it
// through the slot so the worker and the future can stamp the later stages.
// Returns nil on unsampled posts — the common case, which allocates
// nothing.
func (c *ClientShard) Post() *Span {
	c.posts++
	c.sinceFlush++
	if c.sinceFlush >= clientFlushEvery {
		c.Flush()
	}
	if c.posts&c.mask != 0 {
		return nil
	}
	c.sampled++
	sp := &Span{dom: c.dom, posted: nanos()}
	if c.traceEvery > 0 && c.sampled%c.traceEvery == 0 {
		sp.tracer = c.tracer
	}
	return sp
}

// PostRecycled is Post for recycled-future callers (the delegation
// client's Post into a slot-embedded future): identical counting and sampling, but the sampled
// span is drawn from a one-deep per-shard recycle pool instead of being
// freshly allocated — the source of the observed path's stray 1 B/op.
// Safe only where the span is resolved exactly once per lifecycle before
// the next sampled post can reclaim it, which the slot-embedded future
// guarantees (Await resolves before the slot frees); detached Delegate
// futures must keep using Post. An unresolved spare (several sampled posts
// in flight at once) falls back to allocating.
func (c *ClientShard) PostRecycled() *Span {
	c.posts++
	c.sinceFlush++
	if c.sinceFlush >= clientFlushEvery {
		c.Flush()
	}
	if c.posts&c.mask != 0 {
		return nil
	}
	c.sampled++
	sp := c.spare
	if sp == nil || !sp.done.Load() {
		sp = &Span{}
		c.spare = sp
	}
	sp.reset(c.dom, nanos())
	if c.traceEvery > 0 && c.sampled%c.traceEvery == 0 {
		sp.tracer = c.tracer
	}
	return sp
}

// BurstWait counts a slot-poll stall: the client's burst was full (or all
// free slots bookkept pending) and it had to wait for its oldest future.
func (c *ClientShard) BurstWait() { c.burstWaits++ }

// CountRead marks the in-flight post as a read. The delegation client's one
// post path calls it for read ops (read-flagged closures and typed GETs),
// where the read/write distinction is already known — one predictable
// branch and an owner-local increment, no extra lookup on the write path.
// Together with BypassHit (which also counts a read) this gives the sampler
// the windowed write fraction: writes = posts − (reads − bypass hits).
func (c *ClientShard) CountRead() { c.reads++ }

// BypassHit counts one validated local read on the read-bypass fast path,
// plus the wasted validation attempts (retries) it took before validating.
// Same owner-local counting and flush cadence as Post: the bypass hot path
// issues no atomic RMW.
func (c *ClientShard) BypassHit(retries uint64) {
	c.bypassHits++
	c.reads++
	c.bypassRetries += retries
	c.sinceFlush++
	if c.sinceFlush >= clientFlushEvery {
		c.Flush()
	}
}

// BypassFallback counts one read that exhausted its validation attempts (or
// found the publication words poisoned) and fell back to delegation.
func (c *ClientShard) BypassFallback(retries uint64) {
	c.bypassFallbacks++
	c.bypassRetries += retries
	c.sinceFlush++
	if c.sinceFlush >= clientFlushEvery {
		c.Flush()
	}
}

// Flush publishes the local mirror. Must be called from the owning client
// goroutine (Post does, on a cadence; Client.Drain does on teardown).
func (c *ClientShard) Flush() {
	c.sinceFlush = 0
	c.pub[csPosts].Store(c.posts)
	c.pub[csBurstWaits].Store(c.burstWaits)
	c.pub[csReads].Store(c.reads)
	c.pub[csBypassHits].Store(c.bypassHits)
	c.pub[csBypassRetries].Store(c.bypassRetries)
	c.pub[csBypassFallbacks].Store(c.bypassFallbacks)
}
