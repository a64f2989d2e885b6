// Package hashmap implements a TBB-style concurrent hash map: chained
// buckets, each protected by a fine-grained reader-writer spin lock. Per the
// paper's footnote 1, the bucket hash additionally XORs the upper half of
// the key into the lower half, which evens out bucket occupancy for the
// structured 64-bit keys YCSB generates (the paper reports the bucket-size
// standard deviation dropping from 4.7 to 1.2).
//
// The reader-side atomic increment that registers a reader on the bucket's
// lock is the coordination cost the paper identifies as the structure's
// read-only-workload bottleneck; it is surfaced via ReaderRegistrations so
// the cost model can charge it.
package hashmap

import (
	"math"
	"sync/atomic"
	"unsafe"

	"robustconf/internal/index"
	"robustconf/internal/prefetch"
	"robustconf/internal/syncprims"
)

// DefaultBuckets is New's bucket count; a power of two sized for the YCSB
// scale used in the examples and tests.
const DefaultBuckets = 1 << 16

type entry struct {
	key uint64
	val atomic.Uint64
	// next is atomic so ExecBatch's lock-free interleaved walk can chase
	// chains while another worker's Delete unlinks in place under the
	// bucket's exclusive lock — with pooled sessions one structure's ops
	// may execute on several workers concurrently. key is immutable after
	// publication; relaxed pointer loads cost nothing on the lock-holding
	// paths.
	next atomic.Pointer[entry]
}

const entryBytes = 8 + 8 + 8

type bucket struct {
	lock syncprims.RWSpinLock
	head atomic.Pointer[entry]
	size atomic.Int64
}

// Map is a concurrent chained hash map. Construct with New or NewBuckets.
type Map struct {
	buckets []bucket
	mask    uint64
	count   atomic.Int64
	// xorFold enables the footnote-1 hash fix; disabled only by the
	// ablation constructor to reproduce the skew the paper discovered.
	xorFold bool
}

// New returns a map with the default bucket count and the XOR hash fix on.
func New() *Map { return NewBuckets(DefaultBuckets) }

// NewBuckets returns a map with the given bucket count, rounded up to a
// power of two, with the XOR hash fix enabled.
func NewBuckets(n int) *Map {
	return newMap(n, true)
}

// NewWithoutXORFix returns a map that hashes without folding the key's upper
// half — the configuration the paper found to skew bucket occupancy. It
// exists for the ablation benchmarks.
func NewWithoutXORFix(n int) *Map {
	return newMap(n, false)
}

func newMap(n int, xorFold bool) *Map {
	size := 1
	for size < n {
		size <<= 1
	}
	return &Map{buckets: make([]bucket, size), mask: uint64(size - 1), xorFold: xorFold}
}

// hash mixes the key into a bucket number. Without the XOR fold only the
// low bits participate, which skews occupancy for keys whose entropy is in
// the upper half.
func (m *Map) hash(k uint64) uint64 {
	if m.xorFold {
		k ^= k >> 32
	}
	k *= 0x9e3779b97f4a7c15
	return (k >> 16) & m.mask
}

// Name implements index.Index.
func (m *Map) Name() string { return "Hash Map" }

// Scheme implements index.Index.
func (m *Map) Scheme() index.Scheme { return index.SchemeBucketRW }

// ConcurrentReadSafe reports true: Get holds the bucket's reader-writer
// spin lock (a single atomic word) in shared mode, entry values are atomic,
// and chain links never change while the lock is held shared — a concurrent
// read is race-clean and allocation-free (see index.ConcurrentReadSafe),
// which makes the hash map the reference structure for the runtime's
// zero-allocation bypass-read pin.
func (m *Map) ConcurrentReadSafe() bool { return true }

// Len implements index.Index.
func (m *Map) Len() int { return int(m.count.Load()) }

// Get implements index.Index.
func (m *Map) Get(k uint64, st *index.OpStats) (uint64, bool) {
	if st != nil {
		st.Ops++
	}
	b := &m.buckets[m.hash(k)]
	b.lock.RLock()
	defer b.lock.RUnlock()
	n := uint64(0)
	for e := b.head.Load(); e != nil; e = e.next.Load() {
		n++
		if e.key == k {
			st.Visit(n, n*index.CacheLines(entryBytes))
			return e.val.Load(), true
		}
	}
	st.Visit(n+1, (n+1)*index.CacheLines(entryBytes))
	return 0, false
}

// Insert implements index.Index.
func (m *Map) Insert(k, v uint64, st *index.OpStats) bool {
	if st != nil {
		st.Ops++
		st.LockAcquires++
	}
	b := &m.buckets[m.hash(k)]
	b.lock.Lock()
	defer b.lock.Unlock()
	n := uint64(0)
	for e := b.head.Load(); e != nil; e = e.next.Load() {
		n++
		if e.key == k {
			st.Visit(n, n*index.CacheLines(entryBytes))
			return false
		}
	}
	e := &entry{key: k}
	e.next.Store(b.head.Load())
	e.val.Store(v)
	b.head.Store(e)
	b.size.Add(1)
	m.count.Add(1)
	st.Visit(n+1, (n+1)*index.CacheLines(entryBytes))
	if st != nil {
		st.BytesCopied += entryBytes
	}
	return true
}

// Update implements index.Index with an in-place atomic store on the value.
func (m *Map) Update(k, v uint64, st *index.OpStats) bool {
	if st != nil {
		st.Ops++
		st.LockAcquires++
	}
	b := &m.buckets[m.hash(k)]
	b.lock.RLock() // value stores are atomic; shared mode suffices
	defer b.lock.RUnlock()
	n := uint64(0)
	for e := b.head.Load(); e != nil; e = e.next.Load() {
		n++
		if e.key == k {
			e.val.Store(v)
			st.Visit(n, n*index.CacheLines(entryBytes))
			return true
		}
	}
	st.Visit(n+1, (n+1)*index.CacheLines(entryBytes))
	return false
}

// Delete implements index.Index by unlinking the entry under the bucket's
// exclusive lock.
func (m *Map) Delete(k uint64, st *index.OpStats) bool {
	if st != nil {
		st.Ops++
		st.LockAcquires++
	}
	b := &m.buckets[m.hash(k)]
	b.lock.Lock()
	defer b.lock.Unlock()
	n := uint64(0)
	var prev *entry
	for e := b.head.Load(); e != nil; e = e.next.Load() {
		n++
		if e.key == k {
			// Readers hold the bucket's shared lock, so the exclusive
			// holder may unlink in place.
			if prev == nil {
				b.head.Store(e.next.Load())
			} else {
				prev.next.Store(e.next.Load())
			}
			b.size.Add(-1)
			m.count.Add(-1)
			st.Visit(n, n*index.CacheLines(entryBytes))
			return true
		}
		prev = e
	}
	st.Visit(n+1, (n+1)*index.CacheLines(entryBytes))
	return false
}

// batchStride is how many in-flight operations one interleaved round of
// ExecBatch advances together. 16 independent probes comfortably exceed the
// line-fill-buffer depth of current cores, so the group's misses overlap
// without the stage arrays outgrowing the stack.
const batchStride = 16

// ExecBatch implements index.BatchKernel with an AMAC-style interleaved
// chain walk: every operation's bucket is hashed and prefetched, each chain
// head is loaded and prefetched, and then per-operation cursors advance one
// entry per round — each round issuing the prefetch for every cursor's next
// entry before any cursor dereferences its own — so up to batchStride
// dependent pointer chases miss the cache concurrently instead of one after
// another. The walk is read-only and lock-free, and race-clean even against
// concurrent mutators on other workers (with pooled sessions one
// structure's ops may execute on several workers at once): chain heads and
// links are atomic pointers, keys are immutable after publication, and a
// stale or mid-unlink view only mis-prefetches. Operations then
// execute serially in index order through the normal public methods, which
// re-read the (now resident) chain under the bucket lock — the optimistic
// walk is purely a cache warmer, so the serial-equivalence contract holds
// trivially.
func (m *Map) ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	var bs [batchStride]*bucket
	var cur [batchStride]*entry
	for base := 0; base < len(kinds); base += batchStride {
		n := len(kinds) - base
		if n > batchStride {
			n = batchStride
		}
		// A group of one has nothing to overlap with — the optimistic walk
		// would only replay the chain chase it cannot hide — so it skips
		// straight to execution.
		if n > 1 {
			// Stage 1: hash every key and prefetch its bucket header (lock
			// word, chain head and size share the line).
			for i := 0; i < n; i++ {
				b := &m.buckets[m.hash(keys[base+i])]
				bs[i] = b
				prefetch.Line(unsafe.Pointer(b))
			}
			// Stage 2: the bucket lines are (now) resident; load each
			// chain's first entry and prefetch it.
			for i := 0; i < n; i++ {
				if e := bs[i].head.Load(); e != nil {
					cur[i] = e
					prefetch.Line(unsafe.Pointer(e))
				} else {
					cur[i] = nil
				}
			}
			// Stage 3: interleaved chain walk. A cursor retires when its
			// key matches (the entry the execute stage will want is
			// resident) or its chain ends; the round keeps going while any
			// cursor is in flight.
			for {
				active := false
				for i := 0; i < n; i++ {
					e := cur[i]
					if e == nil {
						continue
					}
					if e.key == keys[base+i] {
						cur[i] = nil
						continue
					}
					next := e.next.Load()
					cur[i] = next
					if next != nil {
						prefetch.Line(unsafe.Pointer(next))
						active = true
					}
				}
				if !active {
					break
				}
			}
		}
		// Stage 4: execute in index order with the public operations.
		// (Reached directly for single-op groups, with no staging.)
		for i := 0; i < n; i++ {
			j := base + i
			switch kinds[j] {
			case index.BatchGet:
				outVals[j], outOKs[j] = m.Get(keys[j], nil)
			case index.BatchInsert:
				outVals[j], outOKs[j] = 0, m.Insert(keys[j], vals[j], nil)
			case index.BatchUpdate:
				outVals[j], outOKs[j] = 0, m.Update(keys[j], vals[j], nil)
			case index.BatchDelete:
				outVals[j], outOKs[j] = 0, m.Delete(keys[j], nil)
			}
		}
	}
}

// Buckets returns the bucket count.
func (m *Map) Buckets() int { return len(m.buckets) }

// ReaderRegistrations sums the reader-side lock registrations across all
// buckets — the atomic-increment traffic the paper's read-only analysis
// attributes the Hash Map bottleneck to.
func (m *Map) ReaderRegistrations() uint64 {
	var n uint64
	for i := range m.buckets {
		n += m.buckets[i].lock.ReaderRegistrations.Load()
	}
	return n
}

// BucketSizeStdDev returns the standard deviation of bucket occupancy, the
// metric of footnote 1 (4.7 without the XOR fix vs 1.2 with it).
func (m *Map) BucketSizeStdDev() float64 {
	mean := float64(m.count.Load()) / float64(len(m.buckets))
	var ss float64
	for i := range m.buckets {
		d := float64(m.buckets[i].size.Load()) - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(m.buckets)))
}
