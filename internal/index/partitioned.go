package index

import "fmt"

// Partitioned splits a key space across several Index instances — the
// application-side partitioning the paper expects the DBMS to perform before
// handing instances to the configuration process (Section 5.2). Partitioning
// is by key hash so Zipfian-skewed YCSB keys spread evenly, or by range when
// constructed with NewRangePartitioned (which preserves Scan).
type Partitioned struct {
	parts   []Index
	byRange bool
	// bounds[i] is the exclusive upper key of partition i (range mode).
	bounds []uint64
}

// NewHashPartitioned distributes keys across parts by multiplicative hash.
func NewHashPartitioned(parts []Index) (*Partitioned, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("index: need at least one partition")
	}
	return &Partitioned{parts: parts}, nil
}

// NewRangePartitioned distributes keys across parts by range; bounds must be
// ascending and hold len(parts)-1 split points.
func NewRangePartitioned(parts []Index, bounds []uint64) (*Partitioned, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("index: need at least one partition")
	}
	if len(bounds) != len(parts)-1 {
		return nil, fmt.Errorf("index: %d partitions need %d bounds, got %d", len(parts), len(parts)-1, len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("index: bounds must be strictly ascending")
		}
	}
	return &Partitioned{parts: parts, byRange: true, bounds: bounds}, nil
}

// PartitionOf returns the partition index responsible for key k.
func (p *Partitioned) PartitionOf(k uint64) int {
	if p.byRange {
		lo, hi := 0, len(p.bounds)
		for lo < hi {
			mid := (lo + hi) / 2
			if p.bounds[mid] <= k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	h := k
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(len(p.parts)))
}

// Partition returns partition i.
func (p *Partitioned) Partition(i int) Index { return p.parts[i] }

// Partitions returns the number of partitions.
func (p *Partitioned) Partitions() int { return len(p.parts) }

// Name implements Index.
func (p *Partitioned) Name() string {
	return fmt.Sprintf("%s×%d", p.parts[0].Name(), len(p.parts))
}

// Scheme implements Index (all partitions share one scheme).
func (p *Partitioned) Scheme() Scheme { return p.parts[0].Scheme() }

// ConcurrentReadSafe reports whether every partition is safe for concurrent
// readers — the wrapper itself adds no shared mutable state, and a bypass
// read routes through PartitionOf exactly like a delegated one, so each
// validated local read stays confined to the single partition owning its
// key. One unsafe partition poisons the whole wrapper: the runtime arms the
// bypass per registered structure, and the wrapper is the structure.
func (p *Partitioned) ConcurrentReadSafe() bool {
	for _, part := range p.parts {
		crs, ok := part.(ConcurrentReadSafe)
		if !ok || !crs.ConcurrentReadSafe() {
			return false
		}
	}
	return true
}

// Get implements Index.
func (p *Partitioned) Get(k uint64, st *OpStats) (uint64, bool) {
	return p.parts[p.PartitionOf(k)].Get(k, st)
}

// Insert implements Index.
func (p *Partitioned) Insert(k, v uint64, st *OpStats) bool {
	return p.parts[p.PartitionOf(k)].Insert(k, v, st)
}

// Update implements Index.
func (p *Partitioned) Update(k, v uint64, st *OpStats) bool {
	return p.parts[p.PartitionOf(k)].Update(k, v, st)
}

// Delete implements Index.
func (p *Partitioned) Delete(k uint64, st *OpStats) bool {
	return p.parts[p.PartitionOf(k)].Delete(k, st)
}

// Len implements Index.
func (p *Partitioned) Len() int {
	n := 0
	for _, part := range p.parts {
		n += part.Len()
	}
	return n
}

// Scan implements Ranger for range-partitioned trees. It returns 0 for
// hash-partitioned or unordered partitions, whose global order is undefined.
func (p *Partitioned) Scan(lo, hi uint64, fn func(k, v uint64) bool, st *OpStats) int {
	if !p.byRange {
		return 0
	}
	total := 0
	stopped := false
	for i := p.PartitionOf(lo); i < len(p.parts) && !stopped; i++ {
		r, ok := p.parts[i].(Ranger)
		if !ok {
			return total
		}
		total += r.Scan(lo, hi, func(k, v uint64) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		}, st)
	}
	return total
}
