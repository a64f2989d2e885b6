// Package index defines the common contract for the main-memory index
// structures the paper evaluates (Table 1): an STX-style B+Tree, the
// FP-Tree, the Open BW-Tree and a TBB-style Hash Map. All four store 64-bit
// integer keys and values, matching the paper's YCSB setup.
//
// Every operation can optionally report its structural events through an
// OpStats sink. The machine simulator charges costs (cache lines touched,
// synchronisation events, allocations) from these real measurements rather
// than from canned curves.
package index

import "fmt"

// Scheme identifies the synchronisation scheme of a structure, as listed in
// Table 1 of the paper. The scheme decides which contention model the
// simulator applies.
type Scheme int

const (
	// SchemeAtomicRecord: no structural synchronisation by default;
	// modified with atomic load/store on records plus a global lock for
	// inserts (the paper's modified STX B+Tree).
	SchemeAtomicRecord Scheme = iota
	// SchemeHTM: hardware transactional memory for traversal with a
	// global-lock fallback path (FP-Tree).
	SchemeHTM
	// SchemeCOW: copy-on-write delta records installed with atomic CAS
	// (Open BW-Tree).
	SchemeCOW
	// SchemeBucketRW: fine-grained per-bucket reader-writer locking with a
	// spin lock (TBB-style Hash Map).
	SchemeBucketRW
)

// String names the scheme as in Table 1.
func (s Scheme) String() string {
	switch s {
	case SchemeAtomicRecord:
		return "atomic load/store + global insert lock"
	case SchemeHTM:
		return "HTM + global lock fallback"
	case SchemeCOW:
		return "copy-on-write + atomic CAS"
	case SchemeBucketRW:
		return "fine-grained locking + spin lock"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// OpStats accumulates the structural events of executed operations. Pass nil
// when the caller does not need accounting; implementations must tolerate a
// nil sink. Visits are counted per attempt: an operation that retries (an
// HTM abort, a failed CAS) counts the nodes every attempt read, including
// the attempts that did not commit.
type OpStats struct {
	Ops          uint64 // operations accounted
	NodesVisited uint64 // tree nodes, delta records or buckets traversed
	Depth        uint64 // levels descended (cumulative)
	LinesTouched uint64 // distinct cache lines examined (estimate)
	BytesCopied  uint64 // bytes copied for COW / consolidation / splits
	CASFailures  uint64 // failed compare-and-swap attempts
	LockAcquires uint64 // pessimistic lock acquisitions
	Splits       uint64 // structural splits performed
	Consolidates uint64 // BW-Tree delta-chain consolidations
	DeltaLength  uint64 // cumulative delta-chain length walked (BW-Tree)
	FPProbes     uint64 // fingerprint comparisons (FP-Tree)
	HTMAborts    uint64 // software-HTM aborts on the real execution path
	HTMFallbacks uint64 // times the global-lock fallback was taken
}

// Add merges another accounting into s.
func (s *OpStats) Add(o OpStats) {
	s.Ops += o.Ops
	s.NodesVisited += o.NodesVisited
	s.Depth += o.Depth
	s.LinesTouched += o.LinesTouched
	s.BytesCopied += o.BytesCopied
	s.CASFailures += o.CASFailures
	s.LockAcquires += o.LockAcquires
	s.Splits += o.Splits
	s.Consolidates += o.Consolidates
	s.DeltaLength += o.DeltaLength
	s.FPProbes += o.FPProbes
	s.HTMAborts += o.HTMAborts
	s.HTMFallbacks += o.HTMFallbacks
}

// Visit records nodes visited and the cache lines they touched. It is safe
// to call on a nil sink, so implementations can account unconditionally.
func (s *OpStats) Visit(nodes, lines uint64) {
	if s == nil {
		return
	}
	s.NodesVisited += nodes
	s.LinesTouched += lines
}

// Index is the uniform access interface over all evaluated structures.
// Implementations are safe for concurrent use according to their Scheme.
type Index interface {
	// Name identifies the structure ("B-Tree", "FP-Tree", "BW-Tree",
	// "Hash Map") as used in the paper's figures.
	Name() string
	// Scheme returns the synchronisation scheme per Table 1.
	Scheme() Scheme
	// Get returns the value stored under k.
	Get(k uint64, st *OpStats) (uint64, bool)
	// Insert stores v under a fresh key k; it returns false and leaves the
	// structure unchanged when k is already present.
	Insert(k, v uint64, st *OpStats) bool
	// Update overwrites the value of an existing key in place; it returns
	// false when k is absent. Updates never cause structural maintenance
	// (no splits), matching the paper's read-update workload.
	Update(k, v uint64, st *OpStats) bool
	// Delete removes k; it returns false when k is absent. Deletions do
	// not rebalance (in-memory OLTP churn refills pages quickly, so all
	// four implementations — like many production main-memory indexes —
	// reclaim space lazily via splits/consolidation instead).
	Delete(k uint64, st *OpStats) bool
	// Len returns the number of keys stored.
	Len() int
}

// ConcurrentReadSafe is implemented by structures whose read operations
// (Get, Scan, Len) are safe — and, crucially, race-detector-clean — when
// executed by a foreign goroutine while a domain worker mutates the
// structure. The core runtime's read-bypass layer (core.SubmitRead) only
// arms a non-delegate read policy for structures that answer true; anything
// else silently degrades to always-delegate.
//
// "Safe" here is a memory-ordering property, not a linearizability one: a
// bypass read may observe logically torn mid-batch state, which is why the
// runtime discards any result whose validation window overlapped a mutating
// sweep batch. What the structure must guarantee is merely that the read
// itself cannot fault, loop, or read torn words — i.e. every field a reader
// dereferences concurrently with a writer is published via atomics or held
// under a shared lock the reader takes. Of the four evaluated structures:
//
//   - Hash Map (SchemeBucketRW): safe. Get takes the bucket's reader-writer
//     spin lock (an atomic-word lock) in read mode; entry values are
//     atomic.Uint64 and the chain links are immutable while the lock is held
//     shared.
//   - BW-Tree (SchemeCOW): safe. Readers traverse immutable delta records
//     reached through CAS-published mapping-table slots; nothing a reader
//     touches is ever written in place.
//   - FP-Tree (SchemeHTM): safe. Reads run inside the software-HTM
//     region's version-lock validation; inner-node content is COW behind an
//     atomic pointer and leaf fields are atomic. (Its reads allocate a
//     transaction descriptor, so it is bypass-safe but not allocation-free.)
//   - B-Tree (SchemeAtomicRecord): reports false. Its reads hold the
//     global structural lock in shared mode, so they are race-clean — but a
//     foreign bypass reader would spin on the very word the delegated
//     sweep's operations contend for, defeating the point of the bypass, so
//     the structure stays delegate-only (the paper's configuration for it).
type ConcurrentReadSafe interface {
	// ConcurrentReadSafe reports whether reads may run concurrently with the
	// owning domain's writers (under the runtime's validation protocol).
	ConcurrentReadSafe() bool
}

// Batch op kinds for BatchKernel.ExecBatch. The values are a wire-level
// contract with the delegation layer's typed KV slots (delegation.KVGet and
// friends mirror them numerically; a test pins the equality), which is what
// lets delegation drive kernels through a structural interface without an
// index import.
const (
	BatchGet uint8 = 1 + iota
	BatchInsert
	BatchUpdate
	BatchDelete
)

// BatchKernel is the interleaved batch-execution contract (DESIGN.md §15):
// a structure that implements it can execute a group of independent point
// operations with their traversal stages interleaved — hash/root for every
// op first, a software prefetch on each op's next node line, then the probe
// — so the group's dependent cache misses overlap (AMAC/group-prefetch
// style) instead of serialising one op at a time.
//
// Contract:
//
//   - Op i is kinds[i] (BatchGet/BatchInsert/BatchUpdate/BatchDelete) on
//     keys[i], with vals[i] as the value for inserts and updates.
//   - Effects and results MUST be identical to executing the ops serially in
//     index order with the Index methods: outOKs[i] is the op's boolean
//     result, and outVals[i] is the value Get returned (mutations store 0).
//     Conflicting keys inside one group therefore resolve in index order.
//   - The interleaved locate stage must be side-effect-free: it may read
//     optimistically (stale pointers are fine — prefetch.Line tolerates any
//     address) but must not publish anything. All mutation happens in the
//     in-order execute stage.
//   - The execute stage may act on what locate found only while whatever
//     kept it valid is still held: a kernel that locates under the
//     structure's lock may execute in place on the located node — in index
//     order, with the accesses the point ops use — for as long as that
//     same hold lasts (the B-Tree). A kernel that located optimistically
//     holds nothing, so its execute stage must look the key up again (the
//     other three re-run the point ops).
//   - The locate stage must also be race-clean against the structure's own
//     mutators running on other workers — with pooled sessions one
//     structure's ops may execute on several workers concurrently. Read
//     only atomically published pointers and immutable content, or take
//     the structure's locks for the walk.
//   - All five slices have equal length; the kernel must accept any length
//     (the delegation sweep's runs never exceed its buffer's slot count,
//     but nothing here assumes it).
//
// The method takes no OpStats sink: batch execution is the delegated hot
// path, and accounting there is the observability layer's job. Structures
// without a kernel are driven through closure tasks, which the sweep runs
// in place (the same silent-degrade pattern as ConcurrentReadSafe).
type BatchKernel interface {
	ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool)
}

// Modifier is implemented by structures that run a read-modify-write as one
// operation: a single descent reads k's value, and the same atomic step
// stores fn(old, arg) in its place. Modify returns the stored value, or
// (0, false) with nothing written when k is absent.
//
// fn must be pure: a structure that retries optimistically (the FP-Tree's
// HTM transactions) may call it more than once per Modify and keeps only
// the last result. Callers pass a static func and its argument rather than
// a capturing closure, so a Modify allocates nothing. Structures without a
// native Modify are driven through the Modify helper's Get+Update fallback
// (the same silent-degrade pattern as BatchKernel).
type Modifier interface {
	Modify(k uint64, fn func(old, arg uint64) uint64, arg uint64, st *OpStats) (uint64, bool)
}

// Modify applies fn(old, arg) to k's value through idx's native Modifier,
// or else as a Get followed by an Update. The fallback is two operations:
// it is atomic only where the caller already serialises writers to idx (a
// delegated domain, or one goroutine).
func Modify(idx Index, k uint64, fn func(old, arg uint64) uint64, arg uint64, st *OpStats) (uint64, bool) {
	if m, ok := idx.(Modifier); ok {
		return m.Modify(k, fn, arg, st)
	}
	old, ok := idx.Get(k, st)
	if !ok {
		return 0, false
	}
	nv := fn(old, arg)
	idx.Update(k, nv, st)
	return nv, true
}

// Ranger is implemented by the ordered structures (the three trees) and
// supports ascending range scans, which the TPC-C engine needs for
// secondary-index lookups.
//
// The contract every implementation keeps, and all a caller may assume:
//   - keys in [lo, hi] come in ascending order, each at most once;
//   - every yielded record was read by a committed read (a validated
//     transaction or an equivalent consistent read of its node);
//   - there is no snapshot across the whole scan: a scan may proceed in
//     chunks (the FP-Tree's transactions, the Bw-Tree's pages), so writes
//     that commit while it runs may or may not be seen. The B-Tree holds
//     its lock across fn and so happens to give one snapshot.
//
// No caller needs more: TPC-C scans run on the worker that owns the
// table, and WAL checkpoints scan a quiesced domain.
type Ranger interface {
	// Scan visits keys in [lo, hi] in ascending order until fn returns
	// false or the range is exhausted, and returns the number visited
	// (including the call that returned false).
	Scan(lo, hi uint64, fn func(k, v uint64) bool, st *OpStats) int
}

// CacheLines estimates how many 64-byte lines a byte span occupies.
func CacheLines(bytes int) uint64 {
	if bytes <= 0 {
		return 0
	}
	return uint64((bytes + 63) / 64)
}
