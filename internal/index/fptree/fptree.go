// Package fptree implements the FP-Tree of Oukid et al. (SIGMOD'16) as a
// main-memory index: volatile sorted inner nodes above unsorted leaves that
// carry a one-byte fingerprint per record and an occupancy bitmap. Lookups
// descend the inner nodes, then probe the leaf's fingerprint array and only
// compare keys on fingerprint hits — the design that makes the leaf probe a
// single cache-line scan in the common case.
//
// Synchronisation follows the paper's Table 1: operations run as hardware
// memory transactions with a global-lock fallback, provided here by the
// software HTM emulation in internal/htm. Every node carries a version cell;
// transactions read the cells along their path and write the cells of the
// nodes they modify. Leaf records are published through atomic stores so
// in-flight optimistic readers never observe torn words.
//
// Steady-state operations are allocation-free: each op borrows a pooled
// scratch descriptor carrying its transaction descriptor, prebuilt
// transaction bodies, prebuilt commit-time apply closures, a fixed
// descend-path array, and retained scan/split buffers, so nothing escapes to
// the heap on the hot path (structural changes — splits and leaf reclaims —
// allocate the inner contents and nodes they publish).
//
// A Delete that empties a leaf reclaims it in the same transaction, as the
// original FPTree does (see reclaim): only the leftmost leaf may stay
// empty, so scans never walk drained stretches of the key space.
//
// In the original system the leaves live in storage-class memory; here they
// are DRAM-resident (see DESIGN.md §2) with identical structure.
package fptree

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"robustconf/internal/htm"
	"robustconf/internal/index"
	"robustconf/internal/prefetch"
	"robustconf/internal/syncprims"
)

const (
	leafCap     = 32 // records per leaf
	innerFanout = 32 // children per inner node
	// maxDepth sizes the scratch descend-path array; deeper trees fall
	// back to a heap-grown path (32^15 keys before that happens).
	maxDepth = 16
	// maxScanLeaves caps the leaves one Scan chunk collects, keeping its
	// read set far below htm.DefaultCapacity and the scan buffer a pooled
	// scratch retains at maxScanLeaves*leafCap records.
	maxScanLeaves = 64
)

// fingerprint is the one-byte hash probed before any key comparison.
func fingerprint(k uint64) uint32 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return uint32(k & 0xff)
}

type leaf struct {
	cell   syncprims.VersionLock
	bitmap atomic.Uint64 // publishes slot occupancy (release store)
	fps    [leafCap]atomic.Uint32
	keys   [leafCap]atomic.Uint64
	vals   [leafCap]atomic.Uint64
	next   atomic.Pointer[leaf]
}

const leafBytes = 8 + 8 + leafCap*(4+8+8) + 8

// innerContent is the immutable payload of an inner node; structural changes
// install a fresh content (copy-on-write) so concurrent readers always see a
// consistent key/children pairing.
type innerContent struct {
	keys     []uint64
	children []any // *inner or *leaf
}

type inner struct {
	cell    syncprims.VersionLock
	content atomic.Pointer[innerContent]
}

func innerBytes(c *innerContent) int { return 16 + len(c.keys)*8 + len(c.children)*8 }

// step is one inner node on a descent path: the node, the content the
// descent read from it and the child index it followed.
type step struct {
	n *inner
	c *innerContent
	i int
}

// rootRef wraps the root so it can be swapped atomically.
type rootRef struct {
	node any // *inner or *leaf
}

// rec is one key/value pair in scan and split scratch buffers.
type rec struct{ k, v uint64 }

// Tree is a concurrent FP-Tree. Construct with New.
type Tree struct {
	region   *htm.Region
	rootCell syncprims.VersionLock
	root     atomic.Pointer[rootRef]
	count    atomic.Int64
	scratch  sync.Pool // *opScratch
}

// New returns an empty FP-Tree with a fresh HTM region.
func New() *Tree {
	t := &Tree{region: htm.NewRegion()}
	t.root.Store(&rootRef{node: newLeaf()})
	t.scratch.New = func() any { return newScratch(t) }
	return t
}

func newLeaf() *leaf { return &leaf{} }

// opScratch is the recycled per-operation state. The transaction bodies
// and apply closures are bound once at construction, so an operation
// costs zero heap allocations at steady state; parameters and results
// travel through the struct fields instead of closure captures.
type opScratch struct {
	t  *Tree
	tx htm.Tx

	// parameters
	k, v   uint64
	lo, hi uint64
	st     *index.OpStats
	fn     func(old, arg uint64) uint64 // Modify's step, applied to arg
	arg    uint64

	// results
	val      uint64
	found    bool
	updated  bool
	deleted  bool
	inserted bool
	scanEnd  bool // the chunk reached the end of the range or the chain

	// per-attempt state consumed by the prebuilt apply closures
	lf   *leaf
	slot int
	bm   uint64

	pathBuf    [maxDepth]step
	splitRecs  [leafCap + 1]rec
	scanOut    []rec
	scanLeaves int // chunk size: leaves with in-range records to collect

	// prebuilt closures (one allocation each, at scratch construction)
	getBody     func(*htm.Tx) error
	updateBody  func(*htm.Tx) error
	modifyBody  func(*htm.Tx) error
	deleteBody  func(*htm.Tx) error
	insertBody  func(*htm.Tx) error
	scanBody    func(*htm.Tx) error
	applyUpdate func()
	applyDelete func()
	applyInsert func()
}

func newScratch(t *Tree) *opScratch {
	sc := &opScratch{t: t}
	sc.getBody = sc.doGet
	sc.updateBody = sc.doUpdate
	sc.modifyBody = sc.doModify
	sc.deleteBody = sc.doDelete
	sc.insertBody = sc.doInsert
	sc.scanBody = sc.doScan
	sc.applyUpdate = func() { sc.lf.vals[sc.slot].Store(sc.v) }
	sc.applyDelete = func() { sc.lf.bitmap.Store(sc.bm &^ (1 << uint(sc.slot))) }
	sc.applyInsert = func() {
		lf, slot := sc.lf, sc.slot
		lf.fps[slot].Store(fingerprint(sc.k))
		lf.keys[slot].Store(sc.k)
		lf.vals[slot].Store(sc.v)
		lf.bitmap.Store(sc.bm | 1<<uint(slot)) // publish last
	}
	return sc
}

func (t *Tree) getScratch() *opScratch { return t.scratch.Get().(*opScratch) }

func (t *Tree) putScratch(sc *opScratch) {
	sc.st = nil
	sc.lf = nil
	t.scratch.Put(sc)
}

// Name implements index.Index.
func (t *Tree) Name() string { return "FP-Tree" }

// Scheme implements index.Index.
func (t *Tree) Scheme() index.Scheme { return index.SchemeHTM }

// ConcurrentReadSafe reports true: reads run inside the software-HTM
// region's version-lock validation, inner-node content is copy-on-write
// behind an atomic pointer, and leaf bitmap/fingerprint/key/value cells are
// atomic — so a concurrent read is race-clean (and allocation-free at
// steady state: the op scratch, which carries the transaction descriptor,
// is pooled).
func (t *Tree) ConcurrentReadSafe() bool { return true }

// Len implements index.Index.
func (t *Tree) Len() int { return int(t.count.Load()) }

// HTMStats exposes the region's transactional outcome counters (commits,
// aborts, fallbacks) for the experiment harness.
func (t *Tree) HTMStats() *htm.Stats { return &t.region.Stats }

// descend walks from the root to the leaf covering k inside tx, registering
// every cell on the path in the transaction's read set. It returns the leaf
// and the inner nodes above it (nearest last) with the content read and the
// child followed at each, appended into path (normally the scratch's
// fixed-size array, so no allocation below maxDepth).
func (t *Tree) descend(tx *htm.Tx, k uint64, st *index.OpStats, path []step) (*leaf, []step, error) {
	if err := tx.Read(&t.rootCell); err != nil {
		return nil, nil, err
	}
	node := t.root.Load().node
	for {
		switch n := node.(type) {
		case *inner:
			if err := tx.Read(&n.cell); err != nil {
				return nil, nil, err
			}
			c := n.content.Load()
			if c == nil || len(c.children) == 0 {
				return nil, nil, tx.Abort() // torn mid-install; retry
			}
			if st != nil {
				st.Visit(1, index.CacheLines(innerBytes(c)))
			}
			i := searchSeparators(c.keys, k)
			path = append(path, step{n, c, i})
			node = c.children[i]
		case *leaf:
			if err := tx.Read(&n.cell); err != nil {
				return nil, nil, err
			}
			if st != nil {
				st.Visit(1, index.CacheLines(leafBytes))
				st.Depth += uint64(len(path))
			}
			return n, path, nil
		default:
			return nil, nil, tx.Abort()
		}
	}
}

// searchSeparators returns the child index for k: first separator > k.
func searchSeparators(keys []uint64, k uint64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// probe scans the leaf's fingerprints for k and returns the slot, or -1.
func probe(lf *leaf, k uint64, st *index.OpStats) int {
	fp := fingerprint(k)
	bm := lf.bitmap.Load()
	for i := 0; i < leafCap; i++ {
		if bm&(1<<uint(i)) == 0 {
			continue
		}
		if st != nil {
			st.FPProbes++
		}
		if lf.fps[i].Load() != fp {
			continue
		}
		if lf.keys[i].Load() == k {
			return i
		}
	}
	return -1
}

func (sc *opScratch) doGet(tx *htm.Tx) error {
	sc.val, sc.found = 0, false
	lf, _, err := sc.t.descend(tx, sc.k, sc.st, sc.pathBuf[:0])
	if err != nil {
		return err
	}
	if i := probe(lf, sc.k, sc.st); i >= 0 {
		sc.val = lf.vals[i].Load()
		sc.found = true
	}
	return nil
}

// Get implements index.Index.
func (t *Tree) Get(k uint64, st *index.OpStats) (uint64, bool) {
	if st != nil {
		st.Ops++
	}
	sc := t.getScratch()
	sc.k, sc.st = k, st
	if err := t.region.Atomic(&sc.tx, sc.getBody); err != nil {
		// Atomic only surfaces non-abort errors, which we never generate.
		panic("fptree: unexpected transaction error: " + err.Error())
	}
	val, found := sc.val, sc.found
	t.putScratch(sc)
	return val, found
}

func (sc *opScratch) doUpdate(tx *htm.Tx) error {
	sc.updated = false
	lf, _, err := sc.t.descend(tx, sc.k, sc.st, sc.pathBuf[:0])
	if err != nil {
		return err
	}
	i := probe(lf, sc.k, sc.st)
	if i < 0 {
		return nil
	}
	sc.lf, sc.slot = lf, i
	sc.updated = true
	return tx.Write(&lf.cell, sc.applyUpdate)
}

// Update implements index.Index: an in-place value store under the leaf cell.
func (t *Tree) Update(k, v uint64, st *index.OpStats) bool {
	if st != nil {
		st.Ops++
	}
	sc := t.getScratch()
	sc.k, sc.v, sc.st = k, v, st
	if err := t.region.Atomic(&sc.tx, sc.updateBody); err != nil {
		panic("fptree: unexpected transaction error: " + err.Error())
	}
	updated := sc.updated
	t.putScratch(sc)
	return updated
}

// doModify reads the value and schedules fn's result under the same leaf
// cell it read: a write that commits in between fails the read-set
// validation, and the retry calls fn again on the new value.
func (sc *opScratch) doModify(tx *htm.Tx) error {
	sc.updated = false
	lf, _, err := sc.t.descend(tx, sc.k, sc.st, sc.pathBuf[:0])
	if err != nil {
		return err
	}
	i := probe(lf, sc.k, sc.st)
	if i < 0 {
		return nil
	}
	sc.v = sc.fn(lf.vals[i].Load(), sc.arg)
	sc.lf, sc.slot = lf, i
	sc.updated = true
	return tx.Write(&lf.cell, sc.applyUpdate)
}

// Modify implements index.Modifier: one descent and one transaction that
// reads the value and stores fn(old, arg) in place. An absent key writes
// nothing and returns (0, false).
func (t *Tree) Modify(k uint64, fn func(old, arg uint64) uint64, arg uint64, st *index.OpStats) (uint64, bool) {
	if st != nil {
		st.Ops++
	}
	sc := t.getScratch()
	sc.k, sc.fn, sc.arg, sc.st = k, fn, arg, st
	if err := t.region.Atomic(&sc.tx, sc.modifyBody); err != nil {
		panic("fptree: unexpected transaction error: " + err.Error())
	}
	nv, updated := sc.v, sc.updated
	sc.fn = nil
	t.putScratch(sc)
	if !updated {
		return 0, false
	}
	return nv, true
}

func (sc *opScratch) doDelete(tx *htm.Tx) error {
	sc.deleted = false
	lf, path, err := sc.t.descend(tx, sc.k, sc.st, sc.pathBuf[:0])
	if err != nil {
		return err
	}
	i := probe(lf, sc.k, sc.st)
	if i < 0 {
		return nil
	}
	sc.lf, sc.slot, sc.bm = lf, i, lf.bitmap.Load()
	sc.deleted = true
	if sc.bm == 1<<uint(i) {
		return sc.reclaim(tx, lf, path)
	}
	return tx.Write(&lf.cell, sc.applyDelete)
}

// reclaim registers the writes of a delete that empties lf and, unless lf
// is the leftmost leaf (which, like a lone root leaf, stays), removes lf
// from the tree, following FPTree's FindLeafAndPrevLeaf: the predecessor is
// the rightmost leaf under the left sibling at the deepest ancestor where
// the path did not follow child 0, and its next pointer skips lf; lf leaves
// the deepest ancestor that keeps another child, taking one adjacent
// separator with it (ancestors in between are left childless and drop out
// with it). Every node read joins the read set, and all reads precede the
// writes: under the fallback lock writes apply at once.
func (sc *opScratch) reclaim(tx *htm.Tx, lf *leaf, path []step) error {
	p := len(path) - 1
	for p >= 0 && path[p].i == 0 {
		p--
	}
	if p < 0 {
		return tx.Write(&lf.cell, sc.applyDelete)
	}
	node := path[p].c.children[path[p].i-1]
	var pred *leaf
	for pred == nil {
		switch n := node.(type) {
		case *inner:
			if err := tx.Read(&n.cell); err != nil {
				return err
			}
			c := n.content.Load()
			if c == nil || len(c.children) == 0 {
				return tx.Abort()
			}
			sc.st.Visit(1, index.CacheLines(innerBytes(c)))
			node = c.children[len(c.children)-1]
		case *leaf:
			if err := tx.Read(&n.cell); err != nil {
				return err
			}
			sc.st.Visit(1, index.CacheLines(leafBytes))
			pred = n
		default:
			return tx.Abort()
		}
	}
	if pred.next.Load() != lf {
		return tx.Abort() // inconsistent snapshot; retry
	}
	// path[p] has at least two children, so this stops at or below p.
	r := len(path) - 1
	for len(path[r].c.children) == 1 {
		r--
	}
	c, i := path[r].c, path[r].i
	ki := i - 1 // the separator to the child's left ...
	if i == 0 {
		ki = 0 // ... or, for a first child, to its right
	}
	fresh := &innerContent{
		keys:     make([]uint64, 0, len(c.keys)-1),
		children: make([]any, 0, len(c.children)-1),
	}
	fresh.keys = append(append(fresh.keys, c.keys[:ki]...), c.keys[ki+1:]...)
	fresh.children = append(append(fresh.children, c.children[:i]...), c.children[i+1:]...)
	if sc.st != nil {
		sc.st.BytesCopied += uint64(innerBytes(fresh))
	}
	if err := tx.Write(&lf.cell, sc.applyDelete); err != nil {
		return err
	}
	if err := tx.Write(&pred.cell, func() { pred.next.Store(lf.next.Load()) }); err != nil {
		return err
	}
	parent := path[r].n
	return tx.Write(&parent.cell, func() { parent.content.Store(fresh) })
}

// Delete implements index.Index: the unsorted-leaf design makes removal a
// single bitmap-bit clear under the leaf's cell — the slot is simply
// unpublished and becomes reusable by later inserts. Clearing a leaf's last
// bit also reclaims the leaf (see reclaim).
func (t *Tree) Delete(k uint64, st *index.OpStats) bool {
	if st != nil {
		st.Ops++
	}
	sc := t.getScratch()
	sc.k, sc.st = k, st
	if err := t.region.Atomic(&sc.tx, sc.deleteBody); err != nil {
		panic("fptree: unexpected transaction error: " + err.Error())
	}
	deleted := sc.deleted
	t.putScratch(sc)
	if deleted {
		t.count.Add(-1)
	}
	return deleted
}

func (sc *opScratch) doInsert(tx *htm.Tx) error {
	sc.inserted = false
	lf, path, err := sc.t.descend(tx, sc.k, sc.st, sc.pathBuf[:0])
	if err != nil {
		return err
	}
	if probe(lf, sc.k, sc.st) >= 0 {
		return nil // duplicate
	}
	bm := lf.bitmap.Load()
	if slot := freeSlot(bm); slot >= 0 {
		sc.lf, sc.slot, sc.bm = lf, slot, bm
		sc.inserted = true
		return tx.Write(&lf.cell, sc.applyInsert)
	}
	// Leaf full: split, then insert into the proper half. The split
	// plan is computed here (reads only); all mutations are deferred
	// writes under the cells of the modified nodes.
	sc.inserted = true
	return sc.t.planSplitInsert(tx, sc, lf, path)
}

// Insert implements index.Index.
func (t *Tree) Insert(k, v uint64, st *index.OpStats) bool {
	if st != nil {
		st.Ops++
	}
	sc := t.getScratch()
	sc.k, sc.v, sc.st = k, v, st
	if err := t.region.Atomic(&sc.tx, sc.insertBody); err != nil {
		panic("fptree: unexpected transaction error: " + err.Error())
	}
	inserted := sc.inserted
	t.putScratch(sc)
	if inserted {
		t.count.Add(1)
	}
	return inserted
}

func freeSlot(bm uint64) int {
	for i := 0; i < leafCap; i++ {
		if bm&(1<<uint(i)) == 0 {
			return i
		}
	}
	return -1
}

// insertionSortRecs sorts a small rec slice by key in place. Used instead
// of sort.Slice on the ≤33-entry split and per-leaf scan batches, both to
// stay allocation-free (sort.Slice builds a reflect-based swapper) and
// because the batches are tiny.
func insertionSortRecs(a []rec) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j].k < a[j-1].k; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// planSplitInsert splits the full leaf lf around its median, inserts
// (sc.k, sc.v) into the correct half, and updates the parent chain, growing
// the tree if the root splits. All modifications are registered as
// transactional writes. The split path allocates (it publishes new nodes);
// that cost is structural and amortises to <1/leafCap per insert.
func (t *Tree) planSplitInsert(tx *htm.Tx, sc *opScratch, lf *leaf, path []step) error {
	// Snapshot the full leaf (bitmap is all-ones here).
	recs := sc.splitRecs[:0]
	for i := 0; i < leafCap; i++ {
		recs = append(recs, rec{lf.keys[i].Load(), lf.vals[i].Load()})
	}
	recs = append(recs, rec{sc.k, sc.v})
	insertionSortRecs(recs)
	mid := len(recs) / 2
	sep := recs[mid].k // first key of the right leaf

	right := newLeaf()
	// The right leaf is private until the commit publishes the parent
	// link, so it can be populated eagerly.
	var rightBM uint64
	for i, r := range recs[mid:] {
		right.fps[i].Store(fingerprint(r.k))
		right.keys[i].Store(r.k)
		right.vals[i].Store(r.v)
		rightBM |= 1 << uint(i)
	}
	st := sc.st
	if st != nil {
		st.Splits++
		st.BytesCopied += uint64(len(recs) * 16)
	}

	leftRecs := recs[:mid]
	applyLeaf := func() {
		// Rewrite the left leaf compacted; publish via bitmap store.
		lf.bitmap.Store(0)
		var bm uint64
		for i, r := range leftRecs {
			lf.fps[i].Store(fingerprint(r.k))
			lf.keys[i].Store(r.k)
			lf.vals[i].Store(r.v)
			bm |= 1 << uint(i)
		}
		right.next.Store(lf.next.Load())
		lf.next.Store(right)
		right.bitmap.Store(rightBM)
		lf.bitmap.Store(bm)
	}
	if err := tx.Write(&lf.cell, applyLeaf); err != nil {
		return err
	}
	return t.propagateSplit(tx, path, lf, right, sep, st)
}

// propagateSplit inserts separator sep with new right child into the parent,
// splitting inner nodes upward as needed (copy-on-write contents).
func (t *Tree) propagateSplit(tx *htm.Tx, path []step, left, right any, sep uint64, st *index.OpStats) error {
	if len(path) == 0 {
		// The split node was the root: grow the tree.
		newRoot := &inner{}
		newRoot.content.Store(&innerContent{
			keys:     []uint64{sep},
			children: []any{left, right},
		})
		return tx.Write(&t.rootCell, func() { t.root.Store(&rootRef{node: newRoot}) })
	}
	parent, c := path[len(path)-1].n, path[len(path)-1].c
	i := searchSeparators(c.keys, sep)
	nk := make([]uint64, 0, len(c.keys)+1)
	nc := make([]any, 0, len(c.children)+1)
	nk = append(nk, c.keys[:i]...)
	nk = append(nk, sep)
	nk = append(nk, c.keys[i:]...)
	nc = append(nc, c.children[:i+1]...)
	nc = append(nc, right)
	nc = append(nc, c.children[i+1:]...)

	if len(nc) <= innerFanout {
		fresh := &innerContent{keys: nk, children: nc}
		return tx.Write(&parent.cell, func() { parent.content.Store(fresh) })
	}
	// Inner split: left keeps [0,mid), key mid moves up, right gets the rest.
	mid := len(nk) / 2
	up := nk[mid]
	leftContent := &innerContent{keys: append([]uint64(nil), nk[:mid]...), children: append([]any(nil), nc[:mid+1]...)}
	rightInner := &inner{}
	rightInner.content.Store(&innerContent{keys: append([]uint64(nil), nk[mid+1:]...), children: append([]any(nil), nc[mid+1:]...)})
	if st != nil {
		st.Splits++
		st.BytesCopied += uint64(innerBytes(leftContent))
	}
	if err := tx.Write(&parent.cell, func() { parent.content.Store(leftContent) }); err != nil {
		return err
	}
	return t.propagateSplit(tx, path[:len(path)-1], parent, rightInner, up, st)
}

// batchStride is the interleaved group width of one ExecBatch round.
const batchStride = 16

// ExecBatch implements index.BatchKernel. The locate stage descends all
// operations level-synchronously outside any transaction: the root reference,
// inner contents (copy-on-write behind atomic pointers) and leaf cells are
// all atomically published, so the optimistic walk is race-clean
// (ConcurrentReadSafe documents the same property), and it publishes nothing
// — it only issues prefetches for the inner content and the leaf's
// fingerprint/key lines each operation is about to probe. The execute stage
// then runs the operations in index order through the normal transactional
// methods, which re-descend against warm lines; serial equivalence is
// therefore inherited from the serial path itself.
func (t *Tree) ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	var cur [batchStride]any
	for base := 0; base < len(kinds); base += batchStride {
		n := len(kinds) - base
		if n > batchStride {
			n = batchStride
		}
		root := t.root.Load().node
		for i := 0; i < n; i++ {
			cur[i] = root
		}
		for {
			advanced := false
			for i := 0; i < n; i++ {
				in, ok := cur[i].(*inner)
				if !ok {
					continue
				}
				c := in.content.Load()
				if c == nil || len(c.children) == 0 {
					cur[i] = nil // torn mid-install; the execute stage retries properly
					continue
				}
				child := c.children[searchSeparators(c.keys, keys[base+i])]
				cur[i] = child
				switch ch := child.(type) {
				case *inner:
					if cc := ch.content.Load(); cc != nil {
						prefetch.Line(unsafe.Pointer(cc))
						if len(cc.keys) > 0 {
							prefetch.Line(unsafe.Pointer(&cc.keys[0]))
						}
					}
					advanced = true
				case *leaf:
					// The probe reads bitmap and the whole fingerprint
					// array (two lines at leafCap=32); hint both so the
					// candidate stage below scans resident fingerprints.
					prefetch.Line(unsafe.Pointer(ch))
					prefetch.Line(unsafe.Pointer(&ch.fps[0]))
					prefetch.Line(unsafe.Pointer(&ch.fps[leafCap/2]))
				}
			}
			if !advanced {
				break
			}
		}
		// Candidate stage: with every leaf's fingerprints resident, run
		// each operation's fingerprint scan here and prefetch the exact
		// key and value slots the execute-stage probe will compare — the
		// sparse lines a whole-array hint would waste bandwidth on. The
		// scan publishes nothing; the execute stage re-probes
		// transactionally.
		for i := 0; i < n; i++ {
			lf, ok := cur[i].(*leaf)
			if !ok {
				continue
			}
			fp := fingerprint(keys[base+i])
			bm := lf.bitmap.Load()
			for s := 0; s < leafCap; s++ {
				if bm&(1<<uint(s)) != 0 && lf.fps[s].Load() == fp {
					prefetch.Line(unsafe.Pointer(&lf.keys[s]))
					prefetch.Line(unsafe.Pointer(&lf.vals[s]))
				}
			}
		}
		for i := base; i < base+n; i++ {
			switch kinds[i] {
			case index.BatchGet:
				outVals[i], outOKs[i] = t.Get(keys[i], nil)
			case index.BatchInsert:
				outVals[i], outOKs[i] = 0, t.Insert(keys[i], vals[i], nil)
			case index.BatchUpdate:
				outVals[i], outOKs[i] = 0, t.Update(keys[i], vals[i], nil)
			case index.BatchDelete:
				outVals[i], outOKs[i] = 0, t.Delete(keys[i], nil)
			}
		}
	}
}

// doScan collects one chunk: whole leaves from the one covering sc.lo until
// sc.scanLeaves leaves have contributed in-range records, or the range ends
// (which sets sc.scanEnd): at the chain's end, at a leaf wholly above sc.hi,
// or at the descended leaf when sc.hi lies below its upper fence — the
// separator right of the path at the deepest level that has one — so a
// range inside one leaf costs one transaction and one leaf.
func (sc *opScratch) doScan(tx *htm.Tx) error {
	sc.scanOut, sc.scanEnd = sc.scanOut[:0], false
	lf, path, err := sc.t.descend(tx, sc.lo, sc.st, sc.pathBuf[:0])
	if err != nil {
		return err
	}
	fence := ^uint64(0)
	for _, p := range path {
		if p.i < len(p.c.keys) {
			fence = p.c.keys[p.i]
		}
	}
	for taken := 0; ; {
		start := len(sc.scanOut)
		bm := lf.bitmap.Load()
		minKey := uint64(1<<64 - 1)
		for i := 0; i < leafCap; i++ {
			if bm&(1<<uint(i)) == 0 {
				continue
			}
			k := lf.keys[i].Load()
			if k < minKey {
				minKey = k
			}
			if k >= sc.lo && k <= sc.hi {
				sc.scanOut = append(sc.scanOut, rec{k, lf.vals[i].Load()})
			}
		}
		// Leaves are unsorted internally but the chain is in key order,
		// so sorting each leaf's batch keeps the whole result sorted.
		insertionSortRecs(sc.scanOut[start:])
		if bm != 0 && minKey > sc.hi || sc.hi < fence {
			sc.scanEnd = true
			return nil
		}
		if len(sc.scanOut) > start {
			if taken++; taken == sc.scanLeaves {
				return nil
			}
		}
		next := lf.next.Load()
		if next == nil {
			sc.scanEnd = true
			return nil
		}
		if err := tx.Read(&next.cell); err != nil {
			return err
		}
		sc.st.Visit(1, index.CacheLines(leafBytes))
		lf, fence = next, 0 // a chained leaf's fence is unknown
	}
}

// Scan implements index.Ranger in chunks, each one committed transaction
// over whole leaves: leaves are unsorted, so a leaf's live records are
// collected and insertion-sorted before anything is yielded. The first
// chunk stops after the first leaf holding an in-range record — a
// stop-after-first caller never reads further — and each later chunk
// re-descends from the last yielded key + 1 and collects up to
// maxScanLeaves leaves, so no chunk outgrows the HTM capacity.
// Records are ascending and yielded once; there is no snapshot across
// chunks (see index.Ranger).
func (t *Tree) Scan(lo, hi uint64, fn func(k, v uint64) bool, st *index.OpStats) int {
	if st != nil {
		st.Ops++
	}
	sc := t.getScratch()
	defer t.putScratch(sc)
	sc.lo, sc.hi, sc.st, sc.scanLeaves = lo, hi, st, 1
	n := 0
	for {
		if err := t.region.Atomic(&sc.tx, sc.scanBody); err != nil {
			panic("fptree: unexpected transaction error: " + err.Error())
		}
		for _, r := range sc.scanOut {
			n++
			if !fn(r.k, r.v) {
				return n
			}
		}
		if sc.scanEnd {
			return n
		}
		// A chunk that stopped on its leaf budget yielded records.
		last := sc.scanOut[len(sc.scanOut)-1].k
		if last >= hi {
			return n
		}
		sc.lo, sc.scanLeaves = last+1, maxScanLeaves
	}
}
