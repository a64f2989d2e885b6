// Package btree implements an STX-style in-memory B+Tree over 64-bit keys
// and values. The core structure is unsynchronised, as in the original STX
// template classes; following the paper's modification, record updates use
// atomic load/store on leaf slots and structural changes take a global
// lock. The global lock is a reader-writer spin lock: traversals hold it
// shared (readers stay parallel, and — unlike the earlier optimistic
// version-validated scheme, whose plain loads raced in-place writes once
// pooled sessions let one structure's ops execute on several workers —
// race-clean under the Go memory model), structural changes hold it
// exclusive. The paper itself notes this synchronisation is "unfair" (a
// single global lock) and serves as an upper bound for the simplest scheme.
package btree

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"robustconf/internal/index"
	"robustconf/internal/prefetch"
	"robustconf/internal/syncprims"
)

// Nodes are STX's 256-byte target made exact: 15 keys plus 16 children (or
// 15 values and the chain link) plus the count fill 256 bytes, and newNode
// hands out 256-aligned memory — a node is four whole cache lines, the count
// and keys on the first two.
const (
	innerSlots = 15 // keys per inner node
	leafSlots  = 15 // records per leaf
	nodeBytes  = 256
	nodeLines  = nodeBytes / 64
)

// leaf values are plain words: every access under the shared structural
// lock is an atomic load or store (execOnLeaf, Scan), and the exclusive
// holder (Insert, Delete, splits) writes them with plain stores and copies.
type leaf struct {
	num    int
	keys   [leafSlots]uint64
	values [leafSlots]uint64
	next   *leaf // leaf chaining for scans
}

// inner children are untyped pointers: every leaf sits at depth Tree.height
// (splits grow the tree at the root and appendMax builds a uniform-depth
// spine), so the level reached says what a child is — *inner above the
// leaves, *leaf at them — and a hop is one dependent load.
type inner struct {
	num      int
	keys     [innerSlots]uint64
	children [innerSlots + 1]unsafe.Pointer
}

const (
	leafBytes  = int(unsafe.Sizeof(leaf{}))
	innerBytes = int(unsafe.Sizeof(inner{}))
)

// Both layouts fill the size class exactly, or the build fails on an array
// type mismatch.
var (
	_ [nodeBytes]byte = [leafBytes]byte{}
	_ [nodeBytes]byte = [innerBytes]byte{}
)

// Tree is the STX-style B+Tree. Construct with New.
type Tree struct {
	root   unsafe.Pointer // *inner when height > 0, else *leaf; nil when empty
	height int            // number of inner levels above the leaves
	count  int64          // written only under the exclusive structural lock
	// structLock is the paper's "global lock": shared for traversals
	// (Get/Update/Scan and ExecBatch's GET/UPDATE runs), exclusive for
	// structural changes (Insert/Delete).
	structLock syncprims.RWSpinLock
	// maxKey is the largest key ever inserted (never lowered on delete, so
	// it may be stale-high — which keeps the k > maxKey append fast-path
	// trigger safe: a strictly greater key is new and belongs at the
	// rightmost edge regardless). Guarded by structLock.
	maxKey uint64
	hasMax bool
	// tail is the leaf the last append wrote. Leaves are never unlinked, so
	// while tail.next is nil it is still the rightmost leaf, and an append
	// with room there writes it without walking the spine.
	tail  *leaf
	mem   nodeMem // where newNode takes node memory from
	nodes int     // nodes allocated, for tests
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Name implements index.Index.
func (t *Tree) Name() string { return "B-Tree" }

// Scheme implements index.Index.
func (t *Tree) Scheme() index.Scheme { return index.SchemeAtomicRecord }

// ConcurrentReadSafe reports false: reads hold the structural lock in
// shared mode, so a foreign bypass reader would contend on the same spin
// word the delegated sweep's own operations use — the B-Tree stays a
// delegate-only structure (see index.ConcurrentReadSafe) and keeps the
// paper's configuration for it.
func (t *Tree) ConcurrentReadSafe() bool { return false }

// Len implements index.Index.
func (t *Tree) Len() int {
	t.structLock.RLock()
	n := t.count
	t.structLock.RUnlock()
	return int(n)
}

// findLeaf descends to the leaf that covers k, accounting each visited
// node; nil on an empty tree.
func (t *Tree) findLeaf(k uint64, st *index.OpStats) *leaf {
	p := t.root
	if p == nil {
		return nil
	}
	for level := t.height; level > 0; level-- {
		in := (*inner)(p)
		st.Visit(1, index.CacheLines(innerBytes))
		p = in.children[searchKeys(in.keys[:in.num], k)]
	}
	st.Visit(1, index.CacheLines(leafBytes))
	if st != nil {
		st.Depth += uint64(t.height)
	}
	return (*leaf)(p)
}

// searchKeys returns the number of keys ≤ k — the child to branch to, and
// one past k's slot in a leaf. It counts instead of bisecting: a node's keys
// are two cache lines, and a borrow-accumulating loop over them has no
// data-dependent branch to mispredict.
func searchKeys(keys []uint64, k uint64) int {
	n := len(keys)
	for _, x := range keys {
		_, below := bits.Sub64(k, x, 0) // 1 iff k < x
		n -= int(below)
	}
	return n
}

// searchRecords returns the slot of k in the leaf, or -1.
func searchRecords(lf *leaf, k uint64) int {
	if i := searchKeys(lf.keys[:lf.num], k) - 1; i >= 0 && lf.keys[i] == k {
		return i
	}
	return -1
}

// execOnLeaf runs one GET or UPDATE against the leaf covering k (nil on an
// empty tree). The caller holds structLock at least shared: record slots do
// not move, and the value access is atomic, so concurrent shared holders may
// read and update the same slot.
func execOnLeaf(lf *leaf, kind uint8, k, v uint64) (uint64, bool) {
	if lf == nil {
		return 0, false
	}
	i := searchRecords(lf, k)
	if i < 0 {
		return 0, false
	}
	if kind == index.BatchUpdate {
		atomic.StoreUint64(&lf.values[i], v)
		return 0, true
	}
	return atomic.LoadUint64(&lf.values[i]), true
}

// Get implements index.Index: a traversal under the shared structural lock;
// the value itself is an atomic load (the paper's record-level atomics).
func (t *Tree) Get(k uint64, st *index.OpStats) (uint64, bool) {
	if st != nil {
		st.Ops++
	}
	t.structLock.RLock()
	v, ok := execOnLeaf(t.findLeaf(k, st), index.BatchGet, k, 0)
	t.structLock.RUnlock()
	return v, ok
}

// Update implements index.Index: an in-place atomic store on the record
// slot under the shared structural lock (the store is atomic, so shared
// mode suffices — record slots never move while the lock is held shared).
func (t *Tree) Update(k, v uint64, st *index.OpStats) bool {
	if st != nil {
		st.Ops++
	}
	t.structLock.RLock()
	_, ok := execOnLeaf(t.findLeaf(k, st), index.BatchUpdate, k, v)
	t.structLock.RUnlock()
	return ok
}

// Insert implements index.Index under the global structural lock.
func (t *Tree) Insert(k, v uint64, st *index.OpStats) bool {
	if st != nil {
		st.Ops++
		st.LockAcquires++
	}
	t.structLock.Lock()
	switch {
	case t.hasMax && k > t.maxKey:
		// Sorted-append fast path: a key beyond the current maximum is new
		// by construction and belongs at the rightmost edge. Appending there
		// packs nodes full instead of median-splitting them, so a sorted
		// load (the checkpoint-restore stream, a time-ordered key sequence)
		// builds the tree with half the nodes and full occupancy. While the
		// tail leaf is still the rightmost and has room, the append is one
		// slot write.
		if lf := t.tail; lf != nil && lf.next == nil && lf.num < leafSlots {
			st.Visit(1, index.CacheLines(leafBytes))
			lf.keys[lf.num] = k
			lf.values[lf.num] = v
			lf.num++
		} else if t.appendMax(k, v, st) && st != nil {
			st.Splits++
		}
		t.maxKey = k
	case t.root == nil:
		lf := newNode[leaf](t)
		lf.num = 1
		lf.keys[0] = k
		lf.values[0] = v
		t.root = unsafe.Pointer(lf)
		t.tail = lf
		t.maxKey, t.hasMax = k, true
		st.Visit(1, index.CacheLines(leafBytes))
	case searchRecords(t.findLeaf(k, st), k) >= 0:
		t.structLock.Unlock()
		return false
	default:
		if t.insertAt(k, v, st) && st != nil {
			st.Splits++
		}
	}
	t.count++
	t.structLock.Unlock()
	return true
}

// insertAt performs the recursive insert; reports whether any split occurred.
func (t *Tree) insertAt(k, v uint64, st *index.OpStats) bool {
	newChild, splitKey, grew := t.insertRec(t.root, t.height, k, v, st)
	if !grew {
		return false
	}
	r := newNode[inner](t)
	r.num = 1
	r.keys[0] = splitKey
	r.children[0] = t.root
	r.children[1] = newChild
	t.root = unsafe.Pointer(r)
	t.height++
	return true
}

// appendMax inserts k (strictly greater than every present key) at the
// rightmost edge: into the last leaf while it has room, otherwise into a
// fresh single-record right sibling whose separator climbs the rightmost
// inner spine — full spine nodes get a fresh single-child sibling too (no
// keys yet: CheckInvariants accepts that shape on the rightmost spine only),
// so a pure ascending load leaves every node fully packed. The leaf written
// becomes the tail. Runs under the exclusive structural lock; reports
// whether the tree grew a node.
func (t *Tree) appendMax(k, v uint64, st *index.OpStats) bool {
	var spine [32]*inner
	p := t.root
	for d := 0; d < t.height; d++ {
		in := (*inner)(p)
		st.Visit(1, index.CacheLines(innerBytes))
		spine[d] = in
		p = in.children[in.num]
	}
	lf := (*leaf)(p)
	st.Visit(1, index.CacheLines(leafBytes))
	if lf.num < leafSlots {
		lf.keys[lf.num] = k
		lf.values[lf.num] = v
		lf.num++
		t.tail = lf
		return false
	}
	r := newNode[leaf](t)
	r.num = 1
	r.keys[0] = k
	r.values[0] = v
	lf.next = r
	t.tail = r
	if st != nil {
		st.BytesCopied += 16
	}
	// The separator (k itself: everything existing is strictly below it)
	// climbs the spine; a full spine node gets a single-child sibling and
	// the separator keeps climbing.
	child := unsafe.Pointer(r)
	for d := t.height - 1; d >= 0; d-- {
		in := spine[d]
		if in.num < innerSlots {
			in.keys[in.num] = k
			in.children[in.num+1] = child
			in.num++
			return true
		}
		nr := newNode[inner](t)
		nr.children[0] = child
		child = unsafe.Pointer(nr)
	}
	// Every spine node was full (or the root is a leaf): grow the root.
	nr := newNode[inner](t)
	nr.num = 1
	nr.keys[0] = k
	nr.children[0] = t.root
	nr.children[1] = child
	t.root = unsafe.Pointer(nr)
	t.height++
	return true
}

// insertRec inserts into the subtree rooted at node, which sits level inner
// levels above the leaves. When the child splits it returns the new right
// sibling and its separator key with grew=true.
func (t *Tree) insertRec(node unsafe.Pointer, level int, k, v uint64, st *index.OpStats) (right unsafe.Pointer, splitKey uint64, grew bool) {
	if level == 0 {
		return t.leafInsert((*leaf)(node), k, v, st)
	}
	n := (*inner)(node)
	i := searchKeys(n.keys[:n.num], k)
	r, sk, g := t.insertRec(n.children[i], level-1, k, v, st)
	if !g {
		return nil, 0, false
	}
	if n.num < innerSlots {
		copy(n.keys[i+1:n.num+1], n.keys[i:n.num])
		copy(n.children[i+2:n.num+2], n.children[i+1:n.num+1])
		n.keys[i] = sk
		n.children[i+1] = r
		n.num++
		return nil, 0, false
	}
	// Split the inner node around its median.
	return t.innerSplit(n, i, sk, r, st)
}

func (t *Tree) leafInsert(lf *leaf, k, v uint64, st *index.OpStats) (unsafe.Pointer, uint64, bool) {
	i := searchKeys(lf.keys[:lf.num], k)
	if lf.num < leafSlots {
		copy(lf.keys[i+1:lf.num+1], lf.keys[i:lf.num])
		copy(lf.values[i+1:lf.num+1], lf.values[i:lf.num])
		lf.keys[i] = k
		lf.values[i] = v
		lf.num++
		return nil, 0, false
	}
	// Split: left keeps the lower half, right takes the upper half.
	mid := leafSlots / 2
	r := newNode[leaf](t)
	copy(r.keys[:], lf.keys[mid:])
	copy(r.values[:], lf.values[mid:])
	r.num = leafSlots - mid
	lf.num = mid
	r.next = lf.next
	lf.next = r
	if st != nil {
		st.BytesCopied += uint64((leafSlots - mid) * 16)
		st.Splits++
	}
	// Insert into the proper half.
	target := lf
	if k >= r.keys[0] {
		target = r
	}
	t.leafInsert(target, k, v, nil)
	return unsafe.Pointer(r), r.keys[0], true
}

func (t *Tree) innerSplit(n *inner, i int, sk uint64, child unsafe.Pointer, st *index.OpStats) (unsafe.Pointer, uint64, bool) {
	// Merge the pending (sk, child) into a temporary ordered view, then cut.
	var keys [innerSlots + 1]uint64
	var children [innerSlots + 2]unsafe.Pointer
	copy(keys[:i], n.keys[:i])
	keys[i] = sk
	copy(keys[i+1:], n.keys[i:n.num])
	copy(children[:i+1], n.children[:i+1])
	children[i+1] = child
	copy(children[i+2:], n.children[i+1:n.num+1])

	total := n.num + 1
	mid := total / 2
	up := keys[mid]

	r := newNode[inner](t)
	r.num = total - mid - 1
	copy(r.keys[:r.num], keys[mid+1:total])
	copy(r.children[:r.num+1], children[mid+1:total+1])

	n.num = mid
	copy(n.keys[:mid], keys[:mid])
	copy(n.children[:mid+1], children[:mid+1])
	for j := mid + 1; j < len(n.children); j++ {
		n.children[j] = nil
	}
	if st != nil {
		st.BytesCopied += uint64(innerBytes)
		st.Splits++
	}
	return unsafe.Pointer(r), up, true
}

// Delete implements index.Index under the global structural lock. The slot
// is removed by shifting; leaves are allowed to underflow (no rebalancing).
func (t *Tree) Delete(k uint64, st *index.OpStats) bool {
	if st != nil {
		st.Ops++
		st.LockAcquires++
	}
	t.structLock.Lock()
	defer t.structLock.Unlock()
	if t.root == nil {
		return false
	}
	lf := t.findLeaf(k, st)
	i := searchRecords(lf, k)
	if i < 0 {
		return false
	}
	copy(lf.keys[i:lf.num-1], lf.keys[i+1:lf.num])
	copy(lf.values[i:lf.num-1], lf.values[i+1:lf.num])
	lf.num--
	t.count--
	return true
}

// Scan implements index.Ranger via the leaf chain, under the shared
// structural lock.
func (t *Tree) Scan(lo, hi uint64, fn func(k, v uint64) bool, st *index.OpStats) int {
	if st != nil {
		st.Ops++
	}
	t.structLock.RLock()
	defer t.structLock.RUnlock()
	n := 0
	lf := t.findLeaf(lo, st)
	ok := true
	for lf != nil && ok {
		for i := 0; i < lf.num; i++ {
			k := lf.keys[i]
			if k < lo {
				continue
			}
			if k > hi {
				ok = false
				break
			}
			n++
			if !fn(k, atomic.LoadUint64(&lf.values[i])) {
				ok = false
				break
			}
		}
		if ok {
			lf = lf.next
			if lf != nil {
				st.Visit(1, index.CacheLines(leafBytes))
			}
		}
	}
	return n
}

const (
	// batchStride is the interleaved group width of one ExecBatch run; 16
	// in-flight descents keep the stage array on the stack while exceeding
	// the line-fill-buffer depth the prefetches need to overlap.
	batchStride = 16
	// residentDepth is the first depth worth prefetching into: the root and
	// the two levels under it are at most 1+16+256 nodes (≈70 KB) that every
	// descent touches, so they stay cached.
	residentDepth = 3
	// residentKeys is the record count up to which the packed leaves (1 MB)
	// sit in a core's L2 beside the inner levels: descents hit cache, and
	// staging them only adds work.
	residentKeys = (1 << 20) / nodeBytes * leafSlots
)

// ExecBatch implements index.BatchKernel. INSERT and DELETE go through the
// public methods one at a time; every maximal run of GET/UPDATE ops between
// them (cut at batchStride) executes in one pass by execRun.
func (t *Tree) ExecBatch(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	for i := 0; i < len(kinds); {
		j := i
		for j < len(kinds) && j-i < batchStride && (kinds[j] == index.BatchGet || kinds[j] == index.BatchUpdate) {
			j++
		}
		if j > i {
			t.execRun(kinds[i:j], keys[i:j], vals[i:j], outVals[i:j], outOKs[i:j])
			i = j
			continue
		}
		switch kinds[i] {
		case index.BatchInsert:
			outVals[i], outOKs[i] = 0, t.Insert(keys[i], vals[i], nil)
		case index.BatchDelete:
			outVals[i], outOKs[i] = 0, t.Delete(keys[i], nil)
		}
		i++
	}
}

// execRun executes up to batchStride GET/UPDATE ops under one shared hold of
// the structural lock. On a tree past residentKeys the ops descend
// level-synchronously — each advances one level per round, and all four
// lines of the node it will visit next are prefetched before any op touches
// its own, so the group's per-level cache misses overlap — and then execute
// in index order on the leaves they located. Locating and executing under
// the same hold is what makes the located leaf still the right one: no
// Insert or Delete (here or on another worker) can run in between, and
// against other shared holders the value access is the same atomic
// load/store Get and Update do. A resident tree skips the staging and runs
// the ops one at a time, which is serial Get/Update minus the per-op lock
// pair.
func (t *Tree) execRun(kinds []uint8, keys, vals, outVals []uint64, outOKs []bool) {
	t.structLock.RLock()
	if t.count <= residentKeys {
		for i, k := range keys {
			outVals[i], outOKs[i] = execOnLeaf(t.findLeaf(k, nil), kinds[i], k, vals[i])
		}
		t.structLock.RUnlock()
		return
	}
	var cur [batchStride]unsafe.Pointer
	for i := range keys {
		cur[i] = t.root
	}
	for depth := 1; depth <= t.height; depth++ {
		for i, k := range keys {
			in := (*inner)(cur[i])
			c := in.children[searchKeys(in.keys[:in.num], k)]
			if depth >= residentDepth {
				prefetch.Lines(c, nodeLines)
			}
			cur[i] = c
		}
	}
	for i, k := range keys {
		outVals[i], outOKs[i] = execOnLeaf((*leaf)(cur[i]), kinds[i], k, vals[i])
	}
	t.structLock.RUnlock()
}

// Height returns the number of inner levels (0 for a leaf-only tree);
// exposed for tests and the cost model.
func (t *Tree) Height() int { return t.height }
