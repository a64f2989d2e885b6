//go:build linux && !race && go1.24

package btree

import (
	"runtime"
	"syscall"
	"unsafe"
)

// Node memory on Linux comes from a per-tree bump arena of mmap'd chunks
// outside the Go heap: an ascending load then costs no mallocgc, and the GC
// neither counts nor scans the tree. Chunks double from minChunk up to
// maxChunk; those of hugeChunk or more are advised MADV_HUGEPAGE, so a big
// tree's lower levels sit on 2 MiB pages while a small tree stays on 4 KiB
// ones. Nodes hold only keys, values and pointers to nodes of the same
// arena, never a pointer into the Go heap, so nothing the GC must keep alive
// hides in memory it does not scan.
//
// Lifetime: the chunks are unmapped by a cleanup on the *Tree, so a node may
// be dereferenced only while its tree is reachable. Every method releases
// structLock after its last node access, which keeps the tree alive past
// it; a path that does not must end with runtime.KeepAlive(t).
//
// The race detector does not instrument memory outside the Go heap, so
// -race builds take nodes from the heap instead (heapnodes.go).
const (
	minChunk  = 64 << 10
	maxChunk  = 64 << 20
	hugeChunk = 4 << 20
)

// nodeMem is a tree's arena: the unused rest of the current chunk, the size
// of the next one, and every chunk mapped so far (shared with the cleanup).
type nodeMem struct {
	free   []byte
	next   int
	chunks *[][]byte
}

// newNode returns a zeroed, 256-aligned node from t's arena. The caller
// holds structLock exclusive.
func newNode[N leaf | inner](t *Tree) *N {
	m := &t.mem
	if len(m.free) < nodeBytes {
		m.grow(t)
	}
	p := unsafe.Pointer(&m.free[0])
	m.free = m.free[nodeBytes:]
	t.nodes++
	return (*N)(p)
}

// grow maps the next chunk; a fresh anonymous mapping is zeroed and
// page-aligned, and the bump pointer keeps every node on a 256 B boundary.
func (m *nodeMem) grow(t *Tree) {
	size := max(m.next, minChunk)
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		panic(err) // out of address space or memory, like a failed new
	}
	if size >= hugeChunk {
		// Advice only: without transparent huge pages the chunk stays on
		// 4 KiB pages and works the same.
		_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE)
	}
	if m.chunks == nil {
		m.chunks = new([][]byte)
		runtime.AddCleanup(t, unmapChunks, m.chunks)
	}
	*m.chunks = append(*m.chunks, b)
	m.free = b
	m.next = min(2*size, maxChunk)
}

func unmapChunks(chunks *[][]byte) {
	for _, b := range *chunks {
		_ = syscall.Munmap(b)
	}
}
