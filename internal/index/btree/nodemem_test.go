package btree

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestLargeTreeNodesAligned walks every node of a tree big enough to reach
// the huge-page chunks and checks the 256 B alignment TestNodeLayout's
// four-lines-per-node promise rests on.
func TestLargeTreeNodesAligned(t *testing.T) {
	tr := loadAscending(600_000) // ~11 MB of nodes: chunks up to 8 MiB
	var walk func(p unsafe.Pointer, level int)
	nodes := 0
	walk = func(p unsafe.Pointer, level int) {
		nodes++
		if a := uintptr(p) % nodeBytes; a != 0 {
			t.Fatalf("node at level %d is %d bytes past a 256 B boundary", level, a)
		}
		if level == 0 {
			return
		}
		in := (*inner)(p)
		for i := 0; i <= in.num; i++ {
			walk(in.children[i], level-1)
		}
	}
	walk(tr.root, tr.height)
	if nodes != tr.nodes {
		t.Errorf("walk found %d nodes, allocator handed out %d", nodes, tr.nodes)
	}
	runtime.KeepAlive(tr)
}

// TestDroppedTreesReleaseNodeMemory creates and drops many small trees, each
// with a 64 KiB chunk of its own, and checks that the chunks go back to the
// kernel once the GC has collected their trees: /proc/self/maps stays short
// (unmapped holes do not fragment it), and the address space never grows by
// more than a fraction of what keeping every chunk would map (6.25 GiB).
// The test collects every gcEvery trees, so the bound does not depend on how
// large a heap the rest of the test binary leaves for the pacer.
func TestDroppedTreesReleaseNodeMemory(t *testing.T) {
	base, err := vmSizeKB()
	if err != nil {
		t.Skip("no /proc/self:", err)
	}
	const (
		cycles    = 100_000
		gcEvery   = 10_000
		maxLines  = 4096
		maxGrowKB = 2 << 20
	)
	peakLines, peakKB := 0, base
	for c := 1; c <= cycles; c++ {
		tr := New()
		for k := uint64(1); k <= 20; k++ {
			tr.Insert(k, k, nil)
		}
		if c%1000 != 0 {
			continue
		}
		maps, _ := os.ReadFile("/proc/self/maps")
		peakLines = max(peakLines, bytes.Count(maps, []byte{'\n'}))
		kb, _ := vmSizeKB()
		peakKB = max(peakKB, kb)
		if peakLines > maxLines || peakKB-base > maxGrowKB {
			t.Fatalf("after %d trees: %d lines in /proc/self/maps (bound %d), address space grew %d MiB (bound %d): dropped trees keep their node memory",
				c, peakLines, maxLines, (peakKB-base)>>10, maxGrowKB>>10)
		}
		if c%gcEvery == 0 {
			runtime.GC()
		}
	}
	t.Logf("over %d trees: peak %d lines in /proc/self/maps, address space grew at most %d MiB", cycles, peakLines, (peakKB-base)>>10)
}

// vmSizeKB reads the process's mapped address space from /proc/self/status.
func vmSizeKB() (int, error) {
	st, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(st), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmSize:" {
			return strconv.Atoi(f[1])
		}
	}
	return 0, fmt.Errorf("no VmSize line")
}
