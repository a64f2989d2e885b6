//go:build !amd64

package prefetch

import "unsafe"

// line is the portable fallback: no prefetch instruction is issued, but the
// interleaved traversal calling it still overlaps its misses through the
// hardware's out-of-order window.
func line(p unsafe.Pointer) { _ = p }

func lines(p unsafe.Pointer, n int) { _, _ = p, n }
