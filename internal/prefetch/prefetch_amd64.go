//go:build amd64

package prefetch

import "unsafe"

// line is implemented in prefetch_amd64.s as a PREFETCHT0.
//
//go:noescape
func line(p unsafe.Pointer)

// lines is implemented in prefetch_amd64.s as n PREFETCHT0s 64 bytes apart.
//
//go:noescape
func lines(p unsafe.Pointer, n int)
