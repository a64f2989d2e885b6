// Package prefetch exposes the CPU's software prefetch instruction for the
// interleaved batch-execution kernels (DESIGN.md §15): a sweep holding N
// independent index operations advances them one traversal stage at a time,
// issuing Line on each operation's next node so the N dependent cache misses
// overlap instead of serialising.
//
// On amd64 Line lowers to PREFETCHT0 (fetch into all cache levels). On other
// architectures it is a no-op: the interleaved traversal alone still buys
// memory-level parallelism from the hardware's out-of-order window, and the
// build-tagged fallback keeps every target compiling (the arm64 cross-build
// gate in `make verify` pins that).
//
// Line is a hint, never a load: any address — stale, unmapped, nil — is
// safe to pass, which is what lets traversal stages prefetch optimistically
// read pointers without validation.
package prefetch

import "unsafe"

// Line hints the cache line containing p into the cache hierarchy.
func Line(p unsafe.Pointer) { line(p) }

// Lines hints the n consecutive cache lines starting at the one containing
// p — a whole node whose size is a known multiple of the line — in one call.
func Lines(p unsafe.Pointer, n int) { lines(p, n) }
