//go:build !linux || race || !go1.24

package btree

// Off Linux, before Go 1.24 (runtime.AddCleanup) and under the race
// detector nodes come from the Go heap, where the race detector sees every
// access (arena.go has the Linux arena). The 256 B size class keeps them
// 256-aligned.
type nodeMem struct{}

// newNode returns a zeroed node. The caller holds structLock exclusive.
func newNode[N leaf | inner](t *Tree) *N {
	t.nodes++
	return new(N)
}
