package main

import "math/bits"

// mix64 is the splitmix64 finalizer. Every record the benchmark stores has
// value mix64(key), so any read can be checked without a shadow copy.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rng is a splitmix64 sequence: two multiplies per draw, so generating an
// op costs a few nanoseconds beside the hundreds the op itself takes.
type rng struct{ state uint64 }

func newRNG(seed, lane uint64) rng {
	return rng{state: mix64(seed*0x9e3779b97f4a7c15 + lane + 1)}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix64(r.state)
}

// below returns a uniform draw in [0, n) by multiply-shift.
func (r *rng) below(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// Typed op kinds of a KV stream, numerically equal to delegation.KVGet and
// delegation.KVUpdate (a test pins the equality).
const (
	opGet    uint8 = 1
	opUpdate uint8 = 3
)

// opStream is one load generator's seeded op sequence over keys 1..records,
// uniform, with writePermille of every thousand ops a write.
type opStream struct {
	r             rng
	records       uint64
	writePermille uint64
}

func newOpStream(seed, lane, records, writePermille uint64) opStream {
	return opStream{r: newRNG(seed, lane), records: records, writePermille: writePermille}
}

func (s *opStream) next() (kind uint8, key uint64) {
	x := s.r.next()
	key = 1 + (x>>10)%s.records
	kind = opGet
	if x&1023 < s.writePermille*1024/1000 {
		kind = opUpdate
	}
	return kind, key
}

// streamHash folds the first n ops of a stream (FNV-1a over kind and key):
// equal seeds must give equal hashes, different seeds different ones.
func streamHash(s opStream, n int) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < n; i++ {
		kind, key := s.next()
		h = (h ^ uint64(kind)) * 1099511628211
		h = (h ^ key) * 1099511628211
	}
	return h
}
