package btree

import (
	"fmt"
	"testing"

	"robustconf/internal/index"
)

// Kernel benchmarks at the two sizes the repo benchmark runs (kv.get.small,
// kv.get.large): a cache-resident tree and one far past L2. Keys are loaded
// ascending, as the benchmark and WAL restore do. ns/op is per operation.

var benchSizes = []struct {
	name string
	n    uint64
}{{"4k", 4096}, {"8m", 8_000_000}}

func loadAscending(n uint64) *Tree {
	tr := New()
	for k := uint64(1); k <= n; k++ {
		tr.Insert(k, k, nil)
	}
	return tr
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

var sink uint64

func BenchmarkGet(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			tr := loadAscending(sz.n)
			rng := uint64(0x9e3779b97f4a7c15)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng = xorshift(rng)
				v, _ := tr.Get(rng%sz.n+1, nil)
				sink += v
			}
		})
	}
}

// BenchmarkExecBatch runs groups of 6 (what a traced sweep hands the kernel)
// and 14 (a full client burst), all GETs and a 50/50 GET/UPDATE mix.
func BenchmarkExecBatch(b *testing.B) {
	for _, sz := range benchSizes {
		tr := loadAscending(sz.n)
		for _, width := range []int{6, 14} {
			for _, mix := range []string{"get", "mix"} {
				b.Run(fmt.Sprintf("%s/width=%d/%s", sz.name, width, mix), func(b *testing.B) {
					kinds := make([]uint8, width)
					keys := make([]uint64, width)
					vals := make([]uint64, width)
					outVals := make([]uint64, width)
					outOKs := make([]bool, width)
					rng := uint64(0x9e3779b97f4a7c15)
					b.ResetTimer()
					for i := 0; i < b.N; i += width {
						for j := range keys {
							rng = xorshift(rng)
							keys[j], vals[j] = rng%sz.n+1, rng
							kinds[j] = index.BatchGet
							if mix == "mix" && rng>>63 == 1 {
								kinds[j] = index.BatchUpdate
							}
						}
						tr.ExecBatch(kinds, keys, vals, outVals, outOKs)
						sink += outVals[0]
					}
				})
			}
		}
	}
}

// BenchmarkAscendingLoad is the preload path (Insert beyond the maximum).
func BenchmarkAscendingLoad(b *testing.B) {
	tr := New()
	for i := 0; i < b.N; i++ {
		tr.Insert(uint64(i)+1, uint64(i), nil)
	}
}
