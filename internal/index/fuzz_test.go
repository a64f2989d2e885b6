package index_test

import (
	"sort"
	"testing"

	"robustconf/internal/index"
	"robustconf/internal/index/btree"
	"robustconf/internal/index/bwtree"
	"robustconf/internal/index/fptree"
	"robustconf/internal/index/hashmap"
)

// fuzzKeyBits sizes the fuzzed key space: 1 024 keys is wide enough for
// FP-Tree and B-Tree leaves to split and then drain again, narrow enough
// that inputs collide on keys.
const fuzzKeyBits = 10

// Structure sizes for the fuzzed key space. The defaults (a 1 Mi-slot
// BW-Tree mapping table, 64 Ki hash buckets) cost milliseconds to allocate
// and collect on every execution, which starves the fuzzer's minimisation of
// each new input for most of a short run. A Bw-Tree takes at most one slot
// per split, and an input holds at most 1 024 operations.
const (
	fuzzBWTreeSlots = 4 << fuzzKeyBits
	fuzzBuckets     = 1 << fuzzKeyBits
)

// fuzzStep is the pure read-modify-write step the Modify op applies.
func fuzzStep(old, arg uint64) uint64 { return old*31 + arg }

// FuzzIndexAgainstOracle decodes the fuzz input as a stream of 3-byte
// operations [op, a, b] and applies it to all four structures in lock-step
// with a map oracle. op%5 picks Insert, Update, Delete, Get or Scan; the key
// is the low fuzzKeyBits of a<<8|b. An Update whose op byte has the high bit
// set is a Modify through index.Modify instead — the FP-Tree's native one
// and the Get+Update fallback of the other three — storing fuzzStep(old, v)
// and returning it, or (0, false) for an absent key. A Scan covers
// [key, key+33*(op>>3)] and stops after b%8 records (0: no limit); the
// three Rangers must yield exactly the oracle's first records of that
// range. A Get whose op byte has the high bit set is a batch group instead:
// the next 1+(op>>3)%16 triples
// are point ops (kind BatchGet+op%4) run through each structure's
// index.BatchKernel in one ExecBatch call, checked op by op against the
// oracle applied in index order (checkBatch). At the end every structure's
// Len and the value of every key in the space must match the oracle, and
// structures with a CheckInvariants method are checked. Run with
// `go test -fuzz=FuzzIndexAgainstOracle ./internal/index`; the seed corpus
// (f.Add plus testdata/fuzz) also executes under plain `go test`.
func FuzzIndexAgainstOracle(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0, 0, 0})
	f.Add([]byte{0, 0, 10, 2, 0, 10, 1, 0, 10, 3, 0, 10, 0, 0, 10, 4, 0, 0})
	f.Add([]byte{255, 254, 253, 252, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4, 3, 2})
	// Batch groups: a 16-op group inserting, re-reading and deleting
	// colliding keys, then a 3-op group over keys the first one left.
	f.Add([]byte{0, 0, 7, 248, 0, 0,
		1, 0, 1, 1, 0, 2, 0, 0, 1, 0, 0, 3, 0, 0, 3, 2, 0, 1, 0, 0, 1, 1, 0, 3,
		3, 0, 1, 2, 0, 7, 1, 0, 7, 0, 0, 7, 0, 0, 7, 3, 0, 7, 2, 0, 2, 0, 0, 3,
		148, 0, 0, 0, 0, 3, 0, 0, 9, 3, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 3072 {
			return
		}
		structures := map[string]index.Index{
			"btree":   btree.New(),
			"fptree":  fptree.New(),
			"bwtree":  bwtree.NewCapacity(fuzzBWTreeSlots),
			"hashmap": hashmap.NewBuckets(fuzzBuckets),
		}
		oracle := map[uint64]uint64{}
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 5
			k := (uint64(data[i+1])<<8 | uint64(data[i+2])) & (1<<fuzzKeyBits - 1)
			v := uint64(i)
			old, exists := oracle[k]
			if op == 4 {
				checkScan(t, structures, oracle, k, k+33*uint64(data[i]>>3), int(data[i+2]%8))
				continue
			}
			if op == 3 && data[i] >= 128 {
				width := 1 + int(data[i]>>3)%16
				group := data[i+3:]
				if width > len(group)/3 {
					width = len(group) / 3
				}
				checkBatch(t, structures, oracle, group[:3*width], i+3)
				i += 3 * width
				continue
			}
			if op == 1 && data[i] >= 128 {
				want := fuzzStep(old, v)
				for name, idx := range structures {
					got, ok := index.Modify(idx, k, fuzzStep, v, nil)
					if ok != exists || (exists && got != want) || (!exists && got != 0) {
						t.Fatalf("%s: Modify(%d) = %d,%v with exists=%v, want %d", name, k, got, ok, exists, want)
					}
				}
				if exists {
					oracle[k] = want
				}
				continue
			}
			for name, idx := range structures {
				switch op {
				case 0:
					if got := idx.Insert(k, v, nil); got == exists {
						t.Fatalf("%s: Insert(%d) = %v with exists=%v", name, k, got, exists)
					}
				case 1:
					if got := idx.Update(k, v, nil); got != exists {
						t.Fatalf("%s: Update(%d) = %v with exists=%v", name, k, got, exists)
					}
				case 2:
					if got := idx.Delete(k, nil); got != exists {
						t.Fatalf("%s: Delete(%d) = %v with exists=%v", name, k, got, exists)
					}
				case 3:
					got, ok := idx.Get(k, nil)
					want, wok := oracle[k]
					if ok != wok || (ok && got != want) {
						t.Fatalf("%s: Get(%d) = %d,%v, oracle %d,%v", name, k, got, ok, want, wok)
					}
				}
			}
			switch op {
			case 0:
				if !exists {
					oracle[k] = v
				}
			case 1:
				if exists {
					oracle[k] = v
				}
			case 2:
				delete(oracle, k)
			}
		}
		for name, idx := range structures {
			if idx.Len() != len(oracle) {
				t.Fatalf("%s: Len = %d, oracle %d", name, idx.Len(), len(oracle))
			}
			for k := uint64(0); k < 1<<fuzzKeyBits; k++ {
				got, ok := idx.Get(k, nil)
				if want, wok := oracle[k]; ok != wok || got != want {
					t.Fatalf("%s: final Get(%d) = %d,%v, oracle %d,%v", name, k, got, ok, want, wok)
				}
			}
			if c, ok := idx.(interface{ CheckInvariants() error }); ok {
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	})
}

// checkScan runs Scan(lo, hi) stopping after limit records (0: none) on
// every Ranger and compares the records and the returned count with the
// oracle's sorted range.
func checkScan(t *testing.T, structures map[string]index.Index, oracle map[uint64]uint64, lo, hi uint64, limit int) {
	t.Helper()
	var want []uint64
	for k := range oracle {
		if k >= lo && k <= hi {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if limit > 0 && len(want) > limit {
		want = want[:limit]
	}
	for name, idx := range structures {
		r, ok := idx.(index.Ranger)
		if !ok {
			continue
		}
		var got []uint64
		n := r.Scan(lo, hi, func(k, v uint64) bool {
			if len(got) < len(want) && (k != want[len(got)] || v != oracle[k]) {
				t.Fatalf("%s: Scan(%d, %d) record %d = (%d, %d), oracle (%d, %d)",
					name, lo, hi, len(got), k, v, want[len(got)], oracle[want[len(got)]])
			}
			got = append(got, k)
			return limit == 0 || len(got) < limit
		}, nil)
		if len(got) != len(want) || n != len(got) {
			t.Fatalf("%s: Scan(%d, %d) limit %d yielded %d and returned %d, oracle %d",
				name, lo, hi, limit, len(got), n, len(want))
		}
	}
}

// checkBatch decodes group as 3-byte point ops [kind, a, b] — kind
// BatchGet+kind%4, key as in the point stream, value offset+position —
// runs them through every structure's ExecBatch in one call, and checks each
// op's result against the oracle applied in index order: a Get returns the
// oracle's value, a mutation reports whether it applied and stores 0 in
// outVals. The oracle then takes the group's effects.
func checkBatch(t *testing.T, structures map[string]index.Index, oracle map[uint64]uint64, group []byte, offset int) {
	t.Helper()
	n := len(group) / 3
	kinds := make([]uint8, n)
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	wantV := make([]uint64, n)
	wantOK := make([]bool, n)
	for j := 0; j < n; j++ {
		op := group[3*j:]
		kinds[j] = index.BatchGet + op[0]%4
		keys[j] = (uint64(op[1])<<8 | uint64(op[2])) & (1<<fuzzKeyBits - 1)
		vals[j] = uint64(offset + 3*j)
	}
	for j, k := range keys {
		old, exists := oracle[k]
		switch kinds[j] {
		case index.BatchGet:
			wantV[j], wantOK[j] = old, exists
		case index.BatchInsert:
			if wantOK[j] = !exists; wantOK[j] {
				oracle[k] = vals[j]
			}
		case index.BatchUpdate:
			if wantOK[j] = exists; exists {
				oracle[k] = vals[j]
			}
		case index.BatchDelete:
			wantOK[j] = exists
			delete(oracle, k)
		}
	}
	for name, idx := range structures {
		kern, ok := idx.(index.BatchKernel)
		if !ok {
			t.Fatalf("%s: no batch kernel", name)
		}
		outV := make([]uint64, n)
		outOK := make([]bool, n)
		for j := range outV {
			outV[j] = ^uint64(0) // a kernel must overwrite every result
		}
		kern.ExecBatch(kinds, keys, vals, outV, outOK)
		for j := range keys {
			if outV[j] != wantV[j] || outOK[j] != wantOK[j] {
				t.Fatalf("%s: ExecBatch op %d/%d (kind %d, key %d) = %d,%v, oracle in index order %d,%v",
					name, j, n, kinds[j], keys[j], outV[j], outOK[j], wantV[j], wantOK[j])
			}
		}
	}
}
