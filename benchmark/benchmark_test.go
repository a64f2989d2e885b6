package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"robustconf/internal/delegation"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]uint32, 100)
	for i := range samples {
		samples[i] = uint32(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.99, 99}, {1.0, 100}, {0.001, 1}, {0.505, 51}} {
		if got := percentile(samples, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]uint32{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianOfIntervals(t *testing.T) {
	vals := []float64{10, 30, 20, 50, 40}
	e := medianOfIntervals("1/s", vals)
	if e.Value != 30 {
		t.Errorf("median of five = %v, want 30", e.Value)
	}
	if want := (50.0 - 10.0) / 30.0; e.Spread != want {
		t.Errorf("spread = %v, want (max-min)/median = %v", e.Spread, want)
	}
	if vals[0] != 10 || vals[4] != 40 {
		t.Errorf("median reordered its input: %v", vals)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread over a zero median = %v, want 0", got)
	}
}

func TestOpStreamFollowsSeed(t *testing.T) {
	const n = 10000
	a := streamHash(newOpStream(1, 0, largeRecords, 500), n)
	if b := streamHash(newOpStream(1, 0, largeRecords, 500), n); a != b {
		t.Errorf("same seed gave different op streams: %x vs %x", a, b)
	}
	if b := streamHash(newOpStream(2, 0, largeRecords, 500), n); a == b {
		t.Errorf("seeds 1 and 2 gave the same op stream")
	}
	if b := streamHash(newOpStream(1, 1, largeRecords, 500), n); a == b {
		t.Errorf("lanes 0 and 1 of one seed gave the same op stream")
	}

	s := newOpStream(3, 0, 4096, 500)
	writes := 0
	for i := 0; i < n; i++ {
		kind, key := s.next()
		if key < 1 || key > 4096 {
			t.Fatalf("key %d outside 1..4096", key)
		}
		if kind == opUpdate {
			writes++
		} else if kind != opGet {
			t.Fatalf("unexpected op kind %d", kind)
		}
	}
	if writes < n*45/100 || writes > n*55/100 {
		t.Errorf("%d of %d ops were writes, want about half", writes, n)
	}
	if opGet != delegation.KVGet || opUpdate != delegation.KVUpdate {
		t.Errorf("op kinds drifted from delegation's: get %d/%d update %d/%d", opGet, delegation.KVGet, opUpdate, delegation.KVUpdate)
	}
}

func TestTxnDrawFollowsSeedAndMix(t *testing.T) {
	a, b := newRNG(5, 0), newRNG(5, 0)
	var counts [numTxnTypes]int
	for i := 0; i < 20000; i++ {
		x, y := drawTxn(&a), drawTxn(&b)
		if x != y {
			t.Fatalf("draw %d differs between equal seeds", i)
		}
		counts[x]++
	}
	for typ, want := range []int{45, 43, 4, 4, 4} {
		got := counts[typ] * 100 / 20000
		if got < want-2 || got > want+2 {
			t.Errorf("%s drawn %d%% of the time, want about %d%%", txnNames[typ], got, want)
		}
	}
	if terminalSeed(9, 1)&0xFFFF == terminalSeed(9, 2)&0xFFFF || terminalSeed(9, 0)&0xFFFF == terminalSeed(9, 1)&0xFFFF {
		t.Errorf("terminals of one run share a history id")
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{Name: spanWindow, Parent: -1, Start: 0, End: 100},
		{Name: spanIssue, Parent: 0, Start: 0, End: 30},
		{Name: spanAwait, Parent: 0, Start: 30, End: 90},
		// Two overlapping children of the await, one of which starts before
		// it and one of which outlasts it: [20,50] ∪ [40,95] clipped to
		// [30,90] covers all sixty.
		{Name: spanExec, Parent: 2, Start: 20, End: 50},
		{Name: spanExec, Parent: 2, Start: 40, End: 95},
	}
	want := []int64{10, 30, 0, 30, 55}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spanNames[spans[i].Name], got, want[i])
		}
	}

	gap := []span{
		{Name: spanAwait, Parent: -1, Start: 0, End: 100},
		{Name: spanExec, Parent: 0, Start: 10, End: 20},
		{Name: spanExec, Parent: 0, Start: 60, End: 70},
	}
	if got := selfTimes(gap)[0]; got != 80 {
		t.Errorf("self time around two disjoint children = %d, want 80", got)
	}
}

func TestMergeSpansFindsWindowAndParent(t *testing.T) {
	client, worker := newSpanBuf(8), newSpanBuf(8)
	recordClientSpans(client, 4, 100, 140, 200)
	recordClientSpans(client, 8, 300, 330, 400)
	worker.add(spanExec, noWindow, 120, 150) // begins inside window 4
	worker.add(spanExec, noWindow, 350, 380) // begins inside window 8
	worker.add(spanExec, noWindow, 250, 260) // between the sampled windows: dropped
	worker.add(spanExec, 8, 390, 395)        // carries its own id
	all := mergeSpans(client, worker)
	if len(all) != 9 {
		t.Fatalf("merged %d spans, want 9", len(all))
	}
	execs := map[int32]int{}
	for _, s := range all {
		switch s.Name {
		case spanWindow:
			if s.Parent != -1 {
				t.Errorf("window %d has parent %d", s.Window, s.Parent)
			}
		case spanExec:
			execs[s.Window]++
			p := all[s.Parent]
			if p.Name != spanAwait || p.Window != s.Window {
				t.Errorf("exec of window %d hangs under %s of window %d", s.Window, spanNames[p.Name], p.Window)
			}
		default:
			if p := all[s.Parent]; p.Name != spanWindow || p.Window != s.Window {
				t.Errorf("%s of window %d hangs under %s of window %d", spanNames[s.Name], s.Window, spanNames[p.Name], p.Window)
			}
		}
	}
	if execs[4] != 1 || execs[8] != 2 {
		t.Errorf("exec spans per window = %v, want 1 in window 4 and 2 in window 8", execs)
	}
	self, total := layerTimes(all)
	if total[spanWindow] != 200 || self[spanWindow] != 0 {
		t.Errorf("windows: total %d self %d, want 200 and 0", total[spanWindow], self[spanWindow])
	}
	if want := int64(60-10) + int64(70-30-5); self[spanAwait] != want {
		t.Errorf("await self time = %d, want %d", self[spanAwait], want)
	}
}

func TestCompareBounds(t *testing.T) {
	defs := map[string]metricDef{}
	for _, d := range endToEndDefs {
		defs[d.Name] = d
	}
	for _, c := range []struct {
		metric string
		a, b   float64
		want   bool
	}{
		{"ops_per_s", 1000, 805, false},  // 19.5 % fewer: inside the bound
		{"ops_per_s", 1000, 790, true},   // 21 % fewer
		{"ops_per_s", 1000, 2000, false}, // better is never a regression
		{"p90_us", 100, 124, false},
		{"p90_us", 100, 126, true},
		{"p90_us", 100, 50, false},
		{"setup_s", 0.010, 0.020, false}, // doubled, but by 10 ms: under the floor
		{"setup_s", 2.0, 2.4, false},     // 0.4 s worse is 20 %: inside the bound
		{"setup_s", 1.0, 1.4, false},     // 40 % worse but 0.4 s: under the floor
		{"setup_s", 2.0, 2.7, true},      // 35 % and 0.7 s worse
	} {
		if got := regressed(defs[c.metric], c.a, c.b); got != c.want {
			t.Errorf("regressed(%s, %v → %v) = %v, want %v", c.metric, c.a, c.b, got, c.want)
		}
	}
	if !unresolved(defs["p50_us"], estimate{Value: 10, Spread: 0.41}) || unresolved(defs["p50_us"], estimate{Value: 10, Spread: 0.39}) {
		t.Errorf("a spread counts as unresolved above twice the bound, not below")
	}
	if unresolved(defs["setup_s"], estimate{Value: 0.001, Spread: 0.9}) {
		t.Errorf("a millisecond set-up's spread is under the floor and must not count")
	}

	mk := func(ops, p90 float64) resultSet {
		return resultSet{Results: []result{{Workload: "kv.get.large", Attempted: 1, EndToEnd: map[string]estimate{
			"ops_per_s": {Value: ops}, "p50_us": {Value: 9}, "p90_us": {Value: p90, Spread: 0.05}, "setup_s": {Value: 0.4},
		}}}}
	}
	var out bytes.Buffer
	if bad := compare(&out, mk(1000, 25), mk(1000, 26)); bad != 0 {
		t.Errorf("a 4%% p90 move counted as %d regressions:\n%s", bad, out.String())
	}
	out.Reset()
	if bad := compare(&out, mk(1000, 25), mk(750, 25)); bad != 1 || !strings.Contains(out.String(), "REGRESSED   kv.get.large") || !strings.Contains(out.String(), "ops_per_s") {
		t.Errorf("a 25%% throughput drop: %d findings, report:\n%s", bad, out.String())
	}
	out.Reset()
	wide := mk(1000, 25)
	wide.Results[0].EndToEnd["p90_us"] = estimate{Value: 25, Spread: 0.6}
	if bad := compare(&out, mk(1000, 25), wide); bad != 1 || !strings.Contains(out.String(), "UNRESOLVED  kv.get.large") {
		t.Errorf("a wide interval spread: %d findings, report:\n%s", bad, out.String())
	}
}

// BENCHMARK.json is the contract other changes are judged against; the
// program's own tables must say the same.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloadNames[i])
		}
		if _, err := newWorkload(w.Name, t.TempDir()); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the program %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, got[i], want[i])
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndDefs)
	check("per-layer", spec.PerLayer, perLayerDefs)
}
