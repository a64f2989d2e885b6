package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// The benchmark records spans from its own files, around the calls into a
// layer's public functions; nothing inside the program is stamped. Every
// window (one client round trip) is a root span, and the same few span
// names recur on every workload so the per-layer metrics mean the same
// thing everywhere:
//
//	window  the whole round trip                          (client goroutine)
//	issue   the calls that hand the window's ops over     (client goroutine)
//	await   the calls that block for the results          (client goroutine)
//	exec    the work the await was blocked on             (worker goroutine)
//
// exec is a child of await: an await's self time is the part of the wait
// the execution does not explain — posting, claiming, answering, waking,
// and on the network workload the wire and the server.
const (
	spanWindow uint8 = iota
	spanIssue
	spanAwait
	spanExec
	numSpanNames
)

var spanNames = [numSpanNames]string{"window", "issue", "await", "exec"}

// spanParent names the span, within the same window, that caused a span.
var spanParent = [numSpanNames]int{spanWindow: -1, spanIssue: int(spanWindow), spanAwait: int(spanWindow), spanExec: int(spanAwait)}

// span is one recorded interval. Start and End are nanoseconds on the
// process's monotonic clock; Parent indexes the span list (-1 for a root).
type span struct {
	Name   uint8
	Window int32
	Parent int32
	Start  int64
	End    int64
}

var clockBase = time.Now()

// nanos reads the monotonic clock (one vDSO call, ~35 ns on the host the
// benchmark was written on).
func nanos() int64 { return int64(time.Since(clockBase)) }

// clockReadNs is what one read of the clock costs on this host, measured
// once at start-up.
var clockReadNs = func() int64 {
	const n = 1 << 14
	start := nanos()
	var sink int64
	for i := 0; i < n; i++ {
		sink += nanos()
	}
	_ = sink
	return (nanos() - start) / n
}()

// spanBuf is a single-writer span log: one per goroutine that records.
type spanBuf struct{ spans []span }

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, 0, capacity)} }

func (b *spanBuf) add(name uint8, window int32, start, end int64) {
	b.spans = append(b.spans, span{Name: name, Window: window, Parent: -1, Start: start, End: end})
}

// traceEvery is the window sampling period of a traced run: one window in
// four records spans. Stamping every window would slow kv.get.small, whose
// op costs 360 ns, by a sixth; a quarter of the windows keeps the traced
// loop within a few percent of the untraced one and is still hundreds of
// thousands of complete span trees.
const traceEvery = 4

// traceOn tells the worker-side recorder of a single-client workload
// whether the window in flight is a sampled one. The client stores it only
// when it changes, before it posts the window's first op, so the worker's
// loads hit its own cache on all but two windows in four.
var traceOn atomic.Bool

// noWindow marks a worker-side span recorded without a window id; the merge
// finds its window by time.
const noWindow int32 = -1

// mergeSpans concatenates the per-goroutine logs and resolves each span's
// window and parent. A span without a window id belongs to the window whose
// interval holds its start: such spans come from single-client workloads,
// whose windows do not overlap. A span's parent is the last span of the
// parent's name recorded for the same window.
func mergeSpans(bufs ...*spanBuf) []span {
	var all, windows []span
	for _, b := range bufs {
		if b != nil {
			all = append(all, b.spans...)
		}
	}
	for _, s := range all {
		if s.Name == spanWindow {
			windows = append(windows, s)
		}
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].Start < windows[j].Start })
	kept := all[:0]
	for _, s := range all {
		if s.Window == noWindow {
			i := sort.Search(len(windows), func(i int) bool { return windows[i].Start > s.Start }) - 1
			if i < 0 || windows[i].End < s.Start {
				continue // outside every sampled window: the flag flipped mid-call
			}
			s.Window = windows[i].Window
		}
		kept = append(kept, s)
	}
	all = kept
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Window != all[j].Window {
			return all[i].Window < all[j].Window
		}
		return all[i].Name < all[j].Name
	})
	for lo := 0; lo < len(all); {
		hi := lo
		var last [numSpanNames]int32
		for i := range last {
			last[i] = -1
		}
		for hi < len(all) && all[hi].Window == all[lo].Window {
			last[all[hi].Name] = int32(hi)
			hi++
		}
		for i := lo; i < hi; i++ {
			if p := spanParent[all[i].Name]; p >= 0 {
				all[i].Parent = last[p]
			}
		}
		lo = hi
	}
	return all
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children clipped to the parent, overlapping
// children counted once).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	for p, ks := range kids {
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := int64(0), spans[p].Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > spans[p].End {
				hi = spans[p].End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[p] -= covered
	}
	return self
}

// layerTimes sums span self time and span duration by name.
func layerTimes(spans []span) (self, total [numSpanNames]int64) {
	st := selfTimes(spans)
	for i, s := range spans {
		self[s.Name] += st[i]
		total[s.Name] += s.End - s.Start
	}
	return self, total
}

// traceFileWindows caps how many windows' spans go to the trace file; the
// metrics use every span recorded, the file is for reading by eye.
const traceFileWindows = 2000

// layerSums accumulates layerTimes over the traced intervals of a run.
type layerSums struct {
	self, total [numSpanNames]int64
	windows     int
}

func (l *layerSums) add(spans []span) {
	self, total := layerTimes(spans)
	for i := range self {
		l.self[i] += self[i]
		l.total[i] += total[i]
	}
	l.windows += countWindows(spans)
}

type spanJSON struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Window int32  `json:"window"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeTrace writes the spans of the first traceFileWindows windows.
func writeTrace(path, workload string, spans []span) error {
	var out []spanJSON
	windows := 0
	for i, s := range spans {
		if s.Name == spanWindow {
			if windows++; windows > traceFileWindows {
				break
			}
		}
		out = append(out, spanJSON{ID: int32(i), Name: spanNames[s.Name], Window: s.Window, Parent: s.Parent, Start: s.Start, End: s.End})
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "windows_recorded": countWindows(spans), "spans": out})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func countWindows(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.Name == spanWindow {
			n++
		}
	}
	return n
}
