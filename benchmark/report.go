package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// metricDef is one metric's fixed definition. BENCHMARK.json lists the same
// names, units, directions and bounds; a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are what a user of the system sees, the same four on every
// workload. Bound is the share of the parent's median by which a metric may
// get worse before a change counts as a regression; each is three times the
// widest run-to-run spread (quartile distance over median, ten runs) the
// metric showed on any workload on the two-core shared host the benchmark
// was written on, which was 6.7 % for throughput (tpcc.wal, whose number is
// the disk's), 6.5 % for the median (net.pipe64) and 7.3 % for p90
// (kv.mix.large).
var endToEndDefs = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "p50_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayerDefs are the per-layer metrics every workload's traced run
// reports. The workload-specific ledger lines (client.*, proto.*, server.*,
// core.*, index.<structure>.*, oltp.*, wal.*, mem.*) are printed and stored
// beside them but are not in this list, because a line that exists on one
// workload only cannot be reported on the other five.
var perLayerDefs = []metricDef{
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
	{Name: "span.issue_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "span.await_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "span.exec_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "index.ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "index.share", Unit: "ratio", Better: "lower"},
	{Name: "delegation.noop_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "delegation.noop1_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "delegation.occupancy", Unit: "ratio", Better: "higher"},
	{Name: "delegation.tasks_per_sweep", Unit: "count", Better: "higher"},
	{Name: "delegation.batching_rate", Unit: "ratio", Better: "higher"},
	{Name: "delegation.failed", Unit: "count", Better: "lower"},
	{Name: "budget.layers_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "budget.residual_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "tail.p99_us", Unit: "us", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
}

// header says where and how a result was taken.
type header struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// WALFilesystem and WALFlush describe where tpcc.wal's log lives and how
	// it is flushed: the number is the disk's as much as the log's.
	WALFilesystem string `json:"wal_filesystem"`
	WALFlush      string `json:"wal_flush"`
}

func hostHeader(commit, scratch string) header {
	return header{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit,
		WALFilesystem: filesystemOf(scratch), WALFlush: "FsyncBatch (one fsync per group commit), checkpoint every 200ms",
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// filesystemOf names the filesystem type under a directory.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// result is one workload's run, end-to-end or traced.
type result struct {
	Header      header              `json:"header"`
	Workload    string              `json:"workload"`
	Shape       workloadShape       `json:"shape"`
	Seed        uint64              `json:"seed"`
	Seconds     float64             `json:"seconds"`
	Trace       bool                `json:"trace"`
	Correct     bool                `json:"correct"`
	Attempted   uint64              `json:"attempted"`
	Failed      uint64              `json:"failed"`
	FailedShare float64             `json:"failed_share"`
	Samples     int                 `json:"samples"`
	EndToEnd    map[string]estimate `json:"end_to_end,omitempty"`
	PerLayer    map[string]estimate `json:"per_layer,omitempty"`
	Ledger      []ledgerLine        `json:"ledger,omitempty"`
	Budget      *budget             `json:"budget,omitempty"`
}

// resultSet is what run.sh merges a full pass into.
type resultSet struct {
	Header  header   `json:"header"`
	Results []result `json:"results"`
}

func (r *result) metrics() (map[string]estimate, []metricDef) {
	if r.Trace {
		return r.PerLayer, perLayerDefs
	}
	return r.EndToEnd, endToEndDefs
}

// print writes the human-readable report of one result.
func (r *result) print(w io.Writer) {
	mode := "end-to-end (tracing off)"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  %s  seed %d  %.1fs ==\n", r.Workload, mode, r.Seed, r.Seconds)
	h := r.Header
	fmt.Fprintf(w, "host: %s/%s, %s, nproc %d, GOMAXPROCS %d, %s, commit %s\n", h.GOOS, h.GOARCH, h.CPU, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	s := r.Shape
	fmt.Fprintf(w, "load: %d client(s), %d worker(s), %d connection(s), %d op(s) per window, %s, %d records, %s\n", s.Clients, s.Workers, s.Connections, s.Window, s.Structure, s.Records, s.Mix)
	if strings.HasSuffix(r.Workload, ".wal") {
		fmt.Fprintf(w, "wal: filesystem %s, %s\n", h.WALFilesystem, h.WALFlush)
	}
	vals, defs := r.metrics()
	for _, d := range defs {
		e := vals[d.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %-6s", d.Name, e.Value, e.Unit)
		if !r.Trace {
			fmt.Fprintf(w, " spread %.3f  (%s is better, bound %.0f%%)", e.Spread, d.Better, d.Bound*100)
		}
		fmt.Fprintln(w)
	}
	if e, ok := vals["p99_us"]; ok && !r.Trace {
		fmt.Fprintf(w, "  %-28s %14.4f %-6s spread %.3f  (no bound: reported per layer as tail.p99_us)\n", "p99_us", e.Value, e.Unit, e.Spread)
	}
	fmt.Fprintf(w, "  %-28s %14.6f        (%d failed of %d attempted; %d window samples)\n", "failed_share", r.FailedShare, r.Failed, r.Attempted, r.Samples)
	if len(r.Ledger) > 0 {
		fmt.Fprintln(w, "ledger:")
		for _, l := range r.Ledger {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s %s\n", l.Name, l.Value, l.Unit, l.Moves)
		}
	}
	if b := r.Budget; b != nil {
		fmt.Fprintf(w, "budget: end-to-end %.1f ns/op\n", b.EndToEndNs)
		for _, l := range b.Layers {
			fmt.Fprintf(w, "  %-58s %10.1f ns/op\n", l.Name, l.Value)
		}
		fmt.Fprintf(w, "  %-58s %10.1f ns/op\n", "layers summed", b.SumNs)
		fmt.Fprintf(w, "  %-58s %10.1f ns/op  (%.0f%% of end-to-end)\n", "residual", b.ResidualNs, 100*b.ResidualNs/b.EndToEndNs)
	}
}

// lastLine is the one JSON object the driver reads.
func (r *result) lastLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals, defs := r.metrics()
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{Value: vals[d.Name].Value, Unit: d.Unit}
	}
	out, _ := json.Marshal(map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	return string(out)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Results) == 0 { // a single result file
		var r result
		if err := json.Unmarshal(data, &r); err != nil || r.Workload == "" {
			return set, fmt.Errorf("%s: holds no results", path)
		}
		set = resultSet{Header: r.Header, Results: []result{r}}
	}
	return set, nil
}

// merge gathers result files into one set, ordered by workload then mode.
func merge(paths []string) (resultSet, error) {
	var set resultSet
	for _, p := range paths {
		one, err := readResultSet(p)
		if err != nil {
			return set, err
		}
		set.Results = append(set.Results, one.Results...)
	}
	if len(set.Results) > 0 {
		set.Header = set.Results[0].Header
	}
	order := map[string]int{}
	for i, n := range workloadNames {
		order[n] = i
	}
	sort.SliceStable(set.Results, func(i, j int) bool {
		a, b := set.Results[i], set.Results[j]
		if a.Trace != b.Trace {
			return !a.Trace
		}
		return order[a.Workload] < order[b.Workload]
	})
	return set, nil
}

// printTable is the one-screen summary of a merged set's end-to-end runs.
func (set resultSet) printTable(w io.Writer) {
	fmt.Fprintf(w, "%-14s", "workload")
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, " %14s %7s", d.Name, "spread")
	}
	fmt.Fprintf(w, " %12s %9s\n", "failed_share", "samples")
	for _, r := range set.Results {
		if r.Trace {
			continue
		}
		fmt.Fprintf(w, "%-14s", r.Workload)
		for _, d := range endToEndDefs {
			e := r.EndToEnd[d.Name]
			fmt.Fprintf(w, " %14.4f %7.3f", e.Value, e.Spread)
		}
		fmt.Fprintf(w, " %12.6f %9d\n", r.FailedShare, r.Samples)
	}
}
