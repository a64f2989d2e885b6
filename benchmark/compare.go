package main

import (
	"fmt"
	"io"
	"math"
)

// setupFloorSeconds is the absolute floor under the setup_s bound: the
// logged load phase fsyncs, and a set-up of milliseconds moves by a quarter
// from page-cache state alone, so a set-up time counts as worse only when
// it is worse by more than its bound and by more than this.
const setupFloorSeconds = 0.5

// worseBy is the share of a by which b is worse (negative when better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// regressed reports whether b is worse than a by more than the bound.
func regressed(d metricDef, a, b float64) bool {
	if worseBy(d, a, b) <= d.Bound {
		return false
	}
	return d.Name != "setup_s" || math.Abs(b-a) > setupFloorSeconds
}

// unresolved reports whether a run's own intervals disagree by more than
// twice the bound: such a pair can be called neither changed nor unchanged.
func unresolved(d metricDef, e estimate) bool {
	if e.Spread <= 2*d.Bound {
		return false
	}
	return d.Name != "setup_s" || e.Spread*e.Value > setupFloorSeconds
}

// compare checks every (workload, end-to-end metric) pair of change against
// parent and writes one line per finding. It returns the number of pairs
// that regressed or could not be resolved.
func compare(w io.Writer, parent, change resultSet) int {
	base := map[string]result{}
	for _, r := range parent.Results {
		if !r.Trace {
			base[r.Workload] = r
		}
	}
	bad, pairs := 0, 0
	for _, r := range change.Results {
		p, ok := base[r.Workload]
		if r.Trace || !ok {
			continue
		}
		if r.Failed > 0 || p.Failed > 0 {
			fmt.Fprintf(w, "FAILED OPS  %-14s failed_share %.6f vs %.6f\n", r.Workload, p.FailedShare, r.FailedShare)
			bad++
		}
		for _, d := range endToEndDefs {
			a, b := p.EndToEnd[d.Name], r.EndToEnd[d.Name]
			pairs++
			switch {
			case unresolved(d, a) || unresolved(d, b):
				fmt.Fprintf(w, "UNRESOLVED  %-14s %-10s interval spread %.3f / %.3f exceeds twice the %.0f%% bound\n", r.Workload, d.Name, a.Spread, b.Spread, d.Bound*100)
				bad++
			case regressed(d, a.Value, b.Value):
				fmt.Fprintf(w, "REGRESSED   %-14s %-10s %.4f → %.4f %s, worse by %.1f%% (bound %.0f%%)\n", r.Workload, d.Name, a.Value, b.Value, d.Unit, 100*worseBy(d, a.Value, b.Value), d.Bound*100)
				bad++
			default:
				fmt.Fprintf(w, "ok          %-14s %-10s %.4f → %.4f %s (%+.1f%%)\n", r.Workload, d.Name, a.Value, b.Value, d.Unit, -100*worseBy(d, a.Value, b.Value))
			}
		}
	}
	if pairs == 0 {
		fmt.Fprintln(w, "no workload with an end-to-end result in both files")
		return 1
	}
	return bad
}
