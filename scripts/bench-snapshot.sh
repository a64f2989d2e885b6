#!/bin/sh
# bench-snapshot: record the perf trajectory of the delegation hot path.
#
# Runs the delegation, index, and TPC-C microbenchmarks with -benchmem and
# rewrites BENCH_delegation.json at the repo root with one record per
# benchmark: name, ns/op, allocs/op, B/op. Commit the file so regressions
# show up in review diffs across PRs.
#
# BENCHTIME tunes -benchtime (default 300ms: enough iterations for stable
# ns/op on the sub-microsecond benchmarks without a minutes-long run).
# Each benchmark runs COUNT times (default 3) and the per-benchmark MINIMUM
# ns/op is recorded — the same estimator bench-compare.sh uses, so both
# sides of the regression gate measure the same statistic (scheduling noise
# only ever slows a run down; the minimum is the stable floor).
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-300ms}"
COUNT="${COUNT:-3}"
OUT="BENCH_delegation.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT INT TERM

PATTERN='BenchmarkDelegation|BenchmarkServer|BenchmarkAblationBurstSize|BenchmarkAblationResponseBatching|BenchmarkIndex|BenchmarkTPCC|BenchmarkReadBypass|BenchmarkRecoveryReplay'

go test -run NONE -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$RAW"

# Parse `BenchmarkName  N  12.3 ns/op  4 B/op  1 allocs/op` lines into JSON,
# folding the COUNT repeats of each benchmark to the minimum ns/op (the
# alloc figures are deterministic across repeats; the fastest run's are
# kept). Names are recorded without go test's -GOMAXPROCS suffix: a
# top-level name is a Go identifier, which has no "-", so a trailing -N on
# one is that suffix, and every name of the run carries the same one.
awk '
/^Benchmark/ && /ns\/op/ {
	name = $1
	if (sfx == "" && name !~ /\// && match(name, /-[0-9]+$/)) sfx = substr(name, RSTART)
	ns = ""; bytes = ""; allocs = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")     ns = $(i-1)
		if ($i == "B/op")      bytes = $(i-1)
		if ($i == "allocs/op") allocs = $(i-1)
	}
	if (ns == "") next
	if (!(name in best)) order[n++] = name
	if (!(name in best) || ns + 0 < best[name] + 0) {
		best[name] = ns
		ba[name] = (allocs == "" ? 0 : allocs)
		bb[name] = (bytes == "" ? 0 : bytes)
	}
}
END {
	print "["
	for (i = 0; i < n; i++) {
		name = order[i]
		out = name
		if (sfx != "" && substr(out, length(out) - length(sfx) + 1) == sfx) out = substr(out, 1, length(out) - length(sfx))
		printf "  {\"name\": \"%s\", \"ns_per_op\": %s, \"allocs_per_op\": %s, \"bytes_per_op\": %s}%s\n", \
			out, best[name], ba[name], bb[name], (i < n - 1 ? "," : "")
	}
	print "]"
}
' "$RAW" >"$OUT"

RECORDS=$(grep -c '"name"' "$OUT" || true)
if [ "$RECORDS" -eq 0 ]; then
	echo "bench-snapshot: no benchmark lines parsed" >&2
	exit 1
fi
echo "bench-snapshot: wrote $RECORDS records to $OUT (min ns/op of $COUNT runs)"
