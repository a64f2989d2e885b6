#!/bin/sh
# bench-compare: guard the committed perf trajectory.
#
# Re-runs the snapshot benchmarks and compares fresh ns/op against the
# committed BENCH_delegation.json baseline. Fails when any benchmark
# regresses by more than THRESHOLD_PCT percent (default 15). Names are
# matched with go test's -GOMAXPROCS suffix stripped from both sides, so a
# baseline recorded at one processor count still lines up with a run at
# another (the numbers are only comparable on the same host shape, which
# the baseline's commit message states). Benchmarks present in only one
# side are reported and skipped — renames and new benchmarks don't fail
# the gate — but comparing nothing at all does.
#
# Each benchmark runs COUNT times (default 3) and the per-benchmark MINIMUM
# ns/op is compared (the estimator bench-snapshot.sh records): scheduling
# noise on a shared host only ever slows a run down, so the minimum is the
# stable estimate. Because noise windows can outlast one pass entirely —
# this repo's reference host is a single-CPU VM — benchmarks flagged on the
# first pass are re-measured up to CONFIRM_ROUNDS more times (suspects
# only) and every observation folds into the minimum. Extra samples can
# only lower the floor estimate, never raise it, so retries clear false
# positives but cannot wash out a genuine regression. BENCHTIME tunes
# -benchtime (default 300ms, like bench-snapshot).
set -eu

cd "$(dirname "$0")/.."

BASELINE="BENCH_delegation.json"
BENCHTIME="${BENCHTIME:-300ms}"
THRESHOLD_PCT="${THRESHOLD_PCT:-15}"
COUNT="${COUNT:-3}"
CONFIRM_ROUNDS="${CONFIRM_ROUNDS:-2}"

if [ ! -f "$BASELINE" ]; then
	echo "bench-compare: no $BASELINE baseline (run make bench first)" >&2
	exit 1
fi

PATTERN='BenchmarkDelegation|BenchmarkServer|BenchmarkAblationBurstSize|BenchmarkAblationResponseBatching|BenchmarkAblationTxnMode|BenchmarkIndex|BenchmarkTPCC|BenchmarkReadBypass|BenchmarkRecoveryReplay'

RAW="$(mktemp)"
SUSPECTS="$(mktemp)"
trap 'rm -f "$RAW" "$SUSPECTS"' EXIT INT TERM

go test -run NONE -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$RAW"

# evaluate reads the baseline plus every accumulated benchmark line, folds
# repeats to the per-benchmark minimum, and prints the comparison. In
# report mode it also writes the regressed names to $SUSPECTS; in final
# mode it exits nonzero on any remaining regression.
evaluate() {
	awk -v threshold="$THRESHOLD_PCT" -v suspects="$SUSPECTS" -v final="$1" '
# A top-level benchmark name is a Go identifier, which has no "-", so a
# trailing -N on one is the -GOMAXPROCS suffix go test appends when N > 1.
# Every name of one run carries the same suffix; learn() finds it on the
# top-level names and strip() removes it from any name of that run.
function learn(side, name) {
	if (!(side in sfx) && name !~ /\// && match(name, /-[0-9]+$/)) sfx[side] = substr(name, RSTART)
}
function strip(side, name) {
	if ((side in sfx) && substr(name, length(name) - length(sfx[side]) + 1) == sfx[side]) {
		return substr(name, 1, length(name) - length(sfx[side]))
	}
	return name
}
NR == FNR {
	# Baseline JSON: one record per line after bench-snapshot formatting.
	if (match($0, /"name": "[^"]+"/)) {
		name = substr($0, RSTART + 9, RLENGTH - 10)
		if (match($0, /"ns_per_op": [0-9.]+/)) {
			rawbase[name] = substr($0, RSTART + 13, RLENGTH - 13)
			learn("base", name)
		}
	}
	next
}
/^Benchmark/ && /ns\/op/ {
	name = $1
	ns = ""
	for (i = 2; i <= NF; i++) if ($i == "ns/op") ns = $(i - 1)
	if (ns == "") next
	learn("fresh", name)
	if (!(name in rawfresh) || ns + 0 < rawfresh[name] + 0) rawfresh[name] = ns
}
END {
	for (name in rawbase) base[strip("base", name)] = rawbase[name]
	for (name in rawfresh) {
		fresh[strip("fresh", name)] = rawfresh[name]
		raw[strip("fresh", name)] = name
	}
	compared = 0
	failed = 0
	for (name in fresh) {
		if (!(name in base)) {
			if (final) printf "bench-compare: NEW      %-48s %12.1f ns/op (no baseline, skipped)\n", name, fresh[name]
			continue
		}
		compared++
		delta = (fresh[name] - base[name]) / base[name] * 100
		status = "ok"
		if (delta > threshold) {
			status = "REGRESSED"
			failed++
			print raw[name] > suspects
		}
		if (final || status == "REGRESSED") {
			printf "bench-compare: %-9s %-48s %12.1f -> %12.1f ns/op (%+6.1f%%)\n", \
				status, name, base[name], fresh[name], delta
		}
	}
	if (final) {
		for (name in base) {
			if (!(name in fresh)) {
				printf "bench-compare: GONE     %-48s (in baseline only, skipped)\n", name
			}
		}
		if (compared == 0) {
			print "bench-compare: no benchmarks compared against the baseline" > "/dev/stderr"
			exit 1
		}
		if (failed > 0) {
			printf "bench-compare: %d of %d benchmarks regressed more than %s%%\n", \
				failed, compared, threshold > "/dev/stderr"
			exit 1
		}
		printf "bench-compare: %d benchmarks within %s%% of the committed baseline\n", compared, threshold
	}
}
' "$BASELINE" "$RAW"
}

ROUND=0
while [ "$ROUND" -lt "$CONFIRM_ROUNDS" ]; do
	: >"$SUSPECTS"
	evaluate 0
	if [ ! -s "$SUSPECTS" ]; then
		break
	fi
	# Re-measure only the flagged benchmarks (top-level name: strip the
	# subbenchmark path and the -GOMAXPROCS suffix) and fold the new runs in.
	SUSPECT_PATTERN=$(sed 's|/.*||; s|-[0-9]*$||' "$SUSPECTS" | sort -u | paste -sd'|' -)
	ROUND=$((ROUND + 1))
	echo "bench-compare: confirm round $ROUND/$CONFIRM_ROUNDS: re-measuring suspects ($SUSPECT_PATTERN)"
	go test -run NONE -bench "^($SUSPECT_PATTERN)\$" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . >>"$RAW"
done

: >"$SUSPECTS"
evaluate 1
