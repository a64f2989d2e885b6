#!/bin/sh
# alloc-smoke: cheap allocation gate on the delegation hot path.
#
# Runs the unobserved AND observed invoke benchmarks, the typed (KV)
# pipeline benchmark, the two-name session SubmitKV benchmark (route table),
# and the bypass-read benchmark with -benchmem and fails
# if any reports more than 0 allocs/op — the tentpole property of the
# zero-allocation hot path (DESIGN.md §10), which span recycling extends to
# the observed path and publication-word validation to the bypass read path
# (§12). The runs are warmed (WARM_BENCHTIME, default 20000x) so start-up
# allocations amortise away; B/op is printed but not judged, because a few
# start-up bytes still round to 1 B/op or more on short runs. The exact
# per-call checks are the testing.AllocsPerRun pins in the test suites.
#
# A second gate runs the arena-backed delegated TPC-C full mix and pins it
# to at most MAX_TPCC_ALLOCS allocs/op (default 10): with per-worker batch
# arenas on (DESIGN.md §14) the steady-state transaction path must stay
# allocation-free. The few allocations per transaction it does see are
# index growth: FP-Tree leaf splits (fptree propagateSplit, planSplitInsert,
# newLeaf) under New-Order's inserts, 4 per cross-warehouse New-Order and 0
# per Payment, not the transaction path.
set -eu

cd "$(dirname "$0")/.."

WARM_BENCHTIME="${WARM_BENCHTIME:-20000x}"
OUT="$(go test -run NONE -bench 'BenchmarkDelegationInvoke(Observed|KV)?$|BenchmarkSessionSubmitKV$|BenchmarkDelegationReadBypass$' -benchtime "$WARM_BENCHTIME" -benchmem .)"
echo "$OUT"

for BENCH in BenchmarkDelegationInvoke BenchmarkDelegationInvokeObserved BenchmarkDelegationInvokeKV BenchmarkSessionSubmitKV BenchmarkDelegationReadBypass; do
	LINE=$(echo "$OUT" | awk -v b="$BENCH" '$1 ~ "^"b"(-[0-9]+)?$" { print }')
	if [ -z "$LINE" ]; then
		echo "alloc-smoke: $BENCH produced no output" >&2
		exit 1
	fi
	ALLOCS=$(echo "$LINE" | awk '{ for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }')
	BYTES=$(echo "$LINE" | awk '{ for (i = 2; i <= NF; i++) if ($i == "B/op") print $(i-1) }')
	if [ -z "$ALLOCS" ] || [ -z "$BYTES" ]; then
		echo "alloc-smoke: $BENCH produced no allocs/op / B/op figures" >&2
		exit 1
	fi
	if [ "$ALLOCS" != "0" ]; then
		echo "alloc-smoke: $BENCH reports $ALLOCS allocs/op ($BYTES B/op), want 0 allocs/op" >&2
		exit 1
	fi
	echo "alloc-smoke: $BENCH is allocation-free ($BYTES B/op, $ALLOCS allocs/op)"
done

# Arena gate: the delegated TPC-C full mix with arenas enabled. 3000x is
# enough iterations to amortise the load-phase and pool warm-up allocations
# out of the per-op figure.
MAX_TPCC_ALLOCS="${MAX_TPCC_ALLOCS:-10}"
BENCH=BenchmarkTPCCDelegatedFullMixArena
OUT="$(go test -run NONE -bench "$BENCH\$" -benchtime 3000x -benchmem .)"
echo "$OUT"
LINE=$(echo "$OUT" | awk -v b="$BENCH" '$1 ~ "^"b"(-[0-9]+)?$" { print }')
if [ -z "$LINE" ]; then
	echo "alloc-smoke: $BENCH produced no output" >&2
	exit 1
fi
ALLOCS=$(echo "$LINE" | awk '{ for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }')
if [ -z "$ALLOCS" ]; then
	echo "alloc-smoke: $BENCH produced no allocs/op figure" >&2
	exit 1
fi
if [ "$ALLOCS" -gt "$MAX_TPCC_ALLOCS" ]; then
	echo "alloc-smoke: $BENCH reports $ALLOCS allocs/op, want <= $MAX_TPCC_ALLOCS" >&2
	exit 1
fi
echo "alloc-smoke: $BENCH within the arena budget ($ALLOCS allocs/op <= $MAX_TPCC_ALLOCS)"

# Network front-end gate: the loopback pipelined benchmark at depth 64 —
# frame decode → SubmitKV → encode reply, client and server both in
# steady state — must stay at 0 allocs/op (DESIGN.md §16). 2000x windows
# amortise dial/session warm-up out of the per-op figure.
BENCH='BenchmarkServerPipelined/depth=64'
OUT="$(go test -run NONE -bench "$BENCH\$" -benchtime 2000x -benchmem .)"
echo "$OUT"
LINE=$(echo "$OUT" | awk '$1 ~ "^BenchmarkServerPipelined/depth=64(-[0-9]+)?$" { print }')
if [ -z "$LINE" ]; then
	echo "alloc-smoke: $BENCH produced no output" >&2
	exit 1
fi
ALLOCS=$(echo "$LINE" | awk '{ for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }')
if [ -z "$ALLOCS" ]; then
	echo "alloc-smoke: $BENCH produced no allocs/op figure" >&2
	exit 1
fi
if [ "$ALLOCS" != "0" ]; then
	echo "alloc-smoke: $BENCH reports $ALLOCS allocs/op, want 0" >&2
	exit 1
fi
echo "alloc-smoke: $BENCH is allocation-free in steady state"
