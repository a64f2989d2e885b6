#!/bin/sh
# wal-smoke: cheap durability gate (DESIGN.md §13).
#
# Three checks:
#  1. The shrunk WAL chaos suite under the race detector — seeded crash
#     storms (worker kills, kills inside group commit, torn log tails,
#     crash-during-migration) must recover to state byte-equal to the
#     crash-free run of the same seed.
#  2. A logged sweep pass claims again before its flush, under the race
#     detector: a post that lands while the pass runs shares its one
#     commit, and a client re-posting reads cannot hold the commit back
#     beyond SlotsPerBuffer claims.
#  3. The logged delegation round trip stays allocation-free: turning the
#     WAL on must not put allocations on the hot path (staging reuses the
#     per-worker buffers), so WAL-off costs nothing by construction. The
#     exact per-call check is the testing.AllocsPerRun pin
#     TestLoggedInvokeZeroAlloc; the benchmark run is warmed
#     (WARM_BENCHTIME, default 20000x) and judged on allocs/op only, with
#     B/op printed — a few start-up bytes can still round to 1 B/op or more
#     on short runs, the same reason alloc-smoke judges allocs/op.
set -eu

cd "$(dirname "$0")/.."

go test -race -short -run 'TestChaosWAL' ./internal/harness/
go test -race -count=1 -run '^(TestLatePostJoinsFlush|TestLateClaimBounded)$' ./internal/delegation/
go test -count=1 -run '^TestLoggedInvokeZeroAlloc$' ./internal/core/

WARM_BENCHTIME="${WARM_BENCHTIME:-20000x}"
OUT="$(go test -run NONE -bench 'BenchmarkDelegationInvokeLogged$' -benchtime "$WARM_BENCHTIME" -benchmem .)"
echo "$OUT"

LINE=$(echo "$OUT" | awk '$1 ~ "^BenchmarkDelegationInvokeLogged(-[0-9]+)?$" { print }')
if [ -z "$LINE" ]; then
	echo "wal-smoke: BenchmarkDelegationInvokeLogged produced no output" >&2
	exit 1
fi
ALLOCS=$(echo "$LINE" | awk '{ for (i = 2; i <= NF; i++) if ($i == "allocs/op") print $(i-1) }')
BYTES=$(echo "$LINE" | awk '{ for (i = 2; i <= NF; i++) if ($i == "B/op") print $(i-1) }')
if [ -z "$ALLOCS" ] || [ -z "$BYTES" ]; then
	echo "wal-smoke: no allocs/op / B/op figures" >&2
	exit 1
fi
if [ "$ALLOCS" != "0" ]; then
	echo "wal-smoke: logged invoke reports $ALLOCS allocs/op ($BYTES B/op), want 0 allocs/op" >&2
	exit 1
fi
echo "wal-smoke: logged delegation round trip is allocation-free ($BYTES B/op, $ALLOCS allocs/op)"
