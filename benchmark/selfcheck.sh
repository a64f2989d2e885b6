#!/usr/bin/env bash
# Runs the full end-to-end set twice on the same tree and fails, naming the
# workload and the metric, if any end-to-end metric differs between the two
# passes by more than its bound, or if any run's own intervals disagree by
# more than twice the bound (reported as unresolved, not as unchanged).
#
#   bash benchmark/selfcheck.sh [--seed <n>] [--seconds <s>]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
workloads=(kv.get.small kv.get.large kv.mix.large net.pipe64 tpcc.mem tpcc.wal)

for pass in a b; do
	files=()
	for w in "${workloads[@]}"; do
		bash "$here/run.sh" --workload "$w" --trace 0 --out "$build/selfcheck-$pass" "$@" >/dev/null
		files+=("$build/selfcheck-$pass/result-$w.json")
	done
	echo "== pass $pass =="
	"$build/benchmark" -merge "$build/selfcheck-$pass.json" "${files[@]}"
done

status=0
echo "== pass b against pass a =="
"$build/benchmark" -compare "$build/selfcheck-a.json" "$build/selfcheck-b.json" || status=1
echo "== pass a against pass b =="
"$build/benchmark" -compare "$build/selfcheck-b.json" "$build/selfcheck-a.json" || status=1
exit $status
