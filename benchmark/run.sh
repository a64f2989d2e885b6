#!/usr/bin/env bash
# The benchmark's single entry point (BENCHMARK.json names it).
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       builds the benchmark if needed and runs one workload in one process;
#       the last line of standard output is the result as one JSON object.
#
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>] [--out <dir>]
#       the full pass: every workload in its own process with tracing off,
#       then every workload's traced run with its component probes, then the
#       full index probe table; writes <dir>/benchmark.json (default
#       .bench_build/out) and prints the table.
#
# Everything it writes — the Go build cache, the binary, the write-ahead
# logs of tpcc.wal, the result and trace files — goes under .bench_build/ at
# the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-tmp"

# The toolchain is told to keep to the checkout too: caches and temporary
# files under .bench_build, no user configuration, no network.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/go-tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

# The benchmark is a module of its own whose replace directive points at the
# checkout's root module, so this fails — before anything is measured — in a
# directory that does not hold the program.
(cd "$here" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$build/benchmark" .)

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "$root"

seed=1 seconds=12 out="$build/out" single=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--workload | -workload | --workload=* | -workload=*) single=1 ;;
	--seed | -seed) seed="${args[i + 1]}" ;;
	--seconds | -seconds) seconds="${args[i + 1]}" ;;
	--out | -out) out="${args[i + 1]}" ;;
	esac
done

if ((single)); then
	exec "$build/benchmark" -commit "$commit" -out "$out" -scratch "$build/scratch" "$@"
fi

workloads=(kv.get.small kv.get.large kv.mix.large net.pipe64 tpcc.mem tpcc.wal)
files=()
for trace in 0 1; do
	for w in "${workloads[@]}"; do
		"$build/benchmark" -commit "$commit" -out "$out" -scratch "$build/scratch" \
			-workload "$w" -seed "$seed" -seconds "$seconds" -trace "$trace"
		if ((trace)); then files+=("$out/layers-$w.json"); else files+=("$out/result-$w.json"); fi
	done
done
echo "== index probes: four structures, 4 096 and 8 000 000 uniform keys =="
"$build/benchmark" -probes | tee "$out/index-probes.txt"
echo "== merged: $out/benchmark.json =="
"$build/benchmark" -merge "$out/benchmark.json" "${files[@]}"
