#!/bin/sh
# obs-smoke: end-to-end check of the observability endpoint.
#
# Builds robustconf, runs the mixed chaos schedule with the live endpoint up
# (-hold keeps it serving after the run) and the continuous-signal sampler
# on, scrapes /metrics and /signals, and asserts that the injected faults
# are visible in the exported counters, that every domain publishes
# windowed signals with a health classification, and that SIGTERM ends the
# hold with exit 0. Exits non-zero if the endpoint never comes up or the
# counters stay at zero.
set -eu

PORT="${OBS_SMOKE_PORT:-17060}"
ADDR="127.0.0.1:$PORT"
TMP="$(mktemp -d)"
BIN="$TMP/robustconf"
OUT="$TMP/run.log"
METRICS="$TMP/metrics.txt"
SIGNALS="$TMP/signals.json"

cleanup() {
	[ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
	rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$BIN" ./cmd/robustconf

"$BIN" chaos -schedule mixed -obs "$ADDR" -obs-trace 1 -hold -signals -signals-every 50ms >"$OUT" 2>&1 &
PID=$!

# Wait for the chaos run to finish and the endpoint to serve the final
# counters (the run takes ~1s; poll up to 30s).
fetch() {
	if command -v curl >/dev/null 2>&1; then
		curl -fsS "http://$ADDR$1" 2>/dev/null
	else
		wget -qO- "http://$ADDR$1" 2>/dev/null
	fi
}

i=0
while :; do
	if ! kill -0 "$PID" 2>/dev/null; then
		echo "obs-smoke: robustconf chaos exited early:" >&2
		cat "$OUT" >&2
		exit 1
	fi
	if fetch /metrics >"$METRICS" && grep -q '^robustconf_faults_worker_panics_total [1-9]' "$METRICS"; then
		break
	fi
	i=$((i + 1))
	if [ "$i" -ge 150 ]; then
		echo "obs-smoke: no non-zero fault counters on http://$ADDR/metrics after 30s" >&2
		[ -s "$METRICS" ] && head -40 "$METRICS" >&2
		cat "$OUT" >&2
		exit 1
	fi
	sleep 0.2
done

# The counters the chaos run must have exported.
for metric in \
	robustconf_faults_worker_panics_total \
	robustconf_faults_worker_restarts_total \
	robustconf_tasks_swept_total \
	robustconf_spans_sampled_total \
	robustconf_bypass_hits_total \
	robustconf_bypass_retries_total \
	robustconf_bypass_fallbacks_total; do
	if ! grep -q "^$metric\({\| \)" "$METRICS"; then
		echo "obs-smoke: $metric missing from /metrics" >&2
		exit 1
	fi
done
# Latency histograms with cumulative buckets must be present.
grep -q '^robustconf_exec_duration_ns_bucket{' "$METRICS" ||
	{ echo "obs-smoke: exec histogram missing" >&2; exit 1; }

# The sampler's windowed-signal gauges must be exported per domain. The
# first capture above can race the sampler's first post-registration tick,
# so give it a couple of cadences and re-scrape.
sleep 0.5
fetch /metrics >"$METRICS" || { echo "obs-smoke: /metrics re-fetch failed" >&2; exit 1; }
for gauge in robustconf_signal_occupancy robustconf_signal_throughput robustconf_health_state; do
	if ! grep -q "^$gauge{domain=" "$METRICS"; then
		echo "obs-smoke: $gauge missing from /metrics" >&2
		exit 1
	fi
done

# /signals must serve the machine-readable feed: sampler running, at least
# one domain, each row carrying a health classification. The sampler keeps
# ticking under -hold, so a couple of cadences in the rows are measured.
fetch /signals >"$SIGNALS" || { echo "obs-smoke: /signals fetch failed" >&2; exit 1; }
grep -q '"sampler_running": *true' "$SIGNALS" ||
	{ echo "obs-smoke: /signals reports sampler not running" >&2; cat "$SIGNALS" >&2; exit 1; }
grep -q '"domain": *"' "$SIGNALS" ||
	{ echo "obs-smoke: /signals has no domains" >&2; cat "$SIGNALS" >&2; exit 1; }
grep -q '"health": *"' "$SIGNALS" ||
	{ echo "obs-smoke: /signals rows carry no health state" >&2; cat "$SIGNALS" >&2; exit 1; }

panics="$(grep '^robustconf_faults_worker_panics_total ' "$METRICS" | awk '{print $2}')"
domains="$(grep -c '"domain": *"' "$SIGNALS" || true)"

# The hold ends on SIGTERM with exit 0.
kill -TERM "$PID"
RC=0
wait "$PID" || RC=$?
PID=""
if [ "$RC" != "0" ]; then
	echo "obs-smoke: robustconf chaos -hold exited $RC on SIGTERM, want 0:" >&2
	cat "$OUT" >&2
	exit 1
fi
echo "obs-smoke: ok — $panics worker panics exported, $domains domain signal rows on http://$ADDR/signals"
