#!/bin/sh
# net-smoke: end-to-end gate on the network front end. Builds robustconf,
# starts `robustconf serve` on a free port with the observability endpoint
# up, drives a short mixed YCSB-A workload over loopback TCP with
# `robustconf ycsb -addr`, and
# asserts (a) the driver completed without transport errors and (b) the
# server's robustconf_server_* counters on /metrics saw the traffic.
set -eu

cd "$(dirname "$0")/.."

BIN="$(mktemp -d)"
LOG="$BIN/serve.log"
SRV_PID=""
trap '[ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true; [ -n "$SRV_PID" ] && wait "$SRV_PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT INT TERM

go build -o "$BIN/robustconf" ./cmd/robustconf

"$BIN/robustconf" serve -addr 127.0.0.1:0 -obs 127.0.0.1:0 -structure btree \
	-shards 2 -records 20000 >"$LOG" 2>&1 &
SRV_PID=$!

# The daemon announces "robustconf serve: serving <addr> ..." and
# "obs: serving http://<addr>/metrics ..." once ready.
ADDR=""
OBS=""
for _ in $(seq 1 50); do
	ADDR=$(sed -n 's/^robustconf serve: serving \([^ ]*\).*/\1/p' "$LOG" | head -1)
	OBS=$(sed -n 's|^obs: serving http://\([^/]*\)/metrics.*|\1|p' "$LOG" | head -1)
	if [ -n "$ADDR" ] && [ -n "$OBS" ]; then
		break
	fi
	if ! kill -0 "$SRV_PID" 2>/dev/null; then
		echo "net-smoke: robustconf serve exited during startup:" >&2
		cat "$LOG" >&2
		exit 1
	fi
	sleep 0.2
done
if [ -z "$ADDR" ] || [ -z "$OBS" ]; then
	echo "net-smoke: robustconf serve never announced its listeners:" >&2
	cat "$LOG" >&2
	exit 1
fi
echo "net-smoke: robustconf serve on $ADDR, obs on $OBS"

"$BIN/robustconf" ycsb -addr "$ADDR" -mix a -records 20000 -ops 5000 \
	-clients 2 -pipeline 16

fetch() {
	if command -v curl >/dev/null 2>&1; then
		curl -fsS "http://$OBS$1" 2>/dev/null
	else
		wget -qO- "http://$OBS$1" 2>/dev/null
	fi
}

METRICS="$(fetch /metrics)"
for WANT in robustconf_server_ops_total robustconf_server_batches_total robustconf_server_connections_accepted_total; do
	VAL=$(echo "$METRICS" | awk -v m="$WANT" '$1 == m { print $2 }')
	if [ -z "$VAL" ] || [ "$VAL" = "0" ]; then
		echo "net-smoke: /metrics $WANT is '${VAL:-missing}', want > 0" >&2
		exit 1
	fi
	echo "net-smoke: $WANT = $VAL"
done

# Graceful drain: SIGTERM must exit 0 and print the final stats line.
kill -TERM "$SRV_PID"
RC=0
wait "$SRV_PID" || RC=$?
PID_DONE=$SRV_PID
SRV_PID=""
if [ "$RC" != "0" ]; then
	echo "net-smoke: robustconf serve (pid $PID_DONE) exited $RC on SIGTERM:" >&2
	cat "$LOG" >&2
	exit 1
fi
if ! grep -q '^robustconf serve: served ' "$LOG"; then
	echo "net-smoke: no final stats line after drain:" >&2
	cat "$LOG" >&2
	exit 1
fi
echo "net-smoke: clean drain — $(grep '^robustconf serve: served ' "$LOG")"
