#!/usr/bin/env bash
# CI telemetry smoke: boot a real mlds_server with --telemetry, drive it
# with loadgen over a socket, poll the Stats/Tail opcodes MID-RUN with
# mlds_top (the whole point of the control lane is that polling works
# while the data lane is saturated), then check that:
#   - mlds_top renders a frame from a live server under load
#   - a forced-slow query shows up in the slow-query log with its plan
#   - the telemetry JSONL parses and carries server.* and abdm.* metrics
#   - its final snapshot reads server.internal_errors = 0: no request of
#     the run fell into the executor's catch-all
set -euo pipefail

cd "$(dirname "$0")/.."

opam exec -- dune build bin/mlds_server.exe bin/mlds_top.exe bench/loadgen.exe 2>/dev/null \
  || dune build bin/mlds_server.exe bin/mlds_top.exe bench/loadgen.exe

rm -f telemetry-server.out telemetry_pr7.jsonl \
  mlds_top-mid.out mlds_top-final.out loadgen-telemetry-smoke.out

# --slow-ms 0.01 (10µs) forces essentially every request over the
# threshold so the slow log is guaranteed to capture plans.
./_build/default/bin/mlds_server.exe \
  --port 0 --telemetry telemetry_pr7.jsonl --telemetry-period 0.3 \
  --slow-ms 0.01 > telemetry-server.out 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 50); do
  PORT=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' telemetry-server.out | head -n 1)
  [ -n "$PORT" ] && break
  sleep 0.2
done
if [ -z "$PORT" ]; then
  echo "server never became ready:" >&2
  cat telemetry-server.out >&2
  kill "$SERVER_PID" 2>/dev/null || true
  exit 1
fi
echo "server ready on port $PORT"

# Rate-limited so the run is long enough (~2s) to poll in the middle of.
./_build/default/bench/loadgen.exe --port "$PORT" \
  --clients 4 --requests 60 --rate 30 > loadgen-telemetry-smoke.out 2>&1 &
LOADGEN_PID=$!

sleep 0.7
if ! kill -0 "$LOADGEN_PID" 2>/dev/null; then
  echo "loadgen finished before the mid-run poll; output was:" >&2
  cat loadgen-telemetry-smoke.out >&2
  exit 1
fi
./_build/default/bin/mlds_top.exe --connect "127.0.0.1:$PORT" --once \
  | tee mlds_top-mid.out
grep -q "mlds_top — " mlds_top-mid.out
grep -q "rps" mlds_top-mid.out

wait "$LOADGEN_PID"
cat loadgen-telemetry-smoke.out

# Post-run frame: the slow log must hold captured statements with plans
# (plan lines render indented under each entry with a '|' gutter).
./_build/default/bin/mlds_top.exe --connect "127.0.0.1:$PORT" --once --slow 10 \
  > mlds_top-final.out
grep -q "slow queries (threshold" mlds_top-final.out
grep -q "RETRIEVE" mlds_top-final.out
grep -q "            | " mlds_top-final.out

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
grep -q "shutdown complete" telemetry-server.out

test -s telemetry_pr7.jsonl
python3 scripts/check_bench.py telemetry_pr7.jsonl \
  --require-prefix server. --require-prefix abdm. \
  --require telemetry.ticks \
  --guard 'm("telemetry.ticks") >= 2' \
  --guard 'm("server.internal_errors") == 0'
python3 scripts/bench_diff.py --series telemetry_pr7.jsonl

echo "telemetry smoke OK"
