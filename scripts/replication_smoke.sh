#!/usr/bin/env bash
# CI replication smoke: boot a real primary/standby pair over TCP, route
# loadgen reads at the standby while writes stream through the primary,
# and check that:
#   - mlds_top shows replication lag on the primary and apply progress
#     on the standby, live under load
#   - the primary's online checkpoints (every 32 KiB of WAL) truncate the
#     log mid-stream, and the standby streams across them: mlds_top shows
#     at least one checkpoint on the primary and a single bootstrap on
#     the standby
#   - neither server counts an internal error: both final mlds_top
#     frames read "internal 0"
#   - the primary ships from its I/O loop: its thread count mid-stream
#     is the count it had before the standby attached
#   - the E18 failover drill (loadgen --scenario failover: write through
#     the pair, SIGKILL the primary mid-stream, SIGUSR1-promote the
#     standby) loses no acked write, leaves nothing in TMPDIR, and
#     BENCH_failover.json carries the steady-state lag and failover-time
#     numbers CI guards.
set -euo pipefail

cd "$(dirname "$0")/.."

opam exec -- dune build bin/mlds_server.exe bin/mlds_top.exe bench/loadgen.exe 2>/dev/null \
  || dune build bin/mlds_server.exe bin/mlds_top.exe bench/loadgen.exe

rm -f repl-primary.out repl-standby.out repl-primary.wal repl-standby.wal \
  repl-standby.wal.boot repl-primary.wal.snapshot \
  mlds_top-repl-primary.out mlds_top-repl-standby.out \
  loadgen-repl-smoke.out loadgen-repl-warm.out loadgen-failover.out \
  BENCH_failover.json

wait_port() { # logfile -> port
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' "$1" | head -n 1)
    [ -n "$port" ] && break
    sleep 0.2
  done
  if [ -z "$port" ]; then
    echo "server never became ready:" >&2
    cat "$1" >&2
    exit 1
  fi
  echo "$port"
}

./_build/default/bin/mlds_server.exe \
  --port 0 --wal repl-primary.wal --checkpoint-every-bytes 32768 \
  --max-seconds 240 > repl-primary.out 2>&1 &
PRIMARY_PID=$!
PPORT=$(wait_port repl-primary.out)
echo "primary ready on port $PPORT"

threads_of() { sed -n 's/^Threads:[[:space:]]*//p' "/proc/$1/status"; }

# A write and a read first: the primary's WAL flusher and MBDS pool
# workers start on the first of each, before any standby exists.
./_build/default/bench/loadgen.exe --port "$PPORT" --clients 1 --requests 20 \
  --read-pct 50 > loadgen-repl-warm.out 2>&1
THREADS_BEFORE=$(threads_of "$PRIMARY_PID")

./_build/default/bin/mlds_server.exe \
  --port 0 --wal repl-standby.wal --standby-of "127.0.0.1:$PPORT" \
  --max-seconds 240 > repl-standby.out 2>&1 &
STANDBY_PID=$!
SPORT=$(wait_port repl-standby.out)
echo "standby ready on port $SPORT"

# Write-heavy load through the primary with RETRIEVEs routed at the
# standby — stale reads served while the WAL streams. 600 writes make
# ~50 KiB of WAL: past the checkpoint trigger.
./_build/default/bench/loadgen.exe --port "$PPORT" \
  --standby "127.0.0.1:$SPORT" --clients 4 --requests 300 --read-pct 50 \
  > loadgen-repl-smoke.out 2>&1 &
LOADGEN_PID=$!

sleep 1
if ! kill -0 "$LOADGEN_PID" 2>/dev/null; then
  echo "loadgen finished before the mid-run poll; output was:" >&2
  cat loadgen-repl-smoke.out >&2
fi

THREADS_MID=$(threads_of "$PRIMARY_PID")
echo "primary threads: $THREADS_BEFORE before the standby, $THREADS_MID mid-stream"
if [ "$THREADS_MID" -gt "$THREADS_BEFORE" ]; then
  echo "the primary's thread count grew with a standby attached" >&2
  exit 1
fi

# Lag must be visible in mlds_top on both ends while (or right after)
# the stream runs: the primary's per-standby line and the standby's
# apply-progress line.
./_build/default/bin/mlds_top.exe --connect "127.0.0.1:$PPORT" --once \
  | tee mlds_top-repl-primary.out
grep -q "repl 1 standby" mlds_top-repl-primary.out
./_build/default/bin/mlds_top.exe --connect "127.0.0.1:$SPORT" --once \
  | tee mlds_top-repl-standby.out
grep -q "repl standby:" mlds_top-repl-standby.out

wait "$LOADGEN_PID"
cat loadgen-repl-smoke.out

# The log truncated mid-stream, and the standby followed it by LSN: one
# bootstrap (its first), however many checkpoints the primary ran.
./_build/default/bin/mlds_top.exe --connect "127.0.0.1:$PPORT" --once \
  | tee mlds_top-repl-primary.out
CHECKPOINTS=$(sed -n 's/.*checkpoints \([0-9][0-9]*\).*/\1/p' mlds_top-repl-primary.out)
echo "primary checkpoints: $CHECKPOINTS"
if [ -z "$CHECKPOINTS" ] || [ "$CHECKPOINTS" -lt 1 ]; then
  echo "the primary ran no checkpoint: the log never truncated mid-stream" >&2
  exit 1
fi
./_build/default/bin/mlds_top.exe --connect "127.0.0.1:$SPORT" --once \
  | tee mlds_top-repl-standby.out
grep -q "repl standby:.*bootstraps 1\$" mlds_top-repl-standby.out

# Neither server counted an internal error (server.internal_errors), the
# check scripts/server_smoke.sh makes.
for top in mlds_top-repl-primary.out mlds_top-repl-standby.out; do
  if ! grep -q "internal 0 " "$top"; then
    echo "$top: the server counted internal errors (server.internal_errors > 0)" >&2
    kill -TERM "$STANDBY_PID" "$PRIMARY_PID" 2>/dev/null || true
    exit 1
  fi
done

kill -TERM "$STANDBY_PID" "$PRIMARY_PID"
wait "$STANDBY_PID" "$PRIMARY_PID"
grep -q "shutdown complete" repl-primary.out
grep -q "standby of 127.0.0.1:$PPORT" repl-standby.out

# The E18 drill proper: loadgen spawns its own pair, SIGKILLs the
# primary, promotes the standby, and refuses to say OK if any acked
# write went missing. Its directory (WALs, logs) goes when it succeeds,
# so a fresh TMPDIR must be empty afterwards.
tmp="$(mktemp -d)"
TMPDIR="$tmp" ./_build/default/bench/loadgen.exe --scenario failover \
  | tee loadgen-failover.out
grep -q "loadgen failover OK" loadgen-failover.out
if [ -n "$(ls -A "$tmp")" ]; then
  echo "the failover drill left files in TMPDIR:" >&2
  ls -la "$tmp" >&2
  exit 1
fi
rmdir "$tmp"

test -s BENCH_failover.json
python3 scripts/check_bench.py BENCH_failover.json \
  --require loadgen.e18.steady_lag_bytes \
  --require loadgen.e18.failover_s \
  --require loadgen.e18.acked_writes \
  --guard 'm("loadgen.e18.lost_writes") <= 0' \
  --guard 'm("loadgen.e18.acked_writes") >= 1' \
  --guard 'm("loadgen.e18.post_failover_ok") >= 1'

rm -f repl-primary.wal repl-standby.wal repl-standby.wal.boot \
  repl-primary.wal.snapshot

echo "replication smoke OK"
