#!/usr/bin/env bash
# CI server smoke: boot a real mlds_server, drive it with loadgen over a
# socket, check on an mlds_top frame that no request raised inside the
# server (server.internal_errors stays 0), then check graceful shutdown
# checkpointed the WAL.
#
# The server binds port 0 (an OS-assigned ephemeral port) and prints the
# actual port in its readiness line — a hardcoded port can collide on a
# busy runner. We parse the port back out of the line.
set -euo pipefail

cd "$(dirname "$0")/.."

opam exec -- dune build bin/mlds_server.exe bin/mlds_top.exe bench/loadgen.exe 2>/dev/null \
  || dune build bin/mlds_server.exe bin/mlds_top.exe bench/loadgen.exe

rm -f server.out mlds_top-smoke.out ci-university.wal ci-university.wal.snapshot
./_build/default/bin/mlds_server.exe \
  --port 0 --wal "$PWD/ci-university.wal" > server.out 2>&1 &
SERVER_PID=$!

PORT=""
for _ in $(seq 1 50); do
  PORT=$(sed -n 's/.*listening on [^:]*:\([0-9][0-9]*\).*/\1/p' server.out | head -n 1)
  [ -n "$PORT" ] && break
  sleep 0.2
done
if [ -z "$PORT" ]; then
  echo "server never became ready:" >&2
  cat server.out >&2
  kill "$SERVER_PID" 2>/dev/null || true
  exit 1
fi
echo "server ready on port $PORT"

./_build/default/bench/loadgen.exe --port "$PORT" \
  --clients 4 --requests 25 --json BENCH_pr4.json | tee loadgen-smoke.out

./_build/default/bin/mlds_top.exe --connect "127.0.0.1:$PORT" --once \
  | tee mlds_top-smoke.out
if ! grep -q "internal 0 " mlds_top-smoke.out; then
  echo "the server counted internal errors (server.internal_errors > 0)" >&2
  kill -TERM "$SERVER_PID" 2>/dev/null || true
  exit 1
fi

kill -TERM "$SERVER_PID"
wait "$SERVER_PID"
cat server.out
grep -q "shutdown complete" server.out
test -s ci-university.wal.snapshot
echo "server smoke OK"
