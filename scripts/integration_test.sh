#!/usr/bin/env bash
# Live-runtime integration test (docs/runtime.md): boot `anu_serve` — real
# protocol nodes over loopback UDP, timed by the realtime clock — drive the
# scripted client against it, and assert the control loop actually closed:
#
#   * the client got answers for >=90% of its keys (its own PASS gate) and
#     every server routed at least one key;
#   * the server logged at least one successful retune ("retune version="),
#     i.e. reports flowed to the delegate and a new region map came back;
#   * replicas agreed on every logged retune, and both processes exited 0.
#
# Usage: scripts/integration_test.sh [build-dir]     (default: build)
# Environment:
#   ANU_INTEGRATION_PORT     client-facing UDP port (default 0: the server
#                            binds an ephemeral port and prints it, so
#                            concurrent runs cannot collide)
#   ANU_INTEGRATION_LOG_DIR  where serve.log/client.log land
#                            (default <build-dir>/integration-logs; CI
#                            uploads this directory on failure)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
BIN="$BUILD_DIR/examples/anu_serve"
if [ ! -x "$BIN" ]; then
  echo "error: $BIN not found; build it first (cmake --build $BUILD_DIR --target anu_serve)" >&2
  exit 2
fi

PORT="${ANU_INTEGRATION_PORT:-0}"
RUN_SECONDS=6
REQUESTS=150
LOG_DIR="${ANU_INTEGRATION_LOG_DIR:-$BUILD_DIR/integration-logs}"
mkdir -p "$LOG_DIR"
SERVE_LOG="$LOG_DIR/serve.log"
CLIENT_LOG="$LOG_DIR/client.log"

fail() {
  echo "FAIL: $*" >&2
  echo "--- $SERVE_LOG ---" >&2
  cat "$SERVE_LOG" >&2 || true
  echo "--- $CLIENT_LOG ---" >&2
  cat "$CLIENT_LOG" >&2 || true
  exit 1
}

# Server: 3 nodes, 1 s tuning rounds, server 2 four times slower than
# nominal — the asymmetry the tuner must react to within the run.
"$BIN" --servers 3 --port "$PORT" --run-seconds "$RUN_SECONDS" \
  --slow 1,1,4 >"$SERVE_LOG" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# Wait for the ROUTE socket before aiming the client at it.
up=""
for _ in $(seq 1 50); do
  if grep -q "nodes up" "$SERVE_LOG" 2>/dev/null; then up=1; break; fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then break; fi
  sleep 0.1
done
[ -n "$up" ] || fail "server did not come up on port $PORT"
# The server prints the port it actually bound (the ephemeral one for 0).
PORT=$(sed -n 's/.*routing on udp port \([0-9][0-9]*\),.*/\1/p' "$SERVE_LOG")
[ -n "$PORT" ] && [ "$PORT" -ne 0 ] || fail "server did not report its port"

: >"$CLIENT_LOG"
client_exit=0
"$BIN" --client --port "$PORT" --requests "$REQUESTS" >"$CLIENT_LOG" 2>&1 \
  || client_exit=$?

server_exit=0
wait "$SERVER_PID" || server_exit=$?
trap - EXIT

[ "$client_exit" -eq 0 ] || fail "client exited $client_exit"
[ "$server_exit" -eq 0 ] || fail "server exited $server_exit"

# Routed-key accounting: every server took real traffic.
for s in 0 1 2; do
  grep -Eq "server $s routed [1-9][0-9]* keys" "$CLIENT_LOG" \
    || fail "server $s routed no keys"
done

# At least one live retune happened, and replicas agreed on each one.
grep -q "retune version=" "$SERVE_LOG" \
  || fail "no retune was logged in $RUN_SECONDS s"
if grep "retune version=" "$SERVE_LOG" | grep -vq "agree=yes"; then
  fail "replicas disagreed on a logged retune"
fi

retunes=$(grep -c "retune version=" "$SERVE_LOG")
echo "integration test PASS: $retunes retunes, logs in $LOG_DIR"
