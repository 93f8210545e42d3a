#!/usr/bin/env bash
# End-to-end smoke of the network service layer against a real server
# process: a client session over TCP, a commit subscription that must
# deliver, then SIGKILL mid-write — the client must fail loudly (nonzero
# exit, not a hang) and a reopen of the data dir must recover every
# acknowledged commit from the WAL tail.
#
# usage: scripts/ci_server_smoke.sh [build-dir]      (default: build)
set -euo pipefail

BUILD=${1:-build}
SERVER="$BUILD/examples/decibel_server"
SHELL_BIN="$BUILD/examples/vquel_shell"
DIR=$(mktemp -d /tmp/decibel_server_smoke.XXXXXX)
SERVER_PID=""
cleanup() {
  # Kill by PID only — a pkill by name would also match this script's
  # own command line (and anything else on a shared CI runner).
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

fail() { echo "ci_server_smoke: $*" >&2; exit 1; }

# --- 1. durable server on an ephemeral port --------------------------------
"$SERVER" --sync fsync --port 0 "$DIR/db" \
    > "$DIR/server.out" 2>&1 &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^decibel_server listening on //p' "$DIR/server.out")
  [ -n "$ADDR" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "server died during startup: $(cat "$DIR/server.out")"
  sleep 0.1
done
[ -n "$ADDR" ] || fail "server never announced its port"
echo "server up at $ADDR (pid $SERVER_PID)"

# --- 2. a full client session over the wire --------------------------------
"$SHELL_BIN" --connect "$ADDR" > "$DIR/session.out" <<'EOF'
INSERT master 1 10 100
INSERT master 2 20 200
COMMIT master
BRANCH dev FROM master
INSERT dev 3 30 300
COMMIT dev
MERGE master dev THREEWAY LEFT
SCAN master
RETIRE dev
INFO
EOF
grep -q "3 | 30 | 300" "$DIR/session.out" || fail "merged row missing from SCAN: $(cat "$DIR/session.out")"
grep -q "active_branches: 1" "$DIR/session.out" || fail "RETIRE did not retire: $(cat "$DIR/session.out")"

# --- 3. commit subscription delivers across connections --------------------
"$SHELL_BIN" --connect "$ADDR" > "$DIR/sub.out" <<'EOF' &
SUBSCRIBE master
\wait-notify 10000
EOF
SUB_PID=$!
sleep 0.5
"$SHELL_BIN" --connect "$ADDR" > /dev/null <<'EOF'
INSERT master 50 5 5
COMMIT master
EOF
wait "$SUB_PID" || fail "subscriber exited nonzero: $(cat "$DIR/sub.out")"
grep -q "notify: commit on branch master" "$DIR/sub.out" \
    || fail "subscription never delivered: $(cat "$DIR/sub.out")"

# --- 4. SIGKILL mid-write: client errors out, nothing hangs ----------------
(
  for i in $(seq 100 10000); do
    printf 'INSERT master %d 1 1\nCOMMIT master\n' "$i"
  done
) | "$SHELL_BIN" --connect "$ADDR" > "$DIR/kill.out" 2>&1 &
CLIENT_PID=$!
sleep 1
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
if wait "$CLIENT_PID"; then
  fail "client exited 0 although the server was SIGKILLed mid-stream"
fi
SERVER_PID=""
grep -q "error:" "$DIR/kill.out" || fail "client reported no error after server kill"

# --- 5. recovery: acknowledged commits survive the kill --------------------
"$SHELL_BIN" "$DIR/db" > "$DIR/recovered.out" <<'EOF'
SCAN master
INSERT master 999999 7 7
COMMIT master
SELECT pk FROM master WHERE pk = 999999
EOF
for pk in 1 2 3 50; do
  grep -q "^${pk} | " "$DIR/recovered.out" \
      || fail "pk $pk lost across SIGKILL + recovery"
done
grep -q "^999999$" "$DIR/recovered.out" || fail "recovered store rejected new writes"

echo "ci_server_smoke: OK"
