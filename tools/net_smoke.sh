#!/usr/bin/env sh
# Multi-process smoke for the net layer. After flag-rejection checks for
# dubhe_node and dubhe_run, one dubhe_node aggregator plus three client
# processes complete a persistent 3-round secure session (registration
# once, then round-begin / proactive participation / selection / training
# per round) over localhost sockets, and the resulting session transcript
# must be byte-identical to the in-process --selftest transcript (which
# itself asserts direct == loopback).
# Usage: tools/net_smoke.sh [build-dir]
set -eu

# Hang safety: a deadlocked event loop or a stuck session must fail the CI
# job in minutes, not stall it until the runner limit. Re-exec the whole
# smoke under coreutils timeout when available (override via
# NET_SMOKE_TIMEOUT, seconds).
SMOKE_TIMEOUT="${NET_SMOKE_TIMEOUT:-300}"
if [ -z "${NET_SMOKE_TIMEOUT_APPLIED:-}" ] && command -v timeout >/dev/null 2>&1; then
  NET_SMOKE_TIMEOUT_APPLIED=1 exec timeout "$SMOKE_TIMEOUT" "$0" "$@"
fi

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
NODE="$BUILD/dubhe_node"
[ -x "$NODE" ] || { echo "error: $NODE not built" >&2; exit 1; }

ROUNDS=3
TMP="$(mktemp -d)"
PIDS=""
# On any exit, reap every dubhe_node we spawned — a half-failed run must not
# leave an aggregator blocked in accept() behind.
cleanup() {
  for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

# Flag rejection: a malformed numeric value must stop dubhe_node before it
# opens a socket, with exit 2 (usage error) and no port file published.
# Each value below is one that a bare strtoull/atoi/strtod read used to
# accept: trailing junk, NaN, a port past 65535, a non-number, a negative id.
# A value that slips through would leave a server waiting for clients, so
# each case runs under a 10 s bound when coreutils timeout is available.
echo "== dubhe_node flag rejection (bad numeric values exit 2, no port file) =="
BOUND=""
command -v timeout >/dev/null 2>&1 && BOUND="timeout 10"
reject() {
  rm -f "$TMP/reject.port"
  rc=0
  $BOUND "$NODE" "$@" --port-file "$TMP/reject.port" > /dev/null 2>&1 || rc=$?
  if [ "$rc" != 2 ] || [ -e "$TMP/reject.port" ]; then
    echo "error: dubhe_node $* exited $rc (want 2 and no port file)" >&2
    exit 1
  fi
}
reject --server --clients 3 --port 0 --k 2junk
reject --server --clients 3 --port 0 --he-rate nan
reject --server --clients 3 --port 70000
reject --role shard --shards 2 --shard-id junk --clients 3 --port 0 \
       --shard-of "$TMP/root.port"
reject --client --id -1 --clients 3
echo "net smoke OK: malformed numeric flags are rejected before any socket opens"

# dubhe_run rejects the same way: a non-finite real, a dropout outside
# [0, 1], or a configuration the partition cannot build (rho below 1, emd
# outside [0, 2), zero samples) exits 2, never runs to completion or aborts.
RUN="$BUILD/dubhe_run"
[ -x "$RUN" ] || { echo "error: $RUN not built" >&2; exit 1; }
echo "== dubhe_run flag rejection (bad reals and unbuildable configs exit 2) =="
reject_run() {
  rc=0
  $BOUND "$RUN" --clients 20 --k 2 --rounds 1 --samples 16 "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" != 2 ]; then
    echo "error: dubhe_run $* exited $rc (want 2)" >&2
    exit 1
  fi
}
reject_run --rho nan
reject_run --lr inf
reject_run --dropout 2
reject_run --emd -3
reject_run --samples 0
echo "net smoke OK: dubhe_run rejects bad reals and unbuildable configs with exit 2"

echo "== dubhe_node multi-process smoke (1 server + 3 clients, $ROUNDS rounds over localhost) =="
# --workers 2 shards the three connections across two event-loop workers;
# the transcript diff below proves sharding is transcript-invisible.
"$NODE" --server --clients 3 --rounds "$ROUNDS" --workers 2 --port 0 \
        --port-file "$TMP/port" --transcript "$TMP/server.txt" &
SERVER_PID=$!
PIDS="$SERVER_PID"

CLIENT_PIDS=""
for i in 0 1 2; do
  "$NODE" --client --id "$i" --clients 3 --rounds "$ROUNDS" --port-file "$TMP/port" &
  CLIENT_PIDS="$CLIENT_PIDS $!"
  PIDS="$PIDS $!"
done

for pid in $CLIENT_PIDS; do
  wait "$pid" || { echo "error: a client process failed" >&2; exit 1; }
done
wait "$SERVER_PID" || { echo "error: the server process failed" >&2; exit 1; }
PIDS=""

"$NODE" --selftest --clients 3 --rounds "$ROUNDS" --transcript "$TMP/selftest.txt" > /dev/null

echo "== transcript check (multi-process vs in-process, $ROUNDS rounds) =="
diff "$TMP/server.txt" "$TMP/selftest.txt"
echo "net smoke OK: $ROUNDS-round session transcripts are byte-identical"

# Second leg: packed-first wire (the default) carrying selectively encrypted
# model updates — half the coordinates as packed ciphertexts
# (kModelUpdateSparse). Same invariant: the multi-process transcript must
# equal the in-process selftest byte for byte.
echo "== dubhe_node packed + he-rate 0.5 smoke (1 server + 3 clients, $ROUNDS rounds) =="
rm -f "$TMP/port"
"$NODE" --server --clients 3 --rounds "$ROUNDS" --workers 2 --he-rate 0.5 --port 0 \
        --port-file "$TMP/port" --transcript "$TMP/server_he.txt" &
SERVER_PID=$!
PIDS="$SERVER_PID"

CLIENT_PIDS=""
for i in 0 1 2; do
  "$NODE" --client --id "$i" --clients 3 --rounds "$ROUNDS" --he-rate 0.5 \
          --port-file "$TMP/port" &
  CLIENT_PIDS="$CLIENT_PIDS $!"
  PIDS="$PIDS $!"
done

for pid in $CLIENT_PIDS; do
  wait "$pid" || { echo "error: a client process failed (he-rate leg)" >&2; exit 1; }
done
wait "$SERVER_PID" || { echo "error: the server process failed (he-rate leg)" >&2; exit 1; }
PIDS=""

"$NODE" --selftest --clients 3 --rounds "$ROUNDS" --he-rate 0.5 \
        --transcript "$TMP/selftest_he.txt" > /dev/null

echo "== transcript check (packed + he-rate 0.5, multi-process vs in-process) =="
diff "$TMP/server_he.txt" "$TMP/selftest_he.txt"
echo "net smoke OK: selective-encryption session transcripts are byte-identical"

# Third leg: churn. Client 1 runs a scripted fault plan that kills it on its
# second participation frame (round 1). The session must still complete all
# rounds over the two survivors, the server transcript must carry exactly
# the typed quarantine record, and — because faults trigger on frame
# content, never timing — the multi-process transcript must be byte-equal
# to the in-process churn selftest (loopback == TCP) under the same plan.
PLAN="disconnect@participation:1"
echo "== dubhe_node churn smoke (client 1 dies mid-session: $PLAN) =="
rm -f "$TMP/port"
"$NODE" --server --clients 3 --rounds "$ROUNDS" --workers 2 --port 0 \
        --port-file "$TMP/port" --transcript "$TMP/server_churn.txt" &
SERVER_PID=$!
PIDS="$SERVER_PID"

CLIENT_PIDS=""
for i in 0 1 2; do
  if [ "$i" = 1 ]; then
    "$NODE" --client --id "$i" --clients 3 --rounds "$ROUNDS" \
            --fault-plan "$PLAN" --port-file "$TMP/port" &
  else
    "$NODE" --client --id "$i" --clients 3 --rounds "$ROUNDS" \
            --port-file "$TMP/port" &
  fi
  CLIENT_PIDS="$CLIENT_PIDS $!"
  PIDS="$PIDS $!"
done

# The faulty client exits 0 too: its scripted death is the plan working.
for pid in $CLIENT_PIDS; do
  wait "$pid" || { echo "error: a client process failed (churn leg)" >&2; exit 1; }
done
wait "$SERVER_PID" || { echo "error: the server process failed (churn leg)" >&2; exit 1; }
PIDS=""

"$NODE" --selftest --clients 3 --rounds "$ROUNDS" --fault-plan "$PLAN" \
        --fault-client 1 --transcript "$TMP/selftest_churn.txt" > /dev/null

echo "== transcript check (churn, multi-process vs in-process) =="
diff "$TMP/server_churn.txt" "$TMP/selftest_churn.txt"
grep -q "quarantined=client:1 round:1 phase:participation reason:disconnect" \
  "$TMP/server_churn.txt" || {
  echo "error: expected quarantine record missing from churn transcript" >&2; exit 1; }
echo "net smoke OK: churn session survived, quarantine records are byte-identical"

# Fourth leg: live metrics. The server exposes the /metrics admin endpoint
# (--metrics-port 0 = ephemeral, published via --metrics-port-file) and
# client 1 runs zombie@shutdown — it swallows the shutdown ack, so the
# server sits in its 5 s drain window with every session frame already
# exchanged. That window is the deterministic scrape target: curl must see
# non-zero dubhe_frames_total and the (pre-registered) dubhe_quarantine_total
# family in valid Prometheus text WHILE the session is still live. Telemetry
# is strictly out-of-band, so the transcript must still be byte-identical to
# the in-process selftest under the same fault plan.
PLAN="zombie@shutdown"
echo "== dubhe_node live-metrics smoke (/metrics scraped mid-session: $PLAN) =="
rm -f "$TMP/port" "$TMP/mport"
"$NODE" --server --clients 3 --rounds "$ROUNDS" --workers 2 --port 0 \
        --port-file "$TMP/port" --metrics-port 0 --metrics-port-file "$TMP/mport" \
        --transcript "$TMP/server_metrics.txt" &
SERVER_PID=$!
PIDS="$SERVER_PID"

CLIENT_PIDS=""
for i in 0 1 2; do
  if [ "$i" = 1 ]; then
    "$NODE" --client --id "$i" --clients 3 --rounds "$ROUNDS" \
            --fault-plan "$PLAN" --port-file "$TMP/port" &
  else
    "$NODE" --client --id "$i" --clients 3 --rounds "$ROUNDS" \
            --port-file "$TMP/port" &
  fi
  CLIENT_PIDS="$CLIENT_PIDS $!"
  PIDS="$PIDS $!"
done

# Scrape while the server is alive: retry until frames have flowed (the
# drain window gives ~5 s of guaranteed-live server after the last frame).
SCRAPED=0
tries=0
while [ "$tries" -lt 80 ]; do
  tries=$((tries + 1))
  if [ -s "$TMP/mport" ] && \
     curl -sf "http://127.0.0.1:$(cat "$TMP/mport")/metrics" > "$TMP/scrape.txt" 2>/dev/null && \
     grep -q '^dubhe_frames_total{dir="in"} [1-9]' "$TMP/scrape.txt"; then
    SCRAPED=1
    break
  fi
  sleep 0.1
done
[ "$SCRAPED" = 1 ] || {
  echo "error: never scraped non-zero dubhe_frames_total from the live server" >&2
  exit 1; }
grep -q '^# TYPE dubhe_frames_total counter$' "$TMP/scrape.txt" || {
  echo "error: scrape is not valid Prometheus text (missing TYPE line)" >&2; exit 1; }
grep -q '^dubhe_quarantine_total{reason="timeout"} ' "$TMP/scrape.txt" || {
  echo "error: dubhe_quarantine_total family missing from live scrape" >&2; exit 1; }
grep -q '^dubhe_phase_seconds_bucket{phase="registration",le="+Inf"} [1-9]' \
  "$TMP/scrape.txt" || {
  echo "error: per-phase histogram missing from live scrape" >&2; exit 1; }
# The aggregator's crypto ops are homomorphic add + decrypt (clients do the
# encrypting in their own processes).
grep -q '^# TYPE dubhe_paillier_decrypt_total counter$' "$TMP/scrape.txt" || {
  echo "error: crypto op counters missing from live scrape" >&2; exit 1; }
grep -q '^dubhe_paillier_add_total [1-9]' "$TMP/scrape.txt" || {
  echo "error: homomorphic-add counter missing from live scrape" >&2; exit 1; }

# The zombie client exits 0: ignoring shutdown is its scripted plan.
for pid in $CLIENT_PIDS; do
  wait "$pid" || { echo "error: a client process failed (metrics leg)" >&2; exit 1; }
done
wait "$SERVER_PID" || { echo "error: the server process failed (metrics leg)" >&2; exit 1; }
PIDS=""

"$NODE" --selftest --clients 3 --rounds "$ROUNDS" --fault-plan "$PLAN" \
        --fault-client 1 --transcript "$TMP/selftest_metrics.txt" > /dev/null

echo "== transcript check (live metrics on vs telemetry-off selftest) =="
diff "$TMP/server_metrics.txt" "$TMP/selftest_metrics.txt"
echo "net smoke OK: /metrics served mid-session, transcript still byte-identical"

# Fifth leg: the aggregation tree as real processes — 1 root + 2 shard
# aggregators + 4 clients (wire v7, --role root/shard). Each shard owns a
# contiguous half of the cohort: clients 0,1 dial shard 0; clients 2,3 dial
# shard 1; the shards dial the root. The tree only re-parenthesizes the
# homomorphic reductions, so the root's transcript must be byte-identical
# to the flat in-process --selftest on the same flags.
echo "== dubhe_node tree smoke (1 root + 2 shards + 4 clients, $ROUNDS rounds) =="
rm -f "$TMP/port"
"$NODE" --role root --clients 4 --shards 2 --rounds "$ROUNDS" --port 0 \
        --port-file "$TMP/root.port" --transcript "$TMP/root.txt" &
ROOT_PID=$!
PIDS="$ROOT_PID"

SHARD_PIDS=""
for s in 0 1; do
  "$NODE" --role shard --shard-id "$s" --shards 2 --clients 4 --rounds "$ROUNDS" \
          --port 0 --port-file "$TMP/shard$s.port" --shard-of "$TMP/root.port" &
  SHARD_PIDS="$SHARD_PIDS $!"
  PIDS="$PIDS $!"
done

CLIENT_PIDS=""
for i in 0 1 2 3; do
  s=$((i / 2))  # shard_range(4, 2, s): shard 0 owns {0,1}, shard 1 owns {2,3}
  "$NODE" --client --id "$i" --clients 4 --rounds "$ROUNDS" \
          --port-file "$TMP/shard$s.port" &
  CLIENT_PIDS="$CLIENT_PIDS $!"
  PIDS="$PIDS $!"
done

for pid in $CLIENT_PIDS; do
  wait "$pid" || { echo "error: a client process failed (tree leg)" >&2; exit 1; }
done
for pid in $SHARD_PIDS; do
  wait "$pid" || { echo "error: a shard aggregator failed (tree leg)" >&2; exit 1; }
done
wait "$ROOT_PID" || { echo "error: the root aggregator failed (tree leg)" >&2; exit 1; }
PIDS=""

"$NODE" --selftest --clients 4 --rounds "$ROUNDS" --transcript "$TMP/selftest_tree.txt" \
        > /dev/null

echo "== transcript check (2-level tree vs flat in-process) =="
diff "$TMP/root.txt" "$TMP/selftest_tree.txt"
echo "net smoke OK: tree and flat transcripts are byte-identical"
