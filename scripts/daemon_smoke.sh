#!/usr/bin/env bash
# End-to-end smoke test of ftnetd: start the daemon, report faults over
# the wire, fetch the committed embedding, snapshot to disk, restart
# from the snapshot, and demand a bit-identical embedding response from
# the restored daemon; an asynchronous repair must be committed by the
# flush timer. A final chaos leg restarts the daemon with fault
# injection (-chaos: latency + 5xx bursts) and proves the SDK-based
# client still converges, with the injection and error-code counters
# visible on /metrics. Run by the CI "daemon-smoke" job; needs curl.
#
# Usage: scripts/daemon_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-8371}"
ADDR="127.0.0.1:$PORT"
BASE="http://$ADDR/v1/topologies/main"
WORK="$(mktemp -d)"
BIN="$WORK/ftnet"
PID=""
cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/ftnet

start_daemon() {
  "$BIN" serve -listen "$ADDR" -snapshot-dir "$WORK/snapshots" \
    -topology id=main,d=2,side=64,eps=0.5 &
  PID=$!
  for i in $(seq 1 100); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "daemon did not become healthy" >&2
  exit 1
}

echo "== start =="
start_daemon
curl -fsS "http://$ADDR/healthz"; echo

echo "== report faults =="
curl -fsS -X POST "$BASE/faults" -d '{"nodes":[17,5000,20011,33333]}'; echo
curl -fsS -X DELETE "$BASE/faults" -d '{"nodes":[5000]}'; echo

echo "== report edge faults (Theorem 2's link-flap model) =="
# `ftnet edges` prints real host edges for this topology; the endpoint
# rejects anything else, all-or-nothing.
EDGES="$("$BIN" edges -d 2 -side 64 -eps 0.5 -count 2)"
curl -fsS -X POST "$BASE/edge-faults" -d "{\"edges\":$EDGES}"; echo
STATUS="$(curl -sS -o /dev/null -w '%{http_code}' -X POST "$BASE/edge-faults" -d '{"edges":[[7,7]]}' || true)"
if [ "$STATUS" != "400" ]; then
  echo "self-loop edge batch returned $STATUS, want 400" >&2
  exit 1
fi

echo "== fetch committed embedding =="
curl -fsS "$BASE/embedding" -o "$WORK/emb_before.json"

echo "== snapshot =="
curl -fsS -X POST "$BASE/snapshot"; echo
test -f "$WORK/snapshots/main.json"

echo "== restart from snapshot =="
kill "$PID"; wait "$PID" 2>/dev/null || true; PID=""
start_daemon

echo "== diff restored embedding against the pre-restart one =="
curl -fsS "$BASE/embedding" -o "$WORK/emb_after.json"
if ! cmp -s "$WORK/emb_before.json" "$WORK/emb_after.json"; then
  echo "restored embedding differs from the pre-restart one:" >&2
  ls -l "$WORK"/emb_*.json >&2
  exit 1
fi
# The edge-fault set must have survived the restart too (the diff above
# already proves it bit-identically; this guards against both sides
# being empty) and be visible on the gauge.
if ! grep -q '"edge_faults":\[\[' "$WORK/emb_after.json"; then
  echo "restored embedding lost the edge-fault set" >&2
  exit 1
fi
if ! curl -fsS "http://$ADDR/metrics" | grep -q 'ftnetd_edge_faults{topology="main"} 2'; then
  echo "ftnetd_edge_faults gauge does not show the restored population" >&2
  exit 1
fi

echo "== binary wire: full snapshot decodes to the same JSON =="
WIRE_ACCEPT='Accept: application/x-ftnet-wire'
curl -fsS -H "$WIRE_ACCEPT" "$BASE/embedding" -o "$WORK/full.bin"
"$BIN" wire -in "$WORK/full.bin" >"$WORK/full_decoded.json"
if ! cmp -s "$WORK/emb_after.json" "$WORK/full_decoded.json"; then
  echo "binary full snapshot decodes differently from the JSON embedding:" >&2
  ls -l "$WORK/emb_after.json" "$WORK/full_decoded.json" >&2
  exit 1
fi

echo "== evicted generation answers 410 Gone, never stale data =="
# The delta ring does not survive a restart: any generation older than
# the restored head must be told to resync, not silently served.
GEN="$(sed -n 's/.*"generation":\([0-9]*\).*/\1/p' "$WORK/emb_after.json")"
STATUS="$(curl -sS -o /dev/null -w '%{http_code}' -H "$WIRE_ACCEPT" "$BASE/embedding?since=$((GEN-1))" || true)"
if [ "$STATUS" != "410" ]; then
  echo "since=$((GEN-1)) after restart returned $STATUS, want 410" >&2
  exit 1
fi

echo "== binary wire: delta since the pre-mutation generation =="
# The first post-restart evaluation is a cold rebuild (a resync
# boundary in the ring), so warm the session with one mutation, take
# the full baseline there, then mutate again and fetch the delta.
curl -fsS -X POST "$BASE/faults" -d '{"nodes":[40404]}'; echo
curl -fsS "$BASE/embedding" -o "$WORK/emb_mid.json"
curl -fsS -H "$WIRE_ACCEPT" "$BASE/embedding" -o "$WORK/full_mid.bin"
GEN_MID="$(sed -n 's/.*"generation":\([0-9]*\).*/\1/p' "$WORK/emb_mid.json")"
curl -fsS -X POST "$BASE/faults" -d '{"nodes":[41414]}'; echo
curl -fsS "$BASE/embedding" -o "$WORK/emb_head.json"
curl -fsS -H "$WIRE_ACCEPT" "$BASE/embedding?since=$GEN_MID" -o "$WORK/delta.bin"
"$BIN" wire -in "$WORK/delta.bin" -base "$WORK/full_mid.bin" >"$WORK/delta_decoded.json"
if ! cmp -s "$WORK/emb_head.json" "$WORK/delta_decoded.json"; then
  echo "delta-applied embedding differs from the served head JSON:" >&2
  ls -l "$WORK/emb_head.json" "$WORK/delta_decoded.json" >&2
  exit 1
fi

echo "== async repair: the flush timer evaluates a ?wait=0 batch =="
# Repairing 41414 returns the topology to the fault set committed at
# GEN_MID, so the evaluation is tolerated whatever the fault geometry,
# and the default 250 ms flush timer must commit a new generation. The
# batch changes the fault set, so the generation rises even if a batch
# that changes nothing stops publishing one.
GEN_HEAD="$(sed -n 's/.*"generation":\([0-9]*\).*/\1/p' "$WORK/emb_head.json")"
STATUS="$(curl -sS -o /dev/null -w '%{http_code}' -X DELETE "$BASE/faults?wait=0" -d '{"nodes":[41414]}' || true)"
if [ "$STATUS" != "202" ]; then
  echo "async repair returned $STATUS, want 202" >&2
  exit 1
fi
GEN_NOW="$GEN_HEAD"
for i in $(seq 1 50); do
  GEN_NOW="$(curl -fsS "$BASE" | sed -n 's/.*"generation":\([0-9]*\).*/\1/p')"
  [ "$GEN_NOW" -gt "$GEN_HEAD" ] && break
  sleep 0.1
done
if [ "$GEN_NOW" -le "$GEN_HEAD" ]; then
  echo "async repair not evaluated within 5 s: generation $GEN_NOW, was $GEN_HEAD" >&2
  exit 1
fi

echo "== malformed since is a caller error =="
STATUS="$(curl -sS -o /dev/null -w '%{http_code}' -H "$WIRE_ACCEPT" "$BASE/embedding?since=-1" || true)"
if [ "$STATUS" != "400" ]; then
  echo "since=-1 returned $STATUS, want 400" >&2
  exit 1
fi

echo "== batching + delta metrics =="
curl -fsS "http://$ADDR/metrics" | grep -E 'ftnetd_(reembed_total|batch_mutations|delta_requests)' || true

echo "== chaos: the SDK client converges while the daemon injects faults =="
kill "$PID"; wait "$PID" 2>/dev/null || true; PID=""
CHAOS_ADDR="127.0.0.1:$((PORT+1))"
"$BIN" serve -listen "$CHAOS_ADDR" \
  -topology id=main,d=2,side=64,eps=0.5 \
  -chaos 'latency-p=0.4,latency=5ms,error-p=0.3,seed=7' &
PID=$!
for i in $(seq 1 100); do
  curl -fsS "http://$CHAOS_ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
# examples/daemon is built on the resilient SDK (ftnet/client): it
# reports faults, syncs the checksum-verified embedding, follows the
# watch stream and repairs. Exit 0 is the convergence proof — every
# request ran the injected-503/latency gauntlet under the SDK's typed
# retry policy, and the final state verified against the daemon's
# checksum.
go run ./examples/daemon -addr "http://$CHAOS_ADDR" -topology main

echo "== chaos: injection and error-code counters on /metrics =="
CHAOS_METRICS="$(curl -fsS "http://$CHAOS_ADDR/metrics")"
echo "$CHAOS_METRICS" | grep -E 'ftnetd_(chaos_injections|errors)_total' || true
if ! echo "$CHAOS_METRICS" | grep -qE 'ftnetd_chaos_injections_total\{kind="(latency|error)"\} [1-9]'; then
  echo "chaos daemon injected nothing (all injection counters zero)" >&2
  exit 1
fi
if ! echo "$CHAOS_METRICS" | grep -q 'ftnetd_errors_total{code="unavailable"}'; then
  echo "typed error-code counters missing from /metrics" >&2
  exit 1
fi

echo "daemon smoke: OK (embedding survived the restart bit-identically; binary full and delta wires agree with JSON; SDK converged under chaos)"
