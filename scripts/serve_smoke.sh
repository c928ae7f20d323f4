#!/usr/bin/env bash
# Serve-mode smoke test, run in CI after the build:
#
#   1. Parity: spothost_serve --mode sim and --mode replay over the bundled
#      one-hour feed snippet must emit byte-identical decision JSONL — the
#      same simulation and policy layer, fed once by pre-loaded price traces
#      and once by the live feed driver pushing the file's rows.
#   2. Liveness: --mode tail against a CSV that a background writer is still
#      appending to must deliver every update and keep the measured
#      feed-to-market delivery latency under a bound.
#   3. Strict numbers: a malformed --seed or --speed exits 2 with usage.
#
# Usage: scripts/serve_smoke.sh [build_dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
SERVE="$BUILD_DIR/examples/spothost_serve"
FEED=testdata/serve_feed_1h.csv
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

[ -x "$SERVE" ] || { echo "missing binary: $SERVE (build first)"; exit 1; }

echo "== parity: trace-fed sim vs feed-driven replay over $FEED =="
"$SERVE" --feed "$FEED" --mode sim --out "$TMP/sim.jsonl" 2>"$TMP/sim.log"
"$SERVE" --feed "$FEED" --mode replay --speed max --out "$TMP/replay.jsonl" \
  2>"$TMP/replay.log"
if ! diff -u "$TMP/sim.jsonl" "$TMP/replay.jsonl"; then
  echo "FAIL: replay decision stream diverges from simulation"
  exit 1
fi
decisions=$(wc -l <"$TMP/sim.jsonl")
if [ "$decisions" -lt 5 ]; then
  echo "FAIL: only $decisions decisions — snippet should force migrations"
  exit 1
fi
echo "OK: $decisions decisions, byte-identical across both price paths"

echo "== liveness: tail a growing feed =="
GROW="$TMP/grow.csv"
: >"$GROW"
(
  for i in 1 2 3 4 5 6 7 8; do
    echo "$((i * 2000)),us-east-1a/small,0.01$i" >>"$GROW"
    sleep 0.25
  done
  echo "end,20000" >>"$GROW"
) &
writer=$!
"$SERVE" --feed "$GROW" --mode tail --speed max --out "$TMP/tail.jsonl" \
  --max-wall-s 30 2>"$TMP/tail.log"
wait "$writer"

cat "$TMP/tail.log"
latency=$(sed -n 's/^serve: max_delivery_latency_ms=//p' "$TMP/tail.log")
[ -n "$latency" ] || { echo "FAIL: no latency line in tail output"; exit 1; }
# Bound: one poll interval plus generous CI scheduling slack.
if [ "$latency" -gt 2000 ]; then
  echo "FAIL: delivery latency ${latency}ms exceeds 2000ms bound"
  exit 1
fi
updates=$(sed -n 's/.* updates=\([0-9]*\).*/\1/p' "$TMP/tail.log")
# 8 rows: the first primes the market, 7 are deliveries.
if [ "$updates" -lt 7 ]; then
  echo "FAIL: only $updates updates delivered from the growing feed"
  exit 1
fi
echo "OK: tailed $updates updates, max delivery latency ${latency}ms"

echo "== strict numbers: malformed values exit 2 =="
for bad in "--seed abc" "--seed -1" "--speed 2x"; do
  # shellcheck disable=SC2086  # split "--flag value" into two words
  if "$SERVE" --feed "$FEED" --mode sim --out "$TMP/bad.jsonl" $bad \
      2>"$TMP/bad.log"; then
    status=0
  else
    status=$?
  fi
  if [ "$status" -ne 2 ] || ! grep -q '^usage:' "$TMP/bad.log"; then
    echo "FAIL: '$bad' exited $status, expected 2 with usage"
    cat "$TMP/bad.log"
    exit 1
  fi
done
echo "OK: malformed --seed/--speed rejected with usage"
