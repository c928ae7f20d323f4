#!/usr/bin/env bash
# Paper-bench stdout gate: runs the twelve figure/table benches (Fig. 1,
# Figs. 6-12, Tables 1-4) at one seed per arm and diffs each one's stdout
# against testdata/paper_benches/<bench>.txt. A change that moves any
# printed number of a paper figure or table fails here.
#
# Usage: scripts/check_paper_benches.sh [build_dir]   (default: build)
#
# After a deliberate change to a paper bench's output, regenerate the
# expected files with the same settings and say why in CHANGES.md:
#   SPOTHOST_RUNS=1 build/bench/<bench> > testdata/paper_benches/<bench>.txt
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
EXPECTED=testdata/paper_benches

BENCHES=(
  bench_fig01_price_traces
  bench_fig06_proactive_vs_reactive
  bench_fig07_migration_mechanisms
  bench_fig08_multimarket
  bench_fig09_multiregion
  bench_fig10_price_stddev
  bench_fig11_pure_spot
  bench_fig12_tpcw_overhead
  bench_table1_startup_times
  bench_table2_migration_overheads
  bench_table3_summary
  bench_table4_io_overhead
)

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

status=0
for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  [ -x "$bin" ] || { echo "missing binary: $bin (build first)"; exit 1; }
  env -u SPOTHOST_SEED SPOTHOST_RUNS=1 "$bin" >"$TMP/$bench.txt"
  if diff -u "$EXPECTED/$bench.txt" "$TMP/$bench.txt"; then
    echo "OK: $bench"
  else
    echo "FAIL: $bench stdout differs from $EXPECTED/$bench.txt"
    status=1
  fi
done
exit "$status"
