#!/usr/bin/env bash
# Runs the gated benches in --quick mode and collects their BENCH_JSON
# lines into BENCH_table{1,2,3}.json and BENCH_serve.json (one JSON
# object per line).
#
#   bench/collect_bench.sh [BUILD_DIR] [OUT_DIR]
#
# BUILD_DIR defaults to ./build, OUT_DIR to the repo root (where the
# committed baselines live); OUT_DIR is created when missing.
# CARL_THREADS is honored; the committed baselines were collected
# single-threaded (CARL_THREADS=1) so they are comparable across
# machines with different core counts.
#
# Compare a fresh collection against the committed baselines with
#   python3 bench/check_bench_regression.py <fresh_dir> <baseline_dir>

set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-$(cd "$(dirname "$0")/.." && pwd)}"
mkdir -p "$OUT_DIR"

# name:binary pairs; each bench's BENCH_JSON lines land in
# $OUT_DIR/BENCH_<name>.json.
COLLECT=(
  "table1:bench_table1_unit_table"
  "table2:bench_table2_runtime"
  "table3:bench_table3_real_queries"
  "serve:bench_serve"
)

for pair in "${COLLECT[@]}"; do
  name="${pair%%:*}"
  bin="${pair#*:}"
  exe="$BUILD_DIR/$bin"
  if [[ ! -x "$exe" ]]; then
    echo "missing bench binary: $exe (build with -DCARL_BUILD_BENCH=ON)" >&2
    exit 1
  fi
  out="$OUT_DIR/BENCH_$name.json"
  echo "== $bin --quick -> $out"
  # Run the bench to a scratch file and check its exit code explicitly:
  # piping straight into sed can leave a truncated output file behind a
  # crashed bench, and makes the failure surface as a confusing parse
  # error downstream instead of the bench's own status.
  raw="$(mktemp)"
  trap 'rm -f "$raw"' EXIT
  status=0
  "$exe" --quick > "$raw" || status=$?
  if [[ "$status" -ne 0 ]]; then
    echo "$bin --quick failed with exit code $status" >&2
    exit "$status"
  fi
  sed -n 's/^BENCH_JSON //p' "$raw" > "$out"
  rm -f "$raw"
  test -s "$out" || { echo "no BENCH_JSON lines from $bin" >&2; exit 1; }
done
echo "collected: $OUT_DIR/BENCH_{table1,table2,table3,serve}.json"
