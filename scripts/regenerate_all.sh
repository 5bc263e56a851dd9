#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation, in
# order, writing each binary's output to results/<id>.txt.
#
# Usage: scripts/regenerate_all.sh [duration_secs] [seed]
#
# The grid-based binaries run their cells on the parallel harness;
# set PROTEAN_THREADS to pin the worker-thread count (defaults to the
# machine's available parallelism):
#
#   PROTEAN_THREADS=8 scripts/regenerate_all.sh 120 42
set -euo pipefail
cd "$(dirname "$0")/.."

DURATION="${1:-120}"
SEED="${2:-42}"
OUT=results
mkdir -p "$OUT"

echo "threads: ${PROTEAN_THREADS:-auto (available parallelism)}"
START_EPOCH=$(date +%s)

cargo build --release -p protean-experiments
cargo build --release -p protean-cli

BINARIES=(
  fig02_motivation
  fig03_fbr_catalog
  fig04_architecture
  table2_mig_profiles
  table3_spot_pricing
  fig05_slo_vision
  fig06_latency_breakdown
  fig07_reconfig_timeline
  fig08_latency_cdf
  fig09_cost_slo
  fig10_throughput_util
  fig11_twitter
  fig12_vhi_llm
  fig13_gpt
  fig14_skewed_ratios
  table4_all_strict
  table5_all_be
  fig15_tight_slo
  fig16_gpulet
  fig17_oracle
  ablations
  sweep_load
  future_be_tail
)

# A binary that fails to build (or was renamed without updating this
# list) must abort the regeneration, not silently skip its artifact.
require_bin() {
  if [[ ! -x "./target/release/$1" ]]; then
    echo "FATAL: binary '$1' is missing from target/release/ — build failed or the binary was renamed" >&2
    exit 1
  fi
}

for bin in "${BINARIES[@]}" stats_significance; do
  require_bin "$bin"
done

for bin in "${BINARIES[@]}"; do
  echo ">>> $bin"
  ./target/release/"$bin" "$DURATION" "$SEED" >"$OUT/$bin.txt" 2>/dev/null
done

# stats_significance takes [duration_secs] [n_seeds].
echo ">>> stats_significance"
./target/release/stats_significance 60 10 >"$OUT/stats_significance.txt" 2>/dev/null

# Benchmark driver: every named workload's end-to-end metrics (median
# over fresh child processes, fingerprint checked against the seed-42
# pin), one text report per workload.
for w in soak-256 wiki-spot-2048 pulse-2048 planetary-50k; do
  echo ">>> perf $w"
  cargo run --release -q --offline --manifest-path perf/Cargo.toml -- \
    --workload "$w" --seed 42 --seconds 12 --trace 0 >"$OUT/perf_$w.txt"
done

# Adversarial scenario catalog at full rates: every scenario runs both
# engine arms (digest equality asserted) and writes a JSON report card
# per scenario to results/scenarios/.
echo ">>> scenario catalog"
require_bin protean-cli
./target/release/protean-cli scenario run --out "$OUT/scenarios" >"$OUT/scenarios.txt" 2>/dev/null

TOTAL=$(($(date +%s) - START_EPOCH))
echo "All outputs written to $OUT/"
echo "Total wall-clock: ${TOTAL}s"
