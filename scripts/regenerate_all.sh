#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation, in
# order, writing each experiment's output to results/<id>.txt.
#
# Usage: scripts/regenerate_all.sh [duration_secs] [seed]
#
# `protean-cli reproduce` runs the experiment table's simulation cells
# on the parallel harness; set PROTEAN_THREADS to pin the worker-thread
# count (defaults to the machine's available parallelism):
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

cargo build --release -p protean-cli

# One <id>.txt per experiment; the load sweep and the §7 statistics cap
# each run at 60 s.
./target/release/protean-cli reproduce --duration "$DURATION" --seed "$SEED" --out "$OUT"

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
./target/release/protean-cli scenario run --out "$OUT/scenarios" >"$OUT/scenarios.txt" 2>/dev/null

TOTAL=$(($(date +%s) - START_EPOCH))
echo "All outputs written to $OUT/"
echo "Total wall-clock: ${TOTAL}s"
