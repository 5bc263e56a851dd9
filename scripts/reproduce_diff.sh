#!/usr/bin/env bash
# Compares what the CLI prints and writes at a revision with the working
# tree's.
#
#   scripts/reproduce_diff.sh HEAD^
#
# Builds the revision's protean-cli from `git archive REV` in a temporary
# directory (a cold release build) and the working tree's, then runs with
# each:
#   rows/   `reproduce --duration 20 --out`, one <id>.txt per paper row;
#   cards/  `scenario run --smoke true --out` over that side's own
#           scenarios/ catalog, one <name>.json per scenario;
#   cli/    CI's round trip: `gen-trace` (its stdout and CSV), `replay`
#           of that CSV, `simulate --per-model true`, `compare`, and the
#           table of `scenario run`; and the stdout of each example
#           (example-<name>.txt, `cargo run --release --example <name>`).
# Prints `identical` when every file matches. Otherwise it prints each
# file that moved, appeared or went away, each with a unified diff (at
# most 200 lines), and exits 1.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$1" | tar -x -C "$tmp/src"

# Builds the CLI of the workspace at $1 in target dir $2 and writes its
# outputs under directory $3.
outputs() {
    CARGO_TARGET_DIR="$2" cargo build --release -q --manifest-path "$1/Cargo.toml" -p protean-cli
    local cli
    cli="$(cd "$2" && pwd)/release/protean-cli"
    mkdir -p "$3/cli"
    "$cli" reproduce --duration 20 --out "$3/rows" > /dev/null
    "$cli" scenario run --smoke true --dir "$1/scenarios" --out "$3/cards" \
        > "$3/cli/scenario-run.txt"
    (
        cd "$3/cli"
        "$cli" gen-trace --model resnet50 --duration 2 --out cli-trace.csv > gen-trace.txt
        "$cli" replay --trace-file cli-trace.csv --workers 2 > replay.txt
        "$cli" simulate --per-model true --workers 2 --duration 2 > simulate.txt
        "$cli" compare --workers 2 --duration 2 > compare.txt
    )
    local example
    for example in "$1"/examples/*.rs; do
        example=$(basename "$example" .rs)
        CARGO_TARGET_DIR="$2" cargo run --release -q --manifest-path "$1/Cargo.toml" \
            --example "$example" > "$3/cli/example-$example.txt"
    done
}
outputs "$tmp/src" "$tmp/target" "$tmp/before"
outputs . "${CARGO_TARGET_DIR:-target}" "$tmp/after"

moved=0
files=$( (cd "$tmp/before" && find . -type f; cd "$tmp/after" && find . -type f) |
    sed 's|^\./||' | LC_ALL=C sort -u)
for file in $files; do
    before="$tmp/before/$file" after="$tmp/after/$file"
    [ -e "$before" ] || before=/dev/null
    [ -e "$after" ] || after=/dev/null
    if ! cmp -s "$before" "$after"; then
        moved=1
        echo "$file"
        diff -u --label "$1 $file" --label "working tree $file" "$before" "$after" |
            head -n 200 || true
    fi
done
if [ "$moved" -eq 0 ]; then
    echo identical
fi
exit "$moved"
