#!/usr/bin/env bash
# Compares the text of every paper row at a revision with the working
# tree's.
#
#   scripts/reproduce_diff.sh HEAD^
#
# Builds the revision's protean-cli from `git archive REV` in a temporary
# directory (a cold release build), runs `reproduce --duration 20 --out`
# with it and with the working tree's, and prints `identical` when every
# row's text matches. Otherwise it prints each row id whose text moved,
# appeared or went away, each with a unified diff, and exits 1.
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

# Runs `reproduce` from the workspace at $1, built in target dir $2, into
# directory $3.
reproduce() {
    CARGO_TARGET_DIR="$2" cargo run --release -q --manifest-path "$1/Cargo.toml" \
        -p protean-cli -- reproduce --duration 20 --out "$3" > /dev/null
}
reproduce "$tmp/src" "$tmp/target" "$tmp/before"
reproduce . "${CARGO_TARGET_DIR:-target}" "$tmp/after"

moved=0
for id in $( (ls "$tmp/before"; ls "$tmp/after") | sed 's/\.txt$//' | LC_ALL=C sort -u); do
    before="$tmp/before/$id.txt" after="$tmp/after/$id.txt"
    [ -e "$before" ] || before=/dev/null
    [ -e "$after" ] || after=/dev/null
    if ! cmp -s "$before" "$after"; then
        moved=1
        echo "$id"
        diff -u --label "$1 $id" --label "working tree $id" "$before" "$after" || true
    fi
done
if [ "$moved" -eq 0 ]; then
    echo identical
fi
exit "$moved"
