#!/usr/bin/env bash
# Measures which hand-written mutants the test suite catches.
#
#   scripts/mutants.sh           # the working tree (tracked and staged files)
#   scripts/mutants.sh HEAD^     # a revision
#
# Copies the tree with `git archive` into a temporary directory, then for
# each mutant of scripts/mutants.txt replaces its exact source string
# (which must occur exactly once in its file), runs
# `cargo test -q --no-fail-fast` and restores the file. The list is read
# from the working tree, so the same list can be run against an older
# revision. All mutants share one target directory, so only the first
# build is cold.
#
# Prints one line per mutant and then its verdict:
#   killed: TEST...            every test that failed
#   killed: does not compile
#   killed: timeout            the suite ran longer than 15 minutes
#   survived
#   not applied: ...           the source string was not found exactly once
# and a summary line last. Exits 1 when a mutant could not be applied.
# Not a CI step: each mutant costs an incremental build and a full
# debug test run.
set -euo pipefail

if [ $# -gt 1 ]; then
    echo "usage: $0 [REV]" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
list="$PWD/scripts/mutants.txt"
# `git stash create` commits the working tree without touching it; it
# prints nothing when the tree is clean.
rev=${1:-$(git stash create)}
rev=${rev:-HEAD}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
git archive "$rev" | tar -x -C "$tmp/src"
export CARGO_TARGET_DIR="$tmp/target"

total=0 killed=0 survived=0 broken=0
while IFS=$'\t' read -r file from to note; do
    case "$file" in '' | '#'*) continue ;; esac
    total=$((total + 1))
    echo "[$total] $file: $note"
    src="$tmp/src/$file"
    cp "$src" "$tmp/original"
    if ! FROM="$from" TO="$to" perl -0777 -ne '
        my $n = () = /\Q$ENV{FROM}\E/g;
        die "found $n times: $ENV{FROM}\n" if $n != 1;
        s/\Q$ENV{FROM}\E/$ENV{TO}/;
        print;
    ' "$tmp/original" > "$src" 2> "$tmp/perl.err"; then
        echo "  not applied: $(cat "$tmp/perl.err")"
        cp "$tmp/original" "$src"
        broken=$((broken + 1))
        continue
    fi
    status=0
    (cd "$tmp/src" && timeout 900 cargo test -q --no-fail-fast) < /dev/null > "$tmp/out" 2>&1 || status=$?
    cp "$tmp/original" "$src"
    if [ "$status" -eq 0 ]; then
        echo "  survived"
        survived=$((survived + 1))
        continue
    fi
    killed=$((killed + 1))
    failed=$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$tmp/out" | LC_ALL=C sort -u)
    if [ -n "$failed" ]; then
        echo "  killed: $(echo "$failed" | paste -sd ' ')"
    elif [ "$status" -eq 124 ]; then
        echo "  killed: timeout"
    elif grep -q "could not compile" "$tmp/out"; then
        echo "  killed: does not compile"
    else
        echo "  killed: cargo exited $status"
    fi
done < "$list"
echo "$total mutants: $killed killed, $survived survived, $broken not applied"
[ "$broken" -eq 0 ]
