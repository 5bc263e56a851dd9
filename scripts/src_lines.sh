#!/usr/bin/env bash
# Counts the non-test Rust lines of every crate.
#
#   scripts/src_lines.sh
#
# For each .rs file under crates/, prints the lines above the file's
# first column-0 `#[cfg(test)]` (all of its lines when it has none),
# then each crate's total and the grand total. Blank and comment lines
# count; a test module is taken to run to the end of its file.
set -euo pipefail

cd "$(dirname "$0")/.."
find crates -name '*.rs' | LC_ALL=C sort | xargs awk '
    FNR == 1 {
        files[++n] = FILENAME
        split(FILENAME, part, "/")
        if (!(part[2] in crate)) crates[++m] = part[2]
        crate[part[2]] += 0
        on = 1
    }
    /^#\[cfg\(test\)\]/ { on = 0 }
    on { lines[n]++; crate[part[2]]++; total++ }
    END {
        for (i = 1; i <= n; i++) printf "%7d  %s\n", lines[i], files[i]
        print ""
        for (i = 1; i <= m; i++) printf "%7d  crates/%s\n", crate[crates[i]], crates[i]
        printf "%7d  total\n", total
    }'
