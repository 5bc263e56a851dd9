#!/usr/bin/env bash
# Counts the non-test Rust lines of every crate.
#
#   scripts/src_lines.sh          # the working tree
#   scripts/src_lines.sh HEAD^    # the change since a revision
#
# For each .rs file under crates/, prints the lines above the file's
# first column-0 `#[cfg(test)]` (all of its lines when it has none),
# then each crate's total and the grand total. Blank and comment lines
# count; a test module is taken to run to the end of its file.
#
# With a revision, also counts crates/ as it was there (extracted with
# `git archive`) and prints `before -> after` for each file whose count
# changed, then for each crate and the total.
set -euo pipefail

cd "$(dirname "$0")/.."

# Prints the counts of the crates/ tree under directory $1.
count() {
    (cd "$1" && find crates -name '*.rs' | LC_ALL=C sort | xargs awk '
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
        }')
}

if [ $# -eq 0 ]; then
    count .
    exit
fi

before=$(mktemp -d)
trap 'rm -rf "$before"' EXIT
git archive "$1" crates | tar -x -C "$before"
# Joins the two counts by name. Each output line gets a section (1
# files, 2 crates, 3 total) and a name to sort on; a file or crate
# present on one side only counts 0 on the other.
awk '
    NF == 2 && FNR == NR { old[$2] = $1; seen[$2] }
    NF == 2 && FNR != NR { new[$2] = $1; seen[$2] }
    END {
        print "2\t\t"
        for (name in seen) {
            section = name == "total" ? 3 : name ~ /\.rs$/ ? 1 : 2
            if (section == 1 && old[name] == new[name]) continue
            printf "%d\t%s\t%7d -> %7d  %s\n", section, name, old[name], new[name], name
        }
    }' <(count "$before") <(count .) | LC_ALL=C sort -t "$(printf '\t')" -k1,1n -k2,2 | cut -f3
