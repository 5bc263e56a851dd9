#!/usr/bin/env bash
# A/B wall-time comparison of two shell commands in alternating pairs.
#
#   scripts/ab_pairs.sh [-n PAIRS] 'COMMAND A' 'COMMAND B'
#
# Runs A and B PAIRS times each (default 10), alternating which one goes
# first in each pair so slow drift in host load hits both sides alike.
# Every run's stdout must equal A's first stdout byte for byte; a
# difference or a non-zero exit fails the script (exit 1). Prints the
# wall time of every pair, each side's median and quartiles, how many
# pairs each side won, and the host's core count (`nproc`).
#
# Uses bash and coreutils only. Times are whole microseconds from
# `date +%s%N`; quartiles interpolate linearly between order statistics.
set -euo pipefail

pairs=10
if [[ "${1:-}" == "-n" ]]; then
    pairs="$2"
    shift 2
fi
if [[ $# -ne 2 || ! "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 [-n PAIRS] 'COMMAND A' 'COMMAND B'" >&2
    exit 2
fi
cmd_a="$1"
cmd_b="$2"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Runs command $1 with stdout to file $2; prints its wall time in µs.
time_run() {
    local start end
    start="$(date +%s%N)"
    if ! bash -c "$1" >"$2"; then
        echo "ab_pairs: command failed: $1" >&2
        exit 1
    fi
    end="$(date +%s%N)"
    echo $(((end - start) / 1000))
}

# Fails unless file $1 equals the reference stdout.
check_same() {
    if ! cmp -s "$tmp/ref" "$1"; then
        echo "ab_pairs: stdout differs from A's first run (pair $2, side $3):" >&2
        diff "$tmp/ref" "$1" | head -20 >&2 || true
        exit 1
    fi
}

# Formats µs as seconds with three decimals.
secs() {
    printf '%d.%03d' $(($1 / 1000000)) $((($1 / 1000) % 1000))
}

# Prints the k-th quartile (k = 1, 2, 3) of the µs values in $2..,
# which must be sorted ascending.
quartile() {
    local k="$1"
    shift
    local v=("$@") n="$#"
    local pos=$(((n - 1) * k))
    local lo=$((pos / 4)) rem=$((pos % 4))
    if ((rem == 0)); then
        echo "${v[lo]}"
    else
        echo $((v[lo] + (v[lo + 1] - v[lo]) * rem / 4))
    fi
}

echo "host: nproc=$(nproc)"
echo "A: $cmd_a"
echo "B: $cmd_b"
printf '%-6s %-6s %10s %10s  %s\n' pair first "A s" "B s" faster
times_a=()
times_b=()
wins_a=0
wins_b=0
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
        first=A
        ta="$(time_run "$cmd_a" "$tmp/a")"
        tb="$(time_run "$cmd_b" "$tmp/b")"
    else
        first=B
        tb="$(time_run "$cmd_b" "$tmp/b")"
        ta="$(time_run "$cmd_a" "$tmp/a")"
    fi
    [[ -e "$tmp/ref" ]] || cp "$tmp/a" "$tmp/ref"
    check_same "$tmp/a" "$i" A
    check_same "$tmp/b" "$i" B
    times_a+=("$ta")
    times_b+=("$tb")
    if ((ta < tb)); then
        faster=A
        wins_a=$((wins_a + 1))
    elif ((tb < ta)); then
        faster=B
        wins_b=$((wins_b + 1))
    else
        faster=tie
    fi
    printf '%-6s %-6s %10s %10s  %s\n' "$i" "$first" "$(secs "$ta")" "$(secs "$tb")" "$faster"
done

summary() {
    local name="$1"
    shift
    local sorted
    mapfile -t sorted < <(printf '%s\n' "$@" | sort -n)
    printf '%s: median %s s (quartiles %s-%s s)\n' "$name" \
        "$(secs "$(quartile 2 "${sorted[@]}")")" \
        "$(secs "$(quartile 1 "${sorted[@]}")")" \
        "$(secs "$(quartile 3 "${sorted[@]}")")"
}
summary A "${times_a[@]}"
summary B "${times_b[@]}"
echo "A faster in $wins_a of $pairs pairs, B faster in $wins_b of $pairs"
echo "stdout identical on every run"
