#!/usr/bin/env bash
# A/B comparison of two shell commands in alternating pairs.
#
#   scripts/ab_pairs.sh [-n PAIRS] [-m METRIC[,METRIC...]] 'COMMAND A' 'COMMAND B'
#
# Runs A and B PAIRS times each (default 10), alternating which one goes
# first in each pair so slow drift in host load hits both sides alike.
# A non-zero exit fails the script (exit 1). Prints every pair's values,
# each side's median and quartiles, how many pairs each side won, and
# the host's core count (`nproc`).
#
# Each value's summary ends with a verdict line:
#
#   verdict: B better   at least 10 pairs ran, B won at least 9 in 10
#                       of them, and its median beats A's by more
#                       than A's quartile distance;
#   verdict: B worse    B's median is worse than A's by more than the
#                       metric's `bound` in BENCHMARK.json (a fraction
#                       of A's median);
#   verdict: unresolved otherwise.
#
# Without -m, the value is the command's wall time (lower wins; no
# bound, so never `B worse`), and every run's stdout must equal A's
# first stdout byte for byte.
#
# With -m, both commands are `perf` invocations (see perf/README.md) and
# each METRIC's value is `metrics.METRIC.value` from the final JSON line
# of the run's stdout. Every run must report `"correct": true`. Which
# direction wins is the metric's `better`, and its `bound`, in
# BENCHMARK.json at the repository root. For example, the end-to-end
# rows of one workload:
#
#   scripts/ab_pairs.sh -m req_per_s,setup_s,peak_rss_mb \
#       'old/perf/target/release/perf --workload soak-256 --smoke' \
#       'perf/target/release/perf --workload soak-256 --smoke'
#
# A `perf --child rep` report works too: one run, its metrics bare
# numbers under `metrics`, and no `"correct"` field. Then every run's
# `fingerprint` must equal A's first run's instead. A ten-pair screen
# of child reps takes seconds where full invocations take minutes;
# claims still come from full invocations:
#
#   scripts/ab_pairs.sh -m req_per_s,peak_rss_mb \
#       'old/perf/target/release/perf --workload pulse-2048 --child rep' \
#       'perf/target/release/perf --workload pulse-2048 --child rep'
#
# Uses bash, coreutils and awk. Values are held as integers (wall times
# in whole microseconds from `date +%s%N`, metrics in billionths of their
# unit); quartiles interpolate linearly between order statistics.
set -euo pipefail

usage() {
    echo "usage: $0 [-n PAIRS] [-m METRIC[,METRIC...]] 'COMMAND A' 'COMMAND B'" >&2
    exit 2
}

pairs=10
metric_list=""
while getopts "n:m:" opt; do
    case "$opt" in
    n) pairs="$OPTARG" ;;
    m) metric_list="$OPTARG" ;;
    *) usage ;;
    esac
done
shift $((OPTIND - 1))
if [[ $# -ne 2 || ! "$pairs" =~ ^[1-9][0-9]*$ ]]; then
    usage
fi
cmd_a="$1"
cmd_b="$2"

# The values each run yields: `wall_s` (time mode) or the named metrics,
# with the direction in which each one is better.
declare -A better bound
if [[ -z "$metric_list" ]]; then
    metrics=(wall_s)
    better[wall_s]=lower
    bound[wall_s]=""
else
    IFS=, read -r -a metrics <<<"$metric_list"
    bench="$(dirname "$0")/../BENCHMARK.json"
    for m in "${metrics[@]}"; do
        if [[ ! "$m" =~ ^[a-z0-9_.]+$ ]]; then
            echo "ab_pairs: bad metric name '$m'" >&2
            exit 2
        fi
        better[$m]="$(sed -nE "s/.*\{\"name\": \"${m//./\\.}\",.*\"better\": \"(higher|lower)\".*/\1/p" "$bench")"
        if [[ -z "${better[$m]}" ]]; then
            echo "ab_pairs: metric '$m' is not declared in $bench" >&2
            exit 2
        fi
        bound[$m]="$(sed -nE "s/.*\{\"name\": \"${m//./\\.}\",.*\"bound\": ([0-9.]+).*/\1/p" "$bench")"
    done
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Runs command $1 with stdout to file $2; prints one integer per value
# in `metrics`: the wall time in µs, or each metric in billionths of its
# unit.
run_one() {
    local start end
    start="$(date +%s%N)"
    if ! bash -c "$1" >"$2"; then
        echo "ab_pairs: command failed: $1" >&2
        exit 1
    fi
    end="$(date +%s%N)"
    if [[ -z "$metric_list" ]]; then
        echo $(((end - start) / 1000))
        return
    fi
    local last value m fp
    last="$(tail -n 1 "$2")"
    if [[ "$last" == *'"correct": '* ]]; then
        if [[ "$last" != *'"correct": true'* ]]; then
            echo "ab_pairs: run did not report \"correct\": true: $1" >&2
            echo "$last" >&2
            exit 1
        fi
    else
        # A child report: its fingerprint must equal A's first run's.
        fp="$(sed -nE 's/.*"fingerprint": "([^"]*)".*/\1/p' <<<"$last")"
        [[ -e "$tmp/fp" ]] || printf '%s\n' "$fp" >"$tmp/fp"
        if [[ -z "$fp" || "$fp" != "$(cat "$tmp/fp")" ]]; then
            echo "ab_pairs: run reported no \"correct\" field and a fingerprint unlike A's first run's: $1" >&2
            echo "$last" >&2
            exit 1
        fi
    fi
    for m in "${metrics[@]}"; do
        value="$(sed -nE "s/.*\"${m//./\\.}\": (\{\"value\": )?([-+.0-9eE]+).*/\2/p" <<<"$last")"
        if [[ -z "$value" ]]; then
            echo "ab_pairs: no numeric metrics.$m in the final line of: $1" >&2
            exit 1
        fi
        awk -v v="$value" 'BEGIN { printf "%.0f\n", v * 1e9 }'
    done
}

# Fails unless file $1 equals the reference stdout (time mode only: a
# perf run's stdout carries its own timings).
check_same() {
    [[ -z "$metric_list" ]] || return 0
    if ! cmp -s "$tmp/ref" "$1"; then
        echo "ab_pairs: stdout differs from A's first run (pair $2, side $3):" >&2
        diff "$tmp/ref" "$1" | head -20 >&2 || true
        exit 1
    fi
}

# Formats an integer value: µs as seconds with three decimals, a
# metric's billionths with trailing zeros dropped.
show() {
    if [[ -z "$metric_list" ]]; then
        printf '%d.%03d' $(($1 / 1000000)) $((($1 / 1000) % 1000))
    else
        local frac
        frac="$(printf '%09d' $(($1 % 1000000000)))"
        frac="${frac%"${frac##*[!0]}"}"
        printf '%d.%s' $(($1 / 1000000000)) "${frac:-0}"
    fi
}

# Prints the k-th quartile (k = 1, 2, 3) of the integer values in $2..,
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
printf '%-6s %-6s %-14s %18s %18s  %s\n' pair first value A B better
# Per value: each side's values (space-separated) and its wins.
declare -A values_a values_b wins_a wins_b
for m in "${metrics[@]}"; do
    values_a[$m]=""
    values_b[$m]=""
    wins_a[$m]=0
    wins_b[$m]=0
done
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
        first=A
        mapfile -t va < <(run_one "$cmd_a" "$tmp/a")
        mapfile -t vb < <(run_one "$cmd_b" "$tmp/b")
    else
        first=B
        mapfile -t vb < <(run_one "$cmd_b" "$tmp/b")
        mapfile -t va < <(run_one "$cmd_a" "$tmp/a")
    fi
    # `mapfile` hides run_one's exit status; a failed run prints fewer
    # values than asked for.
    if ((${#va[@]} != ${#metrics[@]} || ${#vb[@]} != ${#metrics[@]})); then
        exit 1
    fi
    [[ -e "$tmp/ref" ]] || cp "$tmp/a" "$tmp/ref"
    check_same "$tmp/a" "$i" A
    check_same "$tmp/b" "$i" B
    for j in "${!metrics[@]}"; do
        m="${metrics[j]}"
        a="${va[j]}"
        b="${vb[j]}"
        values_a[$m]+=" $a"
        values_b[$m]+=" $b"
        if [[ "${better[$m]}" == higher ]]; then
            lead=$((a - b))
        else
            lead=$((b - a))
        fi
        if ((lead > 0)); then
            winner=A
            wins_a[$m]=$((wins_a[$m] + 1))
        elif ((lead < 0)); then
            winner=B
            wins_b[$m]=$((wins_b[$m] + 1))
        else
            winner=tie
        fi
        printf '%-6s %-6s %-14s %18s %18s  %s\n' "$i" "$first" "$m" "$(show "$a")" "$(show "$b")" "$winner"
    done
done

# Sets `median`, `q1` and `q3` to the quartiles of the integer values
# in $1 (space-separated).
quartiles() {
    local sorted
    # shellcheck disable=SC2086 # $1 is a space-separated list of integers
    mapfile -t sorted < <(printf '%s\n' $1 | sort -n)
    q1="$(quartile 1 "${sorted[@]}")"
    median="$(quartile 2 "${sorted[@]}")"
    q3="$(quartile 3 "${sorted[@]}")"
}

# Prints the verdict on metric $1 from A's median $2 and quartiles $3-$4,
# B's median $5 and B's wins $6.
verdict() {
    local m="$1" a_med="$2" a_q1="$3" a_q3="$4" b_med="$5" b_wins="$6" lead
    if [[ "${better[$m]}" == higher ]]; then
        lead=$((b_med - a_med))
    else
        lead=$((a_med - b_med))
    fi
    if ((pairs >= 10 && b_wins * 10 >= pairs * 9 && lead > a_q3 - a_q1)); then
        echo "  verdict: B better"
    elif [[ -n "${bound[$m]}" ]] &&
        awk -v lead="$lead" -v a="$a_med" -v b="${bound[$m]}" \
            'BEGIN { exit !(-lead > b * (a < 0 ? -a : a)) }'; then
        echo "  verdict: B worse"
    else
        echo "  verdict: unresolved"
    fi
}

for m in "${metrics[@]}"; do
    echo "$m (${better[$m]} is better${bound[$m]:+, bound ${bound[$m]}}):"
    quartiles "${values_a[$m]}"
    a_med="$median" a_q1="$q1" a_q3="$q3"
    printf '  A: median %s (quartiles %s-%s)\n' "$(show "$a_med")" "$(show "$a_q1")" "$(show "$a_q3")"
    quartiles "${values_b[$m]}"
    printf '  B: median %s (quartiles %s-%s)\n' "$(show "$median")" "$(show "$q1")" "$(show "$q3")"
    echo "  A better in ${wins_a[$m]} of $pairs pairs, B better in ${wins_b[$m]} of $pairs"
    verdict "$m" "$a_med" "$a_q1" "$a_q3" "$median" "${wins_b[$m]}"
done
if [[ -z "$metric_list" ]]; then
    echo "stdout identical on every run"
elif [[ -e "$tmp/fp" ]]; then
    echo "fingerprint equal to A's first run's on every run"
else
    echo "\"correct\": true on every run"
fi
