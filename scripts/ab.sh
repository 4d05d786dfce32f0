#!/usr/bin/env bash
# Paired A/B runs of the benchmark between two revisions.
#
#     bash scripts/ab.sh [--out DIR] [--seed N] [--workload NAME] <base-rev> [<head-rev>]
#     bash scripts/ab.sh --self-test
#
# Exports each revision with `git archive` into DIR/src (default DIR
# ${TMPDIR:-/tmp}/ouessant-ab), builds its benchmark there offline and
# copies the binary out to DIR/bin-<sha>, so that both revisions are
# built at the same path (the build path alone moves the benchmark's
# throughput by up to 10%). Then it runs every workload 10 times per
# revision with `--seed N --seconds 4 --trace 0` (seed 1 unless
# `--seed` names another, so a claim can be checked on a seed it was
# not made on), in ABBA order so that a host drifting in speed weighs
# on both sides alike. `--workload NAME` runs that workload only. Prints, per
# workload and end-to-end metric of BENCHMARK.json, each side's median
# and quartiles, the ratio of the medians (head over base), and the
# pairs in which head beat base, and marks a metric whose ratio is
# worse than its bound. Writes the same as JSON to DIR/ab-summary.json.
#
# <head-rev> defaults to HEAD. Given the same revision twice, the tool
# runs it against itself (A/A): the spread it reports is the host's
# noise floor, the smallest effect a claim can resolve on it.
#
# The deterministic metrics are not compared here: the golden of
# scripts/perfbench_golden.sh pins them exactly.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/perfbench_json.sh

PAIRS=10
RUN_SECONDS=4

# Statistics over the runs, in awk. Input lines: `workload metric
# better bound side pair value`; side is A or B. Quartiles interpolate
# linearly between order statistics.
STATS='
function sort_(v, n,   i, j, t) {
    for (i = 2; i <= n; i++) {
        t = v[i]
        for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
        v[j + 1] = t
    }
}
function q(v, n, p,   h, lo) {
    h = 1 + (n - 1) * p
    lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
{
    key = $1 SUBSEP $2
    if (!(key in better)) { order[++keys] = key; better[key] = $3; bound[key] = $4 }
    val[key, $5, $6] = $7
    if ($6 > pairs[key]) pairs[key] = $6
}
END {
    for (k = 1; k <= keys; k++) {
        key = order[k]; n = pairs[key]
        split(key, name, SUBSEP)
        wins = 0
        for (s = 1; s <= 2; s++) {
            side = s == 1 ? "A" : "B"
            for (i = 1; i <= n; i++) v[i] = val[key, side, i]
            sort_(v, n)
            med[side] = q(v, n, 0.5); q1[side] = q(v, n, 0.25); q3[side] = q(v, n, 0.75)
        }
        for (i = 1; i <= n; i++) {
            a = val[key, "A", i]; b = val[key, "B", i]
            if ((better[key] == "higher" && b > a) || (better[key] == "lower" && b < a)) wins++
        }
        ratio = med["A"] == 0 ? (med["B"] == 0 ? 1 : "inf") : med["B"] / med["A"]
        worse = ratio != "inf" && ((better[key] == "higher" && ratio < 1 - bound[key]) ||
                                   (better[key] == "lower" && ratio > 1 + bound[key]))
        printf "%s %s %.6g %.6g %.6g %.6g %.6g %.6g %s %d %d %s\n", name[1], name[2],
            med["A"], q1["A"], q3["A"], med["B"], q1["B"], q3["B"],
            ratio == "inf" ? "inf" : sprintf("%.4f", ratio), wins, n, worse ? "OVER-BOUND" : "ok"
    }
}'

# A text table of the statistics lines on stdin.
table() {
    awk '{
        printf "%-15s %-24s %12s [%s, %s]  %12s [%s, %s]  %7s  %2d/%-2d %s\n",
            $1, $2, $3, $4, $5, $6, $7, $8, $9, $10, $11, ($12 == "ok" ? "" : $12)
    }'
}

# `json BASE HEAD PAIRS SECONDS SEED`: the statistics lines on stdin as
# a JSON object keyed by workload.
json() {
    awk -v base="$1" -v head="$2" -v pairs="$3" -v seconds="$4" -v seed="$5" '
    function side(m, l, h) { return "{\"median\": " m ", \"q1\": " l ", \"q3\": " h "}" }
    {
        if ($1 != w) {
            if (w != "") body = body "}"
            body = body (w == "" ? "" : ", ") "\"" $1 "\": {"
            w = $1; first = 1
        }
        body = body (first ? "" : ", ") "\"" $2 "\": {\"a\": " side($3, $4, $5) \
            ", \"b\": " side($6, $7, $8) ", \"ratio\": " ($9 == "inf" ? "null" : $9) \
            ", \"wins\": " $10 ", \"n\": " $11 ", \"within_bound\": " ($12 == "ok" ? "true" : "false") "}"
        first = 0
    }
    END {
        if (w != "") body = body "}"
        printf "{\"base\": \"%s\", \"head\": \"%s\", \"pairs\": %d, \"seconds\": %s, \"seed\": %s, \"workloads\": {%s}}\n",
            base, head, pairs, seconds, seed, body
    }'
}

self_test() {
    local got want
    got=$(printf '%s\n' \
        "w m higher 0.2 A 1 10" "w m higher 0.2 B 1 11" \
        "w m higher 0.2 A 2 12" "w m higher 0.2 B 2 11" \
        "w m higher 0.2 A 3 14" "w m higher 0.2 B 3 16" \
        "w m higher 0.2 A 4 20" "w m higher 0.2 B 4 21" \
        "w t lower 0.01 A 1 5" "w t lower 0.01 B 1 6" \
        "w t lower 0.01 A 2 5" "w t lower 0.01 B 2 6" \
        "w t lower 0.01 A 3 5" "w t lower 0.01 B 3 6" \
        "w t lower 0.01 A 4 5" "w t lower 0.01 B 4 6" | awk "$STATS")
    want=$'w m 13 11.5 15.5 13.5 11 17.25 1.0385 3 4 ok\nw t 5 5 5 6 6 6 1.2000 0 4 OVER-BOUND'
    if [[ $got != "$want" ]]; then
        printf 'ab.sh statistics self-test failed:\n got:\n%s\n want:\n%s\n' "$got" "$want" >&2
        exit 1
    fi
    got=$(json base head 4 1 7 <<<"$want")
    want='{"base": "base", "head": "head", "pairs": 4, "seconds": 1, "seed": 7, "workloads": {"w": {"m": {"a": {"median": 13, "q1": 11.5, "q3": 15.5}, "b": {"median": 13.5, "q1": 11, "q3": 17.25}, "ratio": 1.0385, "wins": 3, "n": 4, "within_bound": true}, "t": {"a": {"median": 5, "q1": 5, "q3": 5}, "b": {"median": 6, "q1": 6, "q3": 6}, "ratio": 1.2000, "wins": 0, "n": 4, "within_bound": false}}}}'
    if [[ $got != "$want" ]]; then
        printf 'ab.sh JSON self-test failed:\n got:\n%s\n want:\n%s\n' "$got" "$want" >&2
        exit 1
    fi
    parse_args --seed 7 --workload sparse-idle base
    got="$seed ${workloads[*]} ${revs[*]}"
    want="7 sparse-idle base"
    if [[ $got != "$want" ]]; then
        printf 'ab.sh options self-test failed:\n got: %s\n want: %s\n' "$got" "$want" >&2
        exit 1
    fi
    parse_args --out d base head
    got="$out $seed ${workloads[*]} ${revs[*]}"
    want="d 1 ${WORKLOADS[*]} base head"
    if [[ $got != "$want" ]]; then
        printf 'ab.sh defaults self-test failed:\n got: %s\n want: %s\n' "$got" "$want" >&2
        exit 1
    fi
    for bad in "--seed x" "--seed -1" "--seed" "--workload nope" "--workload" "--bogus"; do
        if (parse_args $bad base) 2>/dev/null; then
            echo "ab.sh options self-test failed: '$bad' accepted" >&2
            exit 1
        fi
    done
    echo "ab.sh self-test passed"
}

# `parse_args ARG...`: sets out, seed, workloads and revs from the
# command line; fails on an unknown option, a seed that is not a
# non-negative integer or a workload the benchmark does not have.
parse_args() {
    out=${TMPDIR:-/tmp}/ouessant-ab
    seed=1
    workloads=("${WORKLOADS[@]}")
    revs=()
    while (($#)); do
        case $1 in
            --out | --seed | --workload)
                if (($# < 2)); then
                    echo "$1 needs a value" >&2
                    return 2
                fi
                case $1 in
                    --out) out=$2 ;;
                    --seed) seed=$2 ;;
                    --workload) workloads=("$2") ;;
                esac
                shift 2
                ;;
            -*) echo "unknown option $1" >&2; return 2 ;;
            *) revs+=("$1"); shift ;;
        esac
    done
    if [[ ! $seed =~ ^[0-9]+$ ]]; then
        echo "--seed takes a non-negative integer, not '$seed'" >&2
        return 2
    fi
    if [[ " ${WORKLOADS[*]} " != *" ${workloads[0]} "* ]]; then
        echo "no workload '${workloads[0]}'; the workloads: ${WORKLOADS[*]}" >&2
        return 2
    fi
}

if [[ ${1:-} == --self-test ]]; then
    self_test
    exit 0
fi
parse_args "$@" || exit 2
if ((${#revs[@]} < 1 || ${#revs[@]} > 2)); then
    sed -n '2,/^set/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
base=$(git rev-parse --verify "${revs[0]}^{commit}")
head=$(git rev-parse --verify "${revs[1]:-HEAD}^{commit}")
mkdir -p "$out"

# `build REV`: the benchmark binary of REV, built once per commit, at
# the one build path every revision shares.
build() {
    local dir="$out/src" bin="$out/bin-$1"
    if [[ ! -x $bin ]]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git archive "$1" | tar -x -C "$dir"
        echo "building $(git rev-parse --short "$1") in $dir" >&2
        cargo build --release --offline --quiet --manifest-path "$dir/perfbench/Cargo.toml" >&2
        cp "$dir/perfbench/target/release/ouessant-perfbench" "$bin"
    fi
    echo "$bin"
}
bin_a=$(build "$base")
bin_b=$(build "$head")

# The end-to-end metrics of BENCHMARK.json: `name better bound`.
metrics=$(sed -n '/"end_to_end"/,/]/p' BENCHMARK.json |
    sed -nE 's/.*"name": "([^"]+)".*"better": "([a-z]+)", "bound": ([0-9.]+).*/\1 \2 \3/p')

runs="$out/runs.txt"
: >"$runs"
for workload in "${workloads[@]}"; do
    for ((i = 1; i <= PAIRS; i++)); do
        # ABBA: A first in odd pairs, B first in even ones.
        order=(A B)
        if ((i % 2 == 0)); then order=(B A); fi
        for side in "${order[@]}"; do
            bin=$bin_a
            if [[ $side == B ]]; then bin=$bin_b; fi
            declare -A got=()
            while read -r name value; do
                got[$name]=$value
            done < <("$bin" --workload "$workload" --seed "$seed" --seconds "$RUN_SECONDS" --trace 0 |
                tail -n 1 | perfbench_metrics)
            if [[ ${got[correct]:-} != true || ${got[failed]:-} != 0 ]]; then
                echo "$workload pair $i side $side: run not correct or not all completed" >&2
                exit 1
            fi
            while read -r name better bound; do
                echo "$workload $name $better $bound $side $i ${got[$name]}" >>"$runs"
            done <<<"$metrics"
        done
        echo "$workload: pair $i of $PAIRS done" >&2
    done
done

stats=$(awk "$STATS" "$runs")
kind="A/B"
if [[ $base == "$head" ]]; then kind="A/A (noise floor)"; fi
echo "$kind: base $(git rev-parse --short "$base"), head $(git rev-parse --short "$head"); $PAIRS ABBA pairs per workload, --seed $seed --seconds $RUN_SECONDS --trace 0"
echo "workload        metric                   base median [q1, q3]      head median [q1, q3]    head/base wins"
table <<<"$stats"
json "$base" "$head" "$PAIRS" "$RUN_SECONDS" "$seed" <<<"$stats" >"$out/ab-summary.json"
echo "summary: $out/ab-summary.json; runs: $runs"
