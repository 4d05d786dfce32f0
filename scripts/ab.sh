#!/usr/bin/env bash
# Paired A/B runs of the benchmark between two revisions.
#
#     bash scripts/ab.sh [--out DIR] [--seed N] [--workload NAME] [--layouts K] <base-rev> [<head-rev>]
#     bash scripts/ab.sh --self-test
#
# Exports each revision with `git archive` into DIR/src-1 (default DIR
# ${TMPDIR:-/tmp}/ouessant-ab), builds its benchmark there offline and
# copies the binary out to DIR/bin-<sha>-1, so that both revisions are
# built at the same path (the build path alone moves the benchmark's
# throughput by up to 10%). `--layouts K` builds each revision at K
# such paths, DIR/src-1 to DIR/src-K, the same K for both sides, and
# runs pair i on the binaries built at path (i - 1) mod K + 1, so a
# ratio that holds at every layout is not one path's luck. Then it runs
# every workload 10 times per revision with `--seconds 4 --trace 0`,
# at the benchmark's own default seed, the one BENCHMARK.json's command
# runs, unless `--seed N` names another (decimal, or hex as `0x...`, as
# the benchmark reads it), so a claim can be checked on a seed it was
# not made on, in ABBA order so that a host
# drifting in speed weighs on both sides alike. `--workload NAME` runs
# that workload only. Prints, per workload and end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, the ratio of the
# medians (head over base), and the pairs in which head beat base, and
# marks a metric whose ratio is worse than its bound; with more than one
# layout, also the ratio of the medians at each layout and their spread
# (the largest less the smallest). Writes the same, with each side's
# median at each layout, as JSON to DIR/ab-summary.json.
#
# <head-rev> defaults to HEAD. Given the same revision twice, the tool
# runs it against itself (A/A): the spread it reports is the host's
# noise floor, the smallest effect a claim can resolve on it, and with
# `--layouts` the medians at each layout show how far the build path
# alone moves the benchmark (the layout floor).
#
# The deterministic metrics are not compared here: the golden of
# scripts/perfbench_golden.sh pins them exactly.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/perfbench_json.sh

PAIRS=10
RUN_SECONDS=4

# Statistics over the runs, in awk. Input lines: `workload metric
# better bound side pair value layout`; side is A or B, layout 1 to K.
# Quartiles interpolate linearly between order statistics. Each output
# line ends with the ratio of the medians at each layout, comma
# separated, their spread, and each side's medians at each layout.
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
function ratio_(a, b) { return a == 0 ? (b == 0 ? 1 : "inf") : b / a }
{
    key = $1 SUBSEP $2
    if (!(key in better)) { order[++keys] = key; better[key] = $3; bound[key] = $4 }
    val[key, $5, $6] = $7
    layout[key, $6] = $8
    if ($6 > pairs[key]) pairs[key] = $6
    if ($8 > layouts[key]) layouts[key] = $8
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
        ratio = ratio_(med["A"], med["B"])
        worse = ratio != "inf" && ((better[key] == "higher" && ratio < 1 - bound[key]) ||
                                   (better[key] == "lower" && ratio > 1 + bound[key]))
        # The ratio of the medians over the pairs run at each layout.
        per = ""; lo = ""; hi = ""; meds["A"] = ""; meds["B"] = ""
        for (l = 1; l <= layouts[key]; l++) {
            for (s = 1; s <= 2; s++) {
                side = s == 1 ? "A" : "B"; m = 0
                for (i = 1; i <= n; i++) if (layout[key, i] == l) v[++m] = val[key, side, i]
                sort_(v, m)
                lmed[side] = q(v, m, 0.5)
                meds[side] = meds[side] (l > 1 ? "," : "") sprintf("%.6g", lmed[side])
            }
            r = ratio_(lmed["A"], lmed["B"])
            per = per (l > 1 ? "," : "") (r == "inf" ? "inf" : sprintf("%.4f", r))
            if (r != "inf" && (lo == "" || r < lo)) lo = r
            if (r != "inf" && (hi == "" || r > hi)) hi = r
        }
        printf "%s %s %.6g %.6g %.6g %.6g %.6g %.6g %s %d %d %s %s %.4f %s %s\n", name[1], name[2],
            med["A"], q1["A"], q3["A"], med["B"], q1["B"], q3["B"],
            ratio == "inf" ? "inf" : sprintf("%.4f", ratio), wins, n, worse ? "OVER-BOUND" : "ok",
            per, hi - lo, meds["A"], meds["B"]
    }
}'

# A text table of the statistics lines on stdin; with more than one
# layout, each line ends with the ratios at each layout and their spread.
table() {
    awk '{
        printf "%-15s %-24s %12s [%s, %s]  %12s [%s, %s]  %7s  %2d/%-2d %s", $1, $2, $3, $4, $5,
            $6, $7, $8, $9, $10, $11, ($12 == "ok" ? "" : $12)
        if ($13 ~ /,/) printf "  layouts %s spread %s", $13, $14
        printf "\n"
    }'
}

# `json BASE HEAD PAIRS SECONDS SEED LAYOUTS`: the statistics lines on
# stdin as a JSON object keyed by workload.
json() {
    awk -v base="$1" -v head="$2" -v pairs="$3" -v seconds="$4" -v seed="$5" -v layouts="$6" '
    function side(m, l, h) { return "{\"median\": " m ", \"q1\": " l ", \"q3\": " h "}" }
    function list(csv,   r, n, i, out) {
        n = split(csv, r, ",")
        for (i = 1; i <= n; i++) out = out (i > 1 ? ", " : "") (r[i] == "inf" ? "null" : r[i])
        return "[" out "]"
    }
    {
        if ($1 != w) {
            if (w != "") body = body "}"
            body = body (w == "" ? "" : ", ") "\"" $1 "\": {"
            w = $1; first = 1
        }
        body = body (first ? "" : ", ") "\"" $2 "\": {\"a\": " side($3, $4, $5) \
            ", \"b\": " side($6, $7, $8) ", \"ratio\": " ($9 == "inf" ? "null" : $9) \
            ", \"wins\": " $10 ", \"n\": " $11 ", \"within_bound\": " ($12 == "ok" ? "true" : "false") \
            ", \"layout_ratios\": " list($13) ", \"layout_spread\": " $14 \
            ", \"layout_medians\": {\"a\": " list($15) ", \"b\": " list($16) "}}"
        first = 0
    }
    END {
        if (w != "") body = body "}"
        printf "{\"base\": \"%s\", \"head\": \"%s\", \"pairs\": %d, \"seconds\": %s, \"seed\": \"%s\", \"layouts\": %d, \"workloads\": {%s}}\n",
            base, head, pairs, seconds, seed, layouts, body
    }'
}

self_test() {
    local got want runs
    # Pairs 1 and 3 ran at layout 1, pairs 2 and 4 at layout 2.
    runs=$(printf '%s\n' \
        "w m higher 0.2 A 1 10 1" "w m higher 0.2 B 1 11 1" \
        "w m higher 0.2 A 2 12 2" "w m higher 0.2 B 2 11 2" \
        "w m higher 0.2 A 3 14 1" "w m higher 0.2 B 3 16 1" \
        "w m higher 0.2 A 4 20 2" "w m higher 0.2 B 4 21 2" \
        "w t lower 0.01 A 1 5 1" "w t lower 0.01 B 1 6 1" \
        "w t lower 0.01 A 2 5 2" "w t lower 0.01 B 2 6 2" \
        "w t lower 0.01 A 3 5 1" "w t lower 0.01 B 3 6 1" \
        "w t lower 0.01 A 4 5 2" "w t lower 0.01 B 4 6 2")
    got=$(awk "$STATS" <<<"$runs")
    want=$'w m 13 11.5 15.5 13.5 11 17.25 1.0385 3 4 ok 1.1250,1.0000 0.1250 12,16 13.5,16\nw t 5 5 5 6 6 6 1.2000 0 4 OVER-BOUND 1.2000,1.2000 0.0000 5,5 6,6'
    if [[ $got != "$want" ]]; then
        printf 'ab.sh statistics self-test failed:\n got:\n%s\n want:\n%s\n' "$got" "$want" >&2
        exit 1
    fi
    # At one layout, its ratio is the ratio of the medians.
    got=$(sed 's/ [12]$/ 1/' <<<"$runs" | awk "$STATS")
    want=$'w m 13 11.5 15.5 13.5 11 17.25 1.0385 3 4 ok 1.0385 0.0000 13 13.5\nw t 5 5 5 6 6 6 1.2000 0 4 OVER-BOUND 1.2000 0.0000 5 6'
    if [[ $got != "$want" ]]; then
        printf 'ab.sh one-layout self-test failed:\n got:\n%s\n want:\n%s\n' "$got" "$want" >&2
        exit 1
    fi
    got=$(awk "$STATS" <<<"$runs" | table)
    if [[ $got != *"3/4    layouts 1.1250,1.0000 spread 0.1250"* ]]; then
        printf 'ab.sh table self-test failed:\n got:\n%s\n' "$got" >&2
        exit 1
    fi
    got=$(awk "$STATS" <<<"$runs" | json base head 4 1 7 2)
    want='{"base": "base", "head": "head", "pairs": 4, "seconds": 1, "seed": "7", "layouts": 2, "workloads": {"w": {"m": {"a": {"median": 13, "q1": 11.5, "q3": 15.5}, "b": {"median": 13.5, "q1": 11, "q3": 17.25}, "ratio": 1.0385, "wins": 3, "n": 4, "within_bound": true, "layout_ratios": [1.1250, 1.0000], "layout_spread": 0.1250, "layout_medians": {"a": [12, 16], "b": [13.5, 16]}}, "t": {"a": {"median": 5, "q1": 5, "q3": 5}, "b": {"median": 6, "q1": 6, "q3": 6}, "ratio": 1.2000, "wins": 0, "n": 4, "within_bound": false, "layout_ratios": [1.2000, 1.2000], "layout_spread": 0.0000, "layout_medians": {"a": [5, 5], "b": [6, 6]}}}}}'
    if [[ $got != "$want" ]]; then
        printf 'ab.sh JSON self-test failed:\n got:\n%s\n want:\n%s\n' "$got" "$want" >&2
        exit 1
    fi
    parse_args --seed 7 --workload sparse-idle --layouts 3 base
    got="$seed ${workloads[*]} $layouts ${revs[*]}"
    want="7 sparse-idle 3 base"
    if [[ $got != "$want" ]]; then
        printf 'ab.sh options self-test failed:\n got: %s\n want: %s\n' "$got" "$want" >&2
        exit 1
    fi
    for hex in 0xBE4C2016 0xbe4c_2016 1_000; do
        if ! (parse_args --seed "$hex" base) 2>/dev/null; then
            echo "ab.sh options self-test failed: '--seed $hex' refused" >&2
            exit 1
        fi
    done
    parse_args --out d base head
    got="$out ${seed:-default} ${workloads[*]} $layouts ${revs[*]}"
    want="d default ${WORKLOADS[*]} 1 base head"
    if [[ $got != "$want" ]]; then
        printf 'ab.sh defaults self-test failed:\n got: %s\n want: %s\n' "$got" "$want" >&2
        exit 1
    fi
    for bad in "--seed x" "--seed -1" "--seed" "--seed 0x" "--seed 0xg1" "--seed 1x" \
        "--workload nope" "--workload" "--bogus" \
        "--layouts 0" "--layouts x" "--layouts 11" "--layouts"; do
        if (parse_args $bad base) 2>/dev/null; then
            echo "ab.sh options self-test failed: '$bad' accepted" >&2
            exit 1
        fi
    done
    echo "ab.sh self-test passed"
}

# `parse_args ARG...`: sets out, seed, workloads, layouts and revs from
# the command line (seed empty: the benchmark's default); fails on an
# unknown option, a seed that is not a non-negative integer in decimal
# or `0x` hex, a workload the benchmark does not have or a layout count
# outside 1 to PAIRS.
parse_args() {
    out=${TMPDIR:-/tmp}/ouessant-ab
    seed=
    workloads=("${WORKLOADS[@]}")
    layouts=1
    revs=()
    while (($#)); do
        case $1 in
            --out | --seed | --workload | --layouts)
                if (($# < 2)); then
                    echo "$1 needs a value" >&2
                    return 2
                fi
                case $1 in
                    --out) out=$2 ;;
                    --seed) seed=$2 ;;
                    --workload) workloads=("$2") ;;
                    --layouts) layouts=$2 ;;
                esac
                shift 2
                ;;
            -*) echo "unknown option $1" >&2; return 2 ;;
            *) revs+=("$1"); shift ;;
        esac
    done
    if [[ -n $seed && ! $seed =~ ^([0-9][0-9_]*|0x[0-9a-fA-F][0-9a-fA-F_]*)$ ]]; then
        echo "--seed takes a non-negative integer, decimal or 0x hex, not '$seed'" >&2
        return 2
    fi
    if [[ ! $layouts =~ ^[0-9]+$ ]] || ((layouts < 1 || layouts > PAIRS)); then
        echo "--layouts takes a count from 1 to $PAIRS, not '$layouts'" >&2
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

# `build REV L`: the benchmark binary of REV built at layout L's path,
# built once per commit and layout, at the path every revision shares.
build() {
    local dir="$out/src-$2" bin="$out/bin-$1-$2"
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
bins_a=() bins_b=()
for ((l = 1; l <= layouts; l++)); do
    bins_a[l]=$(build "$base" "$l")
    bins_b[l]=$(build "$head" "$l")
done

# The end-to-end metrics of BENCHMARK.json: `name better bound`.
metrics=$(sed -n '/"end_to_end"/,/]/p' BENCHMARK.json |
    sed -nE 's/.*"name": "([^"]+)".*"better": "([a-z]+)", "bound": ([0-9.]+).*/\1 \2 \3/p')

runs="$out/runs.txt"
: >"$runs"
for workload in "${workloads[@]}"; do
    for ((i = 1; i <= PAIRS; i++)); do
        # ABBA: A first in odd pairs, B first in even ones; the pairs
        # take the layouts in turn.
        order=(A B)
        if ((i % 2 == 0)); then order=(B A); fi
        layout=$(((i - 1) % layouts + 1))
        for side in "${order[@]}"; do
            bin=${bins_a[layout]}
            if [[ $side == B ]]; then bin=${bins_b[layout]}; fi
            declare -A got=()
            while read -r name value; do
                got[$name]=$value
            done < <("$bin" --workload "$workload" ${seed:+--seed "$seed"} --seconds "$RUN_SECONDS" --trace 0 |
                tail -n 1 | perfbench_metrics)
            if [[ ${got[correct]:-} != true || ${got[failed]:-} != 0 ]]; then
                echo "$workload pair $i side $side: run not correct or not all completed" >&2
                exit 1
            fi
            while read -r name better bound; do
                echo "$workload $name $better $bound $side $i ${got[$name]} $layout" >>"$runs"
            done <<<"$metrics"
        done
        echo "$workload: pair $i of $PAIRS done" >&2
    done
done

stats=$(awk "$STATS" "$runs")
kind="A/B"
if [[ $base == "$head" ]]; then kind="A/A (noise floor)"; fi
seeded="at the benchmark's default seed"
if [[ -n $seed ]]; then seeded="--seed $seed"; fi
echo "$kind: base $(git rev-parse --short "$base"), head $(git rev-parse --short "$head"); $PAIRS ABBA pairs per workload over $layouts build layout(s), $seeded --seconds $RUN_SECONDS --trace 0"
echo "workload        metric                   base median [q1, q3]      head median [q1, q3]    head/base wins"
table <<<"$stats"
json "$base" "$head" "$PAIRS" "$RUN_SECONDS" "${seed:-default}" "$layouts" <<<"$stats" >"$out/ab-summary.json"
echo "summary: $out/ab-summary.json; runs: $runs"
