#!/usr/bin/env bash
# Golden of every deterministic perfbench metric.
#
#     bash scripts/perfbench_golden.sh
#
# Builds the benchmark, runs it on every workload with
# `--seed 1 --seconds 1`, once with `--trace 0` and once with
# `--trace 1`, keeps the metrics that are simulated (hence repeat
# exactly at any run length) at the full precision of the JSON line,
# and diffs them against tests/golden/perfbench/<workload>.txt.
# Host-time metrics and `attempted` (which counts timed units) are left
# out. A change that means to move a simulated metric regenerates the
# goldens with
#
#     OUESSANT_BLESS_GOLDEN=1 bash scripts/perfbench_golden.sh
#
# and names every moved metric in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/perfbench_json.sh

GOLDEN_DIR=tests/golden/perfbench

# The deterministic metrics of each trace mode, as extended regular
# expressions over their names.
UNTRACED='^(sim_cycles|job_latency_cycles_p50|job_latency_cycles_p99|completed_frac|paper_max_err_pct)$'
TRACED='^(farm\.ff\.skipped_frac|farm\.queue\..*|farm\.worker\..*|farm\.alloc_stalls|farm\.fault\..*|farm\.liveness\..*|sim\.bus\..*|rac\.compute_share)$'

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin=perfbench/target/release/ouessant-perfbench

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

# `metrics TRACE PATTERN`: one run as `name value` lines, `correct`
# and `failed` first, then the metrics PATTERN keeps, in the order the
# benchmark prints them.
metrics() {
    echo "--trace $1"
    "$bin" --workload "$workload" --seed 1 --seconds 1 --trace "$1" \
        --trace-out "$scratch/trace.json" | tail -n 1 | perfbench_metrics |
        while read -r name value; do
            if [[ $name =~ ^(correct|failed)$ || $name =~ $2 ]]; then echo "$name $value"; fi
        done
}

status=0
for workload in "${WORKLOADS[@]}"; do
    out="$scratch/$workload.txt"
    {
        metrics 0 "$UNTRACED"
        metrics 1 "$TRACED"
    } >"$out"
    golden="$GOLDEN_DIR/$workload.txt"
    if [[ ${OUESSANT_BLESS_GOLDEN:-} == 1 ]]; then
        mkdir -p "$GOLDEN_DIR"
        cp "$out" "$golden"
        echo "blessed $golden"
    elif diff -u "$golden" "$out"; then
        echo "$workload: every deterministic metric matches $golden"
    else
        status=1
    fi
done
exit $status
