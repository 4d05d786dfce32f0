#!/usr/bin/env bash
# Wall-time benchmark for the farm's event-horizon fast-forward kernel.
#
# Runs every campaign in both stepping modes (single-step vs leap) and
# writes BENCH_farm.json. The harness itself exits non-zero if the two
# modes disagree on simulated cycles or job records, so this script
# doubles as a bit-exactness gate.
#
#   scripts/bench.sh           # full campaigns, BENCH_farm.json
#   scripts/bench.sh --smoke   # reduced job counts (CI), BENCH_farm_smoke.json
#   scripts/bench.sh --out F   # write (and validate) F instead
set -euo pipefail
cd "$(dirname "$0")/.."

out="BENCH_farm.json"
args=()
if [[ "${1:-}" == "--smoke" ]]; then
    out="BENCH_farm_smoke.json"
    args+=(--smoke)
    shift
fi
# The harness honours the last `--out`, so a caller's own `--out PATH`
# wins over the default: validate the file actually written.
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--out" ]]; then
        out="$arg"
    fi
    prev="$arg"
done
args+=(--out "$out" "$@")

echo "==> cargo build --release (ouessant-bench)"
cargo build --release --offline -p ouessant-bench

echo "==> benchmark campaigns (both stepping modes)"
./target/release/ouessant-bench "${args[@]}"

# Malformed output would poison downstream consumers of the numbers;
# validate the JSON when a parser is on the PATH.
if command -v python3 >/dev/null 2>&1; then
    echo "==> validating $out"
    python3 -m json.tool "$out" >/dev/null
elif command -v jq >/dev/null 2>&1; then
    echo "==> validating $out"
    jq empty "$out"
else
    echo "==> skipping JSON validation (no python3 or jq on PATH)"
fi

echo "==> bench OK ($out)"
