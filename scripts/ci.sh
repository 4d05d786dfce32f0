#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, rustdoc, offline build, full test suite.
#
# The workspace must build with no network access (zero registry
# dependencies); --offline enforces that invariant on every run. The
# lockstep suite is the fast-forward bit-exactness oracle; perfbench/
# (its own workspace) is the benchmark, and its own tests run last.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings
# perfbench/ is its own workspace, which `--workspace` does not reach.
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps
RUSTDOCFLAGS="-D warnings" cargo doc --offline --manifest-path perfbench/Cargo.toml --no-deps

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> microcode fixture verification (ouas verify)"
bash scripts/verify_fixtures.sh

# The workspace run includes ouessant-farm's seeded chaos sweep (fault
# injection), hang-seam sweep (watchdogs, deadlines, shedding; zero
# stranded jobs or leaked leases) and fast-forward lockstep oracle
# (bit-exactness gate).
echo "==> cargo test (offline, all workspace members; chaos, liveness and lockstep suites included)"
cargo test -q --offline --workspace

# Debug builds panic on integer overflow where release builds wrap, so
# the sim crate's address arithmetic, the controller's countdown
# arithmetic, the loop-counter and offset arithmetic of
# `ouessant_isa::control`, the DFT's unclamped `i32` butterflies
# (checked against the exact oracle) and the window arithmetic of the
# farm's and the Soc's leap loops are also checked as they ship.
echo "==> cargo test --release -p ouessant-sim -p ouessant -p ouessant-isa -p ouessant-rac -p ouessant-farm -p ouessant-soc (overflow wraps instead of panicking)"
cargo test -q --offline --release -p ouessant-sim
cargo test -q --offline --release -p ouessant
cargo test -q --offline --release -p ouessant-isa
cargo test -q --offline --release -p ouessant-rac
cargo test -q --offline --release -p ouessant-farm
cargo test -q --offline --release -p ouessant-soc

# Every line but the `host:` wall-clock ones is simulated, hence pinned.
echo "==> chaos + hang campaign demo (fixed seeds, diffed against tests/golden/farm_demo.txt)"
cargo run --release --offline --example farm_demo -- --chaos-seed 0xC4A05EED --hang-seed 0x0CEA4A46 \
    | grep -v '^host:' | diff -u tests/golden/farm_demo.txt -

# Clippy builds every example; running each once makes a panic in one
# fail the gate too. farm_demo ran above, against its golden.
echo "==> examples (release, each run once)"
for file in examples/*.rs; do
    example=$(basename "$file" .rs)
    [ "$example" = farm_demo ] && continue
    echo "    $example"
    cargo run -q --release --offline --example "$example" > /dev/null
done

echo "==> perfbench checks (fast-forward vs single-step, metric-name contract)"
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml

# The fast-forward leaps carry debug assertions (advanced past the
# dispatch, past the watchdog bite, leap within the pure window) that a
# release build drops; run the benchmark's own pools once with them on,
# in a target directory of their own so the timed build stays as it is.
echo "==> perfbench stepping-mode check with debug assertions (release)"
CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true CARGO_TARGET_DIR=target/perfbench-da \
    cargo test -q --release --offline --manifest-path perfbench/Cargo.toml \
    --test benchmark stepping_modes_agree_on_every_farm_workload

# Every simulated perfbench metric (both trace modes, seed 1) is
# pinned; a change that means to move one re-blesses the goldens.
echo "==> perfbench golden (deterministic metrics, diffed against tests/golden/perfbench/)"
bash scripts/perfbench_golden.sh

echo "==> A/B harness statistics self-test"
bash scripts/ab.sh --self-test

echo "==> line-count classifier self-test"
bash scripts/loc.sh --self-test

echo "==> public surface (every pub fn, const or static only tests use is on scripts/surface.allow)"
bash scripts/surface.sh

echo "==> public-surface check self-test"
bash scripts/surface.sh --self-test

echo "==> CI green"
