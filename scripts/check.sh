#!/usr/bin/env sh
# Full local gate: formatting, lints (warnings are errors), build, tests.
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo test -q --test trace_determinism"
cargo test -q --test trace_determinism

echo "==> cargo test -q -p abv-checker --test differential"
cargo test -q -p abv-checker --test differential

echo "==> cargo test -q -p desim --test sched_differential"
cargo test -q -p desim --test sched_differential

echo "==> cargo test -q -p abv-mutate --test rtl_vs_tlm_verdicts"
cargo test -q -p abv-mutate --test rtl_vs_tlm_verdicts

echo "==> rtl2tlm mutate --json (smoke)"
cargo run --release --bin rtl2tlm -- mutate --size 4 --workers 2 --json > /dev/null

echo "==> cargo bench -p abv-bench --bench checker_overhead (smoke)"
ABV_BENCH_BUDGET_MS=100 ABV_BENCH_SIZE=20 cargo bench -p abv-bench --bench checker_overhead

echo "==> cargo bench -p abv-bench --bench kernel_throughput (smoke)"
ABV_BENCH_BUDGET_MS=100 ABV_BENCH_SIZE=20 ABV_BENCH_STRESS=500 \
    cargo bench -p abv-bench --bench kernel_throughput

echo "==> cargo doc --no-deps -p abv-obs (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -p abv-obs

echo "All checks passed."
