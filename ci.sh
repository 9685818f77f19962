#!/bin/sh
# Local CI gate: formatting, lints, then the tier-1 verify from ROADMAP.md.
# Usage: ./ci.sh
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> phoenix-analyze: lints, conformance, reachability, authority audit"
cargo run -q --release -p phoenix-analyze -- --report results/analyze_report.json

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test --workspace -q

echo "==> benchmark build (simbench is a workspace of its own)"
cargo build --release --offline --manifest-path simbench/Cargo.toml

echo "==> recovery timeline smoke (episode completeness + export round-trip)"
cargo run -q --release -p phoenix-bench --bin recovery_timeline -- --quick

echo "==> checkpoint overhead smoke (transparency + byte-exactness + determinism)"
cargo run -q --release -p phoenix-bench --bin ckpt_overhead -- --quick

echo "==> fail-silent campaign smoke (sentinel coverage + zero false restarts + determinism)"
cargo run -q --release -p phoenix-bench --bin failsilent_campaign -- --quick

echo "==> microreboot campaign smoke (server coverage + transparency + zero false restarts + determinism)"
cargo run -q --release -p phoenix-bench --bin microreboot_campaign -- --quick

echo "==> slo-under-chaos smoke (phase-attributed latency + drain + determinism + <=10% regression vs committed baseline)"
cargo run -q --release -p phoenix-bench --bin slo_under_chaos -- --quick

echo "==> fleet campaign smoke (distributed reincarnation: peer conviction + warm reboot + zero false restarts + determinism)"
cargo run -q --release -p phoenix-bench --bin fleet_campaign -- --quick

echo "==> standby MTTR smoke (hot-standby promotion beats restart+replay + zero false promotions + clamped adaptation + determinism)"
cargo run -q --release -p phoenix-bench --bin standby_mttr -- --quick

echo "==> quick results unchanged (a refactor that moves any quick digest or report fails here)"
git diff --exit-code -- 'results/*_quick*'

echo "==> ci.sh: all green"
