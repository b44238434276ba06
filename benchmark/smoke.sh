#!/usr/bin/env bash
# Offline smoke test of the benchmark package: its unit tests, then every
# workload traced and untraced for one second each with every output check.
# The numbers of a one-second run are too short to compare.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --quick --out benchmark/out/smoke
