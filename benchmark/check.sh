#!/usr/bin/env bash
# Gate for changes to the benchmark itself: format, lints, unit tests, the
# smoke run of every workload through `cargo test`, then one smoke set from
# the release binary the acceptance driver uses. Offline, ~1 min.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline
cargo build --release --offline
./target/release/pbench all --smoke --reps 2 --label smoke
