#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): builds polbench offline in
# release mode, then runs it with the arguments given. Run from anywhere;
# it works from the root of the checkout. The build goes to
# $CARGO_TARGET_DIR when set (relative to the root), else benchmark/target;
# scratch files go to tmp/ inside that directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/polbench" "$@"
