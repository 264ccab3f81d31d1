#!/usr/bin/env bash
# The one command: build the benchmark package offline, then run it.
# Every argument goes to onserve-benchmark (see README.md); without any,
# it runs the full set and writes out/results.json next to this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
export ONSERVE_BENCHMARK_OUT="${ONSERVE_BENCHMARK_OUT:-$here/out}"
exec "$target/release/onserve-benchmark" "$@"
