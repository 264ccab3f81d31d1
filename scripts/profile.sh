#!/usr/bin/env bash
# Where a benchmark workload spends host time: build benchmark/ offline,
# run one untraced repetition under gprofng's clock profiler, print the
# 40 functions with the most exclusive samples (inclusive shares beside).
#
#   scripts/profile.sh <workload> [seconds]      # seconds defaults to 70
#
# Clock profiling under a VM can record as few as ~10 samples a second,
# so a 60–90 s run buys 600–900 samples; check the sample count in the
# header before trusting a share below a few percent. The experiment is
# kept in target/profile/<workload>.er for `gprofng display text`.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:?usage: scripts/profile.sh <workload> [seconds]}"
seconds="${2:-70}"
command -v gprofng >/dev/null || { echo "gprofng (binutils) is not installed" >&2; exit 1; }

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

mkdir -p target/profile
exp="target/profile/${workload}.er"
ONSERVE_BENCHMARK_OUT=target/profile/out \
    gprofng collect app -p high -O "$exp" \
    "$target/release/onserve-benchmark" --workload "$workload" \
    --seconds "$seconds" --trace 0 >&2
gprofng display text -metrics e.%totalcpu:i.%totalcpu \
    -sort e.totalcpu -limit 40 -functions "$exp"
