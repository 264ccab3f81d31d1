#!/usr/bin/env bash
# The repo's CI gate: release build, full test suite, zero-warning lint.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

# The perf gate runs first thing after the release build, while the box
# is quiet: the test suite and clippy below thrash cache and scheduler
# for minutes afterwards, which inflates even the min-based floors.
echo "==> perf regression check (vs BENCH_kernel.json)"
cargo run --release -q -p onserve-bench --bin perfbaseline -- --check

echo "==> cargo build --examples"
cargo build --workspace --examples

echo "==> cargo test -q (with test-count floor)"
cargo test -q --workspace 2>&1 | tee target/test-output.log
total_passed=$(grep -Eo '[0-9]+ passed' target/test-output.log | awk '{s+=$1} END {print s}')
echo "    total tests passed: ${total_passed}"
if [ "${total_passed}" -lt 575 ]; then
  echo "test-count floor: expected >= 575 passing tests, got ${total_passed}" >&2
  exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> chaos tier (golden + soak)"
cargo test -q -p onserve-bench --test golden_determinism chaos_sweep_matches_golden
cargo test -q -p onserve-fleet --test chaos

echo "==> chaos bench determinism (two same-seed runs, byte-identical CSV)"
cargo run --release -q -p onserve-bench --bin chaos > /dev/null
cp target/experiments/chaos.csv target/experiments/chaos-run1.csv
cargo run --release -q -p onserve-bench --bin chaos > /dev/null
cmp target/experiments/chaos-run1.csv target/experiments/chaos.csv

echo "==> affinity tier (golden + determinism)"
cargo test -q -p onserve-bench --test golden_determinism affinity_sweep_matches_golden
cargo run --release -q -p onserve-bench --bin affinity > /dev/null
cp target/experiments/affinity.csv target/experiments/affinity-run1.csv
cargo run --release -q -p onserve-bench --bin affinity > /dev/null
cmp target/experiments/affinity-run1.csv target/experiments/affinity.csv

echo "==> grayfail tier (golden + health soak)"
cargo test -q -p onserve-bench --test golden_determinism grayfail_sweep_matches_golden
cargo test -q -p onserve-fleet --test health

echo "==> grayfail bench determinism (two same-seed runs, byte-identical CSV + exposition)"
cargo run --release -q -p onserve-bench --bin grayfail > /dev/null
cp target/experiments/grayfail.csv target/experiments/grayfail-run1.csv
cp target/experiments/grayfail.prom target/experiments/grayfail-run1.prom
cargo run --release -q -p onserve-bench --bin grayfail > /dev/null
cmp target/experiments/grayfail-run1.csv target/experiments/grayfail.csv
cmp target/experiments/grayfail-run1.prom target/experiments/grayfail.prom

echo "==> geo tier (golden + proptests)"
cargo test -q -p onserve-bench --test golden_determinism geo_sweep_matches_golden
cargo test -q -p onserve-fleet --test proptests geo
cargo test -q -p onserve-fleet --test proptests fleet_conserves_requests_under_site_outages_and_link_faults

echo "==> geo bench determinism (two same-seed runs, byte-identical CSV + exposition)"
cargo run --release -q -p onserve-bench --bin geo > /dev/null
cp target/experiments/geo.csv target/experiments/geo-run1.csv
cp target/experiments/geo.prom target/experiments/geo-run1.prom
cargo run --release -q -p onserve-bench --bin geo > /dev/null
cmp target/experiments/geo-run1.csv target/experiments/geo.csv
cmp target/experiments/geo-run1.prom target/experiments/geo.prom

echo "==> millionuser tier (golden + determinism, CI scale)"
cargo test -q -p onserve-bench --test golden_determinism millionuser_ci_matches_golden
cargo run --release -q -p onserve-bench --bin millionuser -- --ci > /dev/null
cp target/experiments/millionuser.csv target/experiments/millionuser-run1.csv
cargo run --release -q -p onserve-bench --bin millionuser -- --ci > /dev/null
cmp target/experiments/millionuser-run1.csv target/experiments/millionuser.csv

echo "==> rollout tier (golden + proptests + chaos-crossed scenarios)"
cargo test -q -p onserve-bench --test golden_determinism rollout_sweep_matches_golden
cargo test -q -p onserve-fleet --test rollout
cargo test -q -p onserve-fleet --test proptests rollouts_hold_the_floor_keep_pins_live_and_replay

echo "==> rollout bench determinism (two same-seed runs, byte-identical CSV + exposition)"
cargo run --release -q -p onserve-bench --bin rollout > /dev/null
cp target/experiments/rollout.csv target/experiments/rollout-run1.csv
cp target/experiments/rollout.prom target/experiments/rollout-run1.prom
cargo run --release -q -p onserve-bench --bin rollout > /dev/null
cmp target/experiments/rollout-run1.csv target/experiments/rollout.csv
cmp target/experiments/rollout-run1.prom target/experiments/rollout.prom

echo "==> qos tier (golden + tier-survival suite + fairness proptest)"
cargo test -q -p onserve-bench --test golden_determinism noisyneighbor_sweep_matches_golden
cargo test -q -p onserve-fleet --test qos
cargo test -q -p onserve-fleet --test proptests qos_conserves_per_tenant_and_never_starves_underquota_tenants

echo "==> noisyneighbor bench determinism (two same-seed runs, byte-identical CSV + exposition)"
cargo run --release -q -p onserve-bench --bin noisyneighbor > /dev/null
cp target/experiments/noisyneighbor.csv target/experiments/noisyneighbor-run1.csv
cp target/experiments/noisyneighbor.prom target/experiments/noisyneighbor-run1.prom
cargo run --release -q -p onserve-bench --bin noisyneighbor > /dev/null
cmp target/experiments/noisyneighbor-run1.csv target/experiments/noisyneighbor.csv
cmp target/experiments/noisyneighbor-run1.prom target/experiments/noisyneighbor.prom

echo "==> benchmark tier (harness unit tests + 2 s correctness smoke per workload)"
(cd benchmark && cargo test --offline -q)
for workload in fleet_day door_planes appliance_paper publish_storm; do
  benchmark/run.sh --workload "$workload" --seconds 2 --trace 0 | tail -n 1 | grep -q '"correct": true' || {
    echo "benchmark smoke: workload ${workload} did not report \"correct\": true" >&2
    exit 1
  }
done

echo "CI OK"
