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
if [ "${total_passed}" -lt 732 ]; then
  echo "test-count floor: expected >= 732 passing tests, got ${total_passed}" >&2
  exit 1
fi

# Off means off: an error or span text built with format! at the call is
# built on every call, taken or not, telemetry on or not. Production code
# only — each file up to its first top-level #[cfg(test)], as scripts/loc.sh
# counts it.
echo "==> no eager format! in ok_or / span_attr / span_fail"
eager=$(find crates/*/src -name '*.rs' | sort | while IFS= read -r f; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} /ok_or\(.*format!|span_(attr|fail)\(.*format!/{print f ":" FNR ": " $0}' "$f"
done)
if [ -n "${eager}" ]; then
  echo "${eager}" >&2
  echo "use ok_or_else, or a &'static str name, so the String is only built when it is used" >&2
  exit 1
fi

# A ratchet on panics: unwrap() / expect( / panic! / unreachable! sites in
# production code outside crates/bench, counted the scripts/loc.sh way (each
# file up to its first top-level #[cfg(test)], comment lines left out). When
# a change removes some, lower the ceiling with it; never raise it.
panic_ceiling=56
echo "==> panic sites in production code (ceiling ${panic_ceiling})"
panic_sites=$(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort | while IFS= read -r f; do
  awk '/^#\[cfg\(test\)\]/{exit} !/^[[:space:]]*\/\//' "$f"
done | { grep -oE 'unwrap\(\)|expect\(|panic!|unreachable!' || true; } | wc -l)
echo "    panic sites: ${panic_sites}"
if [ "${panic_sites}" -gt "${panic_ceiling}" ]; then
  echo "panic sites rose to ${panic_sites} (ceiling ${panic_ceiling}): return an error, or name the invariant in an expect you remove elsewhere" >&2
  exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# One tier per golden-pinned bench: its golden test and any extra suites,
# then the bin twice with the same seed — every file it writes must come
# out byte-identical.
#   name | bin args | extensions | extra `cargo test` filters (;-separated)
bench_tiers=(
  "fleetscale    |      | csv      |"
  "chaos         |      | csv      | -p onserve-fleet --test chaos; -p onserve-fleet --test door_all_planes; -p onserve-fleet --test proptests all_planes_soak; -p onserve-fleet --lib routing::tests::route_matches_the_reference; -p onserve-fleet --lib ops::tests::the_slab_op_table_matches_the_map_model"
  "affinity      |      | csv      |"
  "grayfail      |      | csv,prom | -p onserve-fleet --test health"
  "geo           |      | csv,prom | -p onserve-fleet --test proptests geo; -p onserve-fleet --test proptests fleet_conserves_requests_under_site_outages_and_link_faults"
  "millionuser   | --ci | csv      |"
  "rollout       |      | csv,prom | -p onserve-fleet --test rollout; -p onserve-fleet --test proptests rollouts_hold_the_floor_keep_pins_live_and_replay"
  "noisyneighbor |      | csv,prom | -p onserve-fleet --test qos; -p onserve-fleet --test proptests qos_conserves_per_tenant_and_never_starves_underquota_tenants"
)

# `cargo test` with a filter that matches nothing passes: a tier must not.
# Runs one filter (a word list) and fails unless it passed at least one test.
run_filter() {
  local out passed
  # shellcheck disable=SC2086  # a filter is a word list on purpose
  if ! out=$(cargo test -q $1 2>&1); then
    echo "${out}"
    exit 1
  fi
  echo "${out}"
  passed=$({ grep -Eo '[0-9]+ passed' <<<"${out}" || true; } | awk '{s+=$1} END {print s+0}')
  if [ "${passed}" -eq 0 ]; then
    echo "filter '$1' matched no test" >&2
    exit 1
  fi
}

run_bench_tier() {
  local name args exts tests filters filter ext
  IFS='|' read -r name args exts tests <<<"$1"
  name="${name// /}"
  IFS=', ' read -ra exts <<<"$exts"
  IFS=';' read -ra filters <<<"$tests"
  # the golden tests are named after the sweep, except the one CI-scale run
  local golden="${name}_sweep_matches_golden"
  [ "$name" != millionuser ] || golden="millionuser_ci_matches_golden"

  echo "==> ${name} tier (golden + suites, then two same-seed runs: byte-identical ${exts[*]})"
  run_filter "-p onserve-bench --test golden_determinism $golden"
  for filter in "${filters[@]}"; do
    run_filter "$filter"
  done
  # shellcheck disable=SC2086  # so are the bin's args
  cargo run --release -q -p onserve-bench --bin "$name" -- $args > /dev/null
  for ext in "${exts[@]}"; do
    cp "target/experiments/${name}.${ext}" "target/experiments/${name}-run1.${ext}"
  done
  # shellcheck disable=SC2086
  cargo run --release -q -p onserve-bench --bin "$name" -- $args > /dev/null
  for ext in "${exts[@]}"; do
    cmp "target/experiments/${name}-run1.${ext}" "target/experiments/${name}.${ext}"
  done
}

for tier in "${bench_tiers[@]}"; do
  run_bench_tier "$tier"
done

# The seven paper-section bins' stdout against its goldens, in release:
# `scalability` is 55 s unoptimised and ignored in the debug run above.
echo "==> paper sections (bin stdout vs tests/golden/<bin>.txt, release)"
cargo test --release -q -p onserve-bench --test paper_sections

echo "==> doccheck (EXPERIMENTS.md golden blocks vs tests/golden)"
scripts/doccheck.sh

echo "==> benchmark tier (harness unit tests + 2 s correctness smoke per workload)"
(cd benchmark && cargo test --offline -q)
for workload in fleet_day door_planes appliance_paper publish_storm; do
  benchmark/run.sh --workload "$workload" --seconds 2 --trace 0 | tail -n 1 | grep -q '"correct": true' || {
    echo "benchmark smoke: workload ${workload} did not report \"correct\": true" >&2
    exit 1
  }
done

echo "CI OK"
