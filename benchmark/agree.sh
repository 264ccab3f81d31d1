#!/usr/bin/env bash
# Run two full sets on the same build and check that they agree: every
# end-to-end metric within its bound, every exact metric and digest
# identical. Prints both sets with the per-metric ratio; exits non-zero
# on disagreement. Arguments (--seed, --reps, --seconds) go to both sets.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${ONSERVE_BENCHMARK_OUT:-$here/out}"
for set in set1 set2; do
    ONSERVE_BENCHMARK_OUT="$out/$set" "$here/run.sh" "$@"
done
"$here/run.sh" --compare "$out/set1/results.json" "$out/set2/results.json"
