#!/usr/bin/env bash
# Production lines of Rust per crate and in total, the way CHANGES.md
# counts them: each file under crates/*/src up to its first top-level
# `#[cfg(test)]`, comment-only and blank lines left out.
# Run from anywhere inside the repo; `scripts/loc.sh <dir>` counts another
# checkout (e.g. a clone of the parent commit).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

total=0
for crate in crates/*/; do
  lines=0
  while IFS= read -r f; do
    n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$f" | grep -cv '^\s*//\|^\s*$' || true)
    lines=$((lines + n))
  done < <(find "${crate}src" -name '*.rs' | sort)
  printf '%-12s %6d\n' "$(basename "$crate")" "$lines"
  total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
