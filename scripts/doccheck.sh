#!/usr/bin/env bash
# The numbers EXPERIMENTS.md quotes are the numbers the tests pin: every
# block opened by a `<!-- golden: <file> -->` line — the marker, then a
# fenced block — must hold crates/bench/tests/golden/<file> verbatim.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."
doc=EXPERIMENTS.md
golden=crates/bench/tests/golden

blocks=0 status=0
while IFS=: read -r line marker; do
  name=${marker#<!-- golden: }
  name=${name% -->}
  blocks=$((blocks + 1))
  if ! sed -n "$((line + 1))p" "$doc" | grep -q '^```'; then
    echo "doccheck: $doc:$line: no fenced block under the marker" >&2
    status=1
  elif ! tail -n +$((line + 2)) "$doc" | sed '/^```$/,$d' | diff -u "$golden/$name" - >&2; then
    echo "doccheck: $doc:$line: block differs from $golden/$name (diff above: golden vs document)" >&2
    status=1
  fi
done < <(grep -n '^<!-- golden: .* -->$' "$doc")

if [ "$blocks" -eq 0 ]; then
  echo "doccheck: no golden blocks found in $doc" >&2
  exit 1
fi
[ "$status" -eq 0 ] && echo "doccheck: $blocks golden blocks in $doc match"
exit "$status"
