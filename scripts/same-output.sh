#!/usr/bin/env bash
# "Byte-identical before and after" as a command: build `base-rev` and the
# working tree, produce every deterministic output from both — the figures
# report (stdout + figures-data/*.json), every example's stdout, and the
# fault-scenario soak report — and `cmp` them pairwise. Exits non-zero naming
# the first differing (or missing) file. Both sides run on this machine, so a
# libm difference between hosts cannot make it flaky.
#
# For refactors that claim to change no output. CI runs it nightly against
# HEAD~1, beside the soak (it builds two trees); never per push or in
# `check.sh`: a PR that means to change output would need a switch.
#
# The base tree is a `git archive` export in a temporary directory with its
# own target dir (removed on exit), so nothing is registered in `.git` and the
# first run pays one full release build of the base.
#
# Usage: scripts/same-output.sh [base-rev]   (default HEAD~1)
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"
head_tree="$PWD"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base" "$work/out-base" "$work/out-head"
git archive "$(git rev-parse --verify "$base^{commit}")" | tar -x -C "$work/base"

# produce <tree> <out-dir>: run from inside <out-dir> so the paths the
# programs print are the same relative ones on both sides.
produce() {
  local tree="$1" out="$2" run file example
  run=(cargo run --locked --release -q --manifest-path "$tree/Cargo.toml" -p eedc)
  cargo build --locked --release --manifest-path "$tree/Cargo.toml" -p eedc --bins --examples
  cd "$out"
  "${run[@]}" --bin figures -- figures-data >figures.stdout
  for file in "$tree"/crates/eedc/examples/*.rs; do
    example="$(basename "$file" .rs)"
    "${run[@]}" --example "$example" >"example-$example.stdout"
  done
  "${run[@]}" --example fault_scenarios -- --horizon-scale 1 --out soak-report.json >/dev/null
  cd "$head_tree"
}

echo "== base: $base =="
produce "$work/base" "$work/out-base"
echo "== working tree =="
produce "$head_tree" "$work/out-head"

status=0
while IFS= read -r file; do
  if ! cmp -s "$work/out-base/$file" "$work/out-head/$file"; then
    echo "same-output FAILED: $file differs between $base and the working tree" >&2
    diff "$work/out-base/$file" "$work/out-head/$file" | head -20 >&2 || true
    status=1
    break
  fi
done < <(cd "$work" && find out-base out-head -type f | sed 's#^out-[a-z]*/##' | sort -u)

if [ "$status" -eq 0 ]; then
  count="$(find "$work/out-head" -type f | wc -l)"
  echo "same-output OK: $count files byte-identical between $base and the working tree"
fi
exit "$status"
