#!/usr/bin/env bash
# Sensitivity self-check (ROADMAP perf-ledger item (e)): a deliberate
# slowdown of every iteration must be flagged by `agree` on every workload,
# and two clean runs must not be. The slowdown is 50 %, twice the 25 % bound
# every timing metric has: one of exactly the bound would sit on the line.
# Takes about seven minutes on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${CARGO_TARGET_DIR:-target}/benchmark/sensitivity"
mkdir -p "$out"
bench() {
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

bench run --seed 7 --out "$out/clean-a.json" > /dev/null
bench run --seed 7 --inject-spin-pct 50 --out "$out/slowed.json" > /dev/null
bench run --seed 7 --out "$out/clean-b.json" > /dev/null

echo "== two clean runs must agree =="
bench agree "$out/clean-a.json" "$out/clean-b.json"

echo "== the slowed run must be flagged =="
if bench agree "$out/clean-a.json" "$out/slowed.json" > "$out/agree-slowed.txt" 2>&1; then
  cat "$out/agree-slowed.txt"
  echo "FAIL: agree accepted a run slowed by 50 %" >&2
  exit 1
fi
missing=0
for workload in join_measured join_kernel advisor_grid serving_steady serving_churn report_roundtrip; do
  for metric in work_per_s iter_p90_s cpu_s_per_iter; do
    if ! grep -q "^outside its bound: $metric @ $workload\$" "$out/agree-slowed.txt"; then
      echo "FAIL: $metric @ $workload was not flagged" >&2
      missing=1
    fi
  done
done
if [ "$missing" -ne 0 ]; then
  cat "$out/agree-slowed.txt"
  exit 1
fi
echo "sensitivity check passed: 18 of 18 slowed pairs flagged, clean runs agree"
