#!/usr/bin/env bash
# "N alternating parent/change pairs of the contract command" as a command —
# the measurement a PR that claims a gain reports (choosing-metrics §8, and
# "The rule for later issues" in benchmark/README.md).
#
# Exports `base-rev` into a temporary directory (`git archive`, its own
# target dir, removed on exit — set `TMPDIR` to choose where; the
# `same-output.sh` pattern), builds the `benchmark` binary of both trees,
# then runs the `BENCHMARK.json` command for one workload `pairs` times per
# side: one seed per pair (`first-seed`, `first-seed + 1`, …), each tree run
# from its own root, and which side goes first alternates per pair. Every
# run's `run-<workload>.json` is kept under `target/bench-pair/<workload>/`
# (replacing what an earlier run of this script left there). The workload
# `all` is every workload `BENCHMARK.json` names, one after the other on the
# one pair of builds, reported in one table at the end — what a PR that must
# show the other workloads unmoved runs.
#
# Prints every run's value of every end-to-end metric of `BENCHMARK.json` in
# pair order, then per workload and metric one table row: both medians, both
# quartile ranges (linear interpolation between order statistics), the ratio
# change ÷ base, and wins/pairs in the metric's own direction (a tie counts
# for neither) — and, under `gain`, whether the §8 rule for *claiming* that
# metric holds: the change wins at least nine tenths of the pairs and the
# medians differ by more than the distance between the base's quartiles.
# Then, per workload, `output digests identical: n/n`: the `digest` (the
# workload's output digest) of every pair's kept base and head result files
# compared — a speed-up must not change what the workload computes.
# Last, the `nm -S` size of the functions whose inlining has moved serving
# numbers before with no source change (`Simulation::run`, `std`'s
# `BinaryHeap::{push, pop}` — the kernel's queue, whose `pop` an edit in
# another crate has outlined before; every instance in the binary is listed —
# `ServingEngine::{on_event, admit, start}`, `JoinShortestQueue::place`,
# `simulate_serving`, `PhaseStats::close`) and of the join kernel's two
# entry points (`hash_join_with`, the counting join; `Table::from_lineitem`,
# one size per generic instance), from both binaries: read them before
# believing a metric that moved while its sources did not.
# Exits non-zero if any run reports `correct: false` or fails to run, or if
# any pair's two output digests differ (each such pair is named).
#
# It only *calls* the benchmark; nothing under benchmark/ is read for
# numbers other than what the command prints. One run is ≈ 16 s, so the
# default ten pairs take about six minutes per workload after the two builds.
#
# Usage: scripts/bench-pair.sh <base-rev> <workload>|all [pairs=10] [first-seed=7]
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
  sed -n 's/^# \(Usage:.*\)/\1/p' "$0" >&2
  exit 2
fi
base="$1"
workload="$2"
pairs="${3:-10}"
first_seed="${4:-7}"

# Each tree builds into, and writes its result file under, its own directory.
unset CARGO_TARGET_DIR
head_tree="$PWD"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$(git rev-parse --verify "$base^{commit}")" | tar -x -C "$work/base"
if [ "$workload" = all ]; then
  workloads="$(awk '/"workloads"/ {on = 1; next} on && /\]/ {exit} on' BENCHMARK.json |
    sed -n 's/.*{"name": *"\([^"]*\)".*/\1/p')"
else
  workloads="$workload"
fi

# The contract command, as BENCHMARK.json declares it.
seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)"
command=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
# `name better` per end-to-end metric.
metrics="$(awk '/"end_to_end"/ {on = 1; next} on && /\]/ {exit} on' BENCHMARK.json |
  sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*/\1 \2/p')"

for tree in "$work/base" "$head_tree"; do
  echo "== build: $tree ==" >&2
  (cd "$tree" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# run_side <workload> <side> <tree> <pair> <seed>: one contract run; its
# result line goes to $work/<workload>.<side>.lines and its result file to
# target/bench-pair/<workload>/.
status=0
run_side() {
  local workload="$1" side="$2" tree="$3" pair="$4" seed="$5" line
  local keep="$head_tree/target/bench-pair/$workload"
  line="$(cd "$tree" && "${command[@]}" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 2>"$work/stderr" | tail -n 1)" || {
    cat "$work/stderr" >&2
    echo "bench-pair: $workload: $side run of pair $pair (seed $seed) did not run" >&2
    exit 1
  }
  case "$line" in
    '{"correct":true,'*) ;;
    *)
      echo "bench-pair: $workload: $side run of pair $pair (seed $seed) is not correct: ${line:0:120}" >&2
      status=1
      ;;
  esac
  echo "$line" >>"$work/$workload.$side.lines"
  cp "$tree/target/benchmark/run-$workload.json" "$keep/pair$pair-seed$seed-$side.json"
}

for workload in $workloads; do
  rm -rf "$head_tree/target/bench-pair/$workload"
  mkdir -p "$head_tree/target/bench-pair/$workload"
  for ((pair = 1; pair <= pairs; pair++)); do
    seed=$((first_seed + pair - 1))
    if ((pair % 2)); then order=(base head); else order=(head base); fi
    echo "== $workload pair $pair/$pairs: seed $seed, ${order[0]} first ==" >&2
    for side in "${order[@]}"; do
      if [ "$side" = base ]; then tree="$work/base"; else tree="$head_tree"; fi
      run_side "$workload" "$side" "$tree" "$pair" "$seed"
    done
  done
done

# value <workload> <side> <metric>: that metric's value from every result
# line, in pair order.
value() {
  sed -n 's/.*"'"$3"'":{"value":\([^,}]*\)[,}].*/\1/p' "$work/$1.$2.lines"
}

echo
echo "$pairs alternating pairs, base $base vs the working tree, seeds $first_seed..$((first_seed + pairs - 1)), ${seconds} s per run"
echo
echo "every run, in pair order:"
for workload in $workloads; do
  while read -r metric _; do
    for side in base head; do
      printf '%-16s %-16s %-4s %s\n' "$workload" "$metric" "$side" \
        "$(value "$workload" "$side" "$metric" | paste -s -d ' ')"
    done
  done <<<"$metrics"
done
echo
printf '%-16s %-16s %-6s %14s %14s %14s %14s %14s %14s %9s %6s  %s\n' \
  workload metric better base_median base_q1 base_q3 head_median head_q1 head_q3 head/base wins gain
for workload in $workloads; do
  while read -r metric better; do
    paste <(value "$workload" base "$metric") <(value "$workload" head "$metric") |
      awk -v workload="$workload" -v metric="$metric" -v better="$better" -v pairs="$pairs" '
        function quantile(sorted, n, q,    h, lo) {
          h = (n - 1) * q + 1; lo = int(h)
          if (lo >= n) return sorted[n]
          return sorted[lo] + (h - lo) * (sorted[lo + 1] - sorted[lo])
        }
        function insert(sorted, n, x,    i) {
          for (i = n; i >= 1 && sorted[i] > x; i--) sorted[i + 1] = sorted[i]
          sorted[i + 1] = x
        }
        NF == 2 {
          n++; insert(b, n - 1, $1 + 0); insert(h, n - 1, $2 + 0)
          if (better == "higher" ? $2 > $1 : $2 < $1) wins++
        }
        END {
          if (n != pairs) { printf "%-16s %-16s only %d of %d pairs reported it\n", workload, metric, n, pairs; exit 1 }
          bm = quantile(b, n, 0.5); hm = quantile(h, n, 0.5)
          b1 = quantile(b, n, 0.25); b3 = quantile(b, n, 0.75)
          gap = better == "higher" ? hm - bm : bm - hm
          gain = (wins >= 0.9 * n && gap > b3 - b1) ? "yes" : "no"
          printf "%-16s %-16s %-6s %14.6g %14.6g %14.6g %14.6g %14.6g %14.6g %9.4f %3d/%-2d  %s\n", \
            workload, metric, better, bm, b1, b3, hm, quantile(h, n, 0.25), quantile(h, n, 0.75), \
            hm / bm, wins, n, gain
        }' || status=1
  done <<<"$metrics"
done

# digest <result file>: the workload's output digest, or nothing.
digest() {
  sed -n 's/.*"digest": *"\([^"]*\)".*/\1/p' "$1" | head -n 1
}
echo
for workload in $workloads; do
  same=0
  for ((pair = 1; pair <= pairs; pair++)); do
    seed=$((first_seed + pair - 1))
    kept="$head_tree/target/bench-pair/$workload/pair$pair-seed$seed"
    base_digest="$(digest "$kept-base.json")"
    head_digest="$(digest "$kept-head.json")"
    if [ -n "$base_digest" ] && [ "$base_digest" = "$head_digest" ]; then
      same=$((same + 1))
    else
      echo "bench-pair: $workload: pair $pair (seed $seed) output digests differ: base ${base_digest:-none}, head ${head_digest:-none}" >&2
      status=1
    fi
  done
  printf '%-16s output digests identical: %d/%d\n' "$workload" "$same" "$pairs"
done

# symbol_sizes <binary> <regex>: the size in bytes of every function whose
# demangled name matches `regex` at its end, " / "-separated (a generic
# function has one per instance), or "absent".
symbol_sizes() {
  local size sizes=()
  for size in $(nm -S --demangle "$1" | awk -v re="$2\$" '
    NF >= 4 { name = $4; for (i = 5; i <= NF; i++) name = name " " $i; if (name ~ re) print $2 }'); do
    sizes+=("$((16#$size))")
  done
  if [ "${#sizes[@]}" -eq 0 ]; then echo absent; else (IFS=/; echo "${sizes[*]}" | sed 's|/| / |g'); fi
}
echo
echo "symbol sizes in bytes (nm -S), base -> head: a metric that moves while its"
echo "sources did not may be a function inlined into, or out of, its caller"
for symbol in 'Simulation<E>::run' 'BinaryHeap<T,A>::push' 'BinaryHeap<T,A>::pop' \
  'ServingEngine as .*>::on_event' 'ServingEngine::admit' 'ServingEngine::start' \
  'JoinShortestQueue as .*>::place' 'serving::(engine::)?simulate_serving' 'PhaseStats::close' \
  'hashjoin::hash_join_with' 'Table::from_lineitem'; do
  printf '%-36s %s -> %s\n' "$symbol" \
    "$(symbol_sizes "$work/base/benchmark/target/release/benchmark" "$symbol")" \
    "$(symbol_sizes "$head_tree/benchmark/target/release/benchmark" "$symbol")"
done
echo "result files: target/bench-pair/<workload>/"
exit "$status"
