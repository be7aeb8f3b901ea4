#!/usr/bin/env bash
# The workspace's static policy, proved against seeded violations. The policy
# is stock rustc and clippy configuration: the root `clippy.toml`, the root
# manifest's `[workspace.lints.rust]` and `[workspace.lints.clippy]`, and one
# `#![warn(...)]` in each library `lib.rs`. This script shows that it still
# catches what it promises to catch and still exempts what it promises to
# exempt.
#
# It exports `rev` (default HEAD) with `git archive` into a temporary
# directory, seeds violations of every rule into `eedc-dbmsim` — the serving
# module, a `#[cfg(test)]` module and an integration test — runs `cargo clippy -p eedc-dbmsim --all-targets` there, and checks
# every expected diagnostic by lint name, file and line:
#
#   determinism     HashMap, Instant::now        clippy::disallowed_types / _methods
#   float-ordering  partial_cmp                  clippy::disallowed_methods
#   panic-policy    unwrap                       clippy::unwrap_used
#   unsafe-audit    any unsafe, SAFETY or not    unsafe_code (forbid)
#   waiver-hygiene  stale / reason-less expect,  unfulfilled_lint_expectations,
#                   any allow                    clippy::allow_attributes(_without_reason)
#
# A reasoned `#[expect]` that suppresses something passes; an `unsafe` under
# a `// SAFETY:` comment does not. Scope: panic-policy is exempt inside
# `#[cfg(test)]` and in integration tests; the other four rules apply to
# test code too. `forbid` makes an `unsafe` a compile error, so the library
# `unsafe` seeds sit in the seeded `#[cfg(test)]` module: the library target
# itself still compiles, and the integration test that links it is checked.
#
# Needs `jq`. Nightly CI runs it beside the soak; it is not part of
# `check.sh` (it builds a second tree).
#
# Usage: scripts/policy-check.sh [rev]   (default HEAD; pass
#        "$(git stash create)" to check uncommitted tracked changes)
set -euo pipefail
cd "$(dirname "$0")/.."

command -v jq >/dev/null || { echo "policy-check needs jq" >&2; exit 2; }
rev="${1:-HEAD}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git archive "$(git rev-parse --verify "$rev^{commit}")" | tar -x -C "$work"

lib=crates/dbmsim/src/serving/mod.rs
it=crates/dbmsim/tests/fault_properties.rs

# seed <file> <regex> <line>...: insert the lines before the first line of
# <file> that matches <regex>.
seed() {
  local file="$work/$1" pattern="$2"
  shift 2
  BODY="$(printf '%s\n' "$@")" awk -v pat="$pattern" \
    '!done && $0 ~ pat { print ENVIRON["BODY"]; done = 1 } { print }' "$file" >"$file.seeded"
  mv "$file.seeded" "$file"
}

seed "$lib" '^#\[cfg\(test\)\]$' \
  '#[cfg(test)]' \
  'mod seeded_tests {' \
  '    fn seeded_test_helper() -> u8 { let _ = std::time::Instant::now(); "1".parse::<u8>().unwrap() }' \
  '    fn seeded_sneak(p: *const u8) -> u8 { unsafe { *p } }' \
  '    fn seeded_safe(p: &u8) -> u8 {' \
  '        // SAFETY: a reference is valid for reads.' \
  '        unsafe { *(p as *const u8) }' \
  '    }' \
  '}'
seed "$lib" '^(pub )?use ' \
  'use std::collections::HashMap;' \
  'fn seeded_clock() -> std::time::Instant { std::time::Instant::now() }' \
  'fn seeded_worst(a: f64, b: f64) -> std::cmp::Ordering { a.partial_cmp(&b).unwrap() }' \
  '#[expect(clippy::unwrap_used, reason = "seeded")] fn seeded_stale() {}' \
  '#[expect(clippy::unwrap_used)] fn seeded_bare() -> u8 { "1".parse::<u8>().unwrap() }' \
  '#[allow(dead_code, reason = "seeded")] fn seeded_allow() {}' \
  '#[expect(clippy::unwrap_used, reason = "seeded")] fn seeded_waived() -> u8 { "1".parse::<u8>().unwrap() }'
seed "$it" '^type ' \
  'fn seeded_it_clock() -> std::time::Instant { std::time::Instant::now() }' \
  'fn seeded_it_unwrap() -> u8 { "1".parse::<u8>().unwrap() }' \
  'fn seeded_it_sneak(p: *const u8) -> u8 { unsafe { *p } }' \
  '#[allow(dead_code)] fn seeded_it_allow() {}'

# Every diagnostic as "<lint> <file>:<line>", primary spans only. The seeded
# `unsafe` fails the lib-test target; `--keep-going` still checks every other
# target, which cargo would otherwise skip depending on job order.
(cd "$work" && cargo clippy --locked --quiet --keep-going -p eedc-dbmsim --all-targets \
  --message-format=json 2>/dev/null || true) |
  jq -r 'select(.reason == "compiler-message") | .message | select(.code != null)
         | .code.code as $lint | .spans[] | select(.is_primary)
         | "\($lint) \(.file_name):\(.line_start)"' |
  sort -u >"$work/reported"

# at <file> <marker>: the line of <file> holding <marker>.
at() { grep -nF -m1 "$2" "$work/$1" | cut -d: -f1; }

failures=0
check() {
  local want="$1" lint="$2" file="$3" marker="$4" line found=no verdict=caught
  line="$(at "$file" "$marker")"
  grep -qxF "$lint $file:$line" "$work/reported" && found=yes
  [ "$want" = no ] && verdict=clean
  if [ "$found" = "$want" ]; then
    echo "ok    $verdict  $lint  $file:$line"
  else
    echo "FAIL  expected $verdict  $lint  $file:$line" >&2
    failures=$((failures + 1))
  fi
}

check yes clippy::disallowed_types "$lib" 'use std::collections::HashMap;'
check yes clippy::disallowed_methods "$lib" 'fn seeded_clock'
check yes clippy::disallowed_methods "$lib" 'fn seeded_worst'
check yes clippy::unwrap_used "$lib" 'fn seeded_worst'
check yes unfulfilled_lint_expectations "$lib" 'fn seeded_stale'
check yes clippy::allow_attributes_without_reason "$lib" 'fn seeded_bare'
check yes clippy::allow_attributes "$lib" 'fn seeded_allow'
check no clippy::unwrap_used "$lib" 'fn seeded_waived'
check no unfulfilled_lint_expectations "$lib" 'fn seeded_waived'
check yes clippy::disallowed_methods "$lib" 'fn seeded_test_helper'
check no clippy::unwrap_used "$lib" 'fn seeded_test_helper'
check yes unsafe_code "$lib" 'fn seeded_sneak'
check yes unsafe_code "$lib" 'unsafe { *(p as'
check yes clippy::disallowed_methods "$it" 'fn seeded_it_clock'
check no clippy::unwrap_used "$it" 'fn seeded_it_unwrap'
check yes unsafe_code "$it" 'fn seeded_it_sneak'
check yes clippy::allow_attributes "$it" 'fn seeded_it_allow'
check yes clippy::allow_attributes_without_reason "$it" 'fn seeded_it_allow'

if [ "$failures" -ne 0 ]; then
  echo "policy-check FAILED: $failures expectation(s) not met; clippy reported:" >&2
  sed 's/^/  /' "$work/reported" >&2
  exit 1
fi
echo "policy-check passed: every seeded violation caught, every exemption held"
