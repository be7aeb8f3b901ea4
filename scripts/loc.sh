#!/usr/bin/env bash
# "Net-negative" as a command: count the code a simplification PR is judged
# on, the same way on any revision, so a before/after pair can be reproduced.
#
# For every `crates/*/src/**/*.rs` file, a line counts when it sits before the
# file's first `#[cfg(test)]` (or `#![cfg(test)]`: a file that opens with it
# is all test code) and is neither blank nor a comment (first non-blank
# characters `//`, which covers `///` and `//!` docs). A public type is a
# counted line that starts with `pub struct`, `pub enum`, `pub trait` or
# `pub type`. A waiver is a counted line that starts with `#[expect(`: a
# reasoned lint suppression in library code. Integration tests, examples and
# `benchmark/` are not counted. A revision that still vendors a dependency
# under `vendor/*/src` has those files counted too, one `vendor/<name>` row
# each, so a before/after pair shows a vendored crate's deletion.
#
# Prints one row per crate and a total. No threshold: it reports, the reader
# compares.
#
# Usage: scripts/loc.sh [rev]   (default: the working tree; with a rev, a
#                                `git archive` export of it, removed on exit)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  rev="$(git rev-parse --verify "$1^{commit}")"
  git archive "$rev" $(git ls-tree --name-only "$rev" crates vendor) | tar -x -C "$work"
  cd "$work"
fi

printf '%-12s %8s %12s %8s\n' crate lines "pub types" waivers
roots=(crates)
if [ -d vendor ]; then roots+=(vendor); fi
find "${roots[@]}" -path '*/*/src/*' -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 {
    in_test = 0; split(FILENAME, part, "/")
    crate = part[1] == "vendor" ? "vendor/" part[2] : part[2]
  }
  /^[[:space:]]*#!?\[cfg\(test\)\]/ { in_test = 1 }
  in_test || /^[[:space:]]*($|\/\/)/ { next }
  { lines[crate]++ }
  /^[[:space:]]*pub (struct|enum|trait|type) / { types[crate]++ }
  /^[[:space:]]*#\[expect\(/ { waivers[crate]++ }
  END {
    for (crate in lines)
      printf "%-12s %8d %12d %8d\n", crate, lines[crate], types[crate], waivers[crate]
  }
' | sort | awk '
  { print; lines += $2; types += $3; waivers += $4 }
  END { printf "%-12s %8d %12d %8d\n", "total", lines, types, waivers }
'
