#!/usr/bin/env bash
# "A caller or the axe" as a command: list the public items nothing calls.
#
# A declaration is a line `pub [const|unsafe|async] fn NAME`, `pub struct|
# enum|trait|type NAME` or `pub const NAME` that sits before its file's first
# `#[cfg(test)]` in `crates/*/src/**/*.rs` (`src/bin` aside: a binary has no
# callers). Its NAME is then matched as a whole word in every *other* file of
# `crates/*/src`, `crates/*/tests`, `crates/eedc/examples` and `benchmark/src`,
# leaving out comment lines and `pub use` re-exports (a re-export is not a
# caller). A name matched nowhere else is an `orphan`; a name matched only in
# test code (`crates/*/tests`, or after a file's first `#[cfg(test)]`) is an
# `oracle` — something the tests hold live code against, or a leftover only
# its tests keep alive; the reader decides which.
#
# What a word match cannot see: which type a method belongs to. A name
# declared more than once (`new`, `len`, `get`, ...) is therefore skipped,
# counted as `ambiguous`, and printed, sorted, under that count: a type whose
# methods all carry such names never shows up as orphans itself, so the
# reader walks that list by hand. A singly-declared name that also occurs
# elsewhere as a local, a field, an enum variant or inside a string literal
# is counted as called; items used only from their own file's non-test code
# are listed as orphans although they could merely lose `pub`.
#
# Prints one row per item, then counts per crate and in total, then the
# ambiguous names. No threshold and always exit 0: it reports, the reader
# walks the list.
#
# Usage: scripts/callers.sh [rev]   (default: the working tree; with a rev, a
#                                    `git archive` export of it, removed on exit)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then
  work="$(mktemp -d)"
  trap 'rm -rf "$work"' EXIT
  git archive "$(git rev-parse --verify "$1^{commit}")" crates benchmark/src | tar -x -C "$work"
  cd "$work"
fi

{
  find crates -path 'crates/*/src/*' -name '*.rs' -print0
  find crates -path 'crates/*/tests/*' -name '*.rs' -print0
  find crates/eedc/examples benchmark/src -name '*.rs' -print0
} | sort -z | xargs -0 awk '
  FNR == 1 {
    split(FILENAME, part, "/"); crate = part[2]
    in_test = FILENAME ~ /^crates\/[^\/]*\/tests\//
    declares = FILENAME ~ /^crates\/[^\/]*\/src\// && FILENAME !~ /\/src\/bin\//
    in_use = 0
  }
  /^[[:space:]]*#!?\[cfg\(test\)\]/ { in_test = 1 }
  /^[[:space:]]*\/\// { next }
  /^[[:space:]]*pub use / { in_use = 1 }
  in_use { if (/;/) in_use = 0; next }
  {
    if (declares && !in_test && match($0, /^[[:space:]]*pub ((const |unsafe |async )*fn|struct|enum|trait|type|const) +[A-Za-z_][A-Za-z0-9_]*/)) {
      n = split(substr($0, RSTART, RLENGTH), word, " ")
      name = word[n]; declared[name]++
      kind[name] = word[n - 1]; home[name] = FILENAME; at[name] = FNR; owner[name] = crate
    }
    line = $0
    while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
      key = substr(line, RSTART, RLENGTH) SUBSEP FILENAME SUBSEP in_test
      if (!(key in seen)) { seen[key]; files[substr(line, RSTART, RLENGTH), in_test]++ }
      line = substr(line, RSTART + RLENGTH)
    }
  }
  END {
    for (name in declared) {
      if (declared[name] > 1) { printf "ambiguous %s\n", name; continue }
      live = files[name, 0] - 1
      test = files[name, 1] - ((name SUBSEP home[name] SUBSEP 1) in seen)
      if (live > 0) continue
      printf "%-7s %-8s %-6s %-32s %s:%d\n", (test > 0 ? "oracle" : "orphan"), owner[name], kind[name], name, home[name], at[name]
    }
  }
' | LC_ALL=C sort -k2,2 -k1,1 -k4,4 | awk '
  $1 == "ambiguous" { skipped[++ambiguous] = $2; next }
  !($2 in listed) { listed[$2]; order[++crates] = $2 }
  { print; count[$2, $1]++; total[$1]++ }
  END {
    printf "\n%-10s %8s %8s\n", "crate", "orphan", "oracle"
    for (i = 1; i <= crates; i++) printf "%-10s %8d %8d\n", order[i], count[order[i], "orphan"], count[order[i], "oracle"]
    printf "%-10s %8d %8d\n", "total", total["orphan"], total["oracle"]
    printf "(%d names declared more than once skipped as ambiguous)\n", ambiguous
    line = ""
    for (i = 1; i <= ambiguous; i++) {
      if (line != "" && length(line) + length(skipped[i]) > 76) { print line; line = "" }
      line = line "  " skipped[i]
    }
    if (line != "") print line
  }
'
