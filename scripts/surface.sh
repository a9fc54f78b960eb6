#!/usr/bin/env bash
# Code-surface counts: the four numbers ROADMAP.md keeps as targets.
#
#   scripts/surface.sh [DIR]      # DIR defaults to this checkout
#
# Prints, over every `crates/**/*.rs` file:
#   lines       all lines
#   non_test    lines that are not test code. Test code is: a file named
#               `tests.rs` or `*_tests.rs`, a file under a `tests/`
#               directory, and everything from a file's first line that
#               holds `#[cfg(test)]` to its end.
#   pub_fn      lines declaring `pub fn` (not `pub(crate)`, not `const`)
#   suffixed    `pub fn` names ending in _traced, _with, _run, _walls,
#               _threaded or _in
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

files=$(find crates -name '*.rs' | sort)
test_file='(^|/)tests/|(^|/)([a-z0-9_]+_)?tests\.rs$'

lines=$(cat $files | wc -l)
non_test=$(for f in $files; do
  [[ $f =~ $test_file ]] && continue
  awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f"
done | awk '{ s += $1 } END { print s + 0 }')
pub_fn=$(cat $files | grep -cE '^\s*pub fn ' || true)
suffixed=$(cat $files | grep -cE '^\s*pub fn [a-z0-9_]+_(traced|with|run|walls|threaded|in)\b' || true)

printf 'lines     %d\nnon_test  %d\npub_fn    %d\nsuffixed  %d\n' \
  "$lines" "$non_test" "$pub_fn" "$suffixed"
