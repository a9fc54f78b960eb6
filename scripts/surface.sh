#!/usr/bin/env bash
# Code-surface counts: the numbers ROADMAP.md keeps as targets.
#
#   scripts/surface.sh [DIR]      # DIR defaults to this checkout
#
# Prints, over every `crates/**/*.rs` file (`compat` alone counts the
# in-repo stand-ins for external crates):
#   lines       all lines
#   non_test    lines that are not test code. Test code is: a file named
#               `tests.rs` or `*_tests.rs`, a file under a `tests/`
#               directory, each item a `#[cfg(test)]` annotates (from the
#               attribute to the item's closing `}` or `;`, braces counted
#               outside comments and string literals), and every file of a
#               module declared under `#[cfg(test)]` (`#[cfg(test)] mod x;`).
#   pub_fn      lines declaring `pub fn` (not `pub(crate)`, not `const`)
#   suffixed    `pub fn` names ending in _traced, _with, _run, _walls,
#               _threaded or _in
#   test        lines - non_test
#   references  lines declaring a `fn reference_*` (the slow references
#               fast paths are tested against)
#   compat      all lines of every `compat/**/*.rs` file
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

files=$(find crates -name '*.rs' | sort)

lines=$(cat $files | wc -l)
# shellcheck disable=SC2086
non_test=$(python3 - $files <<'EOF'
import os, re, sys

files = sys.argv[1:]
test_file = re.compile(r"(^|/)tests/|(^|/)([a-z0-9_]+_)?tests\.rs$")
attr = "#[cfg(test)]"
literal = re.compile(r'"(\\.|[^"\\])*"' r"|'(\\.|[^'\\])'")
mod_decl = re.compile(r"^\s*(pub(\([^)]*\))?\s+)?mod\s+(\w+)\s*;")

def code(line):
    """The line without string/char literals and a trailing `//` comment."""
    return literal.sub('""', line).split("//", 1)[0]

def test_items(text):
    """Yields (first line, end line, first code line) of each annotated item."""
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        at = code(lines[i]).find(attr)
        if at < 0:
            i += 1
            continue
        first, depth, j = None, 0, i
        rest = code(lines[i])[at + len(attr):]
        while j < len(lines):
            c = rest if j == i else code(lines[j])
            if first is None and c.strip() and not c.strip().startswith("#["):
                first = c
            depth += c.count("{") - c.count("}")
            if first is not None and depth == 0 and c.rstrip().endswith((";", "}")):
                break
            j += 1
        yield i, j, first or ""
        i = j + 1

texts = {f: open(f, encoding="utf-8").read() for f in files}
# Files of modules declared under #[cfg(test)]: `x.rs` or `x/mod.rs`
# beside the declaring file (inside its own directory for a non-root
# file), and everything below `x/`.
test_dirs = []
for f, text in texts.items():
    d, name = os.path.split(f)
    if name not in ("lib.rs", "main.rs", "mod.rs"):
        d = os.path.join(d, name[:-3])
    for _, _, first in test_items(text):
        m = mod_decl.match(first)
        if m:
            test_dirs.append(os.path.join(d, m.group(3)))
def in_test_module(f):
    return any(f == t + ".rs" or f.startswith(t + "/") for t in test_dirs)

total = 0
for f, text in texts.items():
    if test_file.search(f) or in_test_module(f):
        continue
    n = text.count("\n")
    total += n - sum(min(end, n - 1) - start + 1 for start, end, _ in test_items(text))
print(total)
EOF
)
pub_fn=$(cat $files | grep -cE '^\s*pub fn ' || true)
suffixed=$(cat $files | grep -cE '^\s*pub fn [a-z0-9_]+_(traced|with|run|walls|threaded|in)\b' || true)
references=$(cat $files | grep -cE '\bfn reference_' || true)
compat=$(find compat -name '*.rs' -exec cat {} + | wc -l)

printf 'lines       %d\nnon_test    %d\npub_fn      %d\nsuffixed    %d\ntest        %d\nreferences  %d\ncompat      %d\n' \
  "$lines" "$non_test" "$pub_fn" "$suffixed" "$((lines - non_test))" "$references" "$compat"
