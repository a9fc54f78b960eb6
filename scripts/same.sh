#!/usr/bin/env bash
# Outputs-unchanged check: runs one fixed set of `repro` invocations through
# this checkout's binary and through one built from <rev>, at --threads 1
# and 8, and compares every artifact they leave.
#
#   scripts/same.sh <rev>        # e.g. scripts/same.sh HEAD~
#
# <rev> is built from `git archive` in a temporary directory. Stdouts are
# compared after check.sh's `scrub` (walls and wrote-lines dropped); every
# other artifact — traces, event logs, reports, BENCH_repro.json, exit
# status — byte for byte. Prints one line per artifact: `same`, or
# `differs` with the first line that differs (this checkout's side) or the
# side that lacks the file. Exits 1 when any line is not `same`.
set -euo pipefail
cd "$(dirname "$0")/.."
# shellcheck source=scripts/scrub.sh
source scripts/scrub.sh

REV="${1:?usage: scripts/same.sh <rev>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

echo "==> building repro at $REV and in this checkout" >&2
mkdir -p "$WORK/src"
git archive "$REV" | tar -x -C "$WORK/src"
(cd "$WORK/src" && cargo build --release --offline -q -p proxbal-bench --target-dir "$WORK/target")
cargo build --release --offline -q -p proxbal-bench
OLD="$WORK/target/release/repro"
NEW="$PWD/target/release/repro"
GATES="$PWD/gates"

# name | repro arguments | artifacts besides stdout and the exit status.
# `analyze` reads what `engine` wrote, so it runs in engine's directory.
RUNS=(
  "all|all --trace t.json|BENCH_repro.json t.json t.ndjson"
  "figs7|figs 7 --scale small --trace t.json|BENCH_repro.json t.json t.ndjson"
  "faults|faults 0.1 --scale small --trace f.json|BENCH_repro.json f.json f.ndjson"
  "engine|engine --trace e.json --json er.json|BENCH_repro.json e.json e.ndjson er.json"
  "xl2|xl2 --peers 65536 --trace x.json|x.json x.ndjson"
)

# run <binary> <dir> <threads>: every invocation of the set into <dir>.
run() {
  local bin="$1" dir="$2" t="$3" spec name args
  for spec in "${RUNS[@]}"; do
    IFS='|' read -r name args _ <<< "$spec"
    mkdir -p "$dir/$name"
    # shellcheck disable=SC2086
    (cd "$dir/$name" \
      && { "$bin" $args --threads "$t" > stdout.txt 2> /dev/null && echo 0 || echo $?; } > status)
  done
  (cd "$dir/engine" \
    && { "$bin" analyze er.json e.ndjson --gates "$GATES" > analyze.txt 2> /dev/null \
         && echo 0 || echo $?; } > analyze.status)
}

# compare <label> <old file> <new file>
FAILED=0
compare() {
  local label="$1" old="$2" new="$3" at
  if [[ ! -e "$old" || ! -e "$new" ]]; then
    [[ -e "$old" ]] && at="this checkout" || at="$REV"
    printf '%-32s differs: missing at %s\n' "$label" "$at"
    FAILED=1
  elif at="$(cmp "$old" "$new" 2>&1)"; then
    printf '%-32s same\n' "$label"
  else
    at="$(sed -nE 's/.*line ([0-9]+).*/\1/p' <<< "$at")"
    printf '%-32s differs at line %s: %.80s\n' "$label" "${at:-?}" "$(sed -n "${at:-1}p" "$new")"
    FAILED=1
  fi
}

for t in 1 8; do
  echo "==> running the set at --threads $t" >&2
  run "$OLD" "$WORK/old/t$t" "$t"
  run "$NEW" "$WORK/new/t$t" "$t"
  for spec in "${RUNS[@]}"; do
    IFS='|' read -r name _ artifacts <<< "$spec"
    o="$WORK/old/t$t/$name" n="$WORK/new/t$t/$name"
    scrub "$o/stdout.txt" > "$o/stdout.scrubbed" || true
    scrub "$n/stdout.txt" > "$n/stdout.scrubbed" || true
    for f in stdout.scrubbed status $artifacts; do
      compare "t$t $name ${f/.scrubbed/}" "$o/$f" "$n/$f"
    done
  done
  o="$WORK/old/t$t/engine" n="$WORK/new/t$t/engine"
  compare "t$t analyze stdout" "$o/analyze.txt" "$n/analyze.txt"
  compare "t$t analyze status" "$o/analyze.status" "$n/analyze.status"
done
exit "$FAILED"
