#!/usr/bin/env bash
# Pre-PR gate: everything that must be green before a change ships.
#
#   scripts/check.sh [--xl-smoke] [--faults-smoke] [--engine-smoke] [--round-smoke]
#                    [--analyze-smoke] [--profile-smoke]
#
# Runs, in order:
#   1. tier-1 verify (ROADMAP.md): release build + root test suite
#   2. the full workspace test suite
#   3. formatting check (no diffs allowed)
#   4. clippy over every target, warnings denied
#   5. trace smoke: `repro --fig 7 --scale small --trace` at 1 and 8
#      threads; the chrome trace and the ndjson event log must be
#      byte-identical across thread counts
#
# --xl-smoke additionally runs the 65k-peer / ts50k scale pass
# (`repro --scale xl --fig 7`, exact distances: seconds since the
# structural distance index) and the reduced-peers xl2 pipeline at 1 and 8
# threads (landmark-approximate, refined through the same index: seconds).
# CI runs it on every PR.
#
# --faults-smoke additionally runs the fault-injection sweep at small
# scale twice (1 thread and 8 threads) and fails if the two runs don't
# produce byte-identical sweep tables — the determinism contract of the
# fault layer.
#
# --engine-smoke additionally runs the continuous-operation engine
# (`repro engine --scale small`) traced at 1 and 8 threads and fails
# unless the per-epoch time series, the BENCH entry and both trace files
# are byte-identical — the determinism contract of the engine.
#
# --round-smoke additionally runs a reduced-peers xl2 single round traced
# at 1 and 8 threads and fails unless stdout (walls scrubbed) and both
# trace files are byte-identical — the determinism contract of the
# intra-round parallel sections (LBI generation, aggregation,
# classification, shed/light extraction, VSA input publication).
#
# --analyze-smoke additionally runs the committed engine scenario once,
# evaluates the committed behavioral gates (`gates/*.toml`) against its
# report + trace at 1, 2 and 8 analyzer threads (all must pass, all
# byte-identical), and then checks the negative path: an impossible gate
# must exit nonzero with a violation table naming it.
#
# --profile-smoke additionally runs a profiled reduced-peers xl2
# (`repro xl2 --peers 16384 --profile`) at 1 and 8 threads and fails
# unless the virtual-time flamegraph artifacts (collapsed stacks +
# speedscope JSON) are byte-identical across thread counts and the
# volatile artifacts exist — the determinism contract of the profiling
# layer (DESIGN.md §5c).
set -euo pipefail
cd "$(dirname "$0")/.."

XL_SMOKE=0
FAULTS_SMOKE=0
ENGINE_SMOKE=0
ROUND_SMOKE=0
ANALYZE_SMOKE=0
PROFILE_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --xl-smoke) XL_SMOKE=1 ;;
    --faults-smoke) FAULTS_SMOKE=1 ;;
    --engine-smoke) ENGINE_SMOKE=1 ;;
    --round-smoke) ROUND_SMOKE=1 ;;
    --analyze-smoke) ANALYZE_SMOKE=1 ;;
    --profile-smoke) PROFILE_SMOKE=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The tier-1 build above covers the root package only; without this the
# smokes below would drive whatever stale `repro` an earlier build left.
echo "==> cargo build --release -p proxbal-bench (the repro binary)"
cargo build --release -p proxbal-bench

REPRO="$PWD/target/release/repro"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

# Drops everything that may legitimately differ between two xl2 runs:
# trailing per-line wall-clocks, the prepare/total summary lines, and the
# wrote-filename lines (trace paths differ between the compared runs).
scrub_xl2() { sed -E 's/ +[0-9.]+s$//' "$1" | grep -v -e "^prepare:" -e "^total:" -e "^wrote "; }

echo "==> trace smoke: repro --fig 7 --scale small --trace (threads 1 vs 8)"
(cd "$SMOKE_DIR" && timeout 600 "$REPRO" --fig 7 --scale small --threads 1 --trace t1.json > trace1.txt \
                 && timeout 600 "$REPRO" --fig 7 --scale small --threads 8 --trace t8.json > trace8.txt)
cmp "$SMOKE_DIR/t1.json" "$SMOKE_DIR/t8.json" || {
  echo "chrome trace differs across thread counts" >&2; exit 1; }
cmp "$SMOKE_DIR/t1.ndjson" "$SMOKE_DIR/t8.ndjson" || {
  echo "trace event log differs across thread counts" >&2; exit 1; }
# Stdout (summary table included) is deterministic too; only the
# wall-clock line and the wrote-filename line may differ.
diff <(grep -v -e "wall" -e "^wrote " "$SMOKE_DIR/trace1.txt") \
     <(grep -v -e "wall" -e "^wrote " "$SMOKE_DIR/trace8.txt") || {
  echo "traced repro output differs across thread counts" >&2; exit 1; }

if [[ "$XL_SMOKE" == "1" ]]; then
  echo "==> xl smoke: repro --scale xl --fig 7"
  # In the scratch directory: the run writes a BENCH_repro.json entry and
  # must not overwrite the committed one.
  # ... and must not leak into the engine and faults smokes either, whose
  # first run would merge into it and whose second would not.
  (cd "$SMOKE_DIR" && timeout 300 "$REPRO" --scale xl --fig 7 && rm -f BENCH_repro.json)
  # xl2 at reduced peers: the full sharded + landmark-approximate pipeline,
  # byte-identical across thread counts. A --peers override never writes a
  # BENCH entry, so stdout is the whole contract (minus walls and RSS).
  echo "==> xl2 smoke: repro xl2 --peers 65536 (threads 1 vs 8)"
  # A regression budget: ~3 s a run on a 2-core box now that refinement
  # reads the structural index instead of filling Dijkstra rows.
  (cd "$SMOKE_DIR" && timeout 300 "$REPRO" xl2 --peers 65536 --threads 1 > xl2_t1.txt \
                   && timeout 300 "$REPRO" xl2 --peers 65536 --threads 8 > xl2_t8.txt)
  diff <(scrub_xl2 "$SMOKE_DIR/xl2_t1.txt") <(scrub_xl2 "$SMOKE_DIR/xl2_t8.txt") || {
    echo "xl2 output differs across thread counts" >&2; exit 1; }
fi

if [[ "$FAULTS_SMOKE" == "1" ]]; then
  echo "==> faults smoke: repro --faults 0.1 --scale small (threads 1 vs 8)"
  (cd "$SMOKE_DIR" && timeout 600 "$REPRO" --faults 0.1 --scale small --threads 1 > t1.txt \
                   && mv BENCH_repro.json bench_t1.json \
                   && timeout 600 "$REPRO" --faults 0.1 --scale small --threads 8 > t8.txt \
                   && mv BENCH_repro.json bench_t8.json)
  # The sweep table is deterministic; only the wall-clock line may differ.
  diff <(grep -v "wall" "$SMOKE_DIR/t1.txt") <(grep -v "wall" "$SMOKE_DIR/t8.txt") || {
    echo "fault sweep output differs across thread counts" >&2; exit 1; }
  diff "$SMOKE_DIR/bench_t1.json" "$SMOKE_DIR/bench_t8.json" || {
    echo "fault sweep JSON differs across thread counts" >&2; exit 1; }
fi

if [[ "$ROUND_SMOKE" == "1" ]]; then
  echo "==> round smoke: repro xl2 --peers 16384 --trace (threads 1 vs 8)"
  (cd "$SMOKE_DIR" && timeout 180 "$REPRO" xl2 --peers 16384 --threads 1 --trace r1.json > round_t1.txt \
                   && timeout 180 "$REPRO" xl2 --peers 16384 --threads 8 --trace r8.json > round_t8.txt)
  cmp "$SMOKE_DIR/r1.json" "$SMOKE_DIR/r8.json" || {
    echo "round chrome trace differs across thread counts" >&2; exit 1; }
  cmp "$SMOKE_DIR/r1.ndjson" "$SMOKE_DIR/r8.ndjson" || {
    echo "round trace event log differs across thread counts" >&2; exit 1; }
  diff <(scrub_xl2 "$SMOKE_DIR/round_t1.txt") <(scrub_xl2 "$SMOKE_DIR/round_t8.txt") || {
    echo "round output differs across thread counts" >&2; exit 1; }
  # The intra-round spans actually landed in the event log.
  for span in round/lbi round/aggregate round/vsa round/transfer; do
    grep -q "$span" "$SMOKE_DIR/r1.ndjson" || {
      echo "round smoke: span $span missing from the trace" >&2; exit 1; }
  done
fi

if [[ "$ENGINE_SMOKE" == "1" ]]; then
  echo "==> engine smoke: repro engine --scale small (threads 1 vs 8)"
  # A regression budget, not a hang guard: each run takes about a second.
  (cd "$SMOKE_DIR" && timeout 120 "$REPRO" engine --scale small --epochs 12 --threads 1 --trace e1.json > e1.txt \
                   && mv BENCH_repro.json bench_e1.json \
                   && timeout 120 "$REPRO" engine --scale small --epochs 12 --threads 8 --trace e8.json > e8.txt \
                   && mv BENCH_repro.json bench_e8.json)
  # The per-epoch series is deterministic; only the wall-clock line, the
  # wrote-filename line (trace paths differ between the compared runs) and
  # the volatile wall/threads fields of the BENCH entry may differ.
  diff <(grep -v -e "wall" -e "^wrote " "$SMOKE_DIR/e1.txt") \
       <(grep -v -e "wall" -e "^wrote " "$SMOKE_DIR/e8.txt") || {
    echo "engine time series differs across thread counts" >&2; exit 1; }
  diff <(grep -v -E '"(total_wall_s|threads)"' "$SMOKE_DIR/bench_e1.json") \
       <(grep -v -E '"(total_wall_s|threads)"' "$SMOKE_DIR/bench_e8.json") || {
    echo "engine BENCH entry differs across thread counts" >&2; exit 1; }
  cmp "$SMOKE_DIR/e1.json" "$SMOKE_DIR/e8.json" || {
    echo "engine chrome trace differs across thread counts" >&2; exit 1; }
  cmp "$SMOKE_DIR/e1.ndjson" "$SMOKE_DIR/e8.ndjson" || {
    echo "engine trace event log differs across thread counts" >&2; exit 1; }
fi

if [[ "$PROFILE_SMOKE" == "1" ]]; then
  echo "==> profile smoke: repro xl2 --peers 16384 --profile (threads 1 vs 8)"
  (cd "$SMOKE_DIR" && timeout 180 "$REPRO" xl2 --peers 16384 --threads 1 --profile p1 > prof_t1.txt \
                   && timeout 180 "$REPRO" xl2 --peers 16384 --threads 8 --profile p8 --progress > prof_t8.txt)
  # Virtual-time flamegraphs are pure functions of the trace: byte-identical.
  cmp "$SMOKE_DIR/p1/flame.virt.folded" "$SMOKE_DIR/p8/flame.virt.folded" || {
    echo "virtual-time folded stacks differ across thread counts" >&2; exit 1; }
  cmp "$SMOKE_DIR/p1/flame.virt.speedscope.json" "$SMOKE_DIR/p8/flame.virt.speedscope.json" || {
    echo "virtual-time speedscope profile differs across thread counts" >&2; exit 1; }
  cmp "$SMOKE_DIR/p1/trace_summary.txt" "$SMOKE_DIR/p8/trace_summary.txt" || {
    echo "trace summary differs across thread counts" >&2; exit 1; }
  # Volatile artifacts exist and carry the profiled phases.
  for f in flame.wall.folded resources.txt; do
    [[ -s "$SMOKE_DIR/p1/$f" ]] || { echo "profile smoke: $f missing or empty" >&2; exit 1; }
  done
  grep -q "^xl2" "$SMOKE_DIR/p1/resources.txt" || {
    echo "profile smoke: xl2 phase missing from resources.txt" >&2; exit 1; }
  grep -q "round/lbi" "$SMOKE_DIR/p1/flame.virt.folded" || {
    echo "profile smoke: round spans missing from the flamegraph" >&2; exit 1; }
  # Stdout stays deterministic modulo walls and wrote-filename lines.
  diff <(scrub_xl2 "$SMOKE_DIR/prof_t1.txt") <(scrub_xl2 "$SMOKE_DIR/prof_t8.txt") || {
    echo "profiled xl2 output differs across thread counts" >&2; exit 1; }
fi

if [[ "$ANALYZE_SMOKE" == "1" ]]; then
  echo "==> analyze smoke: committed engine scenario vs gates/ (threads 1/2/8)"
  GATES="$PWD/gates"
  # A regression budget: ~3 s on a 2-core box while K-nary-tree maintenance
  # is change-driven (DESIGN.md §6a); slow CI runners get 40× headroom.
  (cd "$SMOKE_DIR" && timeout 120 "$REPRO" engine --trace ae.json --json ae-report.json > /dev/null)
  for t in 1 2 8; do
    (cd "$SMOKE_DIR" && "$REPRO" analyze ae-report.json ae.ndjson \
        --gates "$GATES" --out "gates_t$t.json" --threads "$t" > "analyze_t$t.txt") || {
      echo "committed gates failed at $t analyzer thread(s)" >&2
      cat "$SMOKE_DIR/analyze_t$t.txt" >&2
      exit 1
    }
  done
  for t in 2 8; do
    cmp "$SMOKE_DIR/analyze_t1.txt" "$SMOKE_DIR/analyze_t$t.txt" || {
      echo "analyze table differs between 1 and $t threads" >&2; exit 1; }
    cmp "$SMOKE_DIR/gates_t1.json" "$SMOKE_DIR/gates_t$t.json" || {
      echo "analyze gate report differs between 1 and $t threads" >&2; exit 1; }
  done
  # Negative path: a violated gate must fail loudly and name itself.
  printf '[[gate]]\nname = "impossible"\nsource = "report"\nkind = "scalar"\nexpr = "max(heavy)"\nop = "<="\nthreshold = -1\n' \
    > "$SMOKE_DIR/bad_gate.toml"
  if (cd "$SMOKE_DIR" && "$REPRO" analyze ae-report.json --gates bad_gate.toml > bad.txt); then
    echo "analyze smoke: impossible gate did not fail the run" >&2; exit 1
  fi
  grep -q "impossible" "$SMOKE_DIR/bad.txt" && grep -q "FAIL" "$SMOKE_DIR/bad.txt" || {
    echo "analyze smoke: violation table does not name the broken gate" >&2; exit 1; }
fi

echo "==> all checks passed"
