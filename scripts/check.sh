#!/usr/bin/env bash
# Pre-PR gate: everything that must be green before a change ships.
#
#   scripts/check.sh [--xl-smoke] [--faults-smoke] [--engine-smoke] [--round-smoke]
#                    [--analyze-smoke] [--profile-smoke]
#
# Runs, in order: tier-1 verify (ROADMAP.md: release build + root test
# suite), the workspace test suite, no test registered twice in one test
# binary, the K-nary tree's differential
# histories in release at 4x their cases, `cargo fmt --check`, clippy over every
# target with warnings denied, rustdoc over the workspace with warnings
# denied (no broken intra-doc link), the cap of 3 on `fn reference_*`
# declarations (`scripts/surface.sh`), no unused `[dependencies]` entry,
# the `churn_self_repair` example (the one
# EXPERIMENTS.md quotes numbers from), the trace smoke, the opted-in
# smokes, and last the `benchmark/` package built against this checkout
# with `pbench all --smoke`.
#
# A thread-invariance smoke is one call of `smoke` below: the same `repro`
# command at 1 and 8 threads, scrubbed stdout diffed, listed artifacts
# `cmp`-ed. Always: `figs 7 --scale small --trace` (both trace files and
# the BENCH entry).
#   --xl-smoke       `xl` once (65k peers, seconds), then
#                    `xl2 --peers 65536` (stdout). CI runs it on every PR.
#   --faults-smoke   `faults 0.1 --scale small --trace` (stdout, BENCH
#                    entry, both trace files — the DES spans and histograms)
#   --engine-smoke   `engine --scale small --trace`, then `engine --epochs 40
#                    --trace` at full scale (stdout, BENCH entry, both trace
#                    files)
#   --round-smoke    `xl2 --peers 16384 --trace` (stdout, both trace files,
#                    the four `round/*` spans present) — the intra-round
#                    parallel sections
#   --profile-smoke  `xl2 --peers 16384 --profile` (virtual-time flamegraphs
#                    and trace summary byte-identical, volatile artifacts
#                    present, the `tree`, `oracle/index_build` and
#                    `prepare/topology` phases within their allocated-byte
#                    budgets, `round/lbi`, `round/aggregate`,
#                    `round/vsa/candidates`, `round/vsa/inputs`,
#                    `round/transfer/distances` and `prepare/attach` within
#                    their allocation-count budgets; DESIGN.md §5a, §5c,
#                    §6b, §6c)
#   --analyze-smoke  the committed engine scenario (profiled: `engine/des/*`
#                    and `engine/round` phases present) against `gates/*.toml`
#                    (all pass), then an impossible gate must exit nonzero
#                    with a violation table naming it
set -euo pipefail
cd "$(dirname "$0")/.."

XL_SMOKE=0 FAULTS_SMOKE=0 ENGINE_SMOKE=0 ROUND_SMOKE=0 ANALYZE_SMOKE=0 PROFILE_SMOKE=0
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

# Each test is registered once: `compat/proptest`'s `proptest!` adds no
# `#[test]` of its own (every property carries one, as upstream), so a name
# listed twice within one test binary means a test that runs twice.
echo "==> no test registered twice (cargo test --workspace -- --list)"
twice=$(cargo test --workspace -q -- --list 2> /dev/null \
  | awk '/^[0-9]+ tests?, [0-9]+ benchmarks?$/ { delete seen; next } /: test$/ && seen[$0]++')
if [ -n "$twice" ]; then
  echo "FAILED: tests registered twice in one binary:" >&2
  echo "$twice" >&2
  exit 1
fi

# The K-nary tree's differential histories against `ktree::spec` are the
# reference for the suspects a maintenance round lists: in release, at 4x
# their default 192 cases, within a 60 s budget (about 10 s on 2 cores).
echo "==> ktree differential histories: release, PROPTEST_CASES=768, <= 60 s"
cargo test --release -q -p proxbal-ktree --lib --no-run
PROPTEST_CASES=768 timeout 60 cargo test --release -q -p proxbal-ktree --lib prop_histories_match_the_spec

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# A fast path keeps one slow reference at most, and a kernel's earlier copy
# is no reference (ROADMAP.md, process rules): the count of `fn reference_*`
# only goes down. Raising the cap is a decision CHANGES.md records.
echo "==> scripts/surface.sh: references <= 3"
references=$(scripts/surface.sh | awk '$1 == "references" { print $2 }')
if [ "$references" -gt 3 ]; then
  echo "FAILED: $references \`fn reference_*\` declarations, the cap is 3" >&2
  exit 1
fi

# Every `[dependencies]` entry of a package in the workspace is named (as a
# path, a `use` or an `extern crate`) in that package's own sources:
# `src/` (with `src/bin/`), `tests/` or `examples/`. A dependency nothing
# names only adds build time and a stale edge to the crate graph.
echo "==> every declared dependency is named in its package's sources"
unused=0
for manifest in Cargo.toml crates/*/Cargo.toml compat/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  sources=$(for d in src tests examples; do if [[ -d "$dir/$d" ]]; then echo "$dir/$d"; fi; done)
  for dep in $(awk '/^\[/ { on = ($0 == "[dependencies]"); next }
                    on && /^[A-Za-z0-9_-]+ *[.=]/ { sub(/ *[.=].*/, ""); print }' "$manifest"); do
    ident=${dep//-/_}
    # shellcheck disable=SC2086
    grep -rqE --include='*.rs' "\\b$ident::|\\buse $ident\\b|extern crate $ident\\b" $sources || {
      echo "FAILED: $manifest declares $dep, which none of its sources names" >&2; unused=1; }
  done
done
[[ "$unused" == "0" ]] || exit 1

echo "==> cargo run --release --example churn_self_repair"
cargo run --release --example churn_self_repair

# The tier-1 build above covers the root package only; without this the
# smokes below would drive whatever stale `repro` an earlier build left.
echo "==> cargo build --release -p proxbal-bench (the repro binary)"
cargo build --release -p proxbal-bench

REPRO="$PWD/target/release/repro"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

# shellcheck source=scripts/scrub.sh
source scripts/scrub.sh

# smoke <name> <budget-seconds> <artifacts> <repro args...>
# Runs `repro <args> --threads T` for T in {1, 8}, each in its own scratch
# sub-directory (same relative artifact names, no BENCH_repro.json
# collisions, nothing leaks into the checkout); the scrubbed stdout must
# `diff` clean and every artifact be `cmp`-equal. The budget is a
# regression budget, not a hang guard.
smoke() {
  local name="$1" budget="$2" artifacts="$3"
  shift 3
  echo "==> $name smoke: repro $* (threads 1 vs 8)"
  local t
  for t in 1 8; do
    mkdir -p "$SMOKE_DIR/$name/t$t"
    (cd "$SMOKE_DIR/$name/t$t" && timeout "$budget" "$REPRO" "$@" --threads "$t" > stdout.txt)
  done
  diff <(scrub "$SMOKE_DIR/$name/t1/stdout.txt") <(scrub "$SMOKE_DIR/$name/t8/stdout.txt") || {
    echo "$name smoke: stdout differs across thread counts" >&2; exit 1; }
  local f
  for f in $artifacts; do
    cmp "$SMOKE_DIR/$name/t1/$f" "$SMOKE_DIR/$name/t8/$f" || {
      echo "$name smoke: $f differs across thread counts" >&2; exit 1; }
  done
}

smoke trace 600 "BENCH_repro.json t.json t.ndjson" figs 7 --scale small --trace t.json

if [[ "$XL_SMOKE" == "1" ]]; then
  echo "==> xl smoke: repro xl"
  mkdir -p "$SMOKE_DIR/xl"
  (cd "$SMOKE_DIR/xl" && timeout 300 "$REPRO" xl)
  # xl2 at reduced peers: the full sharded + landmark-approximate pipeline.
  # A --peers override never writes a BENCH entry; stdout rounds locality to
  # one decimal, so the --json results (moved load, frac2/frac10, mean
  # distance, message counts at full precision) are compared too. ~3 s a
  # run on a 2-core box now that refinement reads the structural index
  # instead of filling Dijkstra rows.
  smoke xl2 300 "x.json" xl2 --peers 65536 --json x.json
fi

if [[ "$FAULTS_SMOKE" == "1" ]]; then
  smoke faults 600 "BENCH_repro.json f.json f.ndjson" faults 0.1 --scale small --trace f.json
fi

if [[ "$ROUND_SMOKE" == "1" ]]; then
  smoke round 180 "r.json r.ndjson" xl2 --peers 16384 --trace r.json
  # The intra-round spans actually landed in the event log.
  for span in round/lbi round/aggregate round/vsa round/transfer; do
    grep -q "$span" "$SMOKE_DIR/round/t1/r.ndjson" || {
      echo "round smoke: span $span missing from the trace" >&2; exit 1; }
  done
fi

if [[ "$ENGINE_SMOKE" == "1" ]]; then
  # Each run takes about a second; the BENCH entry is `cmp`-equal because
  # nothing volatile is ever written to it.
  smoke engine 120 "BENCH_repro.json e.json e.ndjson" engine --scale small --epochs 12 --trace e.json
  # 4,096 peers over 40 epochs: back-to-back emergency balances, so a DES
  # shadow on the second thread lands at the very next bind (DESIGN.md §6).
  # About a second a run on a 2-core box.
  smoke engine-full 300 "BENCH_repro.json e.json e.ndjson" engine --epochs 40 --trace e.json
fi

if [[ "$PROFILE_SMOKE" == "1" ]]; then
  # Virtual-time flamegraphs are pure functions of the trace: byte-identical.
  smoke profile 180 "p/flame.virt.folded p/flame.virt.speedscope.json p/trace_summary.txt" \
    xl2 --peers 16384 --profile p --progress
  # Volatile artifacts exist and carry the profiled phases.
  P1="$SMOKE_DIR/profile/t1/p"
  for f in flame.wall.folded resources.txt; do
    [[ -s "$P1/$f" ]] || { echo "profile smoke: $f missing or empty" >&2; exit 1; }
  done
  grep -q "^xl2" "$P1/resources.txt" || {
    echo "profile smoke: xl2 phase missing from resources.txt" >&2; exit 1; }
  grep -q "round/lbi" "$P1/flame.virt.folded" || {
    echo "profile smoke: round spans missing from the flamegraph" >&2; exit 1; }
  # Allocation sizes are a pure function of the scenario, so the bytes the
  # `tree` phase asks for guard the packed K-nary-tree arena (DESIGN.md §6b)
  # without a million-peer run: leaves take no slot, so 81,920 positions
  # reserve 3/2 × 81,920 + 16 = 122,896 slots at 25 B = 3,072,400 B, and
  # the build reads the ring's columns in place (3,075,385 B in all; a
  # copy of the ring adds 655,360 B, and one slot per leaf 6.3 MB). The cap
  # is the arena plus 10 %.
  TREE_BYTES="$(awk '$1 == "tree" { print $NF; exit }' "$P1/resources.txt")"
  [[ "$TREE_BYTES" -le 3400000 ]] || {
    echo "profile smoke: the tree phase allocated $TREE_BYTES bytes (> 3,400,000)" >&2; exit 1; }
  # The same for the transit-stub index (DESIGN.md §5a): its BFS fill keeps
  # the ts50k build at 6.2 MB, 5.4 MB of it the `u8` per-stub tables (6.7 MB
  # with a `Vec` of members per domain, 12.0 MB with `u16` tables; a
  # per-domain graph + Dijkstra fill allocated 62.2 MB).
  INDEX_BYTES="$(awk '$1 == "oracle/index_build" { print $NF; exit }' "$P1/resources.txt")"
  [[ -n "$INDEX_BYTES" && "$INDEX_BYTES" -le 8500000 ]] || {
    echo "profile smoke: oracle/index_build allocated ${INDEX_BYTES:-no} bytes (> 8,500,000)" >&2; exit 1; }
  # And for generating the ts50k underlay (DESIGN.md "The underlay graph"):
  # the edge list, then one adjacency that stores each domain's arcs as
  # one-byte member offsets, and a one-byte latency per intradomain arc,
  # 61.2 MB in all (85.8 MB with a `u32` target and a `u16` weight per
  # metric for every arc; 109.9 MB when each graph kept its own 8-byte
  # arcs).
  TOPOLOGY_BYTES="$(awk '$1 == "prepare/topology" { print $NF; exit }' "$P1/resources.txt")"
  [[ -n "$TOPOLOGY_BYTES" && "$TOPOLOGY_BYTES" -le 76500000 ]] || {
    echo "profile smoke: prepare/topology allocated ${TOPOLOGY_BYTES:-no} bytes (> 76,500,000)" >&2; exit 1; }
  # Allocation *counts* (the column before the bytes) of the per-peer work
  # (DESIGN.md §6c): report bindings in a peer-indexed array and LBI inputs
  # in one slot-ordered array, folded by a walk that clones nothing that
  # allocates (68 and 18 calls; the bindings' sorted map made `round/lbi`
  # 2,795, a boxed LBI per report target in a slot-indexed map 19,203 and
  # 36, and the workers' clones of those boxes 16,435 at two threads); shed
  # sets and light slots appended to one buffer per chunk (65; a candidate
  # list per heavy peer in a sorted map was 14,860, and with a scratch per
  # peer 103,208); one entry node per participant, its key computed once
  # per distinct landmark vector in stack buffers (62; 10,060 with two
  # allocations per distinct vector and lists filled per entry node, 40,576
  # with one key and one sorted insert per record); one depth-first VSA
  # walk over two record stacks, with an assignment buffer per depth (316;
  # 6,420 with two lists per entry node merged level by level and a
  # counter name allocated per rendezvous point); transfer distances from
  # one sorted key list, each distinct endpoint pair measured once (181, of
  # which 72 build the transit-stub index over flat columns; 3,414 with a
  # `Vec` of members per domain, and a hash memo with a sorted map per
  # refined source was 10,124); the flat overlay's columns, each
  # allocated once, the positions' taken over (16 calls for
  # `prepare/ring`; 17 with a copy of the positions, and a `Vec` per peer
  # and a `BTreeMap` ring made 23,857), and one batch of transfers that
  # moves each receiver's run within the shared column at most once (13
  # for `round/transfer/apply`; 17 one move at a time, and reallocating a
  # `Vec` per receiver made 5,648).
  # `prepare/attach` attaches the peers and fills the 15 latency landmark
  # rows, all from transit sources, through the graph's decomposition into
  # the oracle's one row map (1,098 calls and 5.45 MB; one Dijkstra per row
  # made it 6,885 calls and 6.55 MB, and a row slot and a lock per underlay
  # node 6,886 calls and 7.81 MB).
  # Every cap is the count plus 25 %, rounded down: 17 × 1.25 → 22,
  # 62 → 78, 316 → 395, 181 → 226, 1,098 → 1,372.
  budget_calls() {
    local calls
    calls="$(awk -v p="$1" '$1 == p { print $(NF-1); exit }' "$P1/resources.txt")"
    [[ -n "$calls" && "$calls" -le "$2" ]] || {
      echo "profile smoke: $1 made ${calls:-no} allocation calls (> $2)" >&2; exit 1; }
  }
  budget_calls round/lbi 200
  budget_calls round/aggregate 200
  budget_calls round/vsa/candidates 500
  budget_calls round/vsa/inputs 78
  budget_calls round/vsa/sweep 395
  budget_calls round/transfer/distances 226
  budget_calls prepare/ring 22
  budget_calls round/transfer/apply 22
  budget_calls prepare/attach 1372
fi

if [[ "$ANALYZE_SMOKE" == "1" ]]; then
  echo "==> analyze smoke: committed engine scenario vs gates/"
  GATES="$PWD/gates"
  # A regression budget: ~3 s on a 2-core box while K-nary-tree maintenance
  # is change-driven (DESIGN.md §6a); slow CI runners get 40× headroom.
  (cd "$SMOKE_DIR" && timeout 120 "$REPRO" engine --trace ae.json --json ae-report.json \
      --profile ae-profile > /dev/null)
  # `--profile` attributes the epoch: the DES shadow and the round passes
  # are phases of their own (what CI's gates job asserts). With more than
  # one thread `engine/des/run` is a root row of its own, recorded on the
  # worker thread the shadow runs on.
  for phase in engine/des/bind engine/des/run engine/round; do
    grep -q "$phase" "$SMOKE_DIR/ae-profile/resources.txt" || {
      echo "analyze smoke: phase $phase missing from resources.txt" >&2; exit 1; }
  done
  (cd "$SMOKE_DIR" && "$REPRO" analyze ae-report.json ae.ndjson \
      --gates "$GATES" --out gates.json > analyze.txt) || {
    echo "committed gates failed" >&2
    cat "$SMOKE_DIR/analyze.txt" >&2
    exit 1
  }
  # Negative path: a violated gate must fail loudly and name itself.
  printf '[[gate]]\nname = "impossible"\nsource = "report"\nreduce = "count"\nop = "<="\nthreshold = -1\n' \
    > "$SMOKE_DIR/bad_gate.toml"
  if (cd "$SMOKE_DIR" && "$REPRO" analyze ae-report.json --gates bad_gate.toml > bad.txt); then
    echo "analyze smoke: impossible gate did not fail the run" >&2; exit 1
  fi
  grep -q "impossible" "$SMOKE_DIR/bad.txt" && grep -q "FAIL" "$SMOKE_DIR/bad.txt" || {
    echo "analyze smoke: violation table does not name the broken gate" >&2; exit 1; }
fi

# `pbench` compiles against the workspace's public names from outside it
# (benchmark/README.md, "What `pbench` calls"): a deleted or renamed pinned
# name must fail here, in the pre-PR gate, not in the acceptance run. What
# benchmark/check.sh ends with; writes under the ignored benchmark/out/.
# cargo refreshes benchmark/Cargo.lock whenever a workspace crate's
# dependency list moved since it was written; only a `benchmark` change may
# carry that, so the lock as found is put back on the way out.
echo "==> benchmark: build pbench against this checkout + smoke every workload"
cp benchmark/Cargo.lock "$SMOKE_DIR/pbench.lock"
trap 'cp "$SMOKE_DIR/pbench.lock" benchmark/Cargo.lock; rm -rf "$SMOKE_DIR"' EXIT
cargo build --release --offline --manifest-path benchmark/Cargo.toml
benchmark/target/release/pbench all --smoke --reps 2 --label smoke

echo "==> all checks passed"
