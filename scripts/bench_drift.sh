#!/usr/bin/env bash
# Bench-drift gate: re-derives the `full`, `small`, `faults` and `engine`
# entries of the committed BENCH_repro.json — every phase's results value:
# Figures 4–8, the rounds, repair, baselines, ablation, overhead, latency
# and drift tables, the fault sweep, the engine's epoch series — and fails
# if any of them changed. The file is the deterministic results record;
# no wall, thread count, RSS or allocation figure is ever written to it
# (speed is `benchmark/`'s job), so the comparison is a plain diff.
#
#   scripts/bench_drift.sh
#
# Expects `cargo build --release -p proxbal-bench` to have run already (CI
# does this in the check job; locally run it first or let this script pay
# the build). The four runs take a few seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ ! -x target/release/repro ]]; then
  echo "==> building repro"
  cargo build --release -p proxbal-bench
fi

REPRO="$PWD/target/release/repro"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Re-derive in a scratch directory so the committed file is never touched.
(cd "$WORK" \
  && timeout 900 "$REPRO" all > /dev/null \
  && timeout 900 "$REPRO" all --scale small > /dev/null \
  && timeout 900 "$REPRO" faults 0.1 --scale small > /dev/null \
  && timeout 900 "$REPRO" engine --scale small > /dev/null)

# Compare only the entries the scratch run regenerated: xl and xl2 are
# nightly (scripts/check.sh --xl-smoke re-derives both pipelines at
# reduced cost).
pick() {
  python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
sub = {k: doc[k] for k in ("full", "small", "faults", "engine") if k in doc}
json.dump(sub, sys.stdout, indent=2, sort_keys=True)
' "$1"
}

# The xl and xl2 entries are not re-derived here, but their presence and
# shape are still gated: a PR that drops the million-peer entry or strips
# a field from it fails fast instead of silently un-gating the nightly
# comparison.
python3 -c '
import json, sys
doc = json.load(open("BENCH_repro.json"))
entry = doc.get("xl2")
if entry is None:
    sys.exit("BENCH_repro.json: missing the xl2 (million-peer) entry")
results = entry.get("results", {})
run = results.get("aware", {})
missing = [k for k in ("seed",) if k not in entry]
missing += ["results." + k for k in ("peers", "underlay_nodes", "virtual_servers",
            "oracle_capacity", "shards", "refine_sources") if k not in results]
missing += ["results.aware." + k for k in ("lbi_messages", "vsa_record_hops",
            "frac2", "frac10", "heavy_after") if k not in run]
if missing:
    sys.exit(f"BENCH_repro.json: xl2 entry lacks fields: {missing}")
if results["peers"] != 1048576:
    sys.exit("BENCH_repro.json: xl2 entry is not the 1M-peer run (%s peers)" % results["peers"])
'

if ! diff -u <(pick BENCH_repro.json) <(pick "$WORK/BENCH_repro.json"); then
  echo >&2
  echo "BENCH_repro.json drift: results changed." >&2
  echo "If the change is intentional, regenerate the entries with:" >&2
  echo "  ./target/release/repro all" >&2
  echo "  ./target/release/repro all --scale small" >&2
  echo "  ./target/release/repro faults 0.1 --scale small" >&2
  echo "  ./target/release/repro engine --scale small" >&2
  echo "and commit the updated BENCH_repro.json." >&2
  exit 1
fi

echo "==> bench metrics match the committed BENCH_repro.json"
