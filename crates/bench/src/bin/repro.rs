//! Regenerates every figure and claim of the paper's evaluation (§5).
//!
//! The verb-first form groups the phases into subcommands:
//!
//! ```text
//! repro figs [4 5 6 7 8]   # the figure grid (all five when none given)
//! repro claims [names...]  # the claim grid (all seven when none given)
//! repro faults [rate]      # fault-injection sweep at losses {0,1%,5%,rate}
//! repro xl                 # 65,536 peers on a ts50k underlay (bounded RAM)
//! repro xl2                # 1,048,576 peers: sharded prepare + landmark distances
//! repro engine             # continuous operation: churn + drift + loss
//! repro all                # the full figure + claim grid
//! repro analyze <files>    # behavioral queries over a run's artifacts
//! ```
//!
//! `repro analyze` takes the artifacts a run wrote — an `EngineReport`
//! JSON (`repro engine --json r.json`) and/or a trace event log
//! (`--trace t.json` writes `t.ndjson`) — and either prints a behavioral
//! summary, or with `--gates <dir|file>` evaluates declarative threshold
//! gates (`gates/*.toml`, DESIGN.md §6d) and exits nonzero on violations:
//!
//! ```text
//! repro analyze report.json trace.ndjson            # behavioral summary
//! repro analyze report.json trace.ndjson --gates gates/
//! repro analyze ... --gates gates/ --out analyze-report.json
//! ```
//!
//! Shared flags may follow any subcommand (and the legacy flag-only
//! spelling below keeps working — `repro --all` is an alias of
//! `repro all`):
//!
//! ```text
//! repro --fig 4            # Figure 4: unit-load scatter before/after
//! repro --fig 5            # Figure 5: load by capacity class (Gaussian)
//! repro --fig 6            # Figure 6: load by capacity class (Pareto)
//! repro --fig 7            # Figure 7: moved load vs distance, ts5k-large
//! repro --fig 8            # Figure 8: moved load vs distance, ts5k-small
//! repro --claim rounds     # §5.2: VSA completes in O(log_K N) rounds
//! repro --claim repair     # §3.1.1: tree self-repair after crashes
//! repro --claim baselines  # §1.1: CFS thrashing comparison
//! repro --all              # everything
//! repro --scale xl         # 65,536 peers on a ts50k underlay (bounded RAM)
//! repro ... --scale small  # reduced size for quick runs
//! repro xl2 --peers 65536  # xl2 machinery at a reduced peer count (smoke)
//! repro xl2 ... --exact   # same pipeline, exact distances (sensitivity)
//! repro ... --seed 42      # change the master seed
//! repro ... --threads 4    # worker threads for the sweep engine
//! repro ... --timing       # phases one at a time, wall table; -> BENCH_repro.json
//! repro --faults 0.1       # fault-injection sweep at loss rates {0,1%,5%,10%}
//! repro ... --trace t.json # chrome://tracing trace + t.ndjson event log
//! repro engine --epochs 50 # epoch count of the continuous-operation run
//! repro ... --profile out/ # flamegraphs + resource profile into out/
//! repro ... --progress     # heartbeat lines (epoch k/N, RSS, allocs) on stderr
//! repro ... --quiet        # suppress heartbeats even if --progress is set
//! ```
//!
//! Every phase derives its state from the master seed alone, so the output
//! is bit-identical regardless of `--threads`. The `--trace` collector
//! records only virtual-time spans and deterministic counters, so the trace
//! files obey the same contract — and without `--trace` the collector is
//! disabled and stdout stays byte-identical to an untraced build.
//!
//! `--profile <dir>` (DESIGN.md §5c) enables the trace collector and the
//! phase profiler and writes four artifacts: `flame.virt.folded` and
//! `flame.virt.speedscope.json` weighted by virtual time (deterministic —
//! byte-identical at any `--threads`), plus `flame.wall.folded` and
//! `resources.txt` carrying wall/CPU/allocation numbers (volatile, never
//! compared across runs). Heartbeats go to stderr only, so neither flag
//! can perturb stdout.

use proxbal_bench::headline;
use proxbal_core::NodeClass;
use proxbal_profile::{AllocSnapshot, CountingAlloc, NullSink, ProgressSink, StderrSink};
use proxbal_sim::experiments::{
    ablation_sweep_traced, fig4_unit_load_traced, fig56_class_loads_traced,
    fig78_replicated_traced, repair_after_crash_traced, rounds_scaling_traced, scheme_comparison,
};
use proxbal_sim::metrics::{gini, DistanceHistogram, Summary};
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::{Trace, TraceSummary};
use proxbal_workload::LoadModel;
use std::time::Instant;

/// Allocation accounting for every run: inert (one relaxed load per
/// allocator call) until `enable_counting` flips it on in `main`.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Appends a rendered line to a phase's output buffer (phases run through
/// the parallel engine, so they write to a buffer instead of stdout and the
/// driver prints the buffers in declaration order).
macro_rules! say {
    ($buf:expr) => {{
        use std::fmt::Write as _;
        let _ = writeln!($buf);
    }};
    ($buf:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($buf, $($arg)*);
    }};
}

#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Full,
    Small,
    /// 65,536 peers over a ~50k-node underlay with a bounded oracle cache.
    /// Runs its own phase (four balancer phases + the fig-7-shaped
    /// proximity sweep) instead of the figure/claim grid.
    Xl,
    /// 1,048,576 peers: sharded preparation, sharded KT-tree build and
    /// landmark-approximate transfer distances. One proximity-aware pass,
    /// in place. `--peers` rescales it for smoke runs.
    Xl2,
}

impl Scale {
    fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
            Scale::Xl => "xl",
            Scale::Xl2 => "xl2",
        }
    }
}

struct Args {
    figs: Vec<u32>,
    claims: Vec<String>,
    scale: Scale,
    seed: u64,
    json: Option<String>,
    threads: usize,
    timing: bool,
    faults: Option<f64>,
    /// chrome://tracing output path; also derives the `.ndjson` event-log
    /// path. `None` disables the collector entirely.
    trace: Option<String>,
    /// `repro engine` — run the continuous-operation engine phase.
    engine: bool,
    /// `--epochs` override for the engine phase.
    epochs: Option<usize>,
    /// `--peers` override for the xl2 phase (reduced-scale smoke runs).
    peers: Option<usize>,
    /// `--exact` forces exact distances in the xl2 phase (sensitivity runs
    /// comparing the landmark-approximate scheme against ground truth).
    exact: bool,
    /// `repro analyze` — run behavioral queries/gates over run artifacts.
    analyze: bool,
    /// Artifact paths for `repro analyze` (`.ndjson` = trace event log,
    /// anything else = `EngineReport` JSON).
    inputs: Vec<String>,
    /// `--gates <dir|file>`: evaluate gate files instead of summarizing.
    gates: Option<String>,
    /// `--out <path>`: write the machine-readable gate report JSON.
    out: Option<String>,
    /// `--profile <dir>`: write flamegraph + resource-profile artifacts.
    /// Enables the trace collector and the phase profiler.
    profile: Option<String>,
    /// `--progress`: heartbeat lines on stderr while phases run.
    progress: bool,
    /// `--quiet`: suppress heartbeats even when `--progress` is given.
    quiet: bool,
}

const ALL_CLAIMS: [&str; 7] = [
    "rounds",
    "repair",
    "baselines",
    "ablations",
    "overhead",
    "latency",
    "drift",
];

/// Applies a verb-first subcommand (`repro figs 4 7`, `repro claims drift`,
/// `repro faults 0.1`, `repro xl`, `repro engine`, `repro all`) to `args`,
/// consuming the verb's positional operands. Returns the remaining argv —
/// shared flags — for the common flag loop.
fn apply_subcommand<'a>(
    cmd: &str,
    operands: &'a [String],
    args: &mut Args,
) -> Result<&'a [String], String> {
    let split = operands
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(operands.len());
    let (pos, rest) = operands.split_at(split);
    let no_operands = || match pos {
        [] => Ok(()),
        _ => Err(format!(
            "repro {cmd} takes no positional operands (got {pos:?})"
        )),
    };
    match cmd {
        "figs" => {
            args.figs = if pos.is_empty() {
                vec![4, 5, 6, 7, 8]
            } else {
                pos.iter()
                    .map(|v| parse_value("figs", v, "a figure number"))
                    .collect::<Result<_, _>>()?
            };
        }
        "claims" => {
            args.claims = if pos.is_empty() {
                ALL_CLAIMS.iter().map(|s| s.to_string()).collect()
            } else {
                pos.to_vec()
            };
        }
        "faults" => {
            args.faults = Some(match pos {
                [] => 0.1,
                [rate] => parse_value("faults", rate, "a loss rate")?,
                _ => return Err("repro faults takes at most one loss rate".into()),
            });
        }
        "xl" => {
            no_operands()?;
            args.scale = Scale::Xl;
        }
        "xl2" => {
            no_operands()?;
            args.scale = Scale::Xl2;
        }
        "engine" => {
            no_operands()?;
            args.engine = true;
        }
        "analyze" => {
            if pos.is_empty() {
                return Err("repro analyze needs at least one artifact path (report JSON and/or trace .ndjson)".into());
            }
            args.analyze = true;
            args.inputs = pos.to_vec();
        }
        "all" => {
            no_operands()?;
            args.figs = vec![4, 5, 6, 7, 8];
            args.claims = ALL_CLAIMS.iter().map(|s| s.to_string()).collect();
        }
        other => {
            return Err(format!(
                "unknown subcommand {other} (expected figs|claims|faults|xl|xl2|engine|analyze|all)"
            ));
        }
    }
    Ok(rest)
}

/// Parses `v`, the value given for `flag`; `what` names the expected kind
/// ("a count") in the error.
fn parse_value<T: std::str::FromStr>(flag: &str, v: &str, what: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: {v:?} is not {what}"))
}

/// The value following `flag` on the command line, parsed.
fn next_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs {what}"))?;
    parse_value(flag, &v, what)
}

/// Parses the command line (without the program name). Every malformed or
/// contradictory invocation is an `Err` carrying the one line `main`
/// prints before exiting 2 — nothing here panics, nothing is silently
/// accepted.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        figs: Vec::new(),
        claims: Vec::new(),
        scale: Scale::Full,
        seed: 1,
        json: None,
        threads: proxbal_sim::parallel::default_threads(),
        timing: false,
        faults: None,
        trace: None,
        engine: false,
        epochs: None,
        peers: None,
        exact: false,
        analyze: false,
        inputs: Vec::new(),
        gates: None,
        out: None,
        profile: None,
        progress: false,
        quiet: false,
    };
    let flags: &[String] = match argv.first() {
        Some(first) if !first.starts_with("--") => apply_subcommand(first, &argv[1..], &mut args)?,
        _ => argv,
    };
    let mut threads_given = false;
    let mut it = flags.iter().cloned();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--fig" => args
                .figs
                .push(next_value(&mut it, flag, "a figure number")?),
            "--claim" => args.claims.push(next_value(&mut it, flag, "a name")?),
            "--scale" => {
                let v: String = next_value(&mut it, flag, "full|small|xl|xl2")?;
                args.scale = match v.as_str() {
                    "full" => Scale::Full,
                    "small" => Scale::Small,
                    "xl" => Scale::Xl,
                    "xl2" => Scale::Xl2,
                    _ => return Err(format!("--scale: {v:?} is not full|small|xl|xl2")),
                }
            }
            "--seed" => args.seed = next_value(&mut it, flag, "a seed")?,
            "--json" => args.json = Some(next_value(&mut it, flag, "a path")?),
            "--threads" => {
                args.threads = next_value(&mut it, flag, "a count")?;
                threads_given = true;
            }
            "--timing" => args.timing = true,
            "--trace" => args.trace = Some(next_value(&mut it, flag, "a path")?),
            "--faults" => args.faults = Some(next_value(&mut it, flag, "a loss rate")?),
            "--epochs" => args.epochs = Some(next_value(&mut it, flag, "a count")?),
            "--peers" => args.peers = Some(next_value(&mut it, flag, "a count")?),
            "--exact" => args.exact = true,
            "--gates" => args.gates = Some(next_value(&mut it, flag, "a dir or file")?),
            "--out" => args.out = Some(next_value(&mut it, flag, "a path")?),
            "--profile" => args.profile = Some(next_value(&mut it, flag, "a directory")?),
            "--progress" => args.progress = true,
            "--quiet" => args.quiet = true,
            "--all" => {
                args.figs = vec![4, 5, 6, 7, 8];
                args.claims = ALL_CLAIMS.iter().map(|s| s.to_string()).collect();
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let xl = args.scale == Scale::Xl || args.scale == Scale::Xl2;
    if !xl
        && !args.engine
        && !args.analyze
        && args.faults.is_none()
        && args.figs.is_empty()
        && args.claims.is_empty()
    {
        args.figs = vec![4, 5, 6, 7, 8];
        args.claims = ALL_CLAIMS.iter().map(|s| s.to_string()).collect();
    }

    // What was selected must exist, and must be something the selected
    // phase runs.
    if let Some(fig) = args.figs.iter().find(|f| !(4..=8).contains(*f)) {
        return Err(format!("no figure {fig} in the paper's evaluation"));
    }
    if let Some(claim) = args
        .claims
        .iter()
        .find(|c| !ALL_CLAIMS.contains(&c.as_str()))
    {
        return Err(format!(
            "unknown claim {claim} (expected one of: {})",
            ALL_CLAIMS.join(", ")
        ));
    }
    if let Some(rate) = args.faults.filter(|r| !(0.0..1.0).contains(r)) {
        return Err(format!("--faults rate must be in [0, 1) (got {rate})"));
    }
    let grid = !args.figs.is_empty() || !args.claims.is_empty();
    if args.engine && grid {
        return Err("repro engine runs its own phase (figures/claims not supported)".into());
    }
    if args.engine && xl {
        return Err("repro engine runs at full or small scale".into());
    }
    if args.scale == Scale::Xl2 && grid {
        return Err("repro xl2 runs its own phase (figures/claims not supported)".into());
    }
    if args.scale == Scale::Xl {
        if let Some(fig) = args.figs.iter().find(|&&f| f != 7) {
            return Err(format!(
                "--scale xl runs the fig-7-shaped sweep only (got --fig {fig})"
            ));
        }
        if !args.claims.is_empty() {
            return Err("--scale xl does not run the claim grid".into());
        }
    }
    if args.analyze && args.gates.is_none() && args.out.is_some() {
        return Err("--out only applies with --gates (the summary goes to stdout)".into());
    }
    if args.epochs == Some(0) {
        return Err("--epochs must be >= 1".into());
    }
    // A flag the selected phase would ignore is an error, not a no-op.
    let runs_grid = grid && !args.engine && !xl && !args.analyze;
    let ignored = [
        (
            args.epochs.is_some() && !args.engine,
            "--epochs only applies to repro engine",
        ),
        (
            (args.peers.is_some() || args.exact) && args.scale != Scale::Xl2,
            "--peers and --exact only apply to repro xl2",
        ),
        (
            args.faults.is_some() && (xl || args.engine),
            "--faults does not combine with xl, xl2 or engine",
        ),
        (
            args.timing && !runs_grid,
            "--timing only applies to the figure/claim grid",
        ),
        (
            args.json.is_some() && args.faults.is_some() && !grid,
            "--json has nothing to write for a faults-only run (the sweep's entry goes to BENCH_repro.json)",
        ),
        (
            args.gates.is_some() && !args.analyze,
            "--gates only applies to repro analyze",
        ),
        (
            (args.trace.is_some() || args.profile.is_some()) && args.analyze,
            "--trace and --profile do not apply to repro analyze",
        ),
        (
            threads_given && args.analyze,
            "--threads does not apply to repro analyze (it runs on one thread)",
        ),
    ];
    if let Some((_, e)) = ignored.iter().find(|(bad, _)| *bad) {
        return Err(e.to_string());
    }
    Ok(args)
}

fn scenario(args: &Args, topology: TopologyKind) -> Scenario {
    let mut s = match args.scale {
        Scale::Full => Scenario::builder().seed(args.seed).build(),
        Scale::Small => Scenario::builder()
            .small()
            .peers(512)
            .landmarks(15)
            .seed(args.seed)
            .build(),
        Scale::Xl | Scale::Xl2 => unreachable!("xl runs its own phase"),
    };
    s.topology = topology;
    s
}

#[derive(Clone)]
enum Phase {
    Fig(u32),
    Claim(String),
}

impl Phase {
    fn key(&self) -> String {
        match self {
            Phase::Fig(n) => format!("figure_{n}"),
            Phase::Claim(c) => format!("claim_{c}"),
        }
    }
}

fn run_phase(phase: &Phase, args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    match phase {
        Phase::Fig(4) => fig4(args, trace),
        Phase::Fig(5) => fig56(args, false, trace),
        Phase::Fig(6) => fig56(args, true, trace),
        Phase::Fig(7) => fig78(args, TopologyKind::Ts5kLarge, 7, trace),
        Phase::Fig(8) => fig78(args, TopologyKind::Ts5kSmall, 8, trace),
        Phase::Fig(_) => unreachable!("validated by parse_args"),
        Phase::Claim(c) => match c.as_str() {
            "rounds" => claim_rounds(args, trace),
            "repair" => claim_repair(args, trace),
            "baselines" => claim_baselines(args, trace),
            "ablations" => claim_ablations(args, trace),
            "drift" => claim_drift(args, trace),
            "latency" => claim_latency(args, trace),
            "overhead" => claim_overhead(args, trace),
            _ => unreachable!("validated by parse_args"),
        },
    }
}

/// The largest message-ish count anywhere in a phase's JSON — the per-phase
/// "peak messages" column of BENCH_repro.json.
fn peak_messages(v: &serde_json::Value) -> Option<u64> {
    match v {
        serde_json::Value::Object(map) => map
            .iter()
            .filter_map(|(k, v)| {
                let counts = k.contains("messages")
                    || k.contains("record_hops")
                    || k.contains("notifications");
                if counts {
                    v.as_u64()
                } else {
                    peak_messages(v)
                }
            })
            .max(),
        serde_json::Value::Array(a) => a.iter().filter_map(peak_messages).max(),
        _ => None,
    }
}

/// Merges `key` → `entry` into BENCH_repro.json — the deterministic results
/// record: simulated values only, no wall, thread count, RSS or allocation
/// figure (those go to stdout and `--profile`'s `resources.txt`; speed is
/// measured by `benchmark/`) — preserving every other top-level key an
/// earlier run recorded (the `--timing` doc and the `xl` entry are written
/// by different invocations).
fn merge_bench_json(key: &str, entry: serde_json::Value) {
    let mut doc = std::fs::read_to_string("BENCH_repro.json")
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        .and_then(|v| match v {
            serde_json::Value::Object(m) => Some(m),
            _ => None,
        })
        .unwrap_or_else(serde_json::Map::new);
    if !doc.contains_key("bench") {
        doc.insert("bench".to_string(), serde_json::json!("repro"));
    }
    if !doc.contains_key("paper") {
        doc.insert("paper".to_string(), serde_json::json!(PAPER));
    }
    doc.insert(key.to_string(), entry);
    std::fs::write(
        "BENCH_repro.json",
        serde_json::to_string_pretty(&serde_json::Value::Object(doc)).expect("serialize timings"),
    )
    .expect("write BENCH_repro.json");
    println!("wrote BENCH_repro.json ({key})");
}

/// The paper every written document names.
const PAPER: &str =
    "Zhu & Hu, Towards Efficient Load Balancing in Structured P2P Systems (IPDPS 2004)";

/// Writes the `--json` document of a run: its provenance around `results`.
fn write_json_doc(path: &str, seed: u64, scale: &str, results: serde_json::Value) {
    let doc = serde_json::json!({
        "paper": PAPER,
        "seed": seed,
        "scale": scale,
        "results": results,
    });
    std::fs::write(path, serde_json::to_string_pretty(&doc).expect("serialize"))
        .expect("write json");
    println!("wrote {path}");
}

/// The moved-load CDF table: the aware column, and the ignorant one beside
/// it when that pass ran.
fn moved_load_cdf(aware: &DistanceHistogram, ignorant: Option<&DistanceHistogram>) -> String {
    let mut o = String::new();
    let also = if ignorant.is_some() {
        " | ignorant"
    } else {
        ""
    };
    say!(o, "\n  CDF of moved load (distance: aware{also})");
    let percent = |h: &DistanceHistogram, d| (100.0 * h.fraction_within(d)).max(0.0);
    for d in [0u32, 1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 30, 50] {
        match ignorant {
            Some(ignorant) => say!(
                o,
                "  <={d:>3} hops: {:6.1}% | {:6.1}%",
                percent(aware, d),
                percent(ignorant, d)
            ),
            None => say!(o, "  <={d:>3} hops: {:6.1}%", percent(aware, d)),
        }
    }
    o
}

/// The closing `total: … peak RSS: …` line of the xl runs.
fn print_total(total_wall: f64) {
    match proxbal_bench::peak_rss_bytes() {
        Some(b) => println!(
            "total: {total_wall:.1}s   peak RSS: {:.2} GiB",
            b as f64 / (1u64 << 30) as f64
        ),
        None => println!("total: {total_wall:.1}s   peak RSS: unavailable"),
    }
}

/// The xl-scale phase: all four balancer phases at 65,536 peers over a
/// ts50k underlay (twice: aware + ignorant — the fig-7-shaped proximity
/// sweep), with its simulated headline numbers merged into
/// BENCH_repro.json.
fn run_xl(args: &Args, trace: &mut Trace, progress: &dyn ProgressSink) {
    println!(
        "── xl scale: four-phase protocol at 65,536 peers on ts50k (seed {}) ──",
        args.seed
    );
    let total = Instant::now();
    let out = proxbal_sim::experiments::xl_scale(args.seed, args.threads, trace, progress);
    let total_wall = total.elapsed().as_secs_f64();

    println!(
        "underlay: {} nodes   peers: {}   virtual servers: {}   oracle cache: {} rows",
        out.underlay_nodes, out.peers, out.virtual_servers, out.oracle_capacity
    );
    println!("prepare: {:.1}s", out.prepare_wall_s);
    for run in [&out.aware, &out.ignorant] {
        println!(
            "{:<18}: {}   heavy {} -> {}   transfers {}   {:.1}s",
            format!("proximity-{}", run.label),
            headline(&run.histogram),
            run.heavy_before,
            run.heavy_after,
            run.transfers,
            run.wall_s
        );
    }
    print!(
        "{}",
        moved_load_cdf(&out.aware.histogram, Some(&out.ignorant.histogram))
    );
    print_total(total_wall);

    let entry = serde_json::json!({
        "seed": args.seed,
        "peers": out.peers,
        "underlay_nodes": out.underlay_nodes,
        "virtual_servers": out.virtual_servers,
        "oracle_capacity": out.oracle_capacity,
        "lbi_messages": out.aware.lbi_messages,
        "vsa_record_hops": out.aware.vsa_record_hops,
        "aware_frac2": out.aware.frac2,
        "aware_frac10": out.aware.frac10,
        "ignorant_frac10": out.ignorant.frac10,
        "heavy_after": out.aware.heavy_after.max(out.ignorant.heavy_after),
    });
    merge_bench_json("xl", entry);

    if let Some(path) = &args.json {
        let results = serde_json::to_value(&out).expect("serialize xl output");
        write_json_doc(path, args.seed, "xl", results);
    }
}

/// The xl2 phase: the million-peer run — sharded preparation, sharded
/// KT-tree build, landmark-approximate transfer distances — through one
/// proximity-aware four-phase pass executed in place. Appends an `xl2`
/// entry to BENCH_repro.json unless `--peers` rescaled the run (smoke runs
/// must not clobber the committed full-scale entry).
fn run_xl2(args: &Args, trace: &mut Trace, progress: &dyn ProgressSink) {
    let mut scenario = Scenario::builder().xl2().seed(args.seed).build();
    if let Some(p) = args.peers {
        scenario.peers = p;
    }
    if args.exact {
        scenario.distance_mode = proxbal_sim::DistanceMode::Exact;
    }
    println!(
        "── xl2 scale: sharded prepare + landmark distances at {} peers on ts50k (seed {}) ──",
        scenario.peers, args.seed
    );
    let total = Instant::now();
    let out = proxbal_sim::experiments::xl2_scale(scenario, args.threads, trace, progress);
    let total_wall = total.elapsed().as_secs_f64();

    println!(
        "underlay: {} nodes   peers: {}   virtual servers: {}   oracle cache: {} rows   shards: {}   refine: {} rows",
        out.underlay_nodes,
        out.peers,
        out.virtual_servers,
        out.oracle_capacity,
        out.shards,
        out.refine_sources
    );
    println!(
        "prepare: {:.1}s   tree build: {:.1}s",
        out.prepare_wall_s, out.tree_wall_s
    );
    let run = &out.aware;
    println!(
        "{:<18}: {}   heavy {} -> {}   transfers {}   {:.1}s",
        format!("proximity-{}", run.label),
        headline(&run.histogram),
        run.heavy_before,
        run.heavy_after,
        run.transfers,
        run.wall_s
    );
    // One wall per line with the seconds last, so the thread-invariance
    // smoke (scripts/check.sh scrub_xl2) strips them like every other wall.
    println!("  lbi wall: {:.2}s", run.lbi_wall_s);
    println!("  aggregate wall: {:.2}s", run.aggregate_wall_s);
    println!("  vsa wall: {:.2}s", run.vsa_wall_s);
    println!("  transfer wall: {:.2}s", run.transfer_wall_s);
    print!("{}", moved_load_cdf(&run.histogram, None));
    print_total(total_wall);

    if args.peers.is_none() && !args.exact {
        let entry = serde_json::json!({
            "seed": args.seed,
            "peers": out.peers,
            "underlay_nodes": out.underlay_nodes,
            "virtual_servers": out.virtual_servers,
            "oracle_capacity": out.oracle_capacity,
            "shards": out.shards,
            "refine_sources": out.refine_sources,
            "lbi_messages": run.lbi_messages,
            "vsa_record_hops": run.vsa_record_hops,
            "aware_frac2": run.frac2,
            "aware_frac10": run.frac10,
            "heavy_after": run.heavy_after,
        });
        merge_bench_json("xl2", entry);
    }

    if let Some(path) = &args.json {
        let results = serde_json::to_value(&out).expect("serialize xl2 output");
        write_json_doc(path, args.seed, "xl2", results);
    }
}

/// The `--faults <rate>` phase: the four-phase protocol driven through a
/// seeded fault plan at loss rates {0, 1%, 5%, `<rate>`}, reporting phase
/// completion, repair work, convergence rounds and residual imbalance per
/// rate. Every merged metric is a pure function of `(seed, rates)` — no
/// wall-clocks — so the entry is byte-stable across machines and thread
/// counts and can be diffed by the CI bench-drift gate.
fn run_faults(args: &Args, rate: f64, trace: &mut Trace, progress: &dyn ProgressSink) {
    let mut rates = vec![0.0, 0.01, 0.05, rate];
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rate"));
    rates.dedup();
    let s = scenario(args, TopologyKind::Ts5kLarge);
    let t = Instant::now();
    let rows = proxbal_sim::experiments::fault_sweep(&s, &rates, args.threads, trace, progress);
    let wall = t.elapsed();

    println!(
        "── Fault-injection sweep ({} peers, seed {}) ──",
        s.peers, s.seed
    );
    println!(
        "{:>6} {:>7} {:>5} | {:>6} {:>6} | {:>5} {:>5} {:>6} | {:>8} {:>7} {:>6} | {:>6} {:>6} {:>8} | {:>5} {:>4} {:>4} {:>4}",
        "loss", "crashed", "stale", "agg", "diss", "reatt", "prune", "rounds", "msgs",
        "retries", "gaveup", "heavy0", "heavy1", "residual", "xfers", "rq", "re", "ab"
    );
    for r in &rows {
        println!(
            "{:>5.1}% {:>7} {:>5} | {:>5.1}% {:>5.1}% | {:>5} {:>5} {:>6} | {:>8} {:>7} {:>6} | {:>6} {:>6} {:>8.4} | {:>5} {:>4} {:>4} {:>4}",
            r.loss_rate * 100.0,
            r.crashed_peers,
            r.stale_links,
            r.aggregation_completion * 100.0,
            r.dissemination_completion * 100.0,
            r.repair_reattached,
            r.repair_pruned,
            r.convergence_rounds,
            r.messages,
            r.retries,
            r.gave_up,
            r.heavy_before,
            r.heavy_after,
            r.residual_heavy_fraction,
            r.transfers,
            r.requeued,
            r.reassigned,
            r.abandoned,
        );
    }
    println!("fault sweep wall: {:.2}s", wall.as_secs_f64());

    let entry = serde_json::json!({
        "seed": args.seed,
        "scale": args.scale.name(),
        "rates": rates,
        "rows": rows,
    });
    merge_bench_json("faults", entry);
}

/// The `repro engine` phase: continuous operation — Poisson churn,
/// geometric load drift and 1% message loss playing against periodic +
/// emergency balancing on one virtual clock (DESIGN.md §6). Prints the
/// per-epoch time series and merges an `engine` entry into
/// BENCH_repro.json; every merged field is a pure function of the seed,
/// so the entry is byte-stable across machines and `--threads` settings.
fn run_engine_cmd(args: &Args, trace: &mut Trace, progress: &dyn ProgressSink) {
    let cfg = proxbal_sim::EngineConfig {
        epochs: args.epochs.unwrap_or(50),
        ..proxbal_sim::EngineConfig::default()
    };
    let mut builder = Scenario::builder().seed(args.seed);
    if args.scale == Scale::Small {
        builder = builder.small().peers(512).landmarks(15);
    }
    let scenario = builder
        // Repeated balancing concentrates big virtual servers on the few
        // high-capacity peers; once one drifts heavy its servers fit no
        // light node — the case VS-splitting exists for (claim `drift`).
        .balancer(proxbal_core::BalancerConfig {
            max_splits: 256,
            ..proxbal_core::BalancerConfig::default()
        })
        .churn(proxbal_sim::churn::ChurnConfig::default())
        .drift(proxbal_sim::drift::DriftConfig::default())
        .faults(proxbal_sim::faults::FaultConfig::with_loss(
            0.01,
            args.seed ^ 0xE9_614E,
        ))
        .build();

    println!(
        "── engine: continuous operation, {} peers, {} epochs (seed {}) ──",
        scenario.peers, cfg.epochs, args.seed
    );
    let total = Instant::now();
    let mut prepared = scenario.prepare_run(args.threads, progress);
    let report =
        proxbal_sim::run_engine_with(&mut prepared, &cfg, trace, progress).expect("engine run");
    let total_wall = total.elapsed().as_secs_f64();

    println!(
        "{:>5} {:>6} {:>6} {:>5} | {:>4} {:>5} {:>5} {:>5} | {:>3} {:>6} {:>10} {:>5} {:>7} | {:>7} {:>5}",
        "epoch", "alive", "gini", "heavy", "join", "crash", "stale", "reatt", "bal", "passes",
        "moved", "xfers", "msgs", "desmsg", "retry"
    );
    for s in &report.samples {
        let bal = match (s.balanced, s.emergency) {
            (true, true) => "E",
            (true, false) => "*",
            _ => "-",
        };
        println!(
            "{:>5} {:>6} {:>6.3} {:>5} | {:>4} {:>5} {:>5} {:>5} | {:>3} {:>6} {:>10.3e} {:>5} {:>7} | {:>7} {:>5}",
            s.epoch,
            s.alive_peers,
            s.gini,
            s.heavy,
            s.joins,
            s.crashes,
            s.stale_links,
            s.repair_reattached,
            bal,
            s.balance_passes,
            s.moved,
            s.transfers,
            s.messages,
            s.des_messages,
            s.des_retries,
        );
    }
    println!(
        "joins {}   crashes {}   stale links {}   balances {} ({} emergency)",
        report.joins, report.crashes, report.stale_links, report.balances, report.emergencies
    );
    println!(
        "moved {:.3e}   transfers {}   messages {}   mean gini {:.4}   final heavy {}",
        report.total_moved,
        report.total_transfers,
        report.total_messages,
        report.mean_gini(),
        report.final_heavy()
    );
    println!("engine wall: {total_wall:.2}s");

    let entry = serde_json::json!({
        "seed": args.seed,
        "scale": args.scale.name(),
        "peers": scenario.peers,
        "epochs": cfg.epochs,
        "joins": report.joins,
        "crashes": report.crashes,
        "stale_links": report.stale_links,
        "balances": report.balances,
        "emergencies": report.emergencies,
        "total_moved": report.total_moved,
        "total_transfers": report.total_transfers,
        "total_messages": report.total_messages,
        "mean_gini": report.mean_gini(),
        "final_heavy": report.final_heavy(),
        "final_alive": report.samples.last().map_or(0, |s| s.alive_peers),
    });
    merge_bench_json("engine", entry);

    if let Some(path) = &args.json {
        let results = serde_json::to_value(&report).expect("serialize engine report");
        write_json_doc(path, args.seed, args.scale.name(), results);
    }
}

/// Writes the collected trace (chrome://tracing JSON at the `--trace` path,
/// newline-JSON event log next to it) and prints the summary table. A no-op
/// when `--trace` was not given, so plain runs stay byte-identical.
fn finish_trace(args: &Args, trace: &Trace) {
    let Some(path) = &args.trace else {
        return;
    };
    std::fs::write(path, trace.to_chrome_json()).expect("write trace json");
    let ndjson_path = match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.ndjson"),
        None => format!("{path}.ndjson"),
    };
    std::fs::write(&ndjson_path, trace.to_ndjson()).expect("write trace ndjson");
    print!("{}", TraceSummary::of(trace));
    println!("wrote {path} (chrome://tracing) and {ndjson_path} (event log)");
}

/// Writes the `--profile <dir>` artifacts (DESIGN.md §5c). Deterministic:
/// `flame.virt.folded` + `flame.virt.speedscope.json` (virtual-time
/// weights, pure functions of the trace — byte-identical at any
/// `--threads`) and `trace_summary.txt`. Volatile: `flame.wall.folded` +
/// `resources.txt` (wall/CPU/allocation numbers). A no-op without
/// `--profile`.
fn finish_profile(args: &Args, trace: &Trace) {
    let Some(dir) = &args.profile else {
        return;
    };
    std::fs::create_dir_all(dir).expect("create profile directory");
    let write = |name: &str, data: String| {
        let path = std::path::Path::new(dir).join(name);
        std::fs::write(&path, data).expect("write profile artifact");
        println!("wrote {}", path.display());
    };
    let folded = proxbal_bench::fold_trace(trace);
    write("flame.virt.folded", folded.to_collapsed());
    write(
        "flame.virt.speedscope.json",
        folded.to_speedscope("repro (virtual time)"),
    );
    write("trace_summary.txt", TraceSummary::of(trace).to_string());
    let report = proxbal_profile::report();
    write("flame.wall.folded", report.to_folded_wall());
    let mut res = String::new();
    {
        use std::fmt::Write as _;
        let alloc = AllocSnapshot::global();
        let _ = writeln!(
            res,
            "allocations: {} calls, {} bytes",
            alloc.allocs, alloc.bytes
        );
        let _ = writeln!(
            res,
            "peak counted live bytes: {}",
            proxbal_profile::alloc::peak_live_bytes()
        );
        if let Some(b) = proxbal_profile::peak_rss_bytes() {
            let _ = writeln!(res, "peak rss bytes: {b}");
        }
        if let Some(cpu) = proxbal_profile::cpu_time() {
            let _ = writeln!(res, "cpu time: {:.2}s", cpu.as_secs_f64());
        }
        let _ = writeln!(res);
        res.push_str(&report.to_text());
    }
    write("resources.txt", res);
}

/// `repro analyze`: loads the run artifacts named on the command line,
/// then either prints the behavioral summary or — with `--gates` —
/// evaluates every gate file and exits nonzero on any violation.
fn run_analyze(args: &Args) {
    use proxbal_analyze::{evaluate_gates, load_gates, render_table, Run};
    let mut run = Run::default();
    for path in &args.inputs {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        if let Err(e) = run.load(path, &text) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
    let Some(gate_path) = &args.gates else {
        print!("{}", run.summarize());
        return;
    };
    let gates = load_gates(std::path::Path::new(gate_path)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let results = evaluate_gates(&gates, &run);
    print!("{}", render_table(&results));
    if let Some(out) = &args.out {
        let json = serde_json::to_string_pretty(&results).expect("serialize gate results");
        std::fs::write(out, json + "\n").unwrap_or_else(|e| {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(2);
        });
    }
    if results.iter().any(|r| !r.pass) {
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if args.analyze {
        run_analyze(&args);
        return;
    }
    // Allocation accounting is on for every run (it only feeds stderr
    // heartbeats and volatile profile artifacts, so stdout stays
    // byte-identical); the phase profiler only with --profile.
    proxbal_profile::enable_counting();
    if args.profile.is_some() {
        proxbal_profile::enable_profiler();
    }
    let stderr_sink;
    let progress: &dyn ProgressSink = if args.progress && !args.quiet {
        stderr_sink = StderrSink::default();
        &stderr_sink
    } else {
        &NullSink
    };
    let mut trace = Trace::new(args.trace.is_some() || args.profile.is_some(), "repro");
    run(&args, &mut trace, progress);
    finish_trace(&args, &trace);
    finish_profile(&args, &trace);
}

/// Dispatches to the subcommand; `main` owns the one finishing path. Each
/// subcommand's profile phase closes on return, before the report is read.
fn run(args: &Args, trace: &mut Trace, progress: &dyn ProgressSink) {
    if args.engine {
        let _p = proxbal_profile::phase("engine");
        return run_engine_cmd(args, trace, progress);
    }
    if args.scale == Scale::Xl {
        let _p = proxbal_profile::phase("xl");
        return run_xl(args, trace, progress);
    }
    if args.scale == Scale::Xl2 {
        let _p = proxbal_profile::phase("xl2");
        return run_xl2(args, trace, progress);
    }
    if let Some(rate) = args.faults {
        {
            let _p = proxbal_profile::phase("faults");
            run_faults(args, rate, trace, progress);
        }
        if args.figs.is_empty() && args.claims.is_empty() {
            return;
        }
    }
    let figs = args.figs.iter().map(|&fig| Phase::Fig(fig));
    let claims = args.claims.iter().cloned().map(Phase::Claim);
    let phases: Vec<Phase> = figs.chain(claims).collect();

    // Phases are independent — each prepares its own scenario from the
    // master seed — so they run through the same engine as the inner
    // sweeps. With --timing they run one at a time so per-phase
    // wall-clocks are not distorted by concurrent phases.
    let phase_threads = if args.timing { 1 } else { args.threads };
    let total = Instant::now();
    let ran = proxbal_sim::parallel::map_items_traced(
        &phases,
        phase_threads,
        trace,
        |_, phase, trace| {
            trace.relabel(&phase.key());
            // Worker threads have an empty phase stack, so each grid phase
            // profiles as its own root.
            let _p = proxbal_profile::phase(&phase.key());
            let t = Instant::now();
            let (text, value) = run_phase(phase, args, trace);
            (text, value, t.elapsed())
        },
    );
    let total_wall = total.elapsed();

    // Per phase: what the BENCH entry records (deterministic — name, graph
    // count, peak message count) and what only the `--timing` table shows
    // (the wall).
    let mut results = serde_json::Map::new();
    let mut records = Vec::new();
    let mut walls = Vec::new();
    for (phase, (text, value, wall)) in phases.iter().zip(ran) {
        print!("{text}");
        let key = phase.key();
        let mut entry = serde_json::Map::new();
        entry.insert("phase".into(), serde_json::json!(key.clone()));
        let graphs = value.get("graphs").and_then(serde_json::Value::as_u64);
        if let Some(graphs) = graphs {
            entry.insert("graphs".into(), serde_json::json!(graphs));
        }
        if let Some(m) = peak_messages(&value) {
            entry.insert("peak_messages".into(), serde_json::json!(m));
        }
        records.push(serde_json::Value::Object(entry));
        walls.push((key.clone(), wall.as_secs_f64(), graphs));
        results.insert(key, value);
    }

    if args.timing {
        println!("── Timing (wall-clock per phase) ──");
        for (phase, wall, graphs) in &walls {
            match graphs {
                Some(g) => println!(
                    "{phase:<18} {wall:>8.2}s  ({:.2} graphs/s)",
                    *g as f64 / wall
                ),
                None => println!("{phase:<18} {wall:>8.2}s"),
            }
        }
        println!("{:<18} {:>8.2}s", "total", total_wall.as_secs_f64());
        // One top-level entry per scale, so full/small/xl/faults runs
        // coexist in the committed document.
        let entry = serde_json::json!({
            "seed": args.seed,
            "phases": records,
        });
        merge_bench_json(args.scale.name(), entry);
    }

    if let Some(path) = &args.json {
        let results = serde_json::Value::Object(results);
        write_json_doc(path, args.seed, args.scale.name(), results);
    }
}

fn fig4(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Figure 4: unit load per node before/after load balancing (Gaussian) ──"
    );
    let mut prepared = scenario(args, TopologyKind::None).prepare();
    let out = fig4_unit_load_traced(&mut prepared, trace);
    let before = Summary::of(&out.before);
    let after = Summary::of(&out.after);
    let heavy_before = out
        .report
        .before
        .get(&NodeClass::Heavy)
        .copied()
        .unwrap_or(0);
    let total = out.before.len();
    say!(
        o,
        "nodes: {total}   heavy before: {heavy_before} ({:.0}%)   heavy after: {}",
        100.0 * heavy_before as f64 / total as f64,
        out.report.heavy_after()
    );
    say!(
        o,
        "unit load before: mean {:10.1}  max {:10.1}  gini {:.3}",
        before.mean,
        before.max,
        gini(&out.before)
    );
    say!(
        o,
        "unit load after : mean {:10.1}  max {:10.1}  gini {:.3}",
        after.mean,
        after.max,
        gini(&out.after)
    );
    say!(
        o,
        "(paper: ~75% heavy before; all heavy become light after)\n"
    );
    let value = serde_json::json!({
        "nodes": total,
        "heavy_before": heavy_before,
        "heavy_after": out.report.heavy_after(),
        "gini_before": gini(&out.before),
        "gini_after": gini(&out.after),
        "unit_load_before": { "mean": before.mean, "max": before.max },
        "unit_load_after": { "mean": after.mean, "max": after.max },
    });
    (o, value)
}

fn fig56(args: &Args, pareto: bool, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    let (fig, label) = if pareto {
        (6, "Pareto")
    } else {
        (5, "Gaussian")
    };
    say!(
        o,
        "── Figure {fig}: load by capacity class before/after ({label}) ──"
    );
    let mut s = scenario(args, TopologyKind::None);
    if pareto {
        s.load = LoadModel::pareto(1_000_000.0);
    }
    let mut prepared = s.prepare();
    let out = fig56_class_loads_traced(&mut prepared, trace);
    say!(
        o,
        "{:>10} {:>6} {:>16} {:>16}",
        "capacity",
        "nodes",
        "mean load pre",
        "mean load post"
    );
    let mut classes = Vec::new();
    for (i, cap) in out.class_capacity.iter().enumerate() {
        let b = Summary::of(&out.before[i]);
        let a = Summary::of(&out.after[i]);
        say!(
            o,
            "{:>10} {:>6} {:>16.1} {:>16.1}",
            cap,
            b.count,
            b.mean,
            a.mean
        );
        classes.push(serde_json::json!({
            "capacity": cap, "nodes": b.count,
            "mean_load_before": b.mean, "mean_load_after": a.mean,
        }));
    }
    say!(
        o,
        "(paper: after balancing, load tracks the capacity skew)\n"
    );
    (
        o,
        serde_json::json!({ "workload": label, "classes": classes }),
    )
}

fn fig78(
    args: &Args,
    topology: TopologyKind,
    fig: u32,
    trace: &mut Trace,
) -> (String, serde_json::Value) {
    let mut o = String::new();
    let name = if fig == 7 { "ts5k-large" } else { "ts5k-small" };
    // The paper runs 10 independently generated graphs per topology and
    // pools them; do the same (in parallel) at full scale.
    let graphs = match args.scale {
        Scale::Full => 10,
        Scale::Small => 3,
        Scale::Xl | Scale::Xl2 => unreachable!("xl runs its own phase"),
    };
    say!(
        o,
        "── Figure {fig}: moved load vs transfer distance ({name}, {graphs} graphs) ──"
    );
    let base = scenario(args, topology);
    let out = fig78_replicated_traced(&base, graphs, args.threads, trace);
    say!(o, "proximity-aware   : {}", headline(&out.aware));
    say!(o, "proximity-ignorant: {}", headline(&out.ignorant));
    // Most runs fully balance; an occasional draw leaves a small residue of
    // heavy nodes the one-shot greedy pairing cannot place (their sheddable
    // virtual servers fit no remaining light node — the global slack at
    // ε = 0.05 is only 5%). Bound the residue instead of demanding zero.
    let residue = out.max_heavy_after as f64 / base.peers as f64;
    assert!(
        residue <= 0.02,
        "worst residual heavy fraction {residue:.4} exceeds 2%"
    );
    if out.max_heavy_after > 0 {
        say!(
            o,
            "  (worst run left {} of {} nodes heavy — {:.2}% residue)",
            out.max_heavy_after,
            base.peers,
            100.0 * residue
        );
    }
    o.push_str(&moved_load_cdf(&out.aware, Some(&out.ignorant)));
    let spread = |i: usize| {
        let vals: Vec<f64> = out
            .per_graph
            .iter()
            .map(|g| match i {
                0 => g.0,
                1 => g.1,
                _ => g.2,
            })
            .collect();
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(0.0f64, f64::max);
        (100.0 * lo, 100.0 * hi)
    };
    let (a2l, a2h) = spread(0);
    let (a10l, a10h) = spread(1);
    let (i10l, i10h) = spread(2);
    say!(o, "  per-graph spread: aware<=2 {a2l:.0}-{a2h:.0}%, aware<=10 {a10l:.0}-{a10h:.0}%, ignorant<=10 {i10l:.0}-{i10h:.0}%");
    if fig == 7 {
        say!(
            o,
            "(paper: aware ~67% within 2 hops, ~86% within 10; ignorant ~13% within 10)\n"
        );
    } else {
        say!(
            o,
            "(paper: aware still wins on ts5k-small, with a smaller margin)\n"
        );
    }
    let value = serde_json::json!({
        "topology": name,
        "graphs": graphs,
        "aware": { "cdf": out.aware.cdf(), "mean_distance": out.aware.mean_distance() },
        "ignorant": { "cdf": out.ignorant.cdf(), "mean_distance": out.ignorant.mean_distance() },
    });
    (o, value)
}

fn claim_rounds(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Claim (§5.2): LBI/VSA complete in O(log_K N) message rounds ──"
    );
    let sizes: Vec<usize> = match args.scale {
        Scale::Full => vec![256, 512, 1024, 2048, 4096],
        Scale::Small => vec![64, 128, 256, 512],
        Scale::Xl | Scale::Xl2 => unreachable!("xl runs its own phase"),
    };
    let rows = rounds_scaling_traced(&sizes, &[2, 8], args.seed, args.threads, trace);
    let json = serde_json::to_value(&rows).expect("serialize rows");
    say!(
        o,
        "{:>6} {:>8} {:>3} {:>10} {:>10} {:>10} {:>10}",
        "peers",
        "VSs",
        "K",
        "LBI rnds",
        "dissem",
        "VSA rnds",
        "log_K(M)"
    );
    for r in rows {
        say!(
            o,
            "{:>6} {:>8} {:>3} {:>10} {:>10} {:>10} {:>10.1}",
            r.peers,
            r.virtual_servers,
            r.k,
            r.lbi_rounds,
            r.dissemination_rounds,
            r.vsa_rounds,
            r.log_k_m
        );
    }
    say!(o);
    (o, json)
}

fn claim_repair(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Claim (§3.1.1): tree self-repairs in O(log_K N) rounds after crashes ──"
    );
    let peers = match args.scale {
        Scale::Full => 2048,
        Scale::Small => 256,
        Scale::Xl | Scale::Xl2 => unreachable!("xl runs its own phase"),
    };
    say!(
        o,
        "{:>6} {:>3} {:>8} {:>12} {:>12} {:>13}",
        "peers",
        "K",
        "crash %",
        "crash rnds",
        "regrow rnds",
        "height after"
    );
    // Each (K, crash fraction) cell reruns from the master seed —
    // independent, so the grid goes through the engine.
    let cells: Vec<(usize, f64)> = [2usize, 8]
        .iter()
        .flat_map(|&k| [0.1, 0.25, 0.5].iter().map(move |&f| (k, f)))
        .collect();
    let per_cell = proxbal_sim::parallel::map_items_traced(
        &cells,
        args.threads,
        trace,
        |_, &(k, frac), trace| {
            trace.relabel(&format!("k{k}_crash{frac}"));
            repair_after_crash_traced(peers, frac, k, args.seed, trace)
        },
    );
    let mut rows = Vec::new();
    for ((k, frac), row) in cells.iter().zip(per_cell) {
        say!(
            o,
            "{:>6} {:>3} {:>8.0} {:>12} {:>12} {:>13}",
            row.peers,
            k,
            frac * 100.0,
            row.crash_repair_rounds,
            row.join_repair_rounds,
            row.height_after
        );
        rows.push(serde_json::json!({
            "k": k, "crash_fraction": frac,
            "crash_repair_rounds": row.crash_repair_rounds,
            "join_repair_rounds": row.join_repair_rounds,
            "height_after": row.height_after,
        }));
    }
    say!(o);
    (o, serde_json::Value::Array(rows))
}

fn claim_baselines(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Baselines (§1.1): our scheme vs CFS-style shedding ──"
    );
    let mut s = scenario(args, TopologyKind::None);
    if args.scale == Scale::Full {
        s.peers = 1024; // CFS loop is O(rounds · peers); keep runtime sane
    }
    let prepared = s.prepare();
    let cmp = scheme_comparison(&prepared);
    trace.count("baseline_cfs_thrash_events", cmp.cfs_thrash_events as u64);
    trace.count("baseline_heavy_before", cmp.heavy_before as u64);
    trace.count("baseline_heavy_after", cmp.heavy_after as u64);
    say!(o, "unit-load gini before: {:.3}", cmp.gini_before);
    say!(
        o,
        "unit-load gini after (tree scheme): {:.3}",
        cmp.gini_tree
    );
    say!(
        o,
        "heavy nodes: {} -> {} (tree scheme)",
        cmp.heavy_before,
        cmp.heavy_after
    );
    say!(
        o,
        "CFS baseline: converged = {}, thrash events = {}",
        cmp.cfs_converged,
        cmp.cfs_thrash_events
    );
    say!(
        o,
        "(the paper criticizes CFS for exactly this load thrashing)\n"
    );
    let json = serde_json::to_value(&cmp).expect("serialize comparison");
    (o, json)
}

fn claim_ablations(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Ablations: design choices on ts5k-large (aware mode unless noted) ──"
    );
    let mut s = scenario(args, TopologyKind::Ts5kLarge);
    if args.scale == Scale::Full {
        s.peers = 2048; // 14 full-scale runs; keep runtime sane
    }
    let prepared = s.prepare();
    let rows = ablation_sweep_traced(&prepared, args.threads, trace);
    let json = serde_json::to_value(&rows).expect("serialize ablations");
    say!(
        o,
        "{:<40} {:>6} {:>12} {:>7} {:>7} {:>6}",
        "variant",
        "heavy",
        "moved load",
        "<=2",
        "<=10",
        "mean"
    );
    for r in rows {
        say!(
            o,
            "{:<40} {:>6} {:>12.3e} {:>6.1}% {:>6.1}% {:>6.2}",
            r.label,
            r.heavy_after,
            r.moved_load,
            100.0 * r.frac2,
            100.0 * r.frac10,
            r.mean_distance
        );
    }
    say!(o);
    (o, json)
}

fn claim_drift(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(o, "── Extension: periodic re-balancing under load drift ──");
    let peers = match args.scale {
        Scale::Full => 1024,
        Scale::Small => 256,
        Scale::Xl | Scale::Xl2 => unreachable!("xl runs its own phase"),
    };
    let mut s = scenario(args, TopologyKind::None);
    s.peers = peers;
    let mut prepared = s.prepare();
    let cfg = proxbal_sim::drift::DriftConfig {
        steps: 50,
        rebalance_every: 10,
        sigma: 0.1,
    };
    let balancer_cfg = proxbal_core::BalancerConfig {
        max_splits: 16,
        ..prepared.scenario.balancer
    };
    let mut rng = prepared.derived_rng(0xD21F7);
    let stats = proxbal_sim::drift::run_drift(
        &mut prepared.net,
        &mut prepared.loads,
        &cfg,
        balancer_cfg,
        None,
        &mut rng,
    );
    say!(
        o,
        "{} steps, rebalance every {}, sigma {}",
        cfg.steps,
        cfg.rebalance_every,
        cfg.sigma
    );
    let post: Vec<usize> = stats
        .timeline
        .iter()
        .filter(|s| s.moved > 0.0)
        .map(|s| s.heavy)
        .collect();
    say!(
        o,
        "heavy nodes right after each rebalance: {post:?} (peers: {peers})"
    );
    say!(
        o,
        "worst heavy count between rebalances: {}",
        stats.max_heavy()
    );
    say!(
        o,
        "total load moved across {} rebalances: {:.3e}",
        stats.rebalances,
        stats.total_moved
    );
    say!(o);
    trace.count("drift_rebalances", stats.rebalances as u64);
    trace.count_f64("drift_total_moved", stats.total_moved);
    trace.count("drift_max_heavy", stats.max_heavy() as u64);
    let value = serde_json::json!({
        "rebalances": stats.rebalances,
        "total_moved": stats.total_moved,
        "heavy_after_each_rebalance": post,
        "max_heavy": stats.max_heavy(),
    });
    (o, value)
}

fn claim_latency(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Timing: message-level wall-clock of the tree phases (ts5k-large) ──"
    );
    let sizes: Vec<usize> = match args.scale {
        Scale::Full => vec![1024, 4096],
        Scale::Small => vec![256],
        Scale::Xl | Scale::Xl2 => unreachable!("xl runs its own phase"),
    };
    let rows = proxbal_sim::experiments::protocol_latency_traced(
        &sizes,
        &[2, 8],
        &[0.0, 0.05],
        args.seed,
        args.threads,
        trace,
    );
    let json = serde_json::to_value(&rows).expect("serialize latency rows");
    say!(
        o,
        "{:>6} {:>3} {:>6} {:>12} {:>12} {:>10}",
        "peers",
        "K",
        "loss",
        "LBI time",
        "dissem time",
        "messages"
    );
    for r in rows {
        say!(
            o,
            "{:>6} {:>3} {:>6.2} {:>12} {:>12} {:>10}",
            r.peers,
            r.k,
            r.loss,
            r.aggregation,
            r.dissemination,
            r.messages
        );
    }
    say!(
        o,
        "(time in latency units: interdomain hop = 3, intradomain = 1)\n"
    );
    (o, json)
}

fn claim_overhead(args: &Args, trace: &mut Trace) -> (String, serde_json::Value) {
    let mut o = String::new();
    say!(
        o,
        "── Overhead: control messages and transfer bandwidth per phase ──"
    );
    let mut s = scenario(args, TopologyKind::Ts5kLarge);
    if args.scale == Scale::Full {
        s.peers = 2048;
    }
    let prepared = s.prepare();
    let underlay = prepared.underlay().unwrap();
    say!(
        o,
        "{:<12} {:>10} {:>10} {:>12} {:>10} {:>14}",
        "mode",
        "LBI msgs",
        "dissem",
        "record-hops",
        "notifies",
        "VST load·dist"
    );
    // The two modes start from identical clones of the prepared state with
    // their own derived RNGs — independent, so both go through the engine.
    let modes = [
        ("ignorant", proxbal_core::ProximityMode::Ignorant),
        (
            "aware",
            proxbal_core::ProximityMode::Aware(proxbal_core::ProximityParams::default()),
        ),
    ];
    let stats = proxbal_sim::parallel::map_items_traced(
        &modes,
        args.threads,
        trace,
        |_, &(name, mode), trace| {
            trace.relabel(name);
            let mut net = prepared.net.clone();
            let mut loads = prepared.loads.clone();
            let cfg = proxbal_core::BalancerConfig {
                mode,
                ..prepared.scenario.balancer
            };
            let mut rng = prepared.derived_rng(0x0F0F);
            let report = proxbal_core::LoadBalancer::new(cfg)
                .run_traced(&mut net, &mut loads, Some(underlay), &mut rng, trace)
                .expect("attached network");
            report.messages
        },
    );
    let mut rows = Vec::new();
    for ((name, _), m) in modes.iter().zip(stats) {
        say!(
            o,
            "{:<12} {:>10} {:>10} {:>12} {:>10} {:>14.3e}",
            name,
            m.lbi_messages,
            m.dissemination_messages,
            m.vsa_record_hops,
            m.vsa_notifications,
            m.vst_weighted_cost
        );
        rows.push(serde_json::json!({ "mode": name, "stats": m }));
    }
    say!(
        o,
        "(the aware mode's whole point: the VST column — bandwidth — collapses)\n"
    );
    (o, serde_json::Value::Array(rows))
}
