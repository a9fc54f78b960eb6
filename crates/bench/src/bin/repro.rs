//! Regenerates every figure and claim of the paper's evaluation (§5).
//!
//! One grammar: a subcommand, its operands, then the flags it takes. A bare
//! `repro` runs `all`.
//!
//! ```text
//! repro figs [4 5 6 7 8]   # the figure grid (all five when none given)
//! repro claims [names...]  # the claim grid (all seven when none given):
//!                          #   rounds repair baselines ablations overhead latency drift
//! repro all                # the full figure + claim grid
//! repro faults [rate]      # fault-injection sweep at losses {0, 1%, 5%, rate} (rate 0.1)
//! repro xl                 # 65,536 peers on a ts50k underlay (bounded RAM)
//! repro xl2                # 1,048,576 peers: sharded prepare + landmark distances
//! repro engine             # continuous operation: churn + drift + loss
//! repro analyze <files>    # behavioral summary or gates over a run's artifacts
//! ```
//!
//! The flags, and the subcommands that take them; any other flag is a usage
//! error (exit 2, one line on stderr), never a silent no-op:
//!
//! ```text
//! --scale full|small   grid, faults, engine   reduced size for quick runs
//! --seed N             all but analyze        master seed (1)
//! --threads N          all but analyze        worker threads for the sweep engine
//! --json PATH          all but analyze        the run's results value as a document
//! --trace PATH         all but analyze        chrome://tracing trace + PATH's .ndjson event log
//! --profile DIR        all but analyze        flamegraphs + resource profile into DIR
//! --progress           all but analyze        heartbeat lines (epoch k/N, RSS, allocs) on stderr
//! --peers N            xl2                    reduced peer count (smoke runs)
//! --exact              xl2                    exact distances (sensitivity runs)
//! --epochs N           engine                 epoch count of the run (50)
//! --gates PATH         analyze                evaluate gate files (DESIGN.md §6d)
//! --out PATH           analyze                with --gates: the verdicts as JSON
//! ```
//!
//! Each subcommand returns its stdout text and one results value; `main`
//! prints the text and writes the value everywhere it is recorded: into
//! `BENCH_repro.json` in the current directory as `{seed, scale, results}`
//! under the run's entry (DESIGN.md §4 — a grid run merges only the phases
//! it ran; `xl2 --peers` / `--exact` writes none), and with `--json` as
//! `{paper, seed, scale, results}`. Walls never enter a results value: they
//! go to stdout and `--profile`'s `resources.txt`. An artifact that cannot
//! be written is one stderr line and exit 2.
//!
//! Every phase derives its state from the master seed alone, so the output
//! is bit-identical regardless of `--threads`. The `--trace` collector
//! records only virtual-time spans and deterministic counters, so the trace
//! files obey the same contract — and without `--trace` the collector is
//! disabled and stdout stays byte-identical to an untraced build.
//! `--profile` (DESIGN.md §5c) adds virtual-time flamegraphs, equally
//! deterministic, and volatile wall/CPU/allocation numbers per phase.
//! Heartbeats go to stderr only, so neither flag can perturb stdout.

use proxbal_bench::headline;
use proxbal_core::NodeClass;
use proxbal_profile::{AllocSnapshot, CountingAlloc, NullSink, ProgressSink, StderrSink};
use proxbal_sim::experiments::{
    ablation_sweep_traced, fig4_unit_load_traced, fig56_class_loads_traced,
    fig78_replicated_traced, repair_after_crash_traced, rounds_scaling_traced, scheme_comparison,
    XlRunSummary, XlRunWalls,
};
use proxbal_sim::metrics::{gini, DistanceHistogram, Summary};
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::{Trace, TraceSummary};
use proxbal_workload::LoadModel;
use serde_json::{json, Map, Value};
use std::path::Path;
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
}

impl Scale {
    fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Small => "small",
        }
    }
}

/// What a run does: one variant per subcommand, holding only its operands.
enum Command {
    /// `figs`, `claims` and `all`: the figure/claim grid.
    Grid { figs: Vec<u32>, claims: Vec<String> },
    /// `faults [rate]`: the fault-injection sweep.
    Faults { rate: f64 },
    /// `xl`: 65,536 peers over a ts50k underlay, aware and ignorant.
    Xl,
    /// `xl2`: the million-peer pass, rescaled by `--peers`, with exact
    /// distances under `--exact`.
    Xl2 { peers: Option<usize>, exact: bool },
    /// `engine`: continuous operation.
    Engine { epochs: usize },
    /// `analyze <files>`: the behavioral summary, or gate verdicts.
    Analyze {
        inputs: Vec<String>,
        gates: Option<String>,
        out: Option<String>,
    },
}

impl Command {
    /// The `scale` this run's documents name, and its BENCH_repro.json
    /// entry — none for a rescaled xl2, which must not clobber the
    /// committed million-peer entry, and none for `analyze`.
    fn record(&self, scale: Scale) -> (&'static str, Option<&'static str>) {
        match self {
            Command::Grid { .. } => (scale.name(), Some(scale.name())),
            Command::Faults { .. } => (scale.name(), Some("faults")),
            Command::Engine { .. } => (scale.name(), Some("engine")),
            Command::Xl => ("xl", Some("xl")),
            Command::Xl2 { peers, exact } => ("xl2", (peers.is_none() && !exact).then_some("xl2")),
            Command::Analyze { .. } => ("analyze", None),
        }
    }
}

/// The options the running subcommands share (`analyze` takes none).
struct Args {
    scale: Scale,
    seed: u64,
    threads: usize,
    /// `--json <path>`: the run's results value as a document.
    json: Option<String>,
    /// `--trace <path>`: chrome://tracing trace + `.ndjson` event log.
    trace: Option<String>,
    /// `--profile <dir>`: flamegraph + resource-profile artifacts.
    profile: Option<String>,
    /// `--progress`: heartbeat lines on stderr while phases run.
    progress: bool,
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

/// Every flag `repro` knows, ordered so that each subcommand takes one run
/// of them (`flags_of`).
const FLAGS: [&str; 12] = [
    "--epochs",
    "--scale",
    "--seed",
    "--threads",
    "--json",
    "--trace",
    "--profile",
    "--progress",
    "--peers",
    "--exact",
    "--gates",
    "--out",
];

/// The flags `verb` takes, or `None` when it is no subcommand.
fn flags_of(verb: &str) -> Option<&'static [&'static str]> {
    Some(match verb {
        "engine" => &FLAGS[..8],
        "figs" | "claims" | "all" | "faults" => &FLAGS[1..8],
        "xl" => &FLAGS[2..8],
        "xl2" => &FLAGS[2..10],
        "analyze" => &FLAGS[10..],
        _ => return None,
    })
}

/// Parses `v`, the value given for `flag`; `what` names the expected kind
/// ("a count") in the error.
fn parse_value<T: std::str::FromStr>(flag: &str, v: &str, what: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: {v:?} is not {what}"))
}

/// The value following `flag` on the command line, parsed.
fn next_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs {what}"))?;
    parse_value(flag, v, what)
}

/// Parses the command line (without the program name): a subcommand, its
/// positional operands, then the flags it takes. Every malformed or
/// contradictory invocation is an `Err` carrying the one line `main` prints
/// before exiting 2 — nothing here panics, nothing is silently accepted.
fn parse_args(argv: &[String]) -> Result<(Command, Args), String> {
    let (verb, rest) = match argv.split_first() {
        None => ("all", argv),
        Some((verb, rest)) => (verb.as_str(), rest),
    };
    let takes = flags_of(verb).ok_or_else(|| {
        format!("unknown subcommand {verb} (expected figs|claims|faults|xl|xl2|engine|analyze|all)")
    })?;
    let split = rest
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(rest.len());
    let (operands, flags) = rest.split_at(split);

    let mut args = Args {
        scale: Scale::Full,
        seed: 1,
        threads: proxbal_sim::parallel::default_threads(),
        json: None,
        trace: None,
        profile: None,
        progress: false,
    };
    let (mut peers, mut exact, mut epochs, mut gates, mut out) = (None, false, 50, None, None);
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if !FLAGS.contains(&flag) {
            return Err(format!("unknown argument {flag}"));
        }
        if !takes.contains(&flag) {
            return Err(format!(
                "repro {verb} does not take {flag} (it takes: {})",
                takes.join(" ")
            ));
        }
        match flag {
            "--scale" => {
                let v: String = next_value(&mut it, flag, "full|small")?;
                args.scale = match v.as_str() {
                    "full" => Scale::Full,
                    "small" => Scale::Small,
                    _ => return Err(format!("--scale: {v:?} is not full|small")),
                }
            }
            "--seed" => args.seed = next_value(&mut it, flag, "a seed")?,
            "--threads" => args.threads = next_value(&mut it, flag, "a count")?,
            "--json" => args.json = Some(next_value(&mut it, flag, "a path")?),
            "--trace" => args.trace = Some(next_value(&mut it, flag, "a path")?),
            "--profile" => args.profile = Some(next_value(&mut it, flag, "a directory")?),
            "--progress" => args.progress = true,
            "--peers" => {
                let count = next_value(&mut it, flag, "a count")?;
                if count == 0 {
                    return Err("--peers must be >= 1".into());
                }
                peers = Some(count);
            }
            "--exact" => exact = true,
            "--epochs" => {
                epochs = next_value(&mut it, flag, "a count")?;
                if epochs == 0 {
                    return Err("--epochs must be >= 1".into());
                }
            }
            "--gates" => gates = Some(next_value(&mut it, flag, "a dir or file")?),
            _ => out = Some(next_value(&mut it, flag, "a path")?),
        }
    }

    if matches!(verb, "all" | "xl" | "xl2" | "engine") && !operands.is_empty() {
        return Err(format!(
            "repro {verb} takes no positional operands (got {operands:?})"
        ));
    }
    let all_figs = || vec![4, 5, 6, 7, 8];
    let all_claims = || ALL_CLAIMS.map(String::from).to_vec();
    let grid = |figs, claims| Command::Grid { figs, claims };
    let command = match verb {
        "figs" => {
            let figs = match operands {
                [] => all_figs(),
                _ => operands
                    .iter()
                    .map(|v| parse_value("figs", v, "a figure number"))
                    .collect::<Result<_, _>>()?,
            };
            if let Some(fig) = figs.iter().find(|f| !(4..=8).contains(*f)) {
                return Err(format!("no figure {fig} in the paper's evaluation"));
            }
            grid(figs, Vec::new())
        }
        "claims" => {
            let claims = match operands {
                [] => all_claims(),
                _ => operands.to_vec(),
            };
            if let Some(claim) = claims.iter().find(|c| !ALL_CLAIMS.contains(&c.as_str())) {
                return Err(format!(
                    "unknown claim {claim} (expected one of: {})",
                    ALL_CLAIMS.join(", ")
                ));
            }
            grid(Vec::new(), claims)
        }
        "all" => grid(all_figs(), all_claims()),
        "faults" => {
            let rate = match operands {
                [] => 0.1,
                [rate] => parse_value("faults", rate, "a loss rate")?,
                _ => return Err("repro faults takes at most one loss rate".into()),
            };
            if !(0.0..1.0).contains(&rate) {
                return Err(format!(
                    "faults: the loss rate must be in [0, 1) (got {rate})"
                ));
            }
            Command::Faults { rate }
        }
        "xl" => Command::Xl,
        "xl2" => Command::Xl2 { peers, exact },
        "engine" => Command::Engine { epochs },
        _ => {
            if operands.is_empty() {
                return Err("repro analyze needs at least one artifact path (report JSON and/or trace .ndjson)".into());
            }
            if gates.is_none() && out.is_some() {
                return Err("--out only applies with --gates (the summary goes to stdout)".into());
            }
            Command::Analyze {
                inputs: operands.to_vec(),
                gates,
                out,
            }
        }
    };
    Ok((command, args))
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

fn run_phase(phase: &Phase, args: &Args, trace: &mut Trace) -> (String, Value) {
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

/// The paper every written document names.
const PAPER: &str =
    "Zhu & Hu, Towards Efficient Load Balancing in Structured P2P Systems (IPDPS 2004)";

/// The deterministic results record: simulated values only, no wall,
/// thread count, RSS or allocation figure (those go to stdout and
/// `--profile`'s `resources.txt`; speed is measured by `benchmark/`).
const BENCH: &str = "BENCH_repro.json";

/// Prints `msg` as the run's one stderr line and exits 2.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Writes one artifact. Every artifact goes through here, so a write that
/// fails is one stderr line and exit 2, never a panic.
fn write_file(path: impl AsRef<Path>, contents: &str) {
    let path = path.as_ref();
    if let Err(e) = std::fs::write(path, contents) {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
}

fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("a JSON value serializes")
}

/// The BENCH_repro.json document in the current directory, or a new one
/// when there is none. A document this run cannot merge into — unreadable,
/// not JSON, not an object — is an error: overwriting it would drop every
/// entry an earlier run recorded.
fn read_bench() -> Map<String, Value> {
    let text = match std::fs::read_to_string(BENCH) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Map::new(),
        Err(e) => fail(&format!("cannot read {BENCH}: {e}")),
    };
    match serde_json::from_str(&text) {
        Ok(Value::Object(doc)) => doc,
        Ok(_) => fail(&format!("{BENCH} is not a JSON object; not overwriting it")),
        Err(e) => fail(&format!("{BENCH} is not JSON ({e}); not overwriting it")),
    }
}

/// Merges `{seed, scale, results}` into `doc` under `key` and writes it,
/// keeping every other entry. With `keep_phases` (a grid run) the phases an
/// earlier run of the same seed recorded stay beside the ones this run ran.
fn write_bench(
    mut doc: Map<String, Value>,
    key: &str,
    seed: u64,
    scale: &str,
    mut results: Value,
    keep_phases: bool,
) {
    let same_seed = |old: &&Value| old.get("seed") == Some(&json!(seed));
    let kept = doc
        .get(key)
        .filter(same_seed)
        .and_then(|old| old.get("results"));
    if let (true, Some(Value::Object(kept)), Value::Object(phases)) = (keep_phases, kept, &results)
    {
        let mut merged = kept.clone();
        for (phase, value) in phases.iter() {
            merged.insert(phase.clone(), value.clone());
        }
        results = Value::Object(merged);
    }
    if !doc.contains_key("bench") {
        doc.insert("bench".into(), json!("repro"));
    }
    if !doc.contains_key("paper") {
        doc.insert("paper".into(), json!(PAPER));
    }
    let entry = json!({ "seed": seed, "scale": scale, "results": results });
    doc.insert(key.into(), entry);
    write_file(BENCH, &pretty(&Value::Object(doc)));
    println!("wrote {BENCH} ({key})");
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
fn total_line(total: Instant) -> String {
    let total_wall = total.elapsed().as_secs_f64();
    match proxbal_profile::peak_rss_bytes() {
        Some(b) => format!(
            "total: {total_wall:.1}s   peak RSS: {:.2} GiB\n",
            b as f64 / (1u64 << 30) as f64
        ),
        None => format!("total: {total_wall:.1}s   peak RSS: unavailable\n"),
    }
}

/// One xl balancing pass's line: its headline, heavy peers and wall.
fn run_line(run: &XlRunSummary, wall: &XlRunWalls) -> String {
    format!(
        "{:<18}: {}   heavy {} -> {}   transfers {}   {:.1}s\n",
        format!("proximity-{}", run.label),
        headline(&run.histogram),
        run.heavy_before,
        run.heavy_after,
        run.transfers,
        wall.total_s
    )
}

/// The xl-scale phase: all four balancer phases at 65,536 peers over a
/// ts50k underlay, twice — aware + ignorant, the fig-7-shaped proximity
/// sweep.
fn run_xl(args: &Args, trace: &mut Trace, progress: &dyn ProgressSink) -> (String, Value) {
    let _p = proxbal_profile::phase("xl");
    let mut o = String::new();
    say!(
        o,
        "── xl scale: four-phase protocol at 65,536 peers on ts50k (seed {}) ──",
        args.seed
    );
    let total = Instant::now();
    let (out, walls) = proxbal_sim::experiments::xl_scale(args.seed, args.threads, trace, progress);
    say!(
        o,
        "underlay: {} nodes   peers: {}   virtual servers: {}   oracle cache: {} rows",
        out.underlay_nodes,
        out.peers,
        out.virtual_servers,
        out.oracle_capacity
    );
    say!(o, "prepare: {:.1}s", walls.prepare_s);
    for (run, wall) in [&out.aware, &out.ignorant].into_iter().zip(&walls.runs) {
        o += &run_line(run, wall);
    }
    o += &moved_load_cdf(&out.aware.histogram, Some(&out.ignorant.histogram));
    o += &total_line(total);
    (o, serde_json::to_value(&out).expect("serialize xl output"))
}

/// The xl2 phase: the million-peer run — sharded preparation, sharded
/// KT-tree build, landmark-approximate transfer distances — through one
/// proximity-aware four-phase pass executed in place.
fn run_xl2(
    peers: Option<usize>,
    exact: bool,
    args: &Args,
    trace: &mut Trace,
    progress: &dyn ProgressSink,
) -> (String, Value) {
    let _p = proxbal_profile::phase("xl2");
    let mut scenario = Scenario::builder().xl2().seed(args.seed).build();
    if let Some(p) = peers {
        scenario.peers = p;
    }
    if exact {
        scenario.distance_mode = proxbal_sim::DistanceMode::Exact;
    }
    let mut o = String::new();
    say!(
        o,
        "── xl2 scale: sharded prepare + landmark distances at {} peers on ts50k (seed {}) ──",
        scenario.peers,
        args.seed
    );
    let total = Instant::now();
    let (out, walls) = proxbal_sim::experiments::xl2_scale(scenario, args.threads, trace, progress);
    say!(
        o,
        "underlay: {} nodes   peers: {}   virtual servers: {}   oracle cache: {} rows   shards: {}   refine: {} rows",
        out.underlay_nodes,
        out.peers,
        out.virtual_servers,
        out.oracle_capacity,
        out.shards,
        out.refine_sources
    );
    say!(
        o,
        "prepare: {:.1}s   tree build: {:.1}s",
        walls.prepare_s,
        walls.tree_s.unwrap_or_default()
    );
    let (run, wall) = (&out.aware, &walls.runs[0]);
    o += &run_line(run, wall);
    // One wall per line with the seconds last, so the thread-invariance
    // smoke (scripts/check.sh scrub) strips them like every other wall.
    say!(o, "  lbi wall: {:.2}s", wall.round.lbi_wall_s);
    say!(o, "  aggregate wall: {:.2}s", wall.round.aggregate_wall_s);
    say!(o, "  vsa wall: {:.2}s", wall.round.vsa_wall_s);
    say!(o, "  transfer wall: {:.2}s", wall.round.transfer_wall_s);
    o += &moved_load_cdf(&run.histogram, None);
    o += &total_line(total);
    (o, serde_json::to_value(&out).expect("serialize xl2 output"))
}

/// The `faults [rate]` phase: the four-phase protocol driven through a
/// seeded fault plan at loss rates {0, 1%, 5%, `rate`}, reporting phase
/// completion, repair work, convergence rounds and residual imbalance per
/// rate. The results are a pure function of `(seed, rates)`.
fn run_faults(
    rate: f64,
    args: &Args,
    trace: &mut Trace,
    progress: &dyn ProgressSink,
) -> (String, Value) {
    let _p = proxbal_profile::phase("faults");
    let mut rates = vec![0.0, 0.01, 0.05, rate];
    rates.sort_by(f64::total_cmp);
    rates.dedup();
    let s = scenario(args, TopologyKind::Ts5kLarge);
    let t = Instant::now();
    let rows = proxbal_sim::experiments::fault_sweep(&s, &rates, args.threads, trace, progress);
    let wall = t.elapsed();

    let mut o = String::new();
    say!(
        o,
        "── Fault-injection sweep ({} peers, seed {}) ──",
        s.peers,
        s.seed
    );
    say!(
        o,
        "{:>6} {:>7} {:>5} | {:>6} {:>6} | {:>5} {:>5} {:>6} | {:>8} {:>7} {:>6} | {:>6} {:>6} {:>8} | {:>5} {:>4} {:>4} {:>4}",
        "loss", "crashed", "stale", "agg", "diss", "reatt", "prune", "rounds", "msgs",
        "retries", "gaveup", "heavy0", "heavy1", "residual", "xfers", "rq", "re", "ab"
    );
    for r in &rows {
        say!(
            o,
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
    say!(o, "fault sweep wall: {:.2}s", wall.as_secs_f64());
    (o, json!({ "rates": rates, "rows": rows }))
}

/// The `repro engine` phase: continuous operation — Poisson churn,
/// geometric load drift and 1% message loss playing against periodic +
/// emergency balancing on one virtual clock (DESIGN.md §6). Its results are
/// the `EngineReport`, a pure function of the seed.
fn run_engine(
    epochs: usize,
    args: &Args,
    trace: &mut Trace,
    progress: &dyn ProgressSink,
) -> (String, Value) {
    let _p = proxbal_profile::phase("engine");
    let cfg = proxbal_sim::EngineConfig {
        epochs,
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

    let mut o = String::new();
    say!(
        o,
        "── engine: continuous operation, {} peers, {} epochs (seed {}) ──",
        scenario.peers,
        cfg.epochs,
        args.seed
    );
    let total = Instant::now();
    let mut prepared = scenario.prepare_run(args.threads, progress);
    let report =
        proxbal_sim::run_engine_with(&mut prepared, &cfg, trace, progress).expect("engine run");
    let total_wall = total.elapsed().as_secs_f64();

    say!(
        o,
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
        say!(
            o,
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
    say!(
        o,
        "joins {}   crashes {}   stale links {}   balances {} ({} emergency)",
        report.joins,
        report.crashes,
        report.stale_links,
        report.balances,
        report.emergencies
    );
    say!(
        o,
        "moved {:.3e}   transfers {}   messages {}   mean gini {:.4}   final heavy {}",
        report.total_moved,
        report.total_transfers,
        report.total_messages,
        report.mean_gini(),
        report.final_heavy()
    );
    say!(o, "engine wall: {total_wall:.2}s");
    (
        o,
        serde_json::to_value(&report).expect("serialize engine report"),
    )
}

/// Writes the collected trace (chrome://tracing JSON at the `--trace` path,
/// newline-JSON event log next to it) and prints the summary table. A no-op
/// when `--trace` was not given, so plain runs stay byte-identical.
fn finish_trace(args: &Args, trace: &Trace) {
    let Some(path) = &args.trace else {
        return;
    };
    write_file(path, &trace.to_chrome_json());
    let ndjson_path = match path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.ndjson"),
        None => format!("{path}.ndjson"),
    };
    write_file(&ndjson_path, &trace.to_ndjson());
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
    if let Err(e) = std::fs::create_dir_all(dir) {
        fail(&format!("cannot write {dir}: {e}"));
    }
    let write = |name: &str, data: String| {
        let path = Path::new(dir).join(name);
        write_file(&path, &data);
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
    let alloc = AllocSnapshot::global();
    say!(
        res,
        "allocations: {} calls, {} bytes",
        alloc.allocs,
        alloc.bytes
    );
    say!(
        res,
        "peak counted live bytes: {}",
        proxbal_profile::alloc::peak_live_bytes()
    );
    if let Some(b) = proxbal_profile::peak_rss_bytes() {
        say!(res, "peak rss bytes: {b}");
    }
    if let Some(cpu) = proxbal_profile::cpu_time() {
        say!(res, "cpu time: {:.2}s", cpu.as_secs_f64());
    }
    say!(res);
    res.push_str(&report.to_text());
    write("resources.txt", res);
}

/// `repro analyze`: loads the run artifacts named on the command line,
/// then either prints the behavioral summary or — with `--gates` —
/// evaluates every gate file and exits 1 on any violation.
fn run_analyze(inputs: &[String], gates: Option<&str>, out: Option<&str>) {
    use proxbal_analyze::{evaluate_gates, load_gates, render_table, Run};
    let mut run = Run::default();
    for path in inputs {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        if let Err(e) = run.load(path, &text) {
            fail(&e.to_string());
        }
    }
    let Some(gate_path) = gates else {
        print!("{}", run.summarize());
        return;
    };
    let gates = load_gates(Path::new(gate_path)).unwrap_or_else(|e| fail(&e.to_string()));
    let results = evaluate_gates(&gates, &run);
    print!("{}", render_table(&results));
    if let Some(out) = out {
        let json = serde_json::to_string_pretty(&results).expect("serialize gate results");
        write_file(out, &(json + "\n"));
    }
    if results.iter().any(|r| !r.pass) {
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, args) = parse_args(&argv).unwrap_or_else(|e| fail(&e));
    if let Command::Analyze { inputs, gates, out } = &command {
        return run_analyze(inputs, gates.as_deref(), out.as_deref());
    }
    let (scale, key) = command.record(args.scale);
    // Read before any phase runs, so a document this run could not merge
    // into fails fast and stays untouched.
    let bench = key.map(|key| (key, read_bench()));
    // Allocation accounting is on for every run (it only feeds stderr
    // heartbeats and volatile profile artifacts, so stdout stays
    // byte-identical); the phase profiler only with --profile.
    proxbal_profile::enable_counting();
    if args.profile.is_some() {
        proxbal_profile::enable_profiler();
    }
    let stderr_sink;
    let progress: &dyn ProgressSink = if args.progress {
        stderr_sink = StderrSink::default();
        &stderr_sink
    } else {
        &NullSink
    };
    let mut trace = Trace::new(args.trace.is_some() || args.profile.is_some(), "repro");
    // Each subcommand's profile phase closes on return, before the report
    // is read.
    let (text, results) = match &command {
        Command::Grid { figs, claims } => run_grid(figs, claims, &args, &mut trace),
        Command::Faults { rate } => run_faults(*rate, &args, &mut trace, progress),
        Command::Xl => run_xl(&args, &mut trace, progress),
        Command::Xl2 { peers, exact } => run_xl2(*peers, *exact, &args, &mut trace, progress),
        Command::Engine { epochs } => run_engine(*epochs, &args, &mut trace, progress),
        Command::Analyze { .. } => unreachable!("analyze returned above"),
    };
    print!("{text}");
    if let Some((key, doc)) = bench {
        let keep_phases = matches!(command, Command::Grid { .. });
        write_bench(doc, key, args.seed, scale, results.clone(), keep_phases);
    }
    if let Some(path) = &args.json {
        let doc = json!({
            "paper": PAPER,
            "seed": args.seed,
            "scale": scale,
            "results": results,
        });
        write_file(path, &pretty(&doc));
        println!("wrote {path}");
    }
    finish_trace(&args, &trace);
    finish_profile(&args, &trace);
}

/// The figure/claim grid: its results value maps each phase's key to the
/// phase's value.
fn run_grid(figs: &[u32], claims: &[String], args: &Args, trace: &mut Trace) -> (String, Value) {
    let figs = figs.iter().map(|&fig| Phase::Fig(fig));
    let claims = claims.iter().cloned().map(Phase::Claim);
    let phases: Vec<Phase> = figs.chain(claims).collect();
    // Phases are independent — each prepares its own scenario from the
    // master seed — so they run through the same engine as the inner
    // sweeps.
    let ran =
        proxbal_sim::parallel::map_items_traced(&phases, args.threads, trace, |_, phase, trace| {
            trace.relabel(&phase.key());
            // Worker threads have an empty phase stack, so each grid phase
            // profiles as its own root.
            let _p = proxbal_profile::phase(&phase.key());
            run_phase(phase, args, trace)
        });
    let (texts, values): (Vec<String>, Vec<Value>) = ran.into_iter().unzip();
    let results = phases.iter().map(Phase::key).zip(values).collect();
    (texts.concat(), Value::Object(results))
}

fn fig4(args: &Args, trace: &mut Trace) -> (String, Value) {
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
    let value = json!({
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

fn fig56(args: &Args, pareto: bool, trace: &mut Trace) -> (String, Value) {
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
        classes.push(json!({
            "capacity": cap, "nodes": b.count,
            "mean_load_before": b.mean, "mean_load_after": a.mean,
        }));
    }
    say!(
        o,
        "(paper: after balancing, load tracks the capacity skew)\n"
    );
    (o, json!({ "workload": label, "classes": classes }))
}

fn fig78(args: &Args, topology: TopologyKind, fig: u32, trace: &mut Trace) -> (String, Value) {
    let mut o = String::new();
    let name = if fig == 7 { "ts5k-large" } else { "ts5k-small" };
    // The paper runs 10 independently generated graphs per topology and
    // pools them; do the same (in parallel) at full scale.
    let graphs = match args.scale {
        Scale::Full => 10,
        Scale::Small => 3,
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
    let value = json!({
        "topology": name,
        "graphs": graphs,
        "aware": { "cdf": out.aware.cdf(), "mean_distance": out.aware.mean_distance() },
        "ignorant": { "cdf": out.ignorant.cdf(), "mean_distance": out.ignorant.mean_distance() },
    });
    (o, value)
}

fn claim_rounds(args: &Args, trace: &mut Trace) -> (String, Value) {
    let mut o = String::new();
    say!(
        o,
        "── Claim (§5.2): LBI/VSA complete in O(log_K N) message rounds ──"
    );
    let sizes: Vec<usize> = match args.scale {
        Scale::Full => vec![256, 512, 1024, 2048, 4096],
        Scale::Small => vec![64, 128, 256, 512],
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

fn claim_repair(args: &Args, trace: &mut Trace) -> (String, Value) {
    let mut o = String::new();
    say!(
        o,
        "── Claim (§3.1.1): tree self-repairs in O(log_K N) rounds after crashes ──"
    );
    let peers = match args.scale {
        Scale::Full => 2048,
        Scale::Small => 256,
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
        rows.push(json!({
            "k": k, "crash_fraction": frac,
            "crash_repair_rounds": row.crash_repair_rounds,
            "join_repair_rounds": row.join_repair_rounds,
            "height_after": row.height_after,
        }));
    }
    say!(o);
    (o, Value::Array(rows))
}

fn claim_baselines(args: &Args, trace: &mut Trace) -> (String, Value) {
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

fn claim_ablations(args: &Args, trace: &mut Trace) -> (String, Value) {
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

fn claim_drift(args: &Args, trace: &mut Trace) -> (String, Value) {
    let mut o = String::new();
    say!(o, "── Extension: periodic re-balancing under load drift ──");
    let peers = match args.scale {
        Scale::Full => 1024,
        Scale::Small => 256,
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
    let value = json!({
        "rebalances": stats.rebalances,
        "total_moved": stats.total_moved,
        "heavy_after_each_rebalance": post,
        "max_heavy": stats.max_heavy(),
    });
    (o, value)
}

fn claim_latency(args: &Args, trace: &mut Trace) -> (String, Value) {
    let mut o = String::new();
    say!(
        o,
        "── Timing: message-level wall-clock of the tree phases (ts5k-large) ──"
    );
    let sizes: Vec<usize> = match args.scale {
        Scale::Full => vec![1024, 4096],
        Scale::Small => vec![256],
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

fn claim_overhead(args: &Args, trace: &mut Trace) -> (String, Value) {
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
        rows.push(json!({ "mode": name, "stats": m }));
    }
    say!(
        o,
        "(the aware mode's whole point: the VST column — bandwidth — collapses)\n"
    );
    (o, Value::Array(rows))
}
