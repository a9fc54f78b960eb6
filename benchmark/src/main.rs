//! `pbench`: four named workloads, eleven end-to-end metrics and a traced
//! per-layer run. Every layer is measured from outside, through public
//! `proxbal_*` calls; see README.md.
//!
//! ```text
//! pbench all [--reps N] [--seed S] [--threads T] [--workloads a,b] [--smoke]
//!            [--label L | --out FILE]        # N untraced runs + 1 traced, per workload
//! pbench run <workload> [--seed S] [--threads T] [--traced] [--smoke]
//!                                            # one repetition, in this process
//! pbench compare a.json b.json               # repeatability / regression verdict
//! pbench contract                            # the BENCHMARK.json this binary implies
//! pbench --workload W --seed S --seconds N --trace 0|1   # acceptance driver entry
//! ```

mod child;
mod compare;
mod metrics;
mod parent;
mod spans;
mod stats;
mod workloads;

use proxbal_profile::CountingAlloc;
use std::path::PathBuf;
use std::process::exit;

/// Allocation accounting exactly as `repro` installs it: inert (one relaxed
/// load per allocator call) until a traced child enables counting.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 20;

/// `benchmark/out/`: result files and span logs.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage(problem: &str) -> ! {
    eprintln!("pbench: {problem}");
    eprintln!("usage: pbench all|run <workload>|compare <a> <b>|contract [flags]; see benchmark/README.md");
    exit(2);
}

/// Flags shared by every subcommand; positional operands come back in order.
#[derive(Default)]
struct Flags {
    positional: Vec<String>,
    seed: Option<u64>,
    threads: Option<usize>,
    reps: Option<usize>,
    seconds: Option<f64>,
    trace: Option<bool>,
    workload: Option<String>,
    workloads: Option<String>,
    label: Option<String>,
    out: Option<PathBuf>,
    traced: bool,
    smoke: bool,
    corrupt_load: bool,
}

fn parse(args: &[String]) -> Flags {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| usage(&format!("{a} needs {what}")))
                .clone()
        };
        fn number<T: std::str::FromStr>(flag: &str, v: String) -> T {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: cannot read {v:?} as a number")))
        }
        match a.as_str() {
            "--seed" => f.seed = Some(number(a, value("a seed"))),
            "--threads" => f.threads = Some(number(a, value("a count"))),
            "--reps" => f.reps = Some(number(a, value("a count"))),
            "--seconds" => f.seconds = Some(number(a, value("a duration"))),
            "--trace" => f.trace = Some(number::<u8>(a, value("0 or 1")) != 0),
            "--workload" => f.workload = Some(value("a workload name")),
            "--workloads" => f.workloads = Some(value("a comma-separated list")),
            "--label" => f.label = Some(value("a label")),
            "--out" => f.out = Some(PathBuf::from(value("a path"))),
            "--traced" => f.traced = true,
            "--smoke" => f.smoke = true,
            "--corrupt-load" => f.corrupt_load = true,
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            _ => f.positional.push(a.clone()),
        }
    }
    f
}

fn workload_named(name: &str) -> &'static str {
    metrics::WORKLOADS
        .iter()
        .find(|w| **w == name)
        .copied()
        .unwrap_or_else(|| {
            usage(&format!(
                "unknown workload {name} (expected one of {})",
                metrics::WORKLOADS.join(", ")
            ))
        })
}

fn settings(f: &Flags) -> parent::Settings {
    let nproc = parent::nproc();
    let threads = f.threads.unwrap_or(nproc.min(2));
    if threads == 0 || threads > nproc {
        usage(&format!(
            "--threads {threads}: this machine has {nproc} cores; more threads than cores measures the scheduler"
        ));
    }
    parent::Settings {
        seed: f.seed.unwrap_or(1),
        threads,
        smoke: f.smoke,
        corrupt_load: f.corrupt_load,
    }
}

fn read_json(path: &str) -> serde_json::Value {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| usage(&format!("{path} is not JSON: {e}")))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let f = parse(&argv);
    let command = f.positional.first().map(String::as_str);
    let code = match command {
        None => {
            let Some(workload) = &f.workload else {
                usage("no subcommand and no --workload");
            };
            let seconds = f.seconds.unwrap_or(f64::from(RUN_SECONDS));
            parent::driver(
                workload_named(workload),
                &settings(&f),
                seconds,
                f.trace.unwrap_or(false),
            )
        }
        Some("all") => {
            let workloads: Vec<&'static str> = match &f.workloads {
                Some(list) => list.split(',').map(workload_named).collect(),
                None => metrics::WORKLOADS.to_vec(),
            };
            let label = f.label.clone().unwrap_or_else(|| "latest".to_string());
            let out = f
                .out
                .clone()
                .unwrap_or_else(|| out_dir().join(format!("{label}.json")));
            parent::all(&settings(&f), &workloads, f.reps.unwrap_or(3).max(1), &out)
        }
        Some("run") => {
            let Some(workload) = f.positional.get(1) else {
                usage("run needs a workload name");
            };
            let s = settings(&f);
            child::run(child::ChildArgs {
                workload: workload_named(workload).to_string(),
                seed: s.seed,
                threads: s.threads,
                traced: f.traced,
                smoke: s.smoke,
                corrupt_load: s.corrupt_load,
            })
        }
        Some("compare") => {
            let [_, a, b] = f.positional.as_slice() else {
                usage("compare needs two result files");
            };
            compare::compare(&read_json(a), &read_json(b))
        }
        Some("contract") => {
            let text = serde_json::to_string_pretty(&parent::contract());
            println!("{}", text.expect("contract serializes"));
            0
        }
        Some(other) => usage(&format!("unknown subcommand {other}")),
    };
    exit(code);
}
