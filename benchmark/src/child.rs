//! `pbench run <workload>`: one repetition in a process of its own, so it
//! pays cold caches exactly as a user's run does and its `VmHWM` is its
//! own. Measures, checks, and prints one JSON document as its last line of
//! standard output; the parent (`all`, or the driver entry) aggregates.

use crate::metrics;
use crate::spans::Spans;
use proxbal_profile::{AllocSnapshot, ProgressSink};
use proxbal_sim::{Prepared, Scenario};
use proxbal_trace::Trace;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub const MIB: f64 = 1024.0 * 1024.0;

/// The sub-phases of `prepare`: the heartbeat text that ends each, the span
/// it becomes, the metric that reports it.
const PREPARE_PHASES: [(&[&str], &str, &str); 5] = [
    (
        &["topology generated"],
        "sim.prepare.topology",
        "sim.prepare.topology_s",
    ),
    (
        &["position batches", "joined"],
        "sim.prepare.ring",
        "sim.prepare.ring_s",
    ),
    (
        &["peers attached"],
        "sim.prepare.attach_landmarks",
        "sim.prepare.attach_landmarks_s",
    ),
    (
        &["load state generated"],
        "sim.prepare.loads",
        "sim.prepare.loads_s",
    ),
    (
        &["hop-metric landmark"],
        "sim.prepare.hop_landmarks",
        "sim.prepare.hop_landmarks_s",
    ),
];

#[derive(Clone, Debug)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub threads: usize,
    /// Turn on what `repro --profile` turns on (phase profiler, counting
    /// allocator, virtual-time trace), run the probes, write the spans.
    pub traced: bool,
    /// Reduced sizes; results are not comparable with full runs.
    pub smoke: bool,
    /// Corrupt a load total after the run so the conservation check fails
    /// (how the tests show that a failed check fails the benchmark).
    pub corrupt_load: bool,
}

/// Timestamps the heartbeats `prepare` and the engine already emit.
pub struct StampSink {
    origin: Instant,
    events: Mutex<Vec<(u64, String)>>,
}

impl StampSink {
    fn push(&self, msg: &str) {
        let at = self.origin.elapsed().as_nanos() as u64;
        self.events
            .lock()
            .expect("sink mutex is never held across a panic")
            .push((at, msg.to_string()));
    }

    pub fn len(&self) -> usize {
        self.events.lock().expect("sink mutex").len()
    }

    /// Heartbeats received since `mark` (a former [`StampSink::len`]).
    pub fn since(&self, mark: usize) -> Vec<(u64, String)> {
        self.events.lock().expect("sink mutex")[mark..].to_vec()
    }
}

impl ProgressSink for StampSink {
    fn event(&self, msg: &str) {
        self.push(msg);
    }
    fn always(&self, msg: &str) {
        self.push(msg);
    }
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// An open timed section: see [`Ctx::begin_timed`].
pub struct Timed {
    pub span: usize,
    cpu0: f64,
    alloc0: AllocSnapshot,
}

pub struct Ctx {
    pub args: ChildArgs,
    pub spans: Spans,
    pub sink: StampSink,
    pub trace: Trace,
    pub root: usize,
    metrics: BTreeMap<&'static str, f64>,
    refused: BTreeMap<&'static str, String>,
    checks: Vec<Check>,
    params: Value,
    pub attempted: u64,
    pub failed: u64,
    timed_wall_s: f64,
    timed_cpu_s: f64,
    timed_alloc: AllocSnapshot,
}

fn cpu_seconds() -> f64 {
    proxbal_profile::cpu_time().map_or(0.0, |d| d.as_secs_f64())
}

impl Ctx {
    pub fn new(args: ChildArgs) -> Self {
        if args.traced {
            proxbal_profile::enable_counting();
            proxbal_profile::enable_profiler();
        }
        let mut spans = Spans::new();
        let root = spans.open("pbench.run", None);
        let sink = StampSink {
            origin: spans.origin(),
            events: Mutex::new(Vec::new()),
        };
        Ctx {
            trace: Trace::new(args.traced, "pbench"),
            args,
            spans,
            sink,
            root,
            metrics: BTreeMap::new(),
            refused: BTreeMap::new(),
            checks: Vec::new(),
            params: Value::Null,
            attempted: 0,
            failed: 0,
            timed_wall_s: 0.0,
            timed_cpu_s: 0.0,
            timed_alloc: AllocSnapshot::default(),
        }
    }

    /// Panics on a name the registry does not declare for this workload.
    fn assert_declared(&self, name: &str) {
        let def = metrics::lookup(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(
            def.defined_on(&self.args.workload),
            "{name} is not defined on {}",
            self.args.workload
        );
    }

    /// Reports a metric. Each name is declared in the registry for this
    /// workload and reported once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.assert_declared(name);
        let previous = self.metrics.insert(name, value);
        assert!(previous.is_none(), "{name} reported twice");
    }

    /// Declines to report a metric, with the reason (a tail percentile of
    /// too few samples).
    pub fn refuse(&mut self, name: &'static str, reason: String) {
        self.assert_declared(name);
        self.refused.insert(name, reason);
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    pub fn set_params(&mut self, params: Value) {
        self.params = params;
    }

    /// `Scenario::prepare_run` under a `sim.prepare` span, with one child
    /// span per heartbeat: each sub-phase is the interval that ends at its
    /// heartbeat. Text the harness does not recognise lands in `.other`,
    /// never in an error.
    pub fn prepare(&mut self, scenario: &Scenario) -> Prepared {
        let mark = self.sink.len();
        let id = self.spans.open("sim.prepare", Some(self.root));
        let prepared = scenario.prepare_run(self.args.threads, &self.sink);
        self.spans.close(id);
        let mut at = self.spans.get(id).start_ns;
        for (ts, msg) in self.sink.since(mark) {
            let bucket = PREPARE_PHASES
                .iter()
                .find(|(needles, ..)| needles.iter().any(|n| msg.contains(n)))
                .map_or("sim.prepare.other", |(_, span, _)| span);
            self.spans.add(bucket, at, ts, Some(id));
            at = ts;
        }
        prepared
    }

    /// Runs `build` under a `ktree.build` span.
    pub fn build_tree<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let id = self.spans.open("ktree.build", Some(self.root));
        let tree = build();
        self.spans.close(id);
        tree
    }

    /// Opens a span that counts towards `run_wall_s`; CPU time and
    /// allocations inside it count towards the timed section's totals.
    pub fn begin_timed(&mut self, name: &str) -> Timed {
        Timed {
            cpu0: cpu_seconds(),
            alloc0: AllocSnapshot::global(),
            span: self.spans.open(name, Some(self.root)),
        }
    }

    pub fn end_timed(&mut self, timed: &Timed) {
        self.timed_wall_s += self.spans.close(timed.span).seconds();
        self.timed_cpu_s += cpu_seconds() - timed.cpu0;
        let alloc = AllocSnapshot::global().since(timed.alloc0);
        self.timed_alloc.allocs += alloc.allocs;
        self.timed_alloc.bytes += alloc.bytes;
    }

    /// Total seconds of the spans called `name`, wherever they are.
    pub fn span_seconds(&self, name: &str) -> f64 {
        let all = self.spans.all();
        // From +0.0: an empty `sum()` is -0.0, which prints as "-0".
        all.iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.seconds())
    }

    /// The metrics every workload reports the same way: set-up and run
    /// wall, the `sim.prepare` breakdown, CPU, and — traced — the profiler's
    /// and the allocator's numbers.
    fn common_metrics(&mut self) {
        let prepare_s = self.span_seconds("sim.prepare");
        self.set("setup_s", prepare_s + self.span_seconds("ktree.build"));
        self.set("run_wall_s", self.timed_wall_s);
        let failed = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("failed_ops_frac", failed);

        self.set("sim.prepare_s", prepare_s);
        let mut covered = 0.0;
        for (_, span, metric) in PREPARE_PHASES {
            let s = self.span_seconds(span);
            covered += s;
            self.set(metric, s);
        }
        self.set("sim.prepare.other_s", (prepare_s - covered).max(0.0));

        self.set("process.cpu_s", self.timed_cpu_s);
        let busy = self.timed_cpu_s / self.timed_wall_s.max(1e-9);
        self.set("parallel.busy_cores", busy);

        if !self.args.traced {
            return;
        }
        self.set("profile.alloc_mib", self.timed_alloc.bytes as f64 / MIB);
        self.set("profile.alloc_calls", self.timed_alloc.allocs as f64);
        let peak = proxbal_profile::alloc::peak_live_bytes() as f64 / MIB;
        self.set("profile.peak_live_mib", peak);
        self.set("trace.events", self.trace.event_count() as f64);

        // `core::round` brackets its four phases for the profiler; sum each
        // over every round of the run (worker threads profile as roots, so
        // a phase can sit under more than one parent).
        let report = proxbal_profile::report();
        let phase = |name: &str| {
            let rows = report.rows.iter().filter(|r| r.name == name);
            rows.fold((0.0, 0.0), |(wall, bytes), r| {
                (wall + r.wall.as_secs_f64(), bytes + r.alloc_bytes as f64)
            })
        };
        let (lbi, aggregate, vsa, transfer) = (
            phase("round/lbi"),
            phase("round/aggregate"),
            phase("round/vsa"),
            phase("round/transfer"),
        );
        self.set("core.round.lbi.alloc_mib", lbi.1 / MIB);
        self.set("core.round.aggregate.alloc_mib", aggregate.1 / MIB);
        self.set("core.round.vsa.alloc_mib", vsa.1 / MIB);
        self.set("core.round.transfer.alloc_mib", transfer.1 / MIB);
        // The round workloads report these from `RoundWalls`, traced or not;
        // the engine and the paper phases run their rounds inside the
        // drivers, where only the profiler sees them.
        if !self.metrics.contains_key("core.round_s") {
            self.set("core.round.lbi_s", lbi.0);
            self.set("ktree.aggregate_s", aggregate.0);
            self.set("core.round.vsa_s", vsa.0);
            self.set("core.round.transfer_s", transfer.0);
            self.set("core.round_s", lbi.0 + aggregate.0 + vsa.0 + transfer.0);
        }
    }

    /// Closes the root span, writes the spans (traced runs), prints the
    /// result document, and returns the process exit code.
    pub fn finish(mut self) -> i32 {
        self.common_metrics();
        self.spans.close(self.root);
        let rss = proxbal_profile::peak_rss_bytes().unwrap_or(0) as f64 / MIB;
        self.set("peak_rss_mib", rss);

        // Every metric declared for this workload is reported exactly once
        // (`set` rejects a second report): end-to-end and deterministic ones
        // always, the rest by the traced run.
        for def in metrics::METRICS {
            let due = def.defined_on(&self.args.workload)
                && def.name != metrics::OVERHEAD_FRAC
                && (self.args.traced || def.is_end_to_end() || def.deterministic);
            let reported =
                self.metrics.contains_key(def.name) || self.refused.contains_key(def.name);
            if due && !reported && self.failed == 0 {
                self.check("metrics_complete", false, format!("{} missing", def.name));
            }
        }

        if self.args.traced {
            let dir = crate::out_dir();
            let path = dir.join(format!("{}.spans.ndjson", self.args.workload));
            let written = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, self.spans.to_ndjson(&self.args.workload)));
            if let Err(e) = written {
                self.check("spans_written", false, format!("{}: {e}", path.display()));
            }
        }

        let ok = self.failed == 0 && self.checks.iter().all(|c| c.ok);
        let mut metrics_json = Map::new();
        for (name, value) in &self.metrics {
            metrics_json.insert(name.to_string(), json!(*value));
        }
        let mut refused_json = Map::new();
        for (name, reason) in &self.refused {
            refused_json.insert(name.to_string(), json!(reason.as_str()));
        }
        let checks: Vec<Value> = self
            .checks
            .iter()
            .map(|c| json!({"name": c.name, "ok": c.ok, "detail": c.detail.as_str()}))
            .collect();
        let self_sum: f64 = (0..self.spans.all().len())
            .map(|i| self.spans.self_seconds(i))
            .sum();
        let doc = json!({
            "workload": self.args.workload.as_str(),
            "seed": self.args.seed,
            "threads": self.args.threads,
            "traced": self.args.traced,
            "smoke": self.args.smoke,
            "params": self.params,
            "ok": ok,
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": checks,
            "metrics": Value::Object(metrics_json),
            "refused": Value::Object(refused_json),
            "spans": {
                "count": self.spans.all().len(),
                "root_s": self.spans.get(self.root).seconds(),
                "self_sum_s": self_sum,
            },
        });
        println!(
            "{}",
            serde_json::to_string(&doc).expect("result document serializes")
        );
        if ok {
            0
        } else {
            1
        }
    }
}

pub fn run(args: ChildArgs) -> i32 {
    let mut ctx = Ctx::new(args);
    match ctx.args.workload.as_str() {
        "exact_16k" => crate::workloads::round(&mut ctx, false),
        "approx_1m" => crate::workloads::round(&mut ctx, true),
        "engine_4k" => crate::workloads::engine(&mut ctx),
        "paper_all" => crate::workloads::paper(&mut ctx),
        other => panic!("unknown workload {other}"),
    }
    ctx.finish()
}
