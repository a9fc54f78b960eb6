//! `pbench all` and the acceptance driver's entry point: spawn one child
//! per repetition, aggregate, check, print, write the result file.

use crate::metrics::{self, Kind, MetricDef, WORKLOADS};
use crate::stats::median;
use serde_json::{json, Map, Value};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

pub struct Settings {
    pub seed: u64,
    pub threads: usize,
    pub smoke: bool,
    /// Passed on to every child; see `ChildArgs::corrupt_load`.
    pub corrupt_load: bool,
}

/// How many untraced repetitions a workload gets.
pub enum Reps {
    Count(usize),
    /// As many as fit in this many seconds, at least one: another starts
    /// only while the time spent so far plus the longest repetition so far
    /// still fits.
    Seconds(f64),
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `/proc/loadavg`: the 1-minute load average and the number of tasks
/// runnable right now (this process included).
fn loadavg() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut fields = text.split_whitespace();
    let one_minute = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let runnable = fields
        .nth(2)
        .and_then(|f| f.split('/').next()?.parse().ok())
        .unwrap_or(1.0);
    (one_minute, runnable)
}

/// Tasks other than this one that want a core, averaged over 100 ms. The
/// 1-minute average cannot tell a busy machine from the repetition pbench
/// itself has just finished; this can.
fn other_runnable_tasks() -> f64 {
    let samples = 5;
    let mut sum = 0.0;
    for _ in 0..samples {
        sum += (loadavg().1 - 1.0).max(0.0);
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    sum / f64::from(samples)
}

/// Standard output of a command, trimmed; `None` if it cannot run or fails.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers come from: enough to tell two result files apart
/// before comparing them.
pub fn manifest(settings: &Settings, reps: usize, label: &str) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // Outside a git checkout (the acceptance driver's) the commit reads
    // "unknown" and `dirty` null.
    let repo = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let repo = repo.to_string_lossy();
    let unknown = || "unknown".to_string();
    let dirty = command_line("git", &["-C", &repo, "status", "--porcelain"]);
    json!({
        "label": label,
        "commit": command_line("git", &["-C", &repo, "rev-parse", "HEAD"]).unwrap_or_else(unknown),
        "dirty": dirty.map(|changes| !changes.is_empty()),
        "rustc": command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        "nproc": nproc(),
        "cpu_model": cpu,
        "threads": settings.threads,
        "seed": settings.seed,
        "reps": reps,
        "smoke": settings.smoke,
        "profile": if cfg!(debug_assertions) { "dev" } else { "release" },
    })
}

/// Runs `pbench run <workload>` as a process of its own and returns its
/// result document with `loadavg` and `noisy` added.
fn spawn_child(workload: &str, s: &Settings, traced: bool) -> Result<Value, String> {
    let (load, busy) = (loadavg().0, other_runnable_tasks());
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", workload, "--seed", &s.seed.to_string()]);
    cmd.args(["--threads", &s.threads.to_string()]);
    if traced {
        cmd.arg("--traced");
    }
    if s.smoke {
        cmd.arg("--smoke");
    }
    if s.corrupt_load {
        cmd.arg("--corrupt-load");
    }
    // `output` waits for the child and collects its pipes; stderr passes
    // through so a panic message reaches the user.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc: Value = serde_json::from_str(last).map_err(|_| {
        format!(
            "{workload} child ended with {} and no result document",
            out.status
        )
    })?;
    let Value::Object(mut map) = doc else {
        return Err(format!("{workload} child printed a non-object"));
    };
    if !out.status.success() {
        map.insert("ok".to_string(), json!(false));
    }
    map.insert("loadavg".to_string(), json!(load));
    map.insert("other_runnable".to_string(), json!(busy));
    // A repetition started on a busy machine is flagged, not dropped: the
    // reader decides.
    map.insert("noisy".to_string(), json!(busy > 0.5 * nproc() as f64));
    Ok(Value::Object(map))
}

fn metric_of(doc: &Value, name: &str) -> Option<f64> {
    doc.get("metrics")?.get(name)?.as_f64()
}

fn flag(doc: &Value, key: &str) -> bool {
    doc.get(key) == Some(&Value::Bool(true))
}

fn count(doc: &Value, key: &str) -> u64 {
    doc.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Result of one workload: untraced repetitions, optionally one traced run.
pub struct WorkloadResult {
    pub workload: &'static str,
    pub reps: Vec<Value>,
    pub traced: Option<Value>,
    /// Children that ended without a result document.
    pub crashes: Vec<String>,
}

impl WorkloadResult {
    fn docs(&self) -> impl Iterator<Item = &Value> {
        self.reps.iter().chain(&self.traced)
    }

    /// Values of an end-to-end metric over the untraced repetitions.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.reps
            .iter()
            .filter_map(|d| metric_of(d, name))
            .collect()
    }

    pub fn traced_value(&self, name: &str) -> Option<f64> {
        if name == metrics::OVERHEAD_FRAC {
            // (traced − untraced median) / untraced median.
            let traced = metric_of(self.traced.as_ref()?, "run_wall_s")?;
            let untraced = self.values("run_wall_s");
            if untraced.is_empty() {
                return None;
            }
            let base = median(&untraced);
            return Some((traced - base) / base);
        }
        metric_of(self.traced.as_ref()?, name)
    }

    pub fn attempted(&self) -> u64 {
        let ops: u64 = self.docs().map(|d| count(d, "attempted")).sum();
        // A crashed child attempted at least the one operation it died in.
        ops + self.crashes.len() as u64
    }

    pub fn failed(&self) -> u64 {
        let ops: u64 = self.docs().map(|d| count(d, "failed")).sum();
        ops + self.crashes.len() as u64
    }

    /// Deterministic metrics that differ between repetitions (the traced
    /// run included): `(name, values seen)`.
    pub fn mismatches(&self) -> Vec<(&'static str, Vec<f64>)> {
        let mut bad = Vec::new();
        for def in metrics::METRICS.iter().filter(|m| m.deterministic) {
            let seen: Vec<f64> = self.docs().filter_map(|d| metric_of(d, def.name)).collect();
            if seen.windows(2).any(|w| w[0].to_bits() != w[1].to_bits()) {
                bad.push((def.name, seen));
            }
        }
        bad
    }

    /// Failed checks as `(repetition, name, detail)`.
    pub fn failed_checks(&self) -> Vec<(String, String, String)> {
        let mut bad = Vec::new();
        for (i, doc) in self.docs().enumerate() {
            let rep = if i < self.reps.len() {
                format!("rep {}", i + 1)
            } else {
                "traced".to_string()
            };
            let checks = doc.get("checks").and_then(Value::as_array);
            for c in checks.into_iter().flatten() {
                if !flag(c, "ok") {
                    let text = |k: &str| c.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    bad.push((rep.clone(), text("name"), text("detail")));
                }
            }
            if !flag(doc, "ok") && checks.is_none_or(|c| c.iter().all(|c| flag(c, "ok"))) {
                bad.push((
                    rep,
                    "child_exit".to_string(),
                    "child reported failure".to_string(),
                ));
            }
        }
        for (name, seen) in self.mismatches() {
            bad.push((
                "all".to_string(),
                "deterministic_fields_equal".to_string(),
                format!("{name} read {seen:?}"),
            ));
        }
        for crash in &self.crashes {
            bad.push((
                "-".to_string(),
                "child_completed".to_string(),
                crash.clone(),
            ));
        }
        bad
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.failed_checks().is_empty() && !self.reps.is_empty()
    }
}

pub fn run_workload(
    workload: &'static str,
    settings: &Settings,
    reps: &Reps,
    traced: bool,
) -> WorkloadResult {
    let mut result = WorkloadResult {
        workload,
        reps: Vec::new(),
        traced: None,
        crashes: Vec::new(),
    };
    let started = Instant::now();
    let mut longest: f64 = 0.0;
    loop {
        let t = Instant::now();
        match spawn_child(workload, settings, false) {
            Ok(doc) => result.reps.push(doc),
            Err(e) => result.crashes.push(e),
        }
        longest = longest.max(t.elapsed().as_secs_f64());
        let done = result.reps.len() + result.crashes.len();
        let more = match reps {
            Reps::Count(n) => done < *n,
            Reps::Seconds(s) => started.elapsed().as_secs_f64() + longest <= *s,
        };
        if !more || !result.crashes.is_empty() {
            break;
        }
    }
    if traced {
        match spawn_child(workload, settings, true) {
            Ok(doc) => result.traced = Some(doc),
            Err(e) => result.crashes.push(e),
        }
    }
    result
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() || v.abs() >= 1000.0 {
        // Counts print as the integers they are.
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

fn refusal(result: &WorkloadResult, name: &str) -> Option<String> {
    result
        .docs()
        .find_map(|d| d.get("refused")?.get(name)?.as_str())
        .map(str::to_string)
}

fn print_tables(result: &WorkloadResult) {
    let w = result.workload;
    println!("\n── {w} ──");
    for (i, doc) in result.docs().enumerate() {
        if flag(doc, "noisy") {
            let busy = doc.get("other_runnable").and_then(Value::as_f64);
            let which = if i < result.reps.len() {
                format!("repetition {}", i + 1)
            } else {
                "the traced run".to_string()
            };
            println!(
                "  noisy: {which} started beside {:.1} other runnable tasks",
                busy.unwrap_or(0.0)
            );
        }
    }
    println!(
        "  {:<34} {:>9} {:>12} {:>12} {:>12} {:>3}  bound",
        "end-to-end metric", "unit", "median", "min", "max", "n"
    );
    for def in metrics::METRICS.iter().filter(|m| m.defined_on(w)) {
        let Kind::EndToEnd { bound, floor, .. } = def.kind else {
            continue;
        };
        let values = result.values(def.name);
        if values.is_empty() {
            let why = refusal(result, def.name).unwrap_or_else(|| "not reported".to_string());
            println!("  {:<34} {:>9} refused: {why}", def.name, def.unit);
            continue;
        }
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let bound = if floor > 0.0 {
            format!("{:.1} % or {floor} {}", bound * 100.0, def.unit)
        } else {
            format!("{:.1} %", bound * 100.0)
        };
        println!(
            "  {:<34} {:>9} {:>12} {:>12} {:>12} {:>3}  {bound}{}",
            def.name,
            def.unit,
            fmt_value(median(&values)),
            fmt_value(lo),
            fmt_value(hi),
            values.len(),
            if def.deterministic {
                " (deterministic)"
            } else {
                ""
            },
        );
    }
    if result.traced.is_some() {
        print_layer_table(result);
    }
    for (rep, name, detail) in result.failed_checks() {
        println!("  CHECK FAILED [{rep}] {name}: {detail}");
    }
}

fn print_layer_table(result: &WorkloadResult) {
    let w = result.workload;
    println!(
        "  {:<34} {:>9} {:>12}  should move",
        "per-layer metric (traced run)", "unit", "value"
    );
    for def in metrics::METRICS.iter().filter(|m| m.defined_on(w)) {
        let Kind::Layer { moves, most_on } = def.kind else {
            continue;
        };
        let value = match result.traced_value(def.name) {
            Some(v) => fmt_value(v),
            None => "missing".to_string(),
        };
        println!(
            "  {:<34} {:>9} {:>12}  {moves} on {most_on}",
            def.name, def.unit, value
        );
    }
}

fn workload_json(result: &WorkloadResult) -> Value {
    let w = result.workload;
    let mut end_to_end = Map::new();
    let mut per_layer = Map::new();
    for def in metrics::METRICS.iter().filter(|m| m.defined_on(w)) {
        match def.kind {
            Kind::EndToEnd { bound, floor, .. } => {
                let values = result.values(def.name);
                let entry = if values.is_empty() {
                    json!({"unit": def.unit, "refused": refusal(result, def.name)})
                } else {
                    json!({
                        "unit": def.unit,
                        "better": def.better.as_str(),
                        "bound": bound,
                        "floor": floor,
                        "deterministic": def.deterministic,
                        "n": values.len(),
                        "median": median(&values),
                        "values": values,
                    })
                };
                end_to_end.insert(def.name.to_string(), entry);
            }
            Kind::Layer { .. } => {
                if let Some(v) = result.traced_value(def.name) {
                    per_layer.insert(def.name.to_string(), json!({"unit": def.unit, "value": v}));
                }
            }
        }
    }
    let load = |d: &Value| {
        json!({
            "loadavg": d.get("loadavg"),
            "other_runnable": d.get("other_runnable"),
            "noisy": d.get("noisy"),
        })
    };
    let failed: Vec<Value> = result
        .failed_checks()
        .into_iter()
        .map(|(rep, name, detail)| json!({"rep": rep, "name": name, "detail": detail}))
        .collect();
    json!({
        "params": result.reps.first().and_then(|d| d.get("params")),
        "correct": result.correct(),
        "attempted": result.attempted(),
        "failed": result.failed(),
        "failed_checks": failed,
        "repetitions": result.reps.iter().map(load).collect::<Vec<_>>(),
        "traced_run": result.traced.as_ref().map(load),
        "spans": result.traced.as_ref().and_then(|d| d.get("spans")),
        "end_to_end": Value::Object(end_to_end),
        "per_layer": Value::Object(per_layer),
    })
}

/// `pbench all`: every workload `reps` times untraced, then once traced.
/// Prints every metric by name with its unit, runs the checks, writes
/// `out` and returns the exit code (non-zero if any check failed).
pub fn all(settings: &Settings, workloads: &[&'static str], reps: usize, out: &PathBuf) -> i32 {
    let label = out
        .file_stem()
        .map_or_else(String::new, |s| s.to_string_lossy().to_string());
    let manifest = manifest(settings, reps, &label);
    println!(
        "pbench: seed {} · {} threads of {} · {} reps + 1 traced{}",
        settings.seed,
        settings.threads,
        nproc(),
        reps,
        if settings.smoke {
            " · SMOKE (not comparable)"
        } else {
            ""
        }
    );
    let mut docs = Map::new();
    let mut ok = true;
    for &w in workloads {
        let result = run_workload(w, settings, &Reps::Count(reps), true);
        print_tables(&result);
        ok &= result.correct();
        docs.insert(w.to_string(), workload_json(&result));
    }
    let doc = json!({
        "pbench": 1,
        "comparable": !settings.smoke,
        "ok": ok,
        "manifest": manifest,
        "workloads": Value::Object(docs),
    });
    let text = serde_json::to_string_pretty(&doc).expect("result file serializes") + "\n";
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(out, text));
    match written {
        Ok(()) => println!("\nwrote {}", out.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            return 2;
        }
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    i32::from(!ok)
}

/// The acceptance driver's entry:
/// `pbench --workload W --seed N --seconds S --trace 0|1`. With tracing off
/// it repeats the workload for about `seconds` and reports the medians of
/// `BENCHMARK.json`'s end-to-end metrics; with tracing on it runs one
/// untraced and one traced child and reports the per-layer metrics. The
/// last line of standard output is the result object.
pub fn driver(workload: &'static str, settings: &Settings, seconds: f64, trace: bool) -> i32 {
    let reps = if trace {
        Reps::Count(1)
    } else {
        Reps::Seconds(seconds)
    };
    let result = run_workload(workload, settings, &reps, trace);
    print_tables(&result);

    let listed: Vec<&MetricDef> = if trace {
        metrics::driver_per_layer().collect()
    } else {
        metrics::driver_end_to_end().collect()
    };
    let mut complete = true;
    let mut out = Map::new();
    for def in listed {
        let value = if !def.defined_on(workload) || refusal(&result, def.name).is_some() {
            // The contract wants every listed metric from every workload;
            // one that is not defined here (or was refused: a tail
            // percentile of a smoke run's few samples) reads 0.
            Some(0.0)
        } else if def.is_end_to_end() {
            let values = result.values(def.name);
            (!values.is_empty()).then(|| median(&values))
        } else {
            result.traced_value(def.name)
        };
        complete &= value.is_some();
        out.insert(
            def.name.to_string(),
            json!({"value": value.unwrap_or(0.0), "unit": def.unit}),
        );
    }
    let correct = result.correct() && complete;
    let line = json!({
        "correct": correct,
        "attempted": result.attempted().max(1),
        "failed": result.failed(),
        "metrics": Value::Object(out),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("result line serializes")
    );
    i32::from(!correct)
}

/// `pbench contract`: the `BENCHMARK.json` this registry implies.
pub fn contract() -> Value {
    let why = [
        "16,384 peers, exact distances: 98 % of the run is Dijkstra row fills in the transfer phase, the distance bottleneck in isolation",
        "1,048,576 peers, landmark-approximate distances, sharded prepare and tree build: the headline scale, where lbi, aggregate, vsa, prepare and tree build all carry weight",
        "4,096 peers, 120 engine epochs of churn, drift and 1 % loss: ring and tree mutated every epoch, incremental rounds, fault DES; a distance-oracle change must not move it",
        "the twelve phases of `repro all` at full scale: many small prepares and 4,096-peer rounds through the sweep engine, where per-call overheads matter and nothing is large",
    ];
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .zip(why)
        .map(|(name, why)| json!({"name": name, "why": why}))
        .collect();
    let end_to_end: Vec<Value> = metrics::driver_end_to_end()
        .map(|m| {
            json!({
                "name": m.name,
                "unit": m.unit,
                "better": m.better.as_str(),
                "bound": m.driver_bound().expect("listed because it has one"),
            })
        })
        .collect();
    let per_layer: Vec<Value> = metrics::driver_per_layer()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()}))
        .collect();
    json!({
        "command": [
            "cargo", "run", "--release", "--quiet", "--offline",
            "--manifest-path", "benchmark/Cargo.toml", "--",
        ],
        "paths": ["benchmark"],
        "run_seconds": crate::RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}
