//! Runs the `pbench` binary end to end at smoke sizes (1,024 peers, 8
//! epochs, 2 graphs): every workload runs, every declared metric shows up
//! once with its unit, the span tree adds up, traced and untraced runs agree
//! on every deterministic field, a corrupted load total fails the run, and
//! `BENCHMARK.json` still says what the binary does.

use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["exact_16k", "approx_1m", "engine_4k", "paper_all"];

fn pbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pbench"))
        .args(args)
        .output()
        .expect("pbench starts")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

fn last_json(out: &Output) -> Value {
    let text = stdout(out);
    let line = text.lines().last().expect("some output");
    serde_json::from_str(line).unwrap_or_else(|e| panic!("last line is not JSON ({e:?}): {line}"))
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn contract() -> Value {
    let out = pbench(&["contract"]);
    assert!(out.status.success());
    serde_json::from_str(&stdout(&out)).expect("contract is JSON")
}

fn names(list: &Value) -> Vec<String> {
    let items = list.as_array().expect("a list");
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Metric rows of one workload's section of the `pbench all` tables:
/// `(name, unit)` of every line that starts with a declared metric name.
fn table_rows(text: &str, workload: &str, declared: &[String]) -> Vec<(String, String)> {
    let header = format!("── {workload} ──");
    let section = text.split(&header).nth(1).expect("workload section");
    let section = section.split("\n── ").next().expect("section body");
    section
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            let name = words.next()?;
            declared
                .iter()
                .any(|d| d == name)
                .then(|| (name.to_string(), words.next().unwrap_or("").to_string()))
        })
        .collect()
}

#[test]
fn two_smoke_sets_run_agree_and_compare() {
    let spec = contract();
    let mut declared = names(spec.get("end_to_end").unwrap());
    declared.extend(names(spec.get("per_layer").unwrap()));

    let (a, b) = (tmp("smoke-a.json"), tmp("smoke-b.json"));
    let mut texts = Vec::new();
    for path in [&a, &b] {
        let path = path.to_str().unwrap();
        let out = pbench(&["all", "--smoke", "--reps", "2", "--out", path]);
        let text = stdout(&out);
        assert!(out.status.success(), "pbench all failed:\n{text}");
        assert!(text.contains("all checks passed"));
        texts.push(text);
    }

    let file: Value = serde_json::from_str(&std::fs::read_to_string(&a).unwrap()).unwrap();
    assert_eq!(
        file.get("comparable"),
        Some(&Value::Bool(false)),
        "smoke output is marked"
    );
    assert_eq!(file.get("ok"), Some(&Value::Bool(true)));
    let manifest = file.get("manifest").expect("run manifest");
    for key in [
        "commit",
        "rustc",
        "nproc",
        "cpu_model",
        "threads",
        "seed",
        "reps",
    ] {
        assert!(manifest.get(key).is_some(), "manifest lacks {key}");
    }

    for w in WORKLOADS {
        // Every metric printed for the workload is printed once, with a unit.
        let rows = table_rows(&texts[0], w, &declared);
        assert!(rows.len() > 10, "{w}: only {} metric rows", rows.len());
        for (name, unit) in &rows {
            let times = rows.iter().filter(|(n, _)| n == name).count();
            assert_eq!(times, 1, "{w}: {name} printed {times} times");
            assert!(!unit.is_empty(), "{w}: {name} has no unit");
        }
        for must in [
            "setup_s",
            "run_wall_s",
            "peak_rss_mib",
            "failed_ops_frac",
            "profile.overhead_frac",
        ] {
            assert!(
                rows.iter().any(|(n, _)| n == must),
                "{w}: {must} not printed"
            );
        }
        assert!(
            !texts[0].contains("missing"),
            "a declared metric was not reported"
        );

        let doc = file
            .get("workloads")
            .and_then(|m| m.get(w))
            .expect("workload entry");
        // `correct` covers the checks of every child and the agreement of
        // the untraced and traced runs on every deterministic field.
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)), "{w}");
        assert!(doc.get("params").is_some_and(|p| *p != Value::Null));
        assert_eq!(
            doc.get("repetitions")
                .and_then(Value::as_array)
                .map(Vec::len),
            Some(2)
        );

        // Span self-times sum to the root span.
        let spans = doc.get("spans").expect("span summary of the traced run");
        let f = |k: &str| spans.get(k).and_then(Value::as_f64).unwrap();
        assert!(
            (f("root_s") - f("self_sum_s")).abs() < 1e-6,
            "{w}: {spans:?}"
        );
        let ndjson = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("{w}.spans.ndjson"));
        let spans_written = std::fs::read_to_string(&ndjson).expect("span log of the traced run");
        assert!(spans_written.lines().count() >= 4, "{w}: {spans_written}");
    }

    // Same commit, same seed: every deterministic row reads `same`, none
    // is a mismatch. Timing verdicts at smoke sizes are noise; not asserted.
    let out = pbench(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    let text = stdout(&out);
    assert!(!text.contains("MISMATCH"), "{text}");
    for line in text
        .lines()
        .filter(|l| l.contains("heavy_after_frac") || l.contains("msgs_per_peer"))
    {
        assert!(line.trim_end().ends_with("same"), "{line}");
    }
}

#[test]
fn corrupted_load_total_fails_the_run() {
    let out = pbench(&[
        "all",
        "--smoke",
        "--reps",
        "1",
        "--workloads",
        "exact_16k",
        "--corrupt-load",
        "--out",
        tmp("corrupt.json").to_str().unwrap(),
    ]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(
        text.contains("CHECK FAILED") && text.contains("load_conserved"),
        "{text}"
    );
    assert!(text.contains("CHECKS FAILED"));
}

#[test]
fn driver_entry_prints_the_contract_line() {
    let spec = contract();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = pbench(&[
            "--workload",
            "engine_4k",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ]);
        assert!(out.status.success(), "{}", stdout(&out));
        let line = last_json(&out);
        let Value::Object(map) = &line else {
            panic!("not an object: {line:?}");
        };
        let mut keys: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));

        let metrics = line.get("metrics").and_then(Value::as_object).unwrap();
        let mut printed: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
        let mut wanted = names(spec.get(list).unwrap());
        printed.sort();
        wanted.sort();
        assert_eq!(printed, wanted, "--trace {trace} prints the {list} metrics");
        for (name, m) in metrics.iter() {
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
        }
    }
}

#[test]
fn benchmark_json_is_what_the_binary_implies() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let committed: Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    assert_eq!(
        committed,
        contract(),
        "regenerate with `pbench contract > BENCHMARK.json`"
    );

    let workloads = committed
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap();
    assert_eq!(names(committed.get("workloads").unwrap()), WORKLOADS);
    for w in workloads {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
    let end_to_end = names(committed.get("end_to_end").unwrap());
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!(names(committed.get("per_layer").unwrap()).len() <= 128);
}

#[test]
fn refuses_more_threads_than_cores_and_unknown_workloads() {
    let out = pbench(&["all", "--smoke", "--threads", "100000"]);
    assert_eq!(out.status.code(), Some(2));
    let out = pbench(&["run", "no_such_workload"]);
    assert_eq!(out.status.code(), Some(2));
    let out = pbench(&["--workload", "exact_16k", "--bogus"]);
    assert_eq!(out.status.code(), Some(2));
}
