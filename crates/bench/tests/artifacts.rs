//! `repro`'s one writer: a run's results value lands unchanged in both the
//! `--json` document and `BENCH_repro.json`, a grid run keeps the phases an
//! earlier run recorded, and an artifact that cannot be read back or written
//! is one stderr line and exit 2 — never a clobbered file or a panic.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-artifacts-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

fn repro(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn repro")
}

fn read_json(path: PathBuf) -> Value {
    let text = std::fs::read_to_string(&path).expect("read artifact");
    serde_json::from_str(&text).expect("parse artifact")
}

/// The value at `path` in `v`.
fn at<'a>(v: &'a Value, path: &[&str]) -> &'a Value {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .unwrap_or_else(|| panic!("no {path:?} in {v:?}"))
}

/// Exit 2, nothing on stdout, one stderr line holding `expected`.
fn assert_usage_error(out: &Output, expected: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr {stderr:?}");
    assert!(out.stdout.is_empty(), "a phase ran before the error");
    assert_eq!(stderr.lines().count(), 1, "stderr {stderr:?}");
    assert!(stderr.contains(expected), "stderr {stderr:?}");
}

#[test]
fn the_json_document_and_the_bench_entry_hold_one_results_value() {
    let dir = scratch("one-value");
    let out = repro(&dir, &["figs", "4", "--scale", "small", "--json", "r.json"]);
    assert!(out.status.success(), "{out:?}");
    let doc = read_json(dir.join("r.json"));
    let bench = read_json(dir.join("BENCH_repro.json"));
    let figure_4 = at(&doc, &["results", "figure_4"]);
    at(figure_4, &["heavy_before"]);
    assert_eq!(at(&bench, &["small", "results", "figure_4"]), figure_4);
    assert_eq!(at(&bench, &["small", "seed"]), at(&doc, &["seed"]));

    // A second grid run merges its phase beside the first one's.
    let out = repro(&dir, &["claims", "repair", "--scale", "small"]);
    assert!(out.status.success(), "{out:?}");
    let bench = read_json(dir.join("BENCH_repro.json"));
    assert_eq!(at(&bench, &["small", "results", "figure_4"]), figure_4);
    at(&bench, &["small", "results", "claim_repair"]);
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

#[test]
fn a_bench_file_that_cannot_be_merged_into_is_left_untouched() {
    let dir = scratch("bad-bench");
    for bad in ["not json", "[1, 2]"] {
        std::fs::write(dir.join("BENCH_repro.json"), bad).expect("write bad file");
        let out = repro(&dir, &["figs", "4", "--scale", "small"]);
        assert_usage_error(&out, "BENCH_repro.json");
        let after = std::fs::read_to_string(dir.join("BENCH_repro.json")).expect("read back");
        assert_eq!(after, bad, "the file was overwritten");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}

#[test]
fn an_artifact_that_cannot_be_written_is_an_error_not_a_panic() {
    let dir = scratch("bad-json");
    let out = repro(
        &dir,
        &["figs", "4", "--scale", "small", "--json", "missing/r.json"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr {stderr:?}");
    assert_eq!(stderr.lines().count(), 1, "stderr {stderr:?}");
    assert!(
        stderr.starts_with("cannot write missing/r.json: "),
        "stderr {stderr:?}"
    );
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}
