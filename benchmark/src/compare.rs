//! `pbench compare a.json b.json`: the repeatability / regression verdict
//! between two result files, `a` being the reference.

use crate::metrics::{self, Kind, WORKLOADS};
use crate::stats::{median, tolerance, verdict, Verdict};
use serde_json::Value;

fn values_of(file: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let entry = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let values = entry.get("values")?.as_array()?;
    Some(values.iter().filter_map(Value::as_f64).collect())
}

/// Whether two files claim to measure the same program on the same inputs,
/// so that every deterministic field must agree bit for bit.
fn same_inputs(a: &Value, b: &Value) -> bool {
    let field = |f: &Value, k: &str| f.get("manifest").and_then(|m| m.get(k)).cloned();
    ["commit", "seed", "smoke"]
        .iter()
        .all(|k| field(a, k).is_some() && field(a, k) == field(b, k))
}

/// Prints one row per metric × workload and returns the exit code: 1 on
/// any `worse`, on any deterministic mismatch, or when a file's own checks
/// failed.
pub fn compare(a: &Value, b: &Value) -> i32 {
    let same_inputs = same_inputs(a, b);
    let mut bad = 0;
    for (name, file) in [("a", a), ("b", b)] {
        if file.get("ok") != Some(&Value::Bool(true)) {
            println!("{name}: the run's own checks failed");
            bad += 1;
        }
        if file.get("comparable") != Some(&Value::Bool(true)) {
            println!("{name}: smoke run — sizes are reduced, numbers are not comparable");
        }
    }
    println!(
        "{:<11} {:<20} {:>12} {:>12} {:>9} {:>10}  verdict",
        "workload", "metric", "a median", "b median", "delta", "tolerance"
    );
    for w in WORKLOADS {
        for def in metrics::METRICS.iter().filter(|m| m.defined_on(w)) {
            let Kind::EndToEnd { bound, floor, .. } = def.kind else {
                continue;
            };
            let (Some(va), Some(vb)) = (values_of(a, w, def.name), values_of(b, w, def.name))
            else {
                continue;
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let mismatch = def.deterministic && same_inputs && ma.to_bits() != mb.to_bits();
            let v = verdict(&va, &vb, def.better, bound, floor);
            let delta = if ma != 0.0 {
                format!("{:+.2} %", 100.0 * (mb - ma) / ma)
            } else {
                format!("{:+.3e}", mb - ma)
            };
            let text = if mismatch {
                "MISMATCH (deterministic field differs on the same commit and seed)"
            } else {
                v.as_str()
            };
            println!(
                "{w:<11} {:<20} {ma:>12.6} {mb:>12.6} {delta:>9} {:>10.4}  {text}",
                def.name,
                tolerance(ma, bound, floor),
            );
            if mismatch || v == Verdict::Worse {
                bad += 1;
            }
        }
    }
    if bad == 0 {
        println!("no metric worse, no deterministic mismatch");
    } else {
        println!("{bad} finding(s)");
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn file(commit: &str, run_wall: &[f64], heavy: f64) -> Value {
        json!({
            "ok": true,
            "comparable": true,
            "manifest": {"commit": commit, "seed": 1, "smoke": false},
            "workloads": {"exact_16k": {"end_to_end": {
                "run_wall_s": {"values": run_wall},
                "heavy_after_frac": {"values": [heavy, heavy]},
            }}},
        })
    }

    #[test]
    fn same_commit_within_bounds_passes() {
        let a = file("c1", &[10.0, 10.1, 9.9], 0.03);
        let b = file("c1", &[10.2, 10.0, 10.1], 0.03);
        assert_eq!(compare(&a, &b), 0);
    }

    #[test]
    fn slower_run_fails() {
        let a = file("c1", &[10.0, 10.1, 9.9], 0.03);
        let b = file("c2", &[12.0, 12.1, 11.9], 0.03);
        assert_eq!(compare(&a, &b), 1);
    }

    #[test]
    fn deterministic_mismatch_on_same_commit_fails_even_within_bound() {
        let a = file("c1", &[10.0, 10.1, 9.9], 0.03);
        let b = file("c1", &[10.0, 10.1, 9.9], 0.03 * (1.0 + 1e-4));
        assert_eq!(compare(&a, &b), 1);
        // A different commit may move a simulated metric within its bound.
        let b = file("c2", &[10.0, 10.1, 9.9], 0.03 * (1.0 + 1e-4));
        assert_eq!(compare(&a, &b), 0);
    }

    #[test]
    fn a_file_whose_checks_failed_fails() {
        let a = file("c1", &[10.0], 0.03);
        let mut b = file("c1", &[10.0], 0.03);
        if let Value::Object(m) = &mut b {
            m.insert("ok".to_string(), json!(false));
        }
        assert_eq!(compare(&a, &b), 1);
    }
}
