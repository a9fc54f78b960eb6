//! Gates end to end: fixture gates over a synthetic engine report and
//! trace, the summary, and every committed gate failing on a mutation of
//! the run that it exists to catch.

use proxbal_analyze::{evaluate_gates, parse_gate_file, render_table, Run};
use proxbal_sim::engine::{EngineConfig, EngineReport, EpochSample};
use proxbal_trace::Trace;

/// A small synthetic engine report: a heavy episode that drains, one
/// emergency, one repaired stale-link burst.
fn report() -> EngineReport {
    let base = EpochSample {
        epoch: 0,
        alive_peers: 64,
        gini: 0.2,
        heavy: 0,
        joins: 0,
        crashes: 0,
        stale_links: 0,
        repair_reattached: 0,
        repair_pruned: 0,
        maintenance_rounds: 1,
        balanced: false,
        emergency: false,
        balance_passes: 0,
        moved: 0.0,
        transfers: 0,
        messages: 10,
        des_messages: 10,
        des_retries: 0,
    };
    // Epochs: calm, heavy onset, emergency peak (stale links repaired),
    // rebalanced, a short relapse, rebalanced again.
    let rows = [
        (0.2, 0usize, false, false, 0usize, 0usize),
        (0.4, 5, false, false, 0, 0),
        (0.5, 8, false, true, 3, 3),
        (0.3, 0, true, false, 0, 0),
        (0.4, 2, false, false, 0, 0),
        (0.3, 0, true, false, 0, 0),
    ];
    let samples: Vec<EpochSample> = rows
        .iter()
        .enumerate()
        .map(
            |(i, &(gini, heavy, balanced, emergency, stale, fixed))| EpochSample {
                epoch: i,
                gini,
                heavy,
                balanced,
                emergency,
                stale_links: stale,
                repair_reattached: fixed,
                balance_passes: usize::from(balanced),
                moved: if balanced { 5.0 } else { 0.0 },
                transfers: if balanced { 2 } else { 0 },
                ..base
            },
        )
        .collect();
    EngineReport {
        config: EngineConfig::default(),
        samples,
        joins: 1,
        crashes: 1,
        stale_links: 3,
        balances: 2,
        emergencies: 1,
        total_moved: 10.0,
        total_transfers: 4,
        total_messages: 100,
    }
}

/// The synthetic trace's shape: `rounds` epoch tracks, each carrying one
/// LBI→VSA→VST round, minus `missing` on the first track; then counters.
struct TraceSpec {
    rounds: usize,
    missing: Option<&'static str>,
    counters: Vec<(&'static str, u64)>,
}

impl Default for TraceSpec {
    fn default() -> Self {
        TraceSpec {
            rounds: 12,
            missing: None,
            counters: vec![("des_gave_up", 0), ("kt_reattached", 3)],
        }
    }
}

/// The synthetic trace, exported/reparsed through the real NDJSON path.
fn trace_text(spec: &TraceSpec) -> String {
    let mut trace = Trace::enabled("det");
    for round in 0..spec.rounds {
        let mut child = Trace::enabled(&format!("epoch{}", 5 * round));
        let spans = [
            ("lbi", 0, 10),
            ("aggregate", 0, 10),
            ("vsa", 10, 8),
            ("transfer", 18, 5),
        ];
        for (name, ts, dur) in spans {
            let name = format!("round/{name}");
            if round > 0 || spec.missing != Some(&name) {
                child.span(&name, ts, dur);
            }
        }
        trace.absorb(child);
    }
    for &(name, n) in &spec.counters {
        trace.count(name, n);
    }
    trace.to_ndjson()
}

const GATES: &str = r#"
[[gate]]
name = "drain"
source = "report"
reduce = "run_p99"
where = "heavy > 0"
op = "<="
threshold = 2

[[gate]]
name = "rebalance"
source = "report"
reduce = "funnel_completion"
steps = ["heavy > 0", "balanced == true and heavy == 0"]
window = 5
op = ">="
threshold = 1.0

[[gate]]
name = "no-triple-emergency"
source = "report"
reduce = "run_max"
where = "emergency == true"
op = "<="
threshold = 2

[[gate]]
name = "rounds"
source = "trace"
reduce = "funnel_completion"
steps = ["name == 'round/lbi'", "name == 'round/vsa'", "name == 'round/transfer'"]
window = 100
op = ">="
threshold = 1.0

[[gate]]
name = "delivery"
source = "counters"
reduce = "last"
of = "des_gave_up"
op = "=="
threshold = 0
"#;

#[test]
fn fixture_gates_pass_and_report_as_json() {
    let mut run = Run::default();
    run.load("r.json", &report().to_json_pretty()).unwrap();
    run.load("t.ndjson", &trace_text(&TraceSpec::default()))
        .unwrap();
    let gates = parse_gate_file(GATES, "det.toml").unwrap();
    let results = evaluate_gates(&gates, &run);
    assert!(
        results.iter().all(|r| r.pass),
        "fixture gates must pass:\n{}",
        render_table(&results)
    );
    let json = serde_json::to_string_pretty(&results).unwrap();
    for field in [
        "\"name\": \"drain\"",
        "\"reduce\": \"run_p99\"",
        "\"actual\": 2.0",
        "\"source\": \"counters\"",
        "\"pass\": true",
    ] {
        assert!(json.contains(field), "{field} missing from {json}");
    }
}

#[test]
fn summary_is_deterministic_and_names_episodes() {
    let mut run = Run::default();
    run.load("r.json", &report().to_json_pretty()).unwrap();
    run.load("t.ndjson", &trace_text(&TraceSpec::default()))
        .unwrap();
    let a = run.summarize();
    let b = run.summarize();
    assert_eq!(a, b);
    assert!(a.contains("heavy episodes: 2"), "{a}");
    assert!(a.contains("epochs 1..=2"), "{a}");
    assert!(a.contains("emergency epochs: 2"), "{a}");
}

#[test]
fn tightened_threshold_turns_into_a_named_violation() {
    let mut run = Run::default();
    run.load("r.json", &report().to_json_pretty()).unwrap();
    let text = GATES.replace("threshold = 2", "threshold = 1");
    let gates = parse_gate_file(&text, "det.toml").unwrap();
    let report_gates: Vec<_> = gates
        .into_iter()
        .filter(|g| g.source == proxbal_analyze::gates::Source::Report)
        .collect();
    let results = evaluate_gates(&report_gates, &run);
    let drain = results.iter().find(|r| r.name == "drain").unwrap();
    assert!(!drain.pass);
    let table = render_table(&results);
    assert!(table.contains("drain") && table.contains("FAIL"), "{table}");
}

/// The committed gate files, as `repro analyze --gates gates/` reads them.
const COMMITTED: [(&str, &str); 2] = [
    (
        "engine_report.toml",
        include_str!("../../../gates/engine_report.toml"),
    ),
    (
        "engine_trace.toml",
        include_str!("../../../gates/engine_trace.toml"),
    ),
];

fn set(samples: &mut [EpochSample], epochs: &[usize], edit: fn(&mut EpochSample)) {
    epochs.iter().for_each(|&e| edit(&mut samples[e]));
}

/// Appends a heavy episode of `len` epochs and the balanced epoch that
/// drains it.
fn relapse(samples: &mut Vec<EpochSample>, len: usize) {
    for i in 0..=len {
        let (heavy, balanced) = (usize::from(i < len), i == len);
        let epoch = samples.len();
        samples.push(EpochSample {
            epoch,
            heavy,
            balanced,
            ..samples[0]
        });
    }
}

/// A mutation of the synthetic run, and the committed gates it must fail.
type Case = (
    &'static str,
    fn(&mut Vec<EpochSample>, &mut TraceSpec),
    &'static [&'static str],
);

#[rustfmt::skip]
const CASES: &[Case] = &[
    ("unmutated", |_, _| {}, &[]),
    ("a four-epoch relapse", |s, _| relapse(s, 4), &[]),
    ("a five-epoch relapse", |s, _| relapse(s, 5), &["heavy-drain-p99"]),
    ("a dropped repair", |s, _| s[2].repair_reattached = 2, &["no-unrepaired-orphans"]),
    ("an undrained relapse", |s, _| s[5].balanced = false, &["rebalance-funnel"]),
    ("two emergencies in a row", |s, _| set(s, &[0, 3], |e| e.emergency = true), &[]),
    ("a third in a row", |s, _| set(s, &[0, 3, 4], |e| e.emergency = true), &["no-triple-emergency"]),
    ("ends heavy", |s, _| s[5].heavy = 1, &["rebalance-funnel", "final-heavy"]),
    ("a message given up", |_, t| t.counters[0].1 = 1, &["des-delivery"]),
    ("no round/transfer", |_, t| t.missing = Some("round/transfer"), &["round-funnel"]),
    ("nine rounds", |_, t| t.rounds = 9, &["round-funnel-entered"]),
    ("no orphan reattached", |_, t| t.counters.truncate(1), &["kt-repair-exercised"]),
    ("a repair undone", |_, t| t.counters.push(("kt_reorphaned", 1)), &["kt-repair-retention"]),
];

#[test]
fn each_committed_gate_fails_on_its_fixture_and_names_itself() {
    let gates: Vec<_> = COMMITTED
        .iter()
        .flat_map(|(origin, text)| parse_gate_file(text, origin).unwrap())
        .collect();
    let mut tripped = std::collections::BTreeSet::<&str>::new();
    for &(case, edit, fails) in CASES {
        let mut samples = report().samples;
        let mut spec = TraceSpec::default();
        edit(&mut samples, &mut spec);
        let mut run = Run::default();
        let report = EngineReport {
            samples,
            ..report()
        };
        run.load("r.json", &report.to_json_pretty()).unwrap();
        run.load("t.ndjson", &trace_text(&spec)).unwrap();
        let results = evaluate_gates(&gates, &run);
        let table = render_table(&results);
        let failed: Vec<&str> = results
            .iter()
            .filter(|r| !r.pass)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(failed, fails, "{case}:\n{table}");
        for name in fails {
            let row = table
                .lines()
                .find(|l| l.split_whitespace().next() == Some(*name))
                .unwrap();
            assert!(row.ends_with("FAIL"), "{case}: {row}");
        }
        tripped.extend(fails.iter().copied());
    }
    let untested: Vec<&str> = gates
        .iter()
        .map(|g| g.name.as_str())
        .filter(|n| !tripped.contains(n))
        .collect();
    assert!(untested.is_empty(), "no fixture fails {untested:?}");
}
