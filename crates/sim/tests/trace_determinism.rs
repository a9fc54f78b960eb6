//! The tracing subsystem's determinism contract, end to end: for a fixed
//! `(seed, fault plan)` the serialized trace — newline-JSON event log AND
//! chrome://tracing JSON — is **byte-identical** at any thread count, and a
//! disabled collector leaves the experiment results byte-for-byte identical
//! to an untraced run.

use proxbal_profile::NullSink;
use proxbal_sim::experiments::{
    fault_sweep, fig78_replicated_traced, protocol_latency, protocol_latency_traced, FaultSweepRow,
};
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;

/// The fault sweep without heartbeats.
fn sweep(s: &Scenario, rates: &[f64], threads: usize, trace: &mut Trace) -> Vec<FaultSweepRow> {
    fault_sweep(s, rates, threads, trace, &NullSink)
}

fn sweep_scenario() -> Scenario {
    let mut s = Scenario::builder().small().seed(60).build();
    s.peers = 96;
    s.topology = TopologyKind::Tiny;
    s
}

fn fig78_scenario() -> Scenario {
    let mut s = Scenario::builder().small().seed(7).build();
    s.peers = 96;
    s.topology = TopologyKind::Tiny;
    s
}

#[test]
fn fault_sweep_trace_is_byte_identical_across_thread_counts() {
    let s = sweep_scenario();
    let rates = [0.0, 0.05, 0.1];
    let run = |threads: usize| {
        let mut trace = Trace::enabled("faults");
        let rows = sweep(&s, &rates, threads, &mut trace);
        (
            serde_json::to_string(&rows).unwrap(),
            trace.to_ndjson(),
            trace.to_chrome_json(),
        )
    };
    let (rows1, nd1, ch1) = run(1);
    for threads in [2, 8] {
        let (rows, nd, ch) = run(threads);
        assert_eq!(rows, rows1, "rows at {threads} threads");
        assert_eq!(nd, nd1, "ndjson at {threads} threads");
        assert_eq!(ch, ch1, "chrome json at {threads} threads");
    }
    assert!(!nd1.is_empty() && !ch1.is_empty());
}

#[test]
fn fault_sweep_trace_counters_match_row_totals() {
    // The trace's merged counters must reproduce the sweep rows' retry and
    // abandonment accounting — the `repro faults` cross-check.
    let s = sweep_scenario();
    let rates = [0.0, 0.1];
    let mut trace = Trace::enabled("faults");
    let rows = sweep(&s, &rates, 2, &mut trace);
    let retries: usize = rows.iter().map(|r| r.retries).sum();
    let gave_up: usize = rows.iter().map(|r| r.gave_up).sum();
    let messages: usize = rows.iter().map(|r| r.messages).sum();
    let requeued: usize = rows.iter().map(|r| r.requeued).sum();
    assert_eq!(trace.counter("des_retries"), retries as u64);
    assert_eq!(trace.counter("des_gave_up"), gave_up as u64);
    assert_eq!(trace.counter("des_messages"), messages as u64);
    assert_eq!(trace.counter("requeue_requeued"), requeued as u64);
    assert!(retries > 0, "the 10% cell must retry");
}

#[test]
fn traced_and_untraced_fault_sweeps_agree() {
    let s = sweep_scenario();
    let rates = [0.0, 0.08];
    let plain = sweep(&s, &rates, 2, &mut Trace::disabled());
    let mut trace = Trace::enabled("faults");
    let traced = sweep(&s, &rates, 2, &mut trace);
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap(),
        "tracing must never perturb the experiment"
    );
}

#[test]
fn fig78_trace_is_byte_identical_across_thread_counts() {
    let base = fig78_scenario();
    let run = |threads: usize| {
        let mut trace = Trace::enabled("figure_7");
        let out = fig78_replicated_traced(&base, 3, threads, &mut trace);
        (
            serde_json::to_string(&out).unwrap(),
            trace.to_ndjson(),
            trace.to_chrome_json(),
        )
    };
    let (out1, nd1, ch1) = run(1);
    for threads in [2, 8] {
        let (out, nd, ch) = run(threads);
        assert_eq!(out, out1, "results at {threads} threads");
        assert_eq!(nd, nd1, "ndjson at {threads} threads");
        assert_eq!(ch, ch1, "chrome json at {threads} threads");
    }
    // The merged stream actually has the per-graph aware/ignorant tracks.
    assert!(nd1.contains("graph0/aware"));
    assert!(nd1.contains("graph2/ignorant"));
    assert!(nd1.contains("phase/vst"));
}

#[test]
fn fig78_disabled_trace_changes_nothing_and_records_nothing() {
    let base = fig78_scenario();
    let mut disabled = Trace::disabled();
    let plain = fig78_replicated_traced(&base, 2, 2, &mut disabled);
    let traced = fig78_replicated_traced(&base, 2, 2, &mut Trace::enabled("figure_7"));
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap()
    );
    assert_eq!(disabled.event_count(), 0);
    assert!(disabled.counters().next().is_none());
}

#[test]
fn protocol_latency_trace_is_thread_count_invariant() {
    let run = |threads: usize| {
        let mut trace = Trace::enabled("latency");
        let rows = protocol_latency_traced(&[128], &[2, 8], &[0.0, 0.05], 3, threads, &mut trace);
        (serde_json::to_string(&rows).unwrap(), trace.to_ndjson())
    };
    let (rows1, nd1) = run(1);
    let (rows2, nd2) = run(4);
    assert_eq!(rows1, rows2);
    assert_eq!(nd1, nd2);
    // Spans for both phases landed on the per-cell tracks.
    assert!(nd1.contains("des/aggregation"));
    assert!(nd1.contains("des/dissemination"));
    // And the untraced wrapper returns the same rows.
    let plain = protocol_latency(&[128], &[2, 8], &[0.0, 0.05], 3, 2);
    assert_eq!(serde_json::to_string(&plain).unwrap(), rows1);
}
