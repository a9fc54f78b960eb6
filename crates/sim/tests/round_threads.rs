//! The intra-round parallelism determinism contract: one balancing round
//! with its hot loops (LBI generation, tree aggregation, classification,
//! shed/light extraction, transfer refinement) running on N worker threads
//! produces a **byte-identical** report and trace to the serial round.
//! Parallel work is chunked by fixed compile-time sizes and merged in index
//! order on the caller's thread, and every RNG draw stays serial — so the
//! thread count can only change wall-clock time, never a single output
//! byte. The xl2-scale guarantee (`repro xl2 --threads 8` ≡ `--threads 1`)
//! is exactly this property at a million peers.

use proxbal_core::{
    BalancerConfig, LoadBalancer, ProximityMode, ProximityParams, RoundWalls, Underlay,
};
use proxbal_ktree::KTree;
use proxbal_profile::NullSink;
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;

/// A reduced proximity-aware scenario exercising all four phases: a real
/// (tiny) underlay so the proximity inputs, landmark vectors and transfer
/// distances all flow through the parallel sections.
fn aware_scenario(seed: u64) -> Scenario {
    let mut s = Scenario::builder().small().seed(seed).build();
    s.peers = 128;
    s.topology = TopologyKind::Tiny;
    s
}

/// Runs one traced proximity-aware round at the given worker-thread count
/// over freshly prepared (thread-independent) state, returning the
/// serialized report and the trace event log.
fn one_round(seed: u64, threads: usize) -> (String, String, RoundWalls) {
    let mut prepared = aware_scenario(seed).prepare_run(1, &NullSink);
    let cfg = BalancerConfig {
        mode: ProximityMode::Aware(ProximityParams::default()),
        ..prepared.scenario.balancer
    };
    let underlay = Underlay {
        oracle: prepared.oracle.as_ref().expect("tiny topology present"),
        latency_oracle: prepared.latency_oracle.as_ref(),
        landmarks: &prepared.landmarks,
        approx: None,
    };
    let mut tree = KTree::build(&prepared.net, cfg.k);
    let mut rng = prepared.derived_rng(0x51D);
    let mut trace = Trace::enabled("round");
    let mut walls = RoundWalls::default();
    let report = LoadBalancer::new(cfg)
        .with_threads(threads)
        .run_with_tree_walls(
            &mut prepared.net,
            &mut prepared.loads,
            &mut tree,
            Some(underlay),
            &mut rng,
            &mut trace,
            &mut walls,
        )
        .expect("attached network");
    (
        serde_json::to_string(&report).expect("serialize report"),
        trace.to_ndjson(),
        walls,
    )
}

#[test]
fn round_report_and_trace_are_byte_identical_across_thread_counts() {
    let (report1, nd1, walls1) = one_round(17, 1);
    for threads in [2, 3, 8] {
        let (report, nd, _) = one_round(17, threads);
        assert_eq!(report, report1, "report at {threads} threads");
        assert_eq!(nd, nd1, "trace event log at {threads} threads");
    }
    // The walls were actually measured (phases 1 and 4 always do work).
    assert!(walls1.lbi_wall_s > 0.0);
    assert!(walls1.transfer_wall_s > 0.0);
}

#[test]
fn round_trace_carries_the_intra_round_spans() {
    let (_, nd, _) = one_round(19, 8);
    // The new per-phase spans exist and their args are workload-derived
    // (peer/chunk/merge counts), never thread counts or wall-clocks — that
    // is what lets the 8-thread event log match the serial one above.
    for span in [
        "round/lbi",
        "round/aggregate",
        "round/vsa",
        "round/transfer",
    ] {
        assert!(nd.contains(span), "missing span {span}");
    }
    assert!(
        !nd.contains("wall_s"),
        "wall-clock must never leak into the trace"
    );
}

#[test]
fn ignorant_mode_rounds_are_thread_invariant_too() {
    // No underlay at all: the ignorant identifier-space path (random
    // report placement, no distance accounting) merges identically.
    let run = |threads: usize| {
        let mut prepared = aware_scenario(23).prepare_run(1, &NullSink);
        let mut rng = prepared.derived_rng(0x1D);
        let report = LoadBalancer::new(prepared.scenario.balancer)
            .with_threads(threads)
            .run(&mut prepared.net, &mut prepared.loads, None, &mut rng)
            .expect("attached network");
        serde_json::to_string(&report).expect("serialize report")
    };
    assert_eq!(run(1), run(8));
}

#[test]
fn engine_timeline_is_invariant_to_the_prepare_thread_count() {
    // The engine picks up `Prepared::threads` for its balancer: preparing
    // at 8 threads must still replay the identical incremental rounds.
    let scenario = {
        let mut s = Scenario::builder().small().seed(29).build();
        s.peers = 96;
        s.topology = TopologyKind::Tiny;
        s.churn = Some(proxbal_sim::churn::ChurnConfig::default());
        s.drift = Some(proxbal_sim::drift::DriftConfig::default());
        s
    };
    let cfg = proxbal_sim::EngineConfig {
        epochs: 6,
        ..proxbal_sim::EngineConfig::default()
    };
    let run = |threads: usize| {
        let mut prepared = scenario.prepare_run(threads, &NullSink);
        assert_eq!(prepared.threads, threads);
        let mut trace = Trace::enabled("engine");
        let report =
            proxbal_sim::run_engine_with(&mut prepared, &cfg, &mut trace, &NullSink).unwrap();
        (serde_json::to_string(&report).unwrap(), trace.to_ndjson())
    };
    let (r1, nd1) = run(1);
    let (r8, nd8) = run(8);
    assert_eq!(r1, r8, "engine time series must not depend on threads");
    assert_eq!(nd1, nd8, "engine trace must not depend on threads");
}
