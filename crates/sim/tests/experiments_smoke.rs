//! Small-scale smoke tests for every experiment driver the `repro` binary
//! uses — the full-scale outputs are recorded in EXPERIMENTS.md; these
//! verify the drivers' *shape guarantees* quickly in CI.

use proxbal_core::BalancerConfig;
use proxbal_sim::experiments::*;
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;
use proxbal_workload::LoadModel;

fn small(seed: u64, topology: TopologyKind) -> Scenario {
    let mut s = Scenario::builder().seed(seed).build();
    s.peers = 256;
    s.topology = topology;
    s
}

#[test]
fn fig4_driver_shape() {
    let mut prepared = small(1, TopologyKind::None).prepare();
    let out = fig4_unit_load(&mut prepared);
    assert_eq!(out.before.len(), 256);
    assert_eq!(out.after.len(), 256);
    let max_before = out.before.iter().fold(0.0f64, |a, &b| a.max(b));
    let max_after = out.after.iter().fold(0.0f64, |a, &b| a.max(b));
    assert!(max_after < max_before / 10.0, "{max_before} -> {max_after}");
    assert!(out.report.heavy_before_fraction() > 0.4);
    assert_eq!(out.report.heavy_after(), 0);
}

#[test]
fn fig56_driver_shape_gaussian_and_pareto() {
    for load in [LoadModel::gaussian(1e6, 1e4), LoadModel::pareto(1e6)] {
        let mut scenario = small(2, TopologyKind::None);
        scenario.load = load;
        let mut prepared = scenario.prepare();
        let out = fig56_class_loads(&mut prepared);
        assert_eq!(out.class_capacity.len(), 5);
        // Post-balance means rise with capacity over populated classes.
        let means: Vec<f64> = out
            .after
            .iter()
            .filter(|v| v.len() >= 3)
            .map(|v| v.iter().sum::<f64>() / v.len() as f64)
            .collect();
        for w in means.windows(2) {
            assert!(w[1] > w[0], "{load:?}: means not increasing {means:?}");
        }
    }
}

#[test]
fn fig78_replicated_pools_graphs() {
    let base = small(3, TopologyKind::Tiny);
    let out = fig78_replicated_traced(&base, 3, 3, &mut Trace::disabled());
    assert_eq!(out.per_graph.len(), 3);
    assert_eq!(out.max_heavy_after, 0);
    assert!(!out.aware.is_empty());
    assert!(!out.ignorant.is_empty());
    // Pooled totals are the sums of the per-graph runs.
    assert!(out.aware.total() > 0.0);
}

#[test]
fn rounds_scaling_is_monotone_in_size_and_k() {
    let rows = rounds_scaling(&[64, 256], &[2, 8], 5, 2);
    assert_eq!(rows.len(), 4);
    let get = |peers: usize, k: usize| {
        rows.iter()
            .find(|r| r.peers == peers && r.k == k)
            .unwrap()
            .lbi_rounds
    };
    assert!(get(256, 2) >= get(64, 2), "rounds grow with size");
    assert!(get(256, 8) <= get(256, 2), "larger K flattens the tree");
}

#[test]
fn repair_rows_bounded_by_height() {
    let row = repair_after_crash_traced(128, 0.25, 2, 7, &mut Trace::disabled());
    assert_eq!(row.crash_repair_rounds, 1, "prune/replant is one sweep");
    assert!(row.join_repair_rounds >= 1);
    assert!(
        row.join_repair_rounds as u32 <= row.height_after + 2,
        "regrowth {} vs height {}",
        row.join_repair_rounds,
        row.height_after
    );
}

#[test]
fn scheme_comparison_reports_cfs_weakness() {
    let prepared = small(9, TopologyKind::None).prepare();
    let cmp = scheme_comparison(&prepared);
    assert!(cmp.gini_tree < cmp.gini_before);
    assert!(cmp.heavy_before > 0);
    assert!(cmp.heavy_after * 10 <= cmp.heavy_before);
    // CFS either converges or thrashes; on heterogeneous workloads it
    // reliably thrashes at least once.
    assert!(cmp.cfs_thrash_events > 0 || cmp.cfs_converged);
}

#[test]
fn ablation_sweep_covers_all_variants() {
    let mut scenario = small(11, TopologyKind::Tiny);
    scenario.landmarks = 6;
    let prepared = scenario.prepare();
    let rows = ablation_sweep_traced(&prepared, 2, &mut Trace::disabled());
    assert!(rows.len() >= 12);
    // Ignorant baseline must have the worst mean distance.
    let ignorant = rows
        .iter()
        .find(|r| r.label == "proximity-ignorant")
        .unwrap();
    let default = &rows[0];
    assert!(default.mean_distance < ignorant.mean_distance);
    // Conservation: every variant moves the same order of load.
    for r in &rows {
        assert!(r.moved_load > 0.0, "{} moved nothing", r.label);
    }
}

/// The determinism contract of the sweep engine: every parallelized driver
/// produces bit-identical output regardless of worker count, because each
/// cell derives its RNG from the cell's identity alone. Compared via JSON
/// rendering, which is exact for identical f64 bit patterns.
#[test]
fn parallel_drivers_are_thread_count_invariant() {
    let fig = |threads| {
        let base = small(17, TopologyKind::Tiny);
        serde_json::to_string(&fig78_replicated_traced(
            &base,
            3,
            threads,
            &mut Trace::disabled(),
        ))
        .unwrap()
    };
    let fig1 = fig(1);
    assert_eq!(fig1, fig(2), "fig78 differs at 2 threads");
    assert_eq!(fig1, fig(8), "fig78 differs at 8 threads");

    let rounds =
        |threads| serde_json::to_string(&rounds_scaling(&[64, 128], &[2, 8], 19, threads)).unwrap();
    let rounds1 = rounds(1);
    assert_eq!(rounds1, rounds(2), "rounds_scaling differs at 2 threads");
    assert_eq!(rounds1, rounds(8), "rounds_scaling differs at 8 threads");

    let mut scenario = small(11, TopologyKind::Tiny);
    scenario.landmarks = 6;
    let prepared = scenario.prepare();
    let ablation = |threads| {
        serde_json::to_string(&ablation_sweep_traced(
            &prepared,
            threads,
            &mut Trace::disabled(),
        ))
        .unwrap()
    };
    let ablation1 = ablation(1);
    assert_eq!(
        ablation1,
        ablation(2),
        "ablation_sweep differs at 2 threads"
    );
    assert_eq!(
        ablation1,
        ablation(8),
        "ablation_sweep differs at 8 threads"
    );

    let latency = |threads| {
        serde_json::to_string(&protocol_latency(&[96], &[2, 8], &[0.0, 0.05], 23, threads)).unwrap()
    };
    let latency1 = latency(1);
    assert_eq!(
        latency1,
        latency(8),
        "protocol_latency differs at 8 threads"
    );
}

/// Claim `latency` through the one message-level simulator: the zero-loss
/// rows are the analytic tree latency — equal in both directions, and the
/// values the deleted reliable simulator printed — and loss only ever costs
/// time and messages.
#[test]
fn protocol_latency_rows_are_pinned_at_zero_loss_and_monotone_in_loss() {
    // `repro claims latency --scale small` at the default seed; no edge
    // exhausts its retry budget there, so every row is at full coverage.
    let mut trace = Trace::enabled("latency");
    let rows = protocol_latency_traced(&[256], &[2, 8], &[0.0, 0.05], 1, 1, &mut trace);
    assert!(trace.counter("des_retries") > 0);
    assert_eq!(trace.counter("des_gave_up"), 0);
    assert_eq!(
        serde_json::to_string(&rows).unwrap(),
        serde_json::to_string(&protocol_latency(&[256], &[2, 8], &[0.0, 0.05], 1, 2)).unwrap(),
        "protocol_latency differs at 2 threads"
    );
    let pinned = [(2, 255, 6252), (8, 94, 3820)];
    for (cell, (k, latency, messages)) in rows.chunks(2).zip(pinned) {
        let (clean, lossy) = (&cell[0], &cell[1]);
        assert_eq!(
            (clean.k, clean.loss, lossy.k, lossy.loss),
            (k, 0.0, k, 0.05)
        );
        assert_eq!(
            (clean.aggregation, clean.dissemination, clean.messages),
            (latency, latency, messages)
        );
        assert!(lossy.aggregation >= clean.aggregation);
        assert!(lossy.dissemination >= clean.dissemination);
        assert!(lossy.messages >= clean.messages);
    }
}

/// The bound of the oracle row memo changes no answer: with a 4-row memo —
/// below the 15 landmark rows `prepare` computes — a fig-7-shaped run
/// computes rows it cannot store, stores fewer bytes of rows than the
/// unbounded memo, and renders byte-identically to it.
#[test]
fn bounded_oracle_cache_is_bit_identical() {
    const CAPACITY: usize = 4;
    let run = |capacity: usize| {
        let mut scenario = small(7, TopologyKind::Ts5kLarge);
        scenario.oracle_capacity = capacity;
        let prepared = scenario.prepare();
        let out = fig78_moved_load(&prepared, &mut Trace::disabled());
        let latency = prepared.latency_oracle.as_ref().unwrap();
        let rendered = serde_json::to_string(&out).unwrap();
        (
            rendered,
            latency.cache_stats().computes,
            latency.resident_bytes(),
        )
    };
    let (unbounded, _, unbounded_bytes) = run(0);
    let (bounded, computes, bytes) = run(CAPACITY);
    assert!(computes > CAPACITY as u64, "{computes} rows computed");
    assert!(
        bytes < unbounded_bytes,
        "{bytes} of {unbounded_bytes} bytes"
    );
    assert_eq!(unbounded, bounded);
}

/// Landmark rows outlast row traffic past the memo's bound: with a 16-row
/// memo and 15 landmarks, rows from 40 other sources fill it, and a later
/// landmark vector over the prepared landmarks computes no row.
#[test]
fn prepared_landmark_rows_outlast_a_full_memo() {
    let mut scenario = small(23, TopologyKind::Ts5kLarge);
    scenario.oracle_capacity = 16;
    let prepared = scenario.prepare();
    let landmarks = &prepared.landmarks;
    assert_eq!(landmarks.len(), 15);
    let latency = prepared.latency_oracle.as_ref().unwrap();
    let n = latency.graph().node_count() as u32;
    let others = (0..n)
        .filter(|s| !landmarks.contains(s))
        .step_by(97)
        .take(40);
    for src in others {
        let _ = latency.row(src);
    }
    let before = latency.cache_stats();
    let node = n / 2;
    let vector = latency.landmark_vector(node, landmarks);
    let during = latency.cache_stats().since(&before);
    assert_eq!((during.computes, during.hits, during.evictions), (0, 15, 0));
    for (&l, &d) in landmarks.iter().zip(&vector) {
        assert_eq!(d, latency.graph().dijkstra(l)[node as usize]);
    }
}

/// Both oracles a prepared run builds read the topology's own graphs: the
/// hop and latency graphs are shared, never copied.
#[test]
fn prepared_oracles_share_the_topology_graphs() {
    let prepared = small(17, TopologyKind::Tiny).prepare();
    let topo = prepared.topo.as_ref().unwrap();
    let hops = prepared.oracle.as_ref().unwrap();
    let latency = prepared.latency_oracle.as_ref().unwrap();
    assert!(std::ptr::eq(hops.graph(), &*topo.graph));
    assert!(std::ptr::eq(latency.graph(), &*topo.latency_graph));
}

#[test]
fn balancer_config_in_scenario_is_respected() {
    let mut scenario = small(13, TopologyKind::None);
    scenario.balancer = BalancerConfig {
        k: 8,
        ..BalancerConfig::default()
    };
    let mut prepared = scenario.prepare();
    let out = fig4_unit_load(&mut prepared);
    // K=8 trees are shallow: round counts far below the K=2 equivalents.
    assert!(out.report.lbi_rounds <= 10, "{}", out.report.lbi_rounds);
}

#[test]
fn scenario_serde_round_trip() {
    let scenario = Scenario::builder().seed(99).build();
    let json = serde_json::to_string(&scenario).unwrap();
    let back: Scenario = serde_json::from_str(&json).unwrap();
    assert_eq!(back.peers, scenario.peers);
    assert_eq!(back.seed, scenario.seed);
    assert_eq!(back.topology, scenario.topology);
    // Both prepare to identical overlays.
    let a = scenario.prepare();
    let b = back.prepare();
    assert_eq!(a.net.alive_vs_count(), b.net.alive_vs_count());
    assert_eq!(a.landmarks, b.landmarks);
}
