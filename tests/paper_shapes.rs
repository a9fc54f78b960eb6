//! Moderate-scale regression tests pinning the *shapes* of every paper
//! figure — the properties EXPERIMENTS.md reports at full scale, asserted
//! here at CI-friendly size through the `proxbal` facade.

use proxbal::sim::experiments::{
    fig4_unit_load, fig56_class_loads, fig78_moved_load, protocol_latency, rounds_scaling,
};
use proxbal::sim::metrics::gini;
use proxbal::sim::{Scenario, TopologyKind};
use proxbal::workload::LoadModel;
use proxbal_trace::Trace;

fn scenario(seed: u64, peers: usize, topology: TopologyKind) -> Scenario {
    let mut s = Scenario::builder().seed(seed).build();
    s.peers = peers;
    s.topology = topology;
    s
}

#[test]
fn fig4_shape_majority_heavy_then_none() {
    let mut prepared = scenario(81, 512, TopologyKind::None).prepare();
    let out = fig4_unit_load(&mut prepared);
    // Paper: "The percentage of heavy nodes are about 75%".
    let frac = out.report.heavy_before_fraction();
    assert!(
        (0.55..0.90).contains(&frac),
        "heavy-before fraction {frac:.2} outside the paper's regime"
    );
    // Paper: "all heavy nodes become light".
    assert_eq!(out.report.heavy_after(), 0);
    // Inequality collapses.
    assert!(gini(&out.after) < 0.7 * gini(&out.before));
}

#[test]
fn fig5_fig6_shape_load_tracks_capacity() {
    for load in [LoadModel::gaussian(1e6, 1e4), LoadModel::pareto(1e6)] {
        let mut s = scenario(82, 512, TopologyKind::None);
        s.load = load;
        let mut prepared = s.prepare();
        let out = fig56_class_loads(&mut prepared);
        // Post-balance unit load (mean load / capacity) within a factor ~3
        // across populated high-capacity classes: the two skews aligned.
        let mut unit_means = Vec::new();
        for (i, &cap) in out.class_capacity.iter().enumerate() {
            if out.after[i].len() >= 10 && cap >= 100.0 {
                let mean = out.after[i].iter().sum::<f64>() / out.after[i].len() as f64;
                unit_means.push(mean / cap);
            }
        }
        assert!(unit_means.len() >= 2);
        let lo = unit_means.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = unit_means.iter().copied().fold(0.0f64, f64::max);
        assert!(
            hi / lo < 3.0,
            "{load:?}: unit loads should align across classes: {unit_means:?}"
        );
    }
}

#[test]
fn fig7_shape_aware_dominates_on_clustered_topology() {
    let prepared = scenario(83, 1024, TopologyKind::Ts5kLarge).prepare();
    let out = fig78_moved_load(&prepared, &mut Trace::disabled());
    // The aware scheme must land a large share of moved load inside stub
    // domains (≤ 2 hops) — the ignorant scheme lands almost none.
    assert!(out.aware.fraction_within(2) > 0.25);
    assert!(out.ignorant.fraction_within(2) < 0.10);
    // Within-transit-domain share (≤ 10 hops): aware strongly ahead.
    assert!(out.aware.fraction_within(10) > 0.6);
    assert!(out.aware.fraction_within(10) > 1.8 * out.ignorant.fraction_within(10));
}

#[test]
fn fig8_shape_weaker_but_persistent_advantage() {
    let prepared = scenario(84, 1024, TopologyKind::Ts5kSmall).prepare();
    let out = fig78_moved_load(&prepared, &mut Trace::disabled());
    // Scattered peers: locality shrinks for both, but aware still wins.
    assert!(out.aware.mean_distance() < out.ignorant.mean_distance());
    // And the advantage is smaller than on ts5k-large (the paper's point).
    let large = fig78_moved_load(
        &scenario(84, 1024, TopologyKind::Ts5kLarge).prepare(),
        &mut Trace::disabled(),
    );
    let gain_small = out.ignorant.mean_distance() - out.aware.mean_distance();
    let gain_large = large.ignorant.mean_distance() - large.aware.mean_distance();
    assert!(
        gain_large > gain_small,
        "ts5k-large gain {gain_large:.2} should exceed ts5k-small gain {gain_small:.2}"
    );
}

#[test]
fn rounds_shape_logarithmic_scaling() {
    let rows = rounds_scaling(&[128, 512, 2048], &[2], 85, 2);
    // 16× more peers: rounds grow by a bounded additive amount (log), not
    // multiplicatively.
    let r128 = rows.iter().find(|r| r.peers == 128).unwrap();
    let r2048 = rows.iter().find(|r| r.peers == 2048).unwrap();
    let growth = r2048.lbi_rounds as i64 - r128.lbi_rounds as i64;
    assert!(
        (0..=10).contains(&growth),
        "16x size should add ~2·log2(16)=8 rounds, saw {growth}"
    );
}

#[test]
fn latency_shape_k8_faster_than_k2() {
    let rows = protocol_latency(&[256], &[2, 8], &[0.0], 86, 2);
    let t2 = rows.iter().find(|r| r.k == 2).unwrap();
    let t8 = rows.iter().find(|r| r.k == 8).unwrap();
    assert!(
        t8.aggregation < t2.aggregation,
        "K=8 should aggregate faster: {} vs {}",
        t8.aggregation,
        t2.aggregation
    );
    assert!(t8.messages < t2.messages);
}
