//! Integration tests of the proximity-aware pipeline over real transit-stub
//! topologies (topology + hilbert + chord + ktree + core together).

use proxbal::sim::experiments::fig78_moved_load;
use proxbal::sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;

fn moved_load_scenario(topology: TopologyKind, peers: usize, seed: u64) -> Scenario {
    let mut s = Scenario::builder().seed(seed).build();
    s.peers = peers;
    s.topology = topology;
    s
}

#[test]
fn aware_beats_ignorant_on_ts5k_large() {
    let prepared = moved_load_scenario(TopologyKind::Ts5kLarge, 768, 41).prepare();
    let out = fig78_moved_load(&prepared, &mut Trace::disabled());

    // Both modes balance completely.
    assert_eq!(out.aware_report.heavy_after(), 0);
    assert_eq!(out.ignorant_report.heavy_after(), 0);

    // The aware scheme concentrates moved load at short distances.
    let aware2 = out.aware.fraction_within(2);
    let ign2 = out.ignorant.fraction_within(2);
    assert!(
        aware2 > 5.0 * ign2,
        "within 2 hops: aware {aware2:.3} vs ignorant {ign2:.3}"
    );
    let aware10 = out.aware.fraction_within(10);
    let ign10 = out.ignorant.fraction_within(10);
    assert!(
        aware10 > 1.5 * ign10,
        "within 10 hops: aware {aware10:.3} vs ignorant {ign10:.3}"
    );
    assert!(
        out.aware.mean_distance() < out.ignorant.mean_distance(),
        "mean distance must drop"
    );
}

#[test]
fn aware_still_wins_on_ts5k_small() {
    let prepared = moved_load_scenario(TopologyKind::Ts5kSmall, 768, 43).prepare();
    let out = fig78_moved_load(&prepared, &mut Trace::disabled());
    assert_eq!(out.aware_report.heavy_after(), 0);
    // Paper: "The proximity-aware load balancing approach still performs
    // much better … in spite of the fact that most of the nodes are
    // scattered in the entire Internet."
    assert!(
        out.aware.mean_distance() < out.ignorant.mean_distance(),
        "aware {:.2} vs ignorant {:.2}",
        out.aware.mean_distance(),
        out.ignorant.mean_distance()
    );
    assert!(out.aware.fraction_within(10) > out.ignorant.fraction_within(10));
}

#[test]
fn aware_assignments_happen_deeper_in_the_tree() {
    // Proximity publication clusters records, so rendezvous points sit
    // deeper (closer to leaves) than in the ignorant sweep on average.
    let prepared = moved_load_scenario(TopologyKind::Ts5kLarge, 512, 47).prepare();
    let out = fig78_moved_load(&prepared, &mut Trace::disabled());
    let mean_depth = |per_depth: &[usize]| -> f64 {
        let total: usize = per_depth.iter().sum();
        per_depth
            .iter()
            .enumerate()
            .map(|(d, &n)| d as f64 * n as f64)
            .sum::<f64>()
            / total.max(1) as f64
    };
    let aware = mean_depth(&out.aware_report.vsa.assignments_per_depth);
    let ignorant = mean_depth(&out.ignorant_report.vsa.assignments_per_depth);
    assert!(
        aware > ignorant,
        "aware mean rendezvous depth {aware:.2} should exceed ignorant {ignorant:.2}"
    );
}

#[test]
fn transfer_distances_match_oracle() {
    let prepared = moved_load_scenario(TopologyKind::Tiny, 48, 53).prepare();
    let out = fig78_moved_load(&prepared, &mut Trace::disabled());
    let oracle = prepared.oracle.as_ref().unwrap();
    for t in &out.aware_report.transfers {
        let from = prepared.net.peer(t.assignment.from).underlay;
        let to = prepared.net.peer(t.assignment.to).underlay;
        assert_eq!(t.distance, Some(oracle.distance(from, to)));
    }
}

#[test]
fn deterministic_given_seed() {
    let a = fig78_moved_load(
        &moved_load_scenario(TopologyKind::Tiny, 64, 77).prepare(),
        &mut Trace::disabled(),
    );
    let b = fig78_moved_load(
        &moved_load_scenario(TopologyKind::Tiny, 64, 77).prepare(),
        &mut Trace::disabled(),
    );
    assert_eq!(
        a.aware_report.transfers.len(),
        b.aware_report.transfers.len()
    );
    assert_eq!(a.aware.cdf(), b.aware.cdf());
    assert_eq!(a.ignorant.cdf(), b.ignorant.cdf());
}
