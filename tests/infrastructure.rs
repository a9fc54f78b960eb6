//! Cross-crate infrastructure tests: the K-nary tree over a live Chord
//! network under churn, LBI aggregation correctness through the tree, and
//! protocol latency over the underlay.

use proxbal::chord::ChordNetwork;
use proxbal::core::{BalancerConfig, Lbi, LoadState};
use proxbal::ktree::{AggregateInput, KTree};
use proxbal::sim::churn::ChurnConfig;
use proxbal::sim::latency::{aggregation_latency, root_path_latencies};
use proxbal::sim::{run_engine, EngineConfig, Scenario, TopologyKind};
use proxbal::workload::{CapacityProfile, LoadModel};
use proxbal_trace::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn lbi_through_tree_equals_ground_truth_after_churn() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut net = ChordNetwork::new();
    for _ in 0..96 {
        net.join_peer(4, &mut rng);
    }
    let mut tree = KTree::build(&net, 2);

    // Churn, then repair.
    for p in net.alive_peers().into_iter().take(20) {
        net.crash_peer(p);
    }
    for _ in 0..10 {
        net.join_peer(4, &mut rng);
    }
    tree.maintain_until_stable(&net, 128, 0, &mut Trace::disabled());
    tree.check_invariants(&net).unwrap();

    // LBI aggregation over the repaired tree matches central totals.
    let loads = LoadState::generate(
        &net,
        &CapacityProfile::gnutella(),
        &LoadModel::gaussian(1e6, 1e4),
        &mut rng,
    );
    let mut inputs: Vec<AggregateInput<Lbi>> = net
        .alive_peers()
        .into_iter()
        .map(|p| AggregateInput {
            at: tree.report_target(&net, net.vss_of(p)[0]),
            value: loads.node_lbi(&net, p),
            sent: true,
        })
        .collect();
    inputs.sort_unstable_by_key(|input| input.at);
    let out = tree.aggregate(&net, &inputs, 1);
    let got = out.root_value.unwrap();
    let want = loads.totals(&net);
    assert!((got.load - want.load).abs() <= 1e-6 * want.load);
    assert!((got.capacity - want.capacity).abs() < 1e-9);
    assert_eq!(got.min_vs_load, want.min_vs_load);
}

/// Sustained churn through the engine, on a K = 4 tree. Debug builds (how
/// this test runs) audit the ring and tree invariants after every epoch's
/// repair; key ownership on churned rings is chord's
/// `prop_owner_equals_a_scan_of_the_ring`.
#[test]
fn sustained_churn_keeps_ring_and_tree_invariants() {
    let mut scenario = Scenario::builder()
        .small()
        .peers(64)
        .balancer(BalancerConfig {
            k: 4,
            ..BalancerConfig::default()
        })
        .churn(ChurnConfig {
            join_rate: 0.1,
            crash_rate: 0.1,
        })
        .seed(2)
        .build();
    scenario.vs_per_peer = 4;
    scenario.topology = TopologyKind::None;
    let mut prepared = scenario.prepare();
    let cfg = EngineConfig {
        epochs: 150,
        ..EngineConfig::default()
    };
    let report = run_engine(&mut prepared, &cfg).unwrap();
    assert!(report.joins > 50, "joins {}", report.joins);
    assert!(report.crashes > 50, "crashes {}", report.crashes);
    prepared.net.check_invariants().unwrap();
}

#[test]
fn aggregation_latency_reflects_topology() {
    let mut scenario = Scenario::builder().small().seed(3).build();
    scenario.peers = 96;
    scenario.topology = TopologyKind::Tiny;
    let prepared = scenario.prepare();
    let tree = KTree::build(&prepared.net, 2);
    let oracle = prepared.oracle.as_ref().unwrap();

    let lat = aggregation_latency(&prepared.net, oracle, &tree);
    assert!(lat > 0);
    // Bounded by (max message depth) × (graph diameter).
    let row0 = oracle.row(0);
    let row0_max = (0..row0.len()).map(|i| row0.get(i)).max().unwrap();
    let diameter = (0..prepared.topo.as_ref().unwrap().node_count() as u32)
        .map(|n| row0_max.max(oracle.distance(0, n)))
        .max()
        .unwrap();
    let bound = u64::from(tree.max_message_depth()) * u64::from(2 * diameter);
    assert!(lat <= bound, "latency {lat} exceeds bound {bound}");

    // Per-node path latencies are monotone toward leaves.
    let paths = root_path_latencies(&prepared.net, oracle, &tree);
    for id in tree.preorder() {
        if let Some(parent) = tree.node(id).parent() {
            assert!(paths[&id] >= paths[&parent]);
        }
    }
}

#[test]
fn balance_runs_back_to_back_converge() {
    // Running the balancer repeatedly must be stable: after the first pass
    // removes all heavy nodes, further passes move (almost) nothing.
    let mut scenario = Scenario::builder().small().seed(5).build();
    scenario.peers = 192;
    scenario.topology = TopologyKind::None;
    let mut prepared = scenario.prepare();
    let balancer = proxbal::core::LoadBalancer::new(proxbal::core::BalancerConfig::default());
    let mut rng = prepared.derived_rng(5);

    let first = balancer
        .run(&mut prepared.net, &mut prepared.loads, None, &mut rng)
        .unwrap();
    assert!(!first.transfers.is_empty());
    assert_eq!(first.heavy_after(), 0);

    let second = balancer
        .run(&mut prepared.net, &mut prepared.loads, None, &mut rng)
        .unwrap();
    let moved_first = proxbal::core::total_moved_load(&first.transfers);
    let moved_second = proxbal::core::total_moved_load(&second.transfers);
    assert!(
        moved_second <= moved_first * 0.05,
        "second pass should be a no-op: {moved_first} then {moved_second}"
    );
}

#[test]
fn tree_tracks_network_growth_incrementally() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut net = ChordNetwork::new();
    net.join_peer(3, &mut rng);
    let mut tree = KTree::build(&net, 2);
    // Interleave joins with maintenance; the tree must track every step and
    // stay consistent at stabilization points.
    for wave in 0..6 {
        for _ in 0..8 {
            net.join_peer(3, &mut rng);
        }
        tree.maintain_until_stable(&net, 128, 0, &mut Trace::disabled());
        tree.check_invariants(&net)
            .unwrap_or_else(|e| panic!("wave {wave}: {e}"));
        for (_, vs) in net.ring().iter() {
            assert_eq!(tree.node(tree.report_target(&net, vs)).host(), vs);
        }
    }
}
