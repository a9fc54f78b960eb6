//! Arena numbering is private to the K-nary tree: a tree that churn and
//! repair left with recycled slots, and a fresh build over the same ring,
//! have one shape and must give every result bit for bit alike — the
//! balancing round (`proxbal-core`) and the message-level aggregation
//! under faults (`proxbal-sim`). Public API only.

use proxbal_chord::VsId;
use proxbal_core::{
    BalancerConfig, DirtySet, LoadBalancer, NodeClass, ProximityMode, ProximityParams, RoundCache,
    RoundWalls, Underlay,
};
use proxbal_id::Arc;
use proxbal_ktree::{KTree, KtNodeId};
use proxbal_sim::des::RetryPolicy;
use proxbal_sim::faults::{
    simulate_aggregation_faulty, simulate_dissemination_faulty, FaultConfig, FaultPlan,
};
use proxbal_sim::protocol::ProtocolScratch;
use proxbal_sim::{Prepared, Scenario, TopologyKind};
use proxbal_trace::Trace;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// A prepared network, a tree maintained through crashes and new virtual
/// servers until stable, and a fresh build over the ring that left: one
/// shape in different slots — or the comparisons below show nothing.
fn repaired_and_fresh(seed: u64, k: usize) -> (Prepared, KTree, KTree) {
    let mut scenario = Scenario::builder().small().seed(seed).build();
    scenario.peers = 160;
    scenario.topology = TopologyKind::Tiny;
    let mut prepared = scenario.prepare();
    let net = &mut prepared.net;
    let mut repaired = KTree::build(net, k);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for _ in 0..3 {
        let mut alive = net.alive_peers();
        alive.shuffle(&mut rng);
        for &p in &alive[..alive.len() / 8] {
            net.crash_peer(p);
        }
        repaired.repair(net, 256);
        for &p in &alive[alive.len() / 8..alive.len() / 4] {
            net.spawn_vs(p, &mut rng);
        }
        repaired.repair(net, 256);
    }
    let fresh = KTree::build(net, k);
    let view = |t: &KTree| {
        let node = |id: KtNodeId| (t.node(id).region(), t.node(id).host(), id.0);
        t.preorder().map(node).collect::<Vec<_>>()
    };
    let (a, b) = (view(&repaired), view(&fresh));
    let shape = |v: &[(Arc, VsId, u32)]| v.iter().map(|n| (n.0, n.1)).collect::<Vec<_>>();
    assert_eq!(shape(&a), shape(&b));
    assert_ne!(a, b, "churn recycled no slot");
    (prepared, repaired, fresh)
}

#[test]
fn a_round_reads_no_slot() {
    for (seed, k) in [(3u64, 2usize), (4, 8)] {
        let (prepared, repaired, fresh) = repaired_and_fresh(seed, k);
        // A low threshold makes deep nodes rendezvous points, so the order
        // each level is visited in shows in the assignments.
        let cfg = BalancerConfig {
            k,
            mode: ProximityMode::Aware(ProximityParams::default()),
            rendezvous_threshold: 3,
            ..prepared.scenario.balancer
        };
        let underlay = Underlay {
            oracle: prepared.oracle.as_ref().expect("tiny topology"),
            latency_oracle: prepared.latency_oracle.as_ref(),
            landmarks: &prepared.landmarks,
            approx: None,
        };
        let round = |mut tree: KTree| {
            let (mut net, mut loads) = (prepared.net.clone(), prepared.loads.clone());
            let report = LoadBalancer::new(cfg).run_round(
                &mut net,
                &mut loads,
                &mut tree,
                Some(underlay),
                &mut RoundCache::new(),
                &DirtySet::All,
                &mut rand::rngs::StdRng::seed_from_u64(seed),
                &mut Trace::disabled(),
                &mut RoundWalls::default(),
            );
            let r = report.expect("attached network");
            assert!(!r.transfers.is_empty());
            let counts = |by_class: &HashMap<NodeClass, usize>| {
                let mut counts: Vec<_> = by_class.iter().map(|(c, n)| (*c as u8, *n)).collect();
                counts.sort_unstable();
                counts
            };
            // `Debug` shows every f64 exactly.
            let classes = (counts(&r.before), counts(&r.after));
            let tree_phases = (r.system, r.lbi_rounds, r.dissemination_rounds);
            format!(
                "{tree_phases:?} {classes:?} {:?} {:?} {:?}",
                r.vsa, r.transfers, r.messages
            )
        };
        assert_eq!(round(repaired), round(fresh), "seed {seed}, k {k}");
    }
}

#[test]
fn a_faulty_aggregation_reads_no_slot() {
    for (seed, k) in [(5u64, 2usize), (6, 8)] {
        let (prepared, repaired, fresh) = repaired_and_fresh(seed, k);
        let (net, oracle) = (&prepared.net, prepared.oracle.as_ref().unwrap());
        let phases = |tree: &KTree| {
            let ring = net.ring().iter().map(|(_, vs)| vs);
            let contributors = tree.report_targets(net, ring);
            let mut plan = FaultPlan::new(FaultConfig::with_loss(0.2, seed));
            let root_host = net.vs(tree.node(tree.root()).host()).host;
            let crashes = plan.crash_schedule(net, root_host, 300);
            let (retry, mut scratch) = (RetryPolicy::protocol_default(), ProtocolScratch::new());
            let agg = simulate_aggregation_faulty(
                net,
                tree,
                oracle,
                &contributors,
                &mut plan,
                retry,
                &crashes,
                &mut scratch,
            );
            let dis = simulate_dissemination_faulty(
                net,
                tree,
                oracle,
                &mut plan,
                retry,
                &crashes,
                &mut scratch,
            );
            (agg.expect("attached"), dis.expect("attached"))
        };
        let (agg, dis) = phases(&repaired);
        assert!(agg.retries > 0 && agg.delivered < agg.expected);
        assert_eq!((agg, dis), phases(&fresh), "seed {seed}, k {k}");
    }
}
