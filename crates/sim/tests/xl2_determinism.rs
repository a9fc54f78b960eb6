//! The xl2 pipeline's determinism contract at a reduced scale: sharded
//! preparation, the sharded KT-tree build and the landmark-approximate
//! balancing pass are pure functions of the scenario — the worker-thread
//! count only bounds parallelism. The full-scale guarantee (`repro xl2`
//! byte-identical at any `--threads`) is exactly this property at 1M peers.

use proxbal_chord::ChordNetwork;
use proxbal_core::LoadState;
use proxbal_id::Id;
use proxbal_profile::NullSink;
use proxbal_sim::experiments::{xl2_scale, Xl2ScaleOutput, XlWalls, XL2_SPLIT_DEPTH};
use proxbal_sim::shard::build_tree_sharded;
use proxbal_sim::{DistanceMode, Scenario, TopologyKind};
use proxbal_topology::{select_landmarks, TransitStubConfig, TransitStubTopology};
use proxbal_trace::Trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The xl2 preset scaled down ~1000×: same sharded machinery (8 shards,
/// approximate distances, bounded caches), test-sized everything else.
fn tiny_xl2(seed: u64) -> Scenario {
    let mut scenario = Scenario::builder()
        .xl2()
        .peers(1024)
        .landmarks(4)
        .seed(seed)
        .build();
    scenario.topology = TopologyKind::Tiny;
    scenario.oracle_capacity = 16;
    scenario.refine_sources = 32;
    scenario
}

/// Serializes the output; the walls come back beside it, so every field
/// must agree between runs.
fn stable_json((out, _walls): (Xl2ScaleOutput, XlWalls)) -> String {
    serde_json::to_string(&out).expect("serialize xl2 output")
}

#[test]
fn xl2_output_is_byte_identical_across_thread_counts() {
    let base = stable_json(xl2_scale(tiny_xl2(3), 1, &mut Trace::disabled(), &NullSink));
    for threads in [2, 8] {
        let run = stable_json(xl2_scale(
            tiny_xl2(3),
            threads,
            &mut Trace::disabled(),
            &NullSink,
        ));
        assert_eq!(run, base, "{threads} threads");
    }
}

#[test]
fn xl2_trace_is_byte_identical_across_thread_counts() {
    let run = |threads: usize| {
        let mut trace = Trace::enabled("xl2");
        let out = stable_json(xl2_scale(tiny_xl2(5), threads, &mut trace, &NullSink));
        (out, trace.to_ndjson())
    };
    let (out1, nd1) = run(1);
    let (out8, nd8) = run(8);
    assert_eq!(out1, out8);
    assert_eq!(nd1, nd8, "trace event stream must not depend on threads");
}

#[test]
fn sharded_prepare_is_thread_count_invariant() {
    let scenario = tiny_xl2(7);
    let a = scenario.prepare_run(1, &NullSink);
    let b = scenario.prepare_run(8, &NullSink);
    assert_eq!(a.net.ring().len(), b.net.ring().len());
    assert_eq!(a.net.alive_peers(), b.net.alive_peers());
    for ((pos_a, vs_a), (pos_b, vs_b)) in a.net.ring().iter().zip(b.net.ring().iter()) {
        assert_eq!(pos_a, pos_b);
        assert_eq!(vs_a, vs_b);
    }
    assert_eq!(a.landmarks, b.landmarks);
    let (la, lb) = (
        a.hop_landmarks.as_ref().expect("approximate mode"),
        b.hop_landmarks.as_ref().expect("approximate mode"),
    );
    assert_eq!(la.nodes(), lb.nodes());
    for node in 0..la.nodes() as u32 {
        assert_eq!(la.vector(node), lb.vector(node));
    }
}

/// What sharded preparation is defined to equal: the shard streams' draws
/// joined peer by peer, every collision resampling from the master RNG on
/// its way from the topology to the stubs, the landmarks and the loads.
/// Also returns how many draws collided.
fn replayed_prepare(scenario: &Scenario) -> (ChordNetwork, LoadState, StdRng, usize) {
    assert_eq!(scenario.topology, TopologyKind::Tiny);
    let mut rng = StdRng::seed_from_u64(scenario.seed);
    let topo = TransitStubTopology::generate(TransitStubConfig::tiny(), &mut rng);
    let mut net = ChordNetwork::new();
    let mut collisions = 0;
    let chunk = scenario.peers.div_ceil(scenario.shards);
    for s in 0..scenario.shards {
        let label = 0xA11C << 32 | s as u64;
        let mut shard_rng =
            StdRng::seed_from_u64(scenario.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ label);
        for _ in s * chunk..scenario.peers.min((s + 1) * chunk) {
            let positions: Vec<Id> = (0..scenario.vs_per_peer)
                .map(|_| Id::new(shard_rng.gen()))
                .collect();
            collisions += positions
                .iter()
                .filter(|&&pos| net.ring().at(pos).is_some())
                .count();
            net.join_peer_at(&positions, &mut rng);
        }
    }
    let mut stubs = topo.stub_nodes();
    stubs.shuffle(&mut rng);
    for (i, p) in net.alive_peers().into_iter().enumerate() {
        net.attach(p, stubs[i % stubs.len()]);
    }
    select_landmarks(&topo, scenario.landmarks, &mut rng);
    let loads = LoadState::generate(&net, &scenario.capacity, &scenario.load, &mut rng);
    (net, loads, rng, collisions)
}

#[test]
fn sharded_prepare_equals_the_peer_by_peer_replay() {
    // 327,680 positions: a dozen of them collide, so the master RNG is
    // consumed in the middle of the join.
    let mut scenario = tiny_xl2(13);
    scenario.peers = 16_384;
    scenario.vs_per_peer = 20;
    let (net, loads, mut rng, collisions) = replayed_prepare(&scenario);
    assert!(collisions > 0, "the replay never touched the master RNG");
    let next = rng.gen::<u64>();
    for threads in [1, 2, 8] {
        let mut prepared = scenario.prepare_run(threads, &NullSink);
        assert!(
            prepared.net.ring().iter().eq(net.ring().iter()),
            "{threads} threads"
        );
        assert_eq!(prepared.net.ring().stamp(), net.ring().stamp());
        assert_eq!(prepared.net.alive_peers(), net.alive_peers());
        for p in net.alive_peers() {
            assert_eq!(prepared.net.vss_of(p), net.vss_of(p));
            assert_eq!(prepared.net.peer(p).underlay, net.peer(p).underlay);
        }
        prepared.net.check_invariants().unwrap();
        assert_eq!(prepared.loads.totals(&prepared.net), loads.totals(&net));
        assert_eq!(prepared.rng.gen::<u64>(), next, "{threads} threads");
    }
}

#[test]
fn peers_without_virtual_servers_join_on_both_paths() {
    for shards in [0, 4] {
        let mut scenario = tiny_xl2(15);
        scenario.peers = 48;
        scenario.vs_per_peer = 0;
        scenario.shards = shards;
        let prepared = scenario.prepare_run(2, &NullSink);
        assert_eq!(prepared.net.alive_peers().len(), 48, "{shards} shards");
        assert!(prepared.net.ring().is_empty());
        prepared.net.check_invariants().unwrap();
    }
}

#[test]
fn sharded_tree_matches_serial_build_shape() {
    let prepared = tiny_xl2(9).prepare();
    let serial = proxbal_ktree::KTree::build(&prepared.net, 2);
    let sharded = build_tree_sharded(&prepared.net, 2, XL2_SPLIT_DEPTH, 4);
    sharded.check_invariants(&prepared.net).unwrap();
    assert_eq!(sharded.len(), serial.len());
    let key = |t: &proxbal_ktree::KTree| {
        let mut v: Vec<_> = t
            .preorder()
            .map(|id| {
                let n = t.node(id);
                (
                    n.region().start().raw(),
                    n.region().len(),
                    n.host(),
                    n.depth(),
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&sharded), key(&serial));
}

#[test]
fn approximate_mode_still_resolves_heavy_peers() {
    // The scheme trades distance exactness for scale, never correctness of
    // the balancing itself: the approximate run must shed heavy peers just
    // like an exact run does.
    let (out, _) = xl2_scale(tiny_xl2(11), 2, &mut Trace::disabled(), &NullSink);
    assert!(out.aware.heavy_before > 0);
    assert!(
        (out.aware.heavy_after as f64) < 0.2 * out.aware.heavy_before as f64,
        "heavy {} -> {} (expected at least 5x reduction)",
        out.aware.heavy_before,
        out.aware.heavy_after
    );
    assert!(out.aware.transfers > 0);
    // Exact mode from the same scenario differs only in distance_mode; its
    // transfer count and heavy resolution are in the same regime.
    let mut exact = tiny_xl2(11);
    exact.distance_mode = DistanceMode::Exact;
    let (exact_out, _) = xl2_scale(exact, 2, &mut Trace::disabled(), &NullSink);
    assert_eq!(out.aware.heavy_before, exact_out.aware.heavy_before);
    assert!(exact_out.aware.transfers > 0);
}
