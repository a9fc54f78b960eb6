//! Sharded scenario preparation for the million-peer runs.
//!
//! The serial [`Scenario::prepare`](crate::Scenario::prepare) path walks one
//! RNG through topology generation, a million `join_peer` calls, landmark
//! selection and load generation — tens of seconds of single-threaded setup
//! at xl2 scale. This module partitions the expensive parts across
//! `scenario.shards` independent workers:
//!
//! - **Ring positions** — each shard owns a contiguous peer range and draws
//!   its virtual-server positions from a shard-indexed RNG
//!   ([`crate::parallel::map_indexed`], so slot order never depends on the
//!   thread count). The draws are replayed serially in peer order through
//!   [`ChordNetwork::join_peer_at`]; the rare position collision falls back
//!   to the master RNG, exactly like the serial path resamples.
//! - **Landmark vectors** — per-shard node ranges of the hop-metric
//!   landmark matrix are transposed in parallel and concatenated in shard
//!   order ([`LandmarkOracle::from_parts`]).
//! - **KT subtrees** — [`build_tree_sharded`] grows the top of the tree
//!   serially ([`KTree::build_prefix`]), expands the frontier regions as
//!   independent fragments in bounded batches, and grafts them back in
//!   frontier order, so arena numbering is a pure function of the inputs.
//!
//! Everything that is inherently sequential — stub attachment order,
//! landmark selection, per-VS load sampling (ring-order dependent) — stays
//! on the master RNG in the serial order. The result is deterministic in
//! `(scenario, shards)` and byte-identical at any `--threads`.

use crate::parallel;
use crate::scenario::{DistanceMode, Prepared, Scenario, TopologyKind};
use proxbal_chord::ChordNetwork;
use proxbal_core::LoadState;
use proxbal_id::Id;
use proxbal_ktree::KTree;
use proxbal_topology::{
    select_landmarks, DistanceOracle, LandmarkOracle, NodeId, TransitStubConfig,
    TransitStubTopology,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// RNG stream for preparation shard `s`: the same seed/label mixer as
/// [`Prepared::derived_rng`], with a label namespace reserved for shards.
fn shard_rng(seed: u64, s: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0xA11C << 32 | s as u64))
}

/// Sharded counterpart of the serial preparation path; dispatched to by
/// [`Scenario::prepare`](crate::Scenario::prepare) whenever
/// `scenario.shards > 0`.
pub fn prepare_sharded(scenario: &Scenario, threads: usize) -> Prepared {
    prepare_sharded_run(scenario, threads, &proxbal_profile::NullSink)
}

/// [`prepare_sharded`] with per-phase heartbeat lines on `progress`
/// (topology, position batches, join replay, attach/landmarks, loads,
/// landmark vectors). Heartbeats never change the prepared result.
pub fn prepare_sharded_run(
    scenario: &Scenario,
    threads: usize,
    progress: &dyn proxbal_profile::ProgressSink,
) -> Prepared {
    let shards = scenario.shards.max(1);
    let mut rng = StdRng::seed_from_u64(scenario.seed);

    let topo = match scenario.topology {
        TopologyKind::Ts5kLarge => Some(TransitStubTopology::generate(
            TransitStubConfig::ts5k_large(),
            &mut rng,
        )),
        TopologyKind::Ts5kSmall => Some(TransitStubTopology::generate(
            TransitStubConfig::ts5k_small(),
            &mut rng,
        )),
        TopologyKind::Ts50k => Some(TransitStubTopology::generate(
            TransitStubConfig::ts50k(),
            &mut rng,
        )),
        TopologyKind::Tiny => Some(TransitStubTopology::generate(
            TransitStubConfig::tiny(),
            &mut rng,
        )),
        TopologyKind::None => None,
    };
    if let Some(ref topo) = topo {
        progress.event(&format!(
            "prepare: topology generated ({} nodes)",
            topo.graph.node_count()
        ));
    }

    // Per-shard position batches: shard `s` owns the contiguous peer range
    // [s·chunk, min((s+1)·chunk, peers)) and draws every position of every
    // peer in that range from its own stream. Pure function of the index.
    let peers = scenario.peers;
    let vs_per_peer = scenario.vs_per_peer;
    let chunk = peers.div_ceil(shards);
    let seed = scenario.seed;
    let batches: Vec<Vec<Id>> = parallel::map_indexed(shards, threads, |s| {
        let start = s * chunk;
        let end = peers.min(start + chunk);
        let mut shard_rng = shard_rng(seed, s);
        let mut out = Vec::with_capacity((end - start).saturating_mul(vs_per_peer));
        for _ in start..end {
            for _ in 0..vs_per_peer {
                out.push(Id::new(shard_rng.gen()));
            }
        }
        out
    });

    progress.event(&format!(
        "prepare: {shards} position batches drawn for {peers} peers"
    ));

    // Serial replay in peer order: the ring insert order (and therefore
    // every VsId/PeerId) is fixed by the batches alone. Collisions resample
    // from the master RNG — serial, hence deterministic.
    let mut net = ChordNetwork::new();
    let mut joined = 0usize;
    for batch in &batches {
        for positions in batch.chunks(vs_per_peer.max(1)) {
            net.join_peer_at(positions, &mut rng);
            joined += 1;
            if joined.is_multiple_of(262_144) {
                progress.event(&format!("prepare: joined {joined}/{peers} peers"));
            }
        }
    }
    drop(batches);

    let (oracle, landmarks) = if let Some(ref topo) = topo {
        let mut stubs = topo.stub_nodes();
        assert!(!stubs.is_empty());
        stubs.shuffle(&mut rng);
        for (i, p) in net.alive_peers().into_iter().enumerate() {
            net.attach(p, stubs[i % stubs.len()]);
        }
        let landmarks = select_landmarks(topo, scenario.landmarks, &mut rng);
        let cap = scenario.oracle_capacity;
        let oracle = DistanceOracle::for_topology(topo, cap);
        let latency_oracle =
            DistanceOracle::with_capacity(Arc::new(topo.latency_graph.clone()), cap);
        latency_oracle.precompute(&landmarks, threads);
        if cap > 0 {
            for &l in &landmarks {
                latency_oracle.pin(l);
            }
        }
        progress.event(&format!(
            "prepare: peers attached, {} landmark rows precomputed",
            landmarks.len()
        ));
        (Some((oracle, latency_oracle)), landmarks)
    } else {
        (None, Vec::new())
    };

    let loads = LoadState::generate(&net, &scenario.capacity, &scenario.load, &mut rng);
    progress.event("prepare: load state generated");

    let (oracle, latency_oracle) = match oracle {
        Some((a, b)) => (Some(a), Some(b)),
        None => (None, None),
    };
    let hop_landmarks = match (scenario.distance_mode, oracle.as_ref()) {
        (DistanceMode::Approximate, Some(oracle)) if !landmarks.is_empty() => {
            let lm = build_landmarks_sharded(oracle, &landmarks, shards, threads);
            progress.event("prepare: hop-metric landmark vectors built");
            Some(lm)
        }
        _ => None,
    };
    Prepared {
        scenario: scenario.clone(),
        net,
        loads,
        topo,
        oracle,
        latency_oracle,
        landmarks,
        hop_landmarks,
        rng,
        threads,
    }
}

/// Builds the hop-metric [`LandmarkOracle`] by transposing per-shard node
/// ranges of the landmark rows in parallel and concatenating the slices in
/// shard order — the same matrix [`LandmarkOracle::build`] produces.
pub fn build_landmarks_sharded(
    oracle: &DistanceOracle,
    landmarks: &[NodeId],
    shards: usize,
    threads: usize,
) -> LandmarkOracle {
    assert!(!landmarks.is_empty(), "need at least one landmark");
    let shards = shards.max(1);
    oracle.precompute(landmarks, threads);
    let rows: Vec<_> = landmarks.iter().map(|&l| oracle.row(l)).collect();
    let nodes = oracle.graph().node_count();
    let m = landmarks.len();
    let chunk = nodes.div_ceil(shards);
    let slices = parallel::map_indexed(shards, threads, |s| {
        let start = s * chunk;
        let end = nodes.min(start + chunk);
        let mut out = Vec::with_capacity((end - start) * m);
        for node in start..end {
            for row in &rows {
                out.push(row.get(node));
            }
        }
        out
    });
    let mut vectors = Vec::with_capacity(nodes * m);
    for slice in slices {
        vectors.extend(slice);
    }
    LandmarkOracle::from_parts(landmarks.to_vec(), nodes, vectors)
}

/// Builds the K-nary tree by growing the top `split_depth` levels serially
/// ([`KTree::build_prefix`]) and expanding each frontier region as an
/// independent fragment, grafted back in frontier order.
///
/// Fragments are built in bounded batches (a few per worker) so the
/// transient footprint is a handful of fragments, not the whole frontier at
/// once. Arena numbering is a pure function of `(net, k, split_depth)` —
/// never of `threads` — and the composed tree is node-for-node the tree
/// [`KTree::build`] grows (only slot numbering differs).
pub fn build_tree_sharded(net: &ChordNetwork, k: usize, split_depth: u32, threads: usize) -> KTree {
    let (mut tree, frontier) = KTree::build_prefix(net, k, split_depth);
    let work: Vec<_> = frontier
        .into_iter()
        .map(|id| {
            let node = tree.node(id);
            (id, node.region, node.depth)
        })
        .collect();
    let batch = (threads.max(1) * 2).max(4);
    for chunk in work.chunks(batch) {
        let fragments = parallel::map_items(chunk, threads, |_, &(_, region, depth)| {
            KTree::build_fragment(net, k, region, depth)
        });
        for (&(id, _, _), fragment) in chunk.iter().zip(fragments) {
            tree.graft(id, fragment);
        }
    }
    tree
}
