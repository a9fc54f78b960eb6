//! The sharded parts of scenario preparation for the million-peer runs.
//!
//! [`Scenario::prepare`](crate::Scenario::prepare) walks one master RNG
//! through topology generation, the joins, landmark selection and load
//! generation. With `scenario.shards > 0` the parts that can be cut loose
//! from that walk are, here:
//!
//! - **Ring positions** — each shard owns a contiguous peer range and draws
//!   its virtual-server positions from a shard-indexed RNG
//!   ([`crate::parallel::map_indexed`], so slot order never depends on the
//!   thread count). The concatenated draws join in one
//!   [`ChordNetwork::join_peers_at`], which is by contract the peer-by-peer
//!   replay. Two draws landing on one position is routine at this scale —
//!   5.2 M of 2³² identifiers collide about 3,100 times (3,144 at seed 1) —
//!   and each resamples from the *master* RNG, the one that afterwards
//!   shuffles the stubs, picks the landmarks and samples every load: a
//!   single resample drawn out of join order changes every simulated number
//!   downstream.
//! - **The KT tree** — [`build_tree_sharded`] is [`KTree::build`]: the
//!   tree is a function of the ring alone, whatever the arena's numbering.
//!
//! Everything that is inherently sequential — stub attachment order,
//! landmark selection, per-VS load sampling (ring-order dependent) — stays
//! on the master RNG in the serial order. The result is deterministic in
//! `(scenario, shards)` and byte-identical at any `--threads`.

use crate::parallel;
use crate::scenario::Scenario;
use proxbal_chord::ChordNetwork;
use proxbal_id::Id;
use proxbal_ktree::KTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RNG stream for preparation shard `s`: the same seed/label mixer as
/// [`Prepared::derived_rng`](crate::Prepared::derived_rng), with a label
/// namespace reserved for shards.
fn shard_rng(seed: u64, s: usize) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0xA11C << 32 | s as u64))
}

/// The overlay of a sharded scenario (`shards > 0`, and virtual servers to
/// place): positions drawn per shard, joined in peer order; `rng` is the
/// master RNG, which only collisions consume.
pub(crate) fn join_sharded(
    scenario: &Scenario,
    threads: usize,
    rng: &mut StdRng,
    progress: &dyn proxbal_profile::ProgressSink,
) -> ChordNetwork {
    let (peers, vs_per_peer, shards) = (scenario.peers, scenario.vs_per_peer, scenario.shards);

    // Shard `s` owns the contiguous peer range [s·chunk, min((s+1)·chunk,
    // peers)) and draws every position of every peer in that range from
    // its own stream. Pure function of the index.
    let sub = proxbal_profile::phase("prepare/positions");
    let chunk = peers.div_ceil(shards);
    let seed = scenario.seed;
    let positions: Vec<Id> = parallel::map_indexed(shards, threads, |s| {
        let owned = peers.min((s + 1) * chunk).saturating_sub(s * chunk);
        let mut shard_rng = shard_rng(seed, s);
        (0..owned * vs_per_peer)
            .map(|_| Id::new(shard_rng.gen()))
            .collect::<Vec<_>>()
    })
    .concat();
    progress.event(&format!(
        "prepare: {shards} position batches drawn for {peers} peers"
    ));
    drop(sub);

    // The join order (and therefore every VsId/PeerId) is fixed by the
    // batches alone; collisions resample from the master RNG in that order.
    let _sub = proxbal_profile::phase("prepare/ring");
    let mut net = ChordNetwork::new();
    net.join_peers_at(positions, vs_per_peer, rng);
    progress.event(&format!("prepare: joined {peers}/{peers} peers"));
    net
}

/// The K-nary tree of a sharded run: [`KTree::build`]. `split_depth` and
/// `threads` are unused until ROADMAP item 6(c) deletes this function;
/// they stay because `pbench` passes them.
pub fn build_tree_sharded(
    net: &ChordNetwork,
    k: usize,
    _split_depth: u32,
    _threads: usize,
) -> KTree {
    KTree::build(net, k)
}
