use crate::*;
use proptest::prelude::*;
use proxbal_chord::{ChordNetwork, VsId};
use proxbal_id::{Arc, Id, RING_SIZE};
use proxbal_trace::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn net_with(peers: usize, vs_per_peer: usize, seed: u64) -> (ChordNetwork, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = ChordNetwork::new();
    for _ in 0..peers {
        net.join_peer(vs_per_peer, &mut rng);
    }
    (net, rng)
}

#[test]
fn message_depth_is_logarithmic() {
    // Structural depth degenerates toward 32 around VS boundaries (regions
    // straddling an ownership boundary keep splitting), but all those deep
    // KT nodes share hosts, so the *message* depth — what the paper's
    // O(log_K N) bounds are about — stays logarithmic in the VS count.
    for k in [2usize, 8] {
        let (net, _) = net_with(256, 4, 4); // 1024 VSs
        let tree = KTree::build(&net, k);
        let m = 1024f64;
        // Depth is driven by the closest pair of VS positions: for M uniform
        // positions the minimum gap is ~2³²/M², i.e. ~2·log_K(M) levels.
        let bound = (2.0 * m.log(k as f64)).ceil() as u32 + 6;
        let md = tree.max_message_depth();
        assert!(md <= bound, "k={k}: message depth {md} bound {bound}");
        assert!(
            tree.height() <= bound + 1,
            "k={k}: height {}",
            tree.height()
        );
        // Sanity floor: the tree is genuinely multi-level.
        assert!(md >= m.log(k as f64).floor() as u32 / 2);
    }
}

#[test]
fn maintenance_rebuilds_after_crash_in_logarithmic_rounds() {
    let (mut net, _) = net_with(64, 4, 9);
    let mut tree = KTree::build(&net, 2);
    // Crash a quarter of the peers.
    for p in net.alive_peers().into_iter().take(16) {
        net.crash_peer(p);
    }
    let rounds = tree.maintain_until_stable(&net, 64, 0, &mut Trace::disabled());
    assert!(rounds >= 1);
    tree.check_invariants(&net).unwrap();
    // O(log_K N): bounded by the (new) tree height plus a small constant.
    let bound = tree.height() + 2;
    assert!(
        rounds as u32 <= bound,
        "repair took {rounds} rounds, height bound {bound}"
    );
}

#[derive(Clone, Debug, PartialEq)]
struct Sum(u64);
impl Merge for Sum {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

/// `inputs` as [`KTree::aggregate`] takes them: ascending by handle, every
/// one sent.
fn sorted<A>(inputs: HashMap<KtNodeId, A>) -> Vec<AggregateInput<A>> {
    let mut inputs: Vec<AggregateInput<A>> = inputs
        .into_iter()
        .map(|(at, value)| AggregateInput {
            at,
            value,
            sent: true,
        })
        .collect();
    inputs.sort_unstable_by_key(|input| input.at);
    inputs
}

#[test]
fn aggregate_empty_inputs() {
    let (net, _) = net_with(4, 2, 14);
    let tree = KTree::build(&net, 2);
    let out = tree.aggregate::<Sum>(&net, &[], 1);
    assert_eq!(out.root_value, None);
    assert_eq!(out.rounds, 0);
    assert_eq!(out.sent_messages, 0);
    // The tree's own questions do not depend on the inputs.
    let root_only = [AggregateInput {
        at: tree.root(),
        value: Sum(1),
        sent: true,
    }];
    let full = tree.aggregate(&net, &root_only, 1);
    assert_eq!(out.tree_messages, full.tree_messages);
    assert!(out.tree_messages > 0);
    assert_eq!(out.max_message_depth, tree.max_message_depth());
}

#[test]
fn aggregate_partial_inputs_interior_contribution() {
    // Values attached directly to interior nodes (as in the VSA sweep, where
    // unpaired lists propagate from rendezvous nodes) still reach the root.
    let (net, _) = net_with(16, 3, 15);
    let tree = KTree::build(&net, 2);
    let interior = tree
        .preorder()
        .find(|&id| !tree.node(id).is_leaf() && id != tree.root())
        .expect("has interior node");
    let mut inputs = HashMap::new();
    inputs.insert(interior, Sum(41));
    inputs.insert(tree.root(), Sum(1));
    let out = tree.aggregate(&net, &sorted(inputs), 1);
    assert_eq!(out.root_value, Some(Sum(42)));
}

/// Concatenation under a separator — associative but **not** commutative,
/// so any deviation from the canonical child-slot merge order shows up.
#[derive(Clone, Debug, PartialEq)]
struct Concat(String);
impl Merge for Concat {
    fn merge(&mut self, other: Self) {
        self.0.push('|');
        self.0.push_str(&other.0);
    }
}

/// The original level-by-level sweep, kept as the reference the walk's
/// fold must reproduce byte-for-byte (root value, merge count, rounds):
/// deepest level first, each level in preorder, every value merged into
/// its parent's.
fn level_sweep_reference<A: Merge + Clone>(
    tree: &KTree,
    mut inputs: HashMap<KtNodeId, A>,
) -> (Option<A>, usize, u32) {
    let rounds = inputs
        .keys()
        .map(|&id| tree.message_depth(id).unwrap_or(0))
        .max()
        .unwrap_or(0);
    let mut merges = 0usize;
    for level in tree.levels().into_iter().skip(1).rev() {
        for id in level {
            if let Some(value) = inputs.remove(&id) {
                let parent = tree.node(id).parent().expect("non-root has parent");
                match inputs.get_mut(&parent) {
                    Some(acc) => {
                        acc.merge(value);
                        merges += 1;
                    }
                    None => {
                        inputs.insert(parent, value);
                    }
                }
            }
        }
    }
    (inputs.remove(&tree.root()), merges, rounds)
}

/// An f64 sum: associative only up to rounding, so any deviation from the
/// canonical association changes low bits.
#[derive(Clone, Debug, PartialEq)]
struct FloatSum(f64);
impl Merge for FloatSum {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

/// The walk at every thread count against the level sweep.
fn assert_thread_invariant<A>(net: &ChordNetwork, tree: &KTree, inputs: &HashMap<KtNodeId, A>)
where
    A: Merge + Clone + Send + Sync + PartialEq + std::fmt::Debug,
{
    let (value, merges, rounds) = level_sweep_reference(tree, inputs.clone());
    let inputs = sorted(inputs.clone());
    for threads in [1usize, 2, 3, 8] {
        let out = tree.aggregate(net, &inputs, threads);
        assert_eq!(out.root_value, value, "{threads} threads");
        assert_eq!(out.merges, merges, "{threads} threads");
        assert_eq!(out.rounds, rounds, "{threads} threads");
    }
}

/// A churned tree whose arena slots were recycled, so slot order no longer
/// coincides with the tree's preorder — the case where folding children
/// in part order, not by slot, is load-bearing.
fn churned_tree(seed: u64) -> (ChordNetwork, KTree) {
    let (mut net, mut rng) = net_with(48, 3, seed);
    let mut tree = KTree::build(&net, 2);
    for p in net.alive_peers().into_iter().take(12) {
        net.crash_peer(p);
    }
    for _ in 0..8 {
        net.join_peer(2, &mut rng);
    }
    tree.maintain_until_stable(&net, 256, 0, &mut Trace::disabled());
    tree.check_invariants(&net).unwrap();
    (net, tree)
}

#[test]
fn aggregate_matches_level_sweep_reference_and_is_thread_invariant() {
    for seed in [21u64, 22, 23] {
        let (net, tree) = churned_tree(seed);
        let concat: HashMap<KtNodeId, Concat> = net
            .ring()
            .iter()
            .enumerate()
            .map(|(i, (_, vs))| (tree.report_target(&net, vs), Concat(format!("v{i}"))))
            .collect();
        assert_thread_invariant(&net, &tree, &concat);
        // Magnitudes spread over 12 decades, so a different association
        // rounds differently.
        let floats: HashMap<KtNodeId, FloatSum> = net
            .ring()
            .iter()
            .enumerate()
            .map(|(i, (_, vs))| {
                let x = 1.0 + (i as f64) * 0.1;
                let value = x * 10f64.powi(i as i32 % 13 - 6);
                (tree.report_target(&net, vs), FloatSum(value))
            })
            .collect();
        assert_thread_invariant(&net, &tree, &floats);
    }
}

#[test]
fn aggregate_ignores_inputs_the_root_cannot_reach() {
    let (net, mut tree) = churned_tree(24);
    let mut inputs: HashMap<KtNodeId, Concat> = net
        .ring()
        .iter()
        .take(6)
        .map(|(_, vs)| (tree.report_target(&net, vs), Concat("x".into())))
        .collect();
    let live = tree.aggregate(&net, &sorted(inputs.clone()), 1);
    // A handle the tree does not contain contributes nothing.
    let stale = KtNodeId(tree.slot_bound() as u32 + 7);
    inputs.insert(stale, Concat("stale".into()));
    for threads in [1usize, 4] {
        let out = tree.aggregate(&net, &sorted(inputs.clone()), threads);
        assert_eq!(out.root_value, live.root_value);
        assert_eq!(out.merges, live.merges);
    }
    // Nor does a live node in a subtree a fault has cut off.
    let cut = tree
        .preorder()
        .find(|&id| tree.node(id).depth() >= 2 && !inputs.contains_key(&id))
        .expect("deep node without an input");
    tree.inject_stale_parent(cut, tree.root());
    inputs.remove(&stale);
    let reachable = tree.aggregate(&net, &sorted(inputs.clone()), 1);
    inputs.insert(cut, Concat("cut".into()));
    for threads in [1usize, 4] {
        let out = tree.aggregate(&net, &sorted(inputs.clone()), threads);
        assert_eq!(out.root_value, reachable.root_value);
        assert_eq!(out.merges, reachable.merges);
    }
}

/// An LBI-shaped value: two f64 sums and a minimum.
#[derive(Clone, Copy, Debug)]
struct Triple(f64, f64, f64);
impl Merge for Triple {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
        self.1 += other.1;
        self.2 = self.2.min(other.2);
    }
}

/// The round's LBI inputs over a random network: every peer reports one
/// value at the report target of a random one of its virtual servers (the
/// root if it hosts none), merged per target in peer order, every one sent.
fn round_inputs(net: &ChordNetwork, tree: &KTree, rng: &mut StdRng) -> Vec<AggregateInput<Triple>> {
    use rand::seq::SliceRandom;
    use rand::Rng;
    let mut merged: HashMap<KtNodeId, Triple> = HashMap::new();
    for p in net.alive_peers() {
        let at = net
            .vss_of(p)
            .choose(rng)
            .map_or(tree.root(), |&vs| tree.report_target(net, vs));
        let x: f64 = rng.gen_range(0.0..1.0);
        let value = Triple(x * 10f64.powi(rng.gen_range(-6..6)), 1.0 + x, x);
        match merged.get_mut(&at) {
            Some(acc) => acc.merge(value),
            None => {
                merged.insert(at, value);
            }
        }
    }
    let mut inputs: Vec<AggregateInput<Triple>> = merged
        .into_iter()
        .map(|(at, value)| AggregateInput {
            at,
            value,
            sent: true,
        })
        .collect();
    inputs.sort_unstable_by_key(|input| input.at);
    inputs
}

/// A subtree a fault detached: the walk leaves its edges out — the root
/// cannot reach them, so no message of a round crosses them. Rounds repair
/// before they balance, so no round meets one; after the repair the whole
/// tree counts again.
#[test]
fn walk_leaves_out_a_detached_subtree() {
    let (net, mut rng) = net_with(40, 3, 31);
    let mut tree = KTree::build(&net, 2);
    let inputs = round_inputs(&net, &tree, &mut rng);
    let whole = tree.aggregate(&net, &inputs, 2);
    let peer_of = |tree: &KTree, id| net.vs(tree.node(id).host()).host;
    let cut = tree
        .preorder()
        .filter(|&id| tree.node(id).depth() >= 2 && tree.subtree_len(id) > 8)
        .find(|&id| {
            let above = tree.node(id).parent().unwrap();
            peer_of(&tree, id) != peer_of(&tree, above)
        })
        .expect("a deep subtree hanging off another peer");
    // The edges between peers the cut takes out of the root's reach: the
    // one above the cut subtree and every one inside it.
    let mut stack = vec![cut];
    let mut detached = 0;
    while let Some(id) = stack.pop() {
        let parent = tree.node(id).parent().unwrap();
        detached += usize::from(peer_of(&tree, id) != peer_of(&tree, parent));
        stack.extend(tree.node(id).children().flatten());
    }
    assert!(detached > 0);
    tree.inject_stale_parent(cut, tree.root());
    let out = tree.aggregate(&net, &inputs, 2);
    assert_eq!(out.tree_messages, whole.tree_messages - detached);
    assert_eq!(out.max_message_depth, tree.max_message_depth());
    tree.repair(&net, 64);
    let repaired = tree.aggregate(&net, &inputs, 2);
    assert_eq!(repaired.tree_messages, whole.tree_messages);
}

#[test]
fn arena_layout_is_packed_for_every_degree() {
    // The 1M-peer tree has 12.8 M nodes, 7.5 M of them in arena slots: a
    // slot is the 16-byte record, K child entries and a byte of depth,
    // whatever K is. A leaf takes no slot.
    let (net, _) = net_with(2048, 5, 12);
    let (small, _) = net_with(512, 5, 12);
    for k in [2usize, 3, 8] {
        let mut tree = KTree::build(&small, k);
        assert_eq!(tree.bytes_per_slot(), 17 + 4 * k);
        assert_eq!(tree.len(), tree.slot_bound() + small.ring().len());
        // Each virtual server reports through a leaf planted in it over
        // its own position, which its parent lists on that part.
        let ring: Vec<VsId> = small.ring().iter().map(|(_, vs)| vs).collect();
        for (&vs, id) in ring.iter().zip(tree.report_targets(&small, ring.clone())) {
            assert!(
                id.leaf_entry().is_some(),
                "k={k}: {vs:?} reports through a slot"
            );
            let leaf = tree.node(id);
            assert_eq!(leaf.host(), vs);
            assert!(leaf.region().contains(small.vs(vs).position));
            let parent = tree.node(leaf.parent().expect("a leaf has a parent"));
            let (part, _) = parent.region().child_towards(small.vs(vs).position, k);
            assert_eq!(parent.children().nth(part), Some(Some(id)));
        }
        // A leaf whose virtual server crashed is gone after maintenance.
        let mut net = small.clone();
        let peer = net.vs(ring[0]).host;
        let leaf = tree.report_target(&net, ring[0]);
        net.crash_peer(peer);
        tree.maintain_until_stable(&net, 64, 0, &mut Trace::disabled());
        assert!(
            !tree.contains(leaf),
            "k={k}: a crashed server's leaf survived"
        );
        tree.check_invariants(&net).unwrap();
    }
    // And no node owns an allocation: building over four times the virtual
    // servers takes exactly as many.
    proxbal_profile::enable_counting();
    let allocs_building = |net: &ChordNetwork| {
        let before = proxbal_profile::AllocSnapshot::current_thread();
        let tree = KTree::build(net, 8);
        let allocs = proxbal_profile::AllocSnapshot::current_thread()
            .since(before)
            .allocs;
        assert!(tree.len() >= net.alive_vs_count());
        allocs
    };
    assert!(net.alive_vs_count() >= 10_000);
    let allocs = allocs_building(&net);
    assert!((1..=16).contains(&allocs), "{allocs} allocations");
    assert_eq!(allocs, allocs_building(&small));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_packed_region_round_trips(
        start: u32,
        start_kind in 0u8..4,
        len in 1u64..=RING_SIZE,
        len_kind in 0u8..6,
    ) {
        // Every length a KT node's region can have, biased to the edges:
        // one identifier, a handful, the full ring and just short of it,
        // from starts at 0, next to `u32::MAX` (wrapping arcs) and anywhere.
        let start = match start_kind {
            0 => 0,
            1 => u32::MAX - start % 4,
            _ => start,
        };
        let len = match len_kind {
            0 => 1,
            1 => RING_SIZE,
            2 => RING_SIZE - len % 4,
            3 => 1 + len % 64,
            _ => len,
        };
        let arc = Arc::new(Id::new(start), len);
        prop_assert_eq!(KTree::packed_region(&arc), arc);
    }
}
