use crate::*;
use proptest::prelude::*;
use proxbal_chord::ChordNetwork;
use proxbal_id::{Arc, Id, RING_SIZE};
use proxbal_trace::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// All leaves.
fn leaves(tree: &KTree) -> Vec<KtNodeId> {
    let is_leaf = |id: &KtNodeId| tree.node(*id).is_leaf();
    tree.iter_ids().filter(is_leaf).collect()
}

fn net_with(peers: usize, vs_per_peer: usize, seed: u64) -> (ChordNetwork, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = ChordNetwork::new();
    for _ in 0..peers {
        net.join_peer(vs_per_peer, &mut rng);
    }
    (net, rng)
}

#[test]
fn build_satisfies_invariants() {
    for k in [2usize, 3, 8] {
        let (net, _) = net_with(16, 3, 1);
        let tree = KTree::build(&net, k);
        tree.check_invariants(&net).unwrap();
        assert_eq!(tree.node(tree.root()).region(), Arc::full(Id::ZERO));
    }
}

#[test]
fn root_is_planted_at_ring_center_owner() {
    let (net, _) = net_with(8, 2, 2);
    let tree = KTree::build(&net, 2);
    let expect = net.ring().owner(Id::new(1 << 31)).unwrap();
    assert_eq!(tree.node(tree.root()).host(), expect);
}

#[test]
fn single_vs_tree_is_just_the_root() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut net = ChordNetwork::new();
    net.join_peer(1, &mut rng);
    let tree = KTree::build(&net, 2);
    assert_eq!(tree.len(), 1);
    assert!(tree.node(tree.root()).is_leaf());
    assert_eq!(tree.height(), 1);
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
fn every_vs_has_a_report_target_hosted_by_itself() {
    let (net, _) = net_with(64, 5, 5);
    let tree = KTree::build(&net, 2);
    for (_, vs) in net.ring().iter() {
        let target = tree.report_target(&net, vs);
        assert_eq!(
            tree.node(target).host(),
            vs,
            "report target of {vs:?} must be planted in it"
        );
    }
}

#[test]
fn report_targets_distinct_per_vs() {
    // Distinct virtual servers must not share a report target (otherwise
    // LBI would be merged prematurely).
    let (net, _) = net_with(32, 3, 6);
    let tree = KTree::build(&net, 2);
    let mut seen = std::collections::HashSet::new();
    for (_, vs) in net.ring().iter() {
        let t = tree.report_target(&net, vs);
        assert!(seen.insert(t), "{t:?} serves two virtual servers");
    }
}

#[test]
fn leaves_hold_at_most_one_vs_position() {
    let (net, _) = net_with(32, 4, 7);
    let tree = KTree::build(&net, 4);
    let mut singleton_leaves = 0;
    for leaf in leaves(&tree) {
        let node = tree.node(leaf);
        let inside: Vec<_> = net.ring().iter_in(&node.region()).collect();
        assert!(inside.len() <= 1, "leaf holds {} positions", inside.len());
        if let [(_, vs)] = inside.as_slice() {
            singleton_leaves += 1;
            assert_eq!(node.host(), *vs, "singleton leaf planted in its VS");
        }
    }
    // Exactly one singleton leaf per virtual server.
    assert_eq!(singleton_leaves, net.alive_vs_count());
}

#[test]
fn stable_tree_needs_no_maintenance() {
    let (net, _) = net_with(24, 3, 8);
    let mut tree = KTree::build(&net, 2);
    assert_eq!(tree.maintain_round(&net), 0);
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

#[test]
fn maintenance_tracks_joins() {
    let (mut net, mut rng) = net_with(16, 2, 10);
    let mut tree = KTree::build(&net, 2);
    for _ in 0..16 {
        net.join_peer(2, &mut rng);
    }
    tree.maintain_until_stable(&net, 64, 0, &mut Trace::disabled());
    tree.check_invariants(&net).unwrap();
    // Every (new) VS must have a self-hosted report target again.
    for (_, vs) in net.ring().iter() {
        assert_eq!(tree.node(tree.report_target(&net, vs)).host(), vs);
    }
}

#[test]
fn maintenance_converges_to_fresh_build() {
    let (mut net, _) = net_with(32, 3, 11);
    let mut tree = KTree::build(&net, 2);
    for p in net.alive_peers().into_iter().take(8) {
        net.crash_peer(p);
    }
    tree.maintain_until_stable(&net, 64, 0, &mut Trace::disabled());
    let fresh = KTree::build(&net, 2);
    assert_eq!(tree.len(), fresh.len());
    // Same set of (region, host) pairs.
    let key = |t: &KTree| {
        let mut v: Vec<(u32, u64, proxbal_chord::VsId)> = t
            .iter_ids()
            .map(|id| {
                let n = t.node(id);
                (n.region().start().raw(), n.region().len(), n.host())
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(key(&tree), key(&fresh));
}

#[derive(Clone, Debug, PartialEq)]
struct Sum(u64);
impl Merge for Sum {
    fn merge(&mut self, other: Self) {
        self.0 += other.0;
    }
}

/// `inputs` as [`KTree::aggregate`] takes them: ascending by slot, every
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
fn aggregate_sums_all_inputs_to_root() {
    let (net, _) = net_with(32, 4, 12);
    let tree = KTree::build(&net, 2);
    let mut inputs = HashMap::new();
    let mut expect = 0u64;
    for (i, (_, vs)) in net.ring().iter().enumerate() {
        let v = (i as u64 + 1) * 7;
        expect += v;
        inputs.insert(tree.report_target(&net, vs), Sum(v));
    }
    let out = tree.aggregate(&net, &sorted(inputs), 1);
    assert_eq!(out.root_value, Some(Sum(expect)));
    assert!(out.rounds >= 1);
    assert!(out.rounds <= tree.max_message_depth());
    assert_eq!(out.max_message_depth, tree.max_message_depth());
}

#[test]
fn aggregate_rounds_bounded_by_height() {
    for k in [2usize, 8] {
        let (net, _) = net_with(128, 4, 13);
        let tree = KTree::build(&net, k);
        let inputs: HashMap<KtNodeId, Sum> = net
            .ring()
            .iter()
            .map(|(_, vs)| (tree.report_target(&net, vs), Sum(1)))
            .collect();
        let out = tree.aggregate(&net, &sorted(inputs), 1);
        assert_eq!(out.root_value, Some(Sum(net.alive_vs_count() as u64)));
        // Message rounds are logarithmic in the VS count, far below the
        // structural height near boundaries.
        let m = net.alive_vs_count() as f64;
        let bound = m.log(k as f64).ceil() as u32 + 8;
        assert!(
            out.rounds <= bound,
            "k={k}: rounds {} bound {bound}",
            out.rounds
        );
    }
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
        .iter_ids()
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
/// fold must reproduce byte-for-byte (root value, merge count, rounds).
fn level_sweep_reference<A: Merge + Clone>(
    tree: &KTree,
    inputs: HashMap<KtNodeId, A>,
) -> (Option<A>, usize, u32) {
    let mut inputs: KtNodeMap<A> = inputs.into();
    let rounds = inputs
        .keys()
        .map(|id| tree.message_depth(id).unwrap_or(0))
        .max()
        .unwrap_or(0);
    let mut merges = 0usize;
    for level in tree.levels().into_iter().skip(1).rev() {
        for id in level {
            if let Some(value) = inputs.remove(id) {
                let parent = tree.node(id).parent().expect("non-root has parent");
                match inputs.get_mut(parent) {
                    Some(acc) => {
                        acc.merge(value.clone());
                        merges += 1;
                    }
                    None => {
                        inputs.insert(parent, value.clone());
                    }
                }
                inputs.insert(id, value);
            }
        }
    }
    let root_value = inputs.get(tree.root()).cloned();
    (root_value, merges, rounds)
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

/// A churned tree whose arena slots were recycled, so child-slot order no
/// longer coincides with creation order — the case where the fold's
/// explicit per-parent child sort is load-bearing.
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
        .iter_ids()
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
        .iter_ids()
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
    assert_eq!(out.max_message_depth, tree.derive().max_message_depth);
    tree.repair(&net, 64);
    let repaired = tree.aggregate(&net, &inputs, 2);
    assert_eq!(repaired.tree_messages, whole.tree_messages);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_parallel_aggregate_equals_reference(seed in 0u64..2000, threads in 1usize..9) {
        let (net, tree) = churned_tree(seed);
        let inputs: HashMap<KtNodeId, Concat> = net
            .ring()
            .iter()
            .enumerate()
            .map(|(i, (_, vs))| (tree.report_target(&net, vs), Concat(format!("p{i}"))))
            .collect();
        let (value, merges, rounds) = level_sweep_reference(&tree, inputs.clone());
        let out = tree.aggregate(&net, &sorted(inputs), threads);
        prop_assert_eq!(out.root_value, value);
        prop_assert_eq!(out.merges, merges);
        prop_assert_eq!(out.rounds, rounds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_tree_invariants_random_networks(seed in 0u64..10_000, k in 2usize..6) {
        let (net, _) = net_with(12, 3, seed);
        let tree = KTree::build(&net, k);
        tree.check_invariants(&net).map_err(TestCaseError::fail)?;
        // Report targets are self-hosted for every VS.
        for (_, vs) in net.ring().iter() {
            prop_assert_eq!(tree.node(tree.report_target(&net, vs)).host(), vs);
        }
    }

    #[test]
    fn prop_leaf_regions_disjoint_and_within_ring(seed in 0u64..10_000) {
        let (net, _) = net_with(10, 2, seed);
        let tree = KTree::build(&net, 2);
        let leaves = leaves(&tree);
        // Pairwise disjoint.
        for (i, &a) in leaves.iter().enumerate() {
            for &b in &leaves[i + 1..] {
                let (ra, rb) = (tree.node(a).region(), tree.node(b).region());
                prop_assert!(!ra.overlaps(&rb), "{:?} overlaps {:?}", ra, rb);
            }
        }
        // A leaf set plus "implicit" coverage by interior hosts spans the
        // ring: every id is inside *some* node whose host covers it. Sample
        // a few points.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for _ in 0..32 {
            let p = Id::new(rand::Rng::gen(&mut rng));
            let owner = net.ring().owner(p).unwrap();
            // The deepest node on p's descent path must be hosted by a VS
            // whose region contains p (ownership consistency).
            let t = tree.report_target(&net, owner);
            let host = tree.node(t).host();
            prop_assert_eq!(host, owner);
        }
    }

    #[test]
    fn prop_aggregate_total_conserved(seed in 0u64..10_000, k in 2usize..5) {
        let (net, _) = net_with(8, 3, seed);
        let tree = KTree::build(&net, k);
        let mut total = 0u64;
        let mut inputs = HashMap::new();
        let mut x = seed;
        for (_, vs) in net.ring().iter() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = x >> 40;
            total += v;
            inputs.insert(tree.report_target(&net, vs), Sum(v));
        }
        let out = tree.aggregate(&net, &sorted(inputs), 1);
        prop_assert_eq!(out.root_value, Some(Sum(total)));
    }
}

#[test]
fn stale_parent_orphans_subtree_and_repair_reattaches_it() {
    let (net, _) = net_with(32, 3, 17);
    let mut tree = KTree::build(&net, 2);
    let before = tree.len();
    let victim = tree
        .iter_ids()
        .find(|&id| tree.node(id).depth() >= 2 && !tree.node(id).is_leaf())
        .expect("deep interior node");
    tree.inject_stale_parent(victim, tree.root());
    // The orphan no longer answers a root descent for its region.
    assert!(tree
        .iter_ids()
        .filter(|&id| tree.node(id).parent() == Some(tree.root()))
        .all(|id| tree.node(tree.root()).children().any(|c| c == Some(id)) || id == victim));
    let stats = tree.repair(&net, 64);
    // Nothing changed in the network, so the subtree slots straight back in.
    assert_eq!(stats.reattached, 1);
    assert_eq!(stats.pruned, 0);
    assert_eq!(tree.len(), before);
    tree.check_invariants(&net).unwrap();
    assert_eq!(
        tree.node(victim).parent().map(|p| tree.node(p).depth() + 1),
        Some(tree.node(victim).depth())
    );
}

#[test]
fn repair_prunes_orphan_whose_slot_regrew() {
    let (net, _) = net_with(32, 3, 18);
    let mut tree = KTree::build(&net, 2);
    let victim = tree
        .iter_ids()
        .find(|&id| tree.node(id).depth() >= 2 && !tree.node(id).is_leaf())
        .expect("deep interior node");
    tree.inject_stale_parent(victim, tree.root());
    // A maintenance round that runs *before* repair regrows the vacated
    // slot, so the orphan's place is taken and repair must discard it.
    assert!(tree.maintain_round(&net) > 0);
    let stats = tree.repair(&net, 64);
    assert_eq!(stats.reattached, 0);
    assert!(stats.pruned >= 1);
    tree.check_invariants(&net).unwrap();
    let fresh = KTree::build(&net, 2);
    assert_eq!(tree.len(), fresh.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_repair_after_crashes_and_stale_links_restores_coverage(
        seed in 0u64..3000,
        crashes in 1usize..8,
        stale in 0usize..4,
        k in 2usize..5,
    ) {
        let (mut net, mut rng) = net_with(24, 3, seed);
        let mut tree = KTree::build(&net, k);
        // Rewire some deep links to a stale parent (the root), then crash
        // a batch of random peers.
        for _ in 0..stale {
            let candidates: Vec<KtNodeId> = tree
                .iter_ids()
                .filter(|&id| tree.node(id).depth() >= 2)
                .collect();
            if let Some(&victim) = candidates
                .get(rand::Rng::gen_range(&mut rng, 0..candidates.len().max(1)))
            {
                tree.inject_stale_parent(victim, tree.root());
            }
        }
        let alive = net.alive_peers();
        for p in alive.into_iter().take(crashes) {
            net.crash_peer(p);
        }
        tree.repair(&net, 256);
        // Well-formed K-nary tree again...
        tree.check_invariants(&net).map_err(TestCaseError::fail)?;
        // ...no orphans: every non-root node is its parent's child...
        for id in tree.iter_ids() {
            match tree.node(id).parent() {
                None => prop_assert_eq!(id, tree.root()),
                Some(p) => {
                    prop_assert!(tree.node(p).children().any(|c| c == Some(id)));
                    prop_assert_eq!(tree.node(id).depth(), tree.node(p).depth() + 1);
                }
            }
        }
        // ...and its leaves cover the live ID space: every live VS has a
        // self-hosted report target (the paper's planting guarantee).
        for (_, vs) in net.ring().iter() {
            prop_assert_eq!(tree.node(tree.report_target(&net, vs)).host(), vs);
        }
        // Repair converges to exactly the fresh build.
        let fresh = KTree::build(&net, k);
        prop_assert_eq!(tree.len(), fresh.len());
    }
}

#[test]
fn split_regions_sum_check() {
    // Guard against a regression where child(i, k) and split(k) disagree for
    // the full ring (the root always splits the full ring).
    let full = Arc::full(Id::ZERO);
    for k in 2..10 {
        let parts = full.split(k);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<u64>(), RING_SIZE);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_maintenance_converges_to_fresh_build_after_mixed_churn(
        seed in 0u64..3000,
        ops in 1usize..25,
        k in 2usize..5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = ChordNetwork::new();
        net.join_peer(3, &mut rng);
        net.join_peer(3, &mut rng);
        let mut tree = KTree::build(&net, k);
        for _ in 0..ops {
            let alive = net.alive_peers();
            match rand::Rng::gen_range(&mut rng, 0..3u8) {
                0 => {
                    net.join_peer(rand::Rng::gen_range(&mut rng, 1..4), &mut rng);
                }
                1 if alive.len() > 2 => {
                    let p = alive[rand::Rng::gen_range(&mut rng, 0..alive.len())];
                    net.crash_peer(p);
                }
                _ if alive.len() >= 2 => {
                    let from = alive[rand::Rng::gen_range(&mut rng, 0..alive.len())];
                    let to = alive[rand::Rng::gen_range(&mut rng, 0..alive.len())];
                    let vss = net.vss_of(from);
                    if !vss.is_empty() && from != to {
                        let v = vss[rand::Rng::gen_range(&mut rng, 0..vss.len())];
                        net.transfer_vs(v, to);
                    }
                }
                _ => {}
            }
            // Interleave partial maintenance (may be incomplete).
            tree.maintain_round(&net);
        }
        // After the dust settles, maintenance must converge to exactly the
        // fresh build (same (region, host) set).
        tree.maintain_until_stable(&net, 256, 0, &mut Trace::disabled());
        tree.check_invariants(&net).map_err(TestCaseError::fail)?;
        let fresh = KTree::build(&net, k);
        let key = |t: &KTree| {
            let mut v: Vec<(u32, u64, proxbal_chord::VsId)> = t
                .iter_ids()
                .map(|id| {
                    let n = t.node(id);
                    (n.region().start().raw(), n.region().len(), n.host())
                })
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(key(&tree), key(&fresh));
    }
}

/// Multiset of (region, host, depth) — the identity of a tree irrespective
/// of arena slot numbering.
fn shape_key(t: &KTree) -> Vec<(u32, u64, proxbal_chord::VsId, u32)> {
    let mut v: Vec<_> = t
        .iter_ids()
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
}

#[test]
fn split_build_is_the_serial_tree_renumbered() {
    let (net, _) = net_with(96, 4, 7);
    for k in [2usize, 3, 8] {
        let serial = KTree::build(&net, k);
        for split_depth in [0u32, 1, 2, 3, 6] {
            let tree = KTree::build_split(&net, k, split_depth);
            tree.check_invariants(&net)
                .unwrap_or_else(|e| panic!("k={k} split={split_depth}: {e}"));
            assert_eq!(tree.len(), serial.len(), "k={k} split={split_depth}");
            assert_eq!(shape_key(&tree), shape_key(&serial));
            // The levels down to the split come first, in ascending slots;
            // the subtrees below it follow one after another.
            let depths: Vec<u32> = tree.iter_ids().map(|id| tree.node(id).depth()).collect();
            let prefix = depths.iter().take_while(|&&d| d <= split_depth).count();
            assert!(depths[prefix..].iter().all(|&d| d > split_depth));
        }
    }
}

#[test]
fn split_past_the_leaves_is_the_serial_build() {
    let (net, _) = net_with(8, 2, 11);
    let serial = KTree::build(&net, 2);
    let tree = KTree::build_split(&net, 2, serial.height() + 4);
    assert_eq!(tree.arena(), serial.arena());
}

#[test]
fn arena_layout_is_packed_for_every_degree() {
    // The 1M-peer run holds 12.8 M arena slots: a slot is the 16-byte
    // record, K child handles and a byte of depth, whatever K is.
    let (net, _) = net_with(2048, 5, 12);
    let (small, _) = net_with(512, 5, 12);
    for k in [2usize, 3, 8] {
        assert_eq!(KTree::build(&small, k).bytes_per_slot(), 17 + 4 * k);
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

#[test]
fn serde_keeps_the_node_record_form_and_refuses_what_does_not_pack() {
    let (net, _) = net_with(24, 3, 13);
    for k in [2usize, 5] {
        let tree = KTree::build(&net, k);
        let json = serde_json::to_string(&tree).unwrap();
        let back: KTree = serde_json::from_str(&json).unwrap();
        assert_eq!(shape_key(&back), shape_key(&tree));
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        back.check_invariants(&net).unwrap();
        // A slot is still one record, the root's first.
        let root = r#"{"k":K,"nodes":[{"region":{"start":0,"len":4294967296},"host":"#;
        assert!(json.starts_with(&root.replace('K', &k.to_string())));
        // The sentinels and the never-empty region are not representable.
        for (good, bad) in [
            (
                r#""parent":null,"depth":0}"#,
                r#""parent":null,"depth":255}"#,
            ),
            (
                r#""parent":null,"depth":0}"#,
                r#""parent":4294967295,"depth":0}"#,
            ),
            (r#""len":4294967296}"#, r#""len":0}"#),
        ] {
            assert!(json.contains(good));
            assert!(serde_json::from_str::<KTree>(&json.replacen(good, bad, 1)).is_err());
        }
    }
}
