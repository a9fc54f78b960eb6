//! Histories against the spec: a tree goes through churn, stale links,
//! single maintenance rounds and repairs, and after every step it must have
//! the shape [`crate::spec`] gives the same history — compared node by
//! node as (depth, region, host), never by arena slot — and answer
//! `levels`, `message_depth`, `height` and `report_target(s)` as the
//! spec's shape does. Mutation counts, repair statistics and repair logs
//! must equal the spec's too.

use crate::spec::{self, Forest, Ring};
use crate::tree::VISITS;
use crate::*;
use proptest::prelude::*;
use proxbal_chord::{ChordNetwork, VsId};
use proxbal_id::{Arc, Id};
use proxbal_trace::Trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The degrees every history runs at: the paper's two, and an odd one.
const DEGREES: [usize; 3] = [2, 3, 8];

struct Pair {
    tree: KTree,
    spec: Forest,
}

impl Pair {
    #[track_caller]
    fn build(net: &ChordNetwork, k: usize) -> Self {
        let pair = Pair {
            tree: KTree::build(net, k),
            spec: spec::stable(&Ring::of(net), k),
        };
        pair.assert_same(net);
        pair
    }

    #[track_caller]
    fn assert_same(&self, net: &ChordNetwork) {
        spec::assert_matches(&self.tree, net, &self.spec);
    }

    #[track_caller]
    fn round(&mut self, net: &ChordNetwork) -> usize {
        let mutations = self.tree.maintain_round(net);
        assert_eq!(mutations, spec::round(&Ring::of(net), &mut self.spec));
        self.assert_same(net);
        mutations
    }

    /// Rounds until stable, comparing after each; returns the round count.
    #[track_caller]
    fn stabilize(&mut self, net: &ChordNetwork) -> usize {
        let mut rounds = 0;
        while self.round(net) > 0 {
            rounds += 1;
            assert!(rounds < 256, "failed to stabilize");
        }
        rounds
    }

    #[track_caller]
    fn repair(&mut self, net: &ChordNetwork) -> RepairStats {
        let repaired = self.tree.repair_with_actions(net, 256);
        assert_eq!(repaired, spec::repair(&Ring::of(net), &mut self.spec));
        self.assert_same(net);
        self.tree.check_invariants(net).unwrap();
        repaired.0
    }

    /// Cuts the node over `child` off the tree: the spec sets its subtree
    /// aside, whatever stale node `child` is left pointing at.
    #[track_caller]
    fn inject_stale_parent(&mut self, net: &ChordNetwork, child: KtNodeId, stale: KtNodeId) {
        let node = self.tree.node(child);
        spec::detach(&mut self.spec, node.region(), node.depth());
        self.tree.inject_stale_parent(child, stale);
        self.assert_same(net);
    }

    /// The node over exactly `region` that the root reaches.
    fn node_over(&self, region: Arc) -> Option<KtNodeId> {
        let mut on_tree = self.tree.preorder();
        on_tree.find(|&id| self.tree.node(id).region() == region)
    }
}

/// A network with one peer per position, in the given order.
fn net_at(positions: &[u32]) -> ChordNetwork {
    let mut rng = StdRng::seed_from_u64(0);
    let mut net = ChordNetwork::new();
    for &p in positions {
        net.join_peer_at(&[Id::new(p)], &mut rng);
    }
    net
}

fn vs_at(net: &ChordNetwork, pos: u32) -> VsId {
    net.ring().at(Id::new(pos)).expect("position occupied")
}

fn visits_during(f: impl FnOnce()) -> usize {
    VISITS.with(|v| v.set(0));
    f();
    VISITS.with(|v| v.get())
}

/// One random ring mutation; keeps at least two positions on the ring.
fn mutate_ring(net: &mut ChordNetwork, rng: &mut StdRng) {
    let alive = net.alive_peers();
    let ring: Vec<VsId> = net.ring().iter().map(|(_, vs)| vs).collect();
    match rng.gen_range(0..5u8) {
        0 => {
            net.join_peer(rng.gen_range(1..4), rng);
        }
        1 if alive.len() > 2 => {
            let p = alive[rng.gen_range(0..alive.len())];
            if net.alive_vs_count() - net.vss_of(p).len() >= 2 {
                if rng.gen() {
                    net.crash_peer(p);
                } else {
                    net.leave_peer(p);
                }
            }
        }
        2 => {
            let v = ring[rng.gen_range(0..ring.len())];
            if net.region_of(v).len() >= 2 {
                net.split_vs(v);
            }
        }
        3 if ring.len() > 2 => net.drop_vs(ring[rng.gen_range(0..ring.len())]),
        _ => {
            let host = alive[rng.gen_range(0..alive.len())];
            net.spawn_vs(host, rng);
        }
    }
}

/// Cuts a random non-root node of the tree off under a random stale
/// parent — a live node anywhere, cut-off subtrees included.
fn inject_random_stale_link(pair: &mut Pair, net: &ChordNetwork, rng: &mut StdRng) {
    let on_tree: Vec<KtNodeId> = pair.tree.preorder().skip(1).collect();
    let live = (0..pair.tree.slot_bound() as u32).map(KtNodeId);
    let live: Vec<KtNodeId> = live.filter(|&id| pair.tree.contains(id)).collect();
    if let (Some(&child), Some(&stale)) = (on_tree.choose(rng), live.choose(rng)) {
        pair.inject_stale_parent(net, child, stale);
    }
}

fn run_history(seed: u64, k: usize, peers: usize, vs_per_peer: usize, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = ChordNetwork::new();
    for _ in 0..peers {
        net.join_peer(vs_per_peer, &mut rng);
    }
    let mut pair = Pair::build(&net, k);
    for _ in 0..steps {
        for _ in 0..rng.gen_range(1..5) {
            if rng.gen_range(0..6u8) == 0 {
                inject_random_stale_link(&mut pair, &net, &mut rng);
            } else {
                mutate_ring(&mut net, &mut rng);
            }
        }
        match rng.gen_range(0..4u8) {
            0 => pair.assert_same(&net),
            1 => {
                pair.round(&net);
            }
            2 => {
                pair.stabilize(&net);
            }
            _ => {
                pair.repair(&net);
            }
        }
    }
    pair.repair(&net);
    assert_eq!(pair.stabilize(&net), 0);
    // Whatever the history, maintenance converges to the fresh build.
    assert_eq!(pair.spec, spec::stable(&Ring::of(&net), k));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_builds_match_the_spec(seed in 0u64..1_000_000, size in 1usize..=2000, bits in 8u32..=32) {
        // Narrow identifier ranges crowd the positions into deep subtrees.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut positions: Vec<u32> = (0..size).map(|_| rng.gen::<u32>() >> (32 - bits)).collect();
        positions.sort_unstable();
        positions.dedup();
        positions.shuffle(&mut rng);
        assert_builds_match_the_spec(&net_at(&positions));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn prop_histories_match_the_spec(
        seed in 0u64..1_000_000,
        degree in 0usize..3,
        peers in 8usize..49,
        vs_per_peer in 1usize..5,
        steps in 1usize..31,
    ) {
        run_history(seed, DEGREES[degree], peers, vs_per_peer, steps);
    }
}

#[test]
fn change_outside_region_moves_owner_of_center() {
    // The node over [0, 2^30) holds two positions, both below its center
    // 0x2000_0000, so it is planted at the owner of the center — the first
    // position clockwise, which lies *outside* its region.
    let mut net = net_at(&[
        0x0100_0000,
        0x0200_0000,
        0x5000_0000,
        0x6000_0000,
        0x9000_0000,
        0xC000_0000,
    ]);
    let mut pair = Pair::build(&net, 2);
    let region = Arc::new(Id::ZERO, 1 << 30);
    let node = pair.node_over(region).expect("node over [0, 2^30)");
    assert_eq!(pair.tree.node(node).host(), vs_at(&net, 0x5000_0000));

    // A join outside the region, between the center and its old owner.
    let joined = net.join_peer_at(&[Id::new(0x4800_0000)], &mut StdRng::seed_from_u64(1));
    assert!(!region.contains(Id::new(0x4800_0000)));
    pair.stabilize(&net);
    assert_eq!(pair.tree.node(node).host(), net.vss_of(joined)[0]);

    // And its departure hands the node back.
    net.crash_peer(joined);
    pair.stabilize(&net);
    assert_eq!(pair.tree.node(node).host(), vs_at(&net, 0x5000_0000));
    pair.tree.check_invariants(&net).unwrap();
}

#[test]
fn dirty_arc_wraps_past_zero() {
    // The node over the last sixteenth of the ring holds two positions
    // below its center 0xF800_0000; the center's owner is the first
    // position past 0.
    let mut net = net_at(&[
        0x1000_0000,
        0x4000_0000,
        0x9000_0000,
        0xF000_0000,
        0xF100_0000,
    ]);
    let mut pair = Pair::build(&net, 2);
    let region = Arc::new(Id::new(0xF000_0000), 1 << 28);
    let node = pair
        .node_over(region)
        .expect("node over the last sixteenth");
    assert_eq!(pair.tree.node(node).host(), vs_at(&net, 0x1000_0000));

    // Changed position 0x0800_0000, predecessor 0xF100_0000: the arc runs
    // through 0 and covers the center.
    let joined = net.join_peer_at(&[Id::new(0x0800_0000)], &mut StdRng::seed_from_u64(1));
    pair.stabilize(&net);
    assert_eq!(pair.tree.node(node).host(), net.vss_of(joined)[0]);
    net.leave_peer(joined);
    pair.stabilize(&net);
    assert_eq!(pair.tree.node(node).host(), vs_at(&net, 0x1000_0000));

    // A change exactly at position 0.
    net.join_peer_at(&[Id::ZERO], &mut StdRng::seed_from_u64(2));
    pair.stabilize(&net);
    assert_eq!(pair.tree.node(node).host(), vs_at(&net, 0));
    pair.tree.check_invariants(&net).unwrap();
}

#[test]
fn reattach_into_part_emptied_while_orphaned() {
    let positions = [
        0x0100_0000,
        0x0200_0000, // both inside [0, 2^30), the part that will empty
        0x5000_0000,
        0x6000_0000,
        0x9000_0000,
        0xC000_0000,
    ];
    for round_before_repair in [false, true] {
        let mut net = net_at(&positions);
        let mut pair = Pair::build(&net, 2);
        let region = Arc::new(Id::ZERO, 1 << 30);
        let orphan = pair.node_over(region).expect("node over [0, 2^30)");
        let root = pair.tree.root();
        pair.inject_stale_parent(&net, orphan, root);
        net.drop_vs(vs_at(&net, 0x0100_0000));
        net.drop_vs(vs_at(&net, 0x0200_0000));
        if round_before_repair {
            pair.round(&net);
        }
        // The slot under [0, 2^31) is empty, so the orphan is re-attached
        // there — into a part that no longer needs a subtree; the rounds
        // that follow must prune it again.
        let stats = pair.repair(&net);
        assert_eq!((stats.reattached, stats.pruned), (1, 0));
        assert_eq!(pair.node_over(region), None);
    }
}

#[test]
fn a_subtree_cut_twice_over_one_region_is_repaired_by_shape() {
    // Cut the node over [0, 2^30), let a round regrow it, change the ring
    // under the regrown one, cut it too: two orphans over one region at
    // one depth, told apart by their shapes, not by their slots.
    let mut net = net_at(&[0x0100_0000, 0x0200_0000, 0x5000_0000, 0x9000_0000]);
    let mut pair = Pair::build(&net, 2);
    let region = Arc::new(Id::ZERO, 1 << 30);
    for (seed, pos) in [(3, 0x0300_0000), (4, 0x0380_0000)] {
        let orphan = pair.node_over(region).expect("node over [0, 2^30)");
        let root = pair.tree.root();
        pair.inject_stale_parent(&net, orphan, root);
        net.join_peer_at(&[Id::new(pos)], &mut StdRng::seed_from_u64(seed));
        pair.stabilize(&net);
    }
    let orphan = pair.node_over(region).expect("regrown");
    pair.inject_stale_parent(&net, orphan, pair.tree.root());
    let stats = pair.repair(&net);
    assert_eq!(stats.reattached, 1);
    assert!(stats.pruned > 0);
}

/// A fresh `KTree::build` over `net` at every degree against the spec,
/// with nothing free, every leaf inline, nothing flagged and the ring it
/// grew from stamped — so neither maintenance nor repair looks at a single
/// node of it.
#[track_caller]
fn assert_builds_match_the_spec(net: &ChordNetwork) {
    // A lone position is the root's, which holds a slot.
    let leaves = Some(net.ring().len()).filter(|&n| n > 1).unwrap_or(0);
    for k in DEGREES.into_iter().chain([4]) {
        let mut built = Pair::build(net, k).tree;
        assert_eq!(built.len(), built.slot_bound() + leaves);
        assert_eq!(built.flagged(), 0);
        assert_eq!(built.checked(), net.ring().stamp());
        let visits = visits_during(|| {
            assert_eq!(built.maintain_round(net), 0);
            let stats = built.repair(net, 8);
            assert_eq!((stats.reattached, stats.pruned, stats.rounds), (0, 0, 0));
        });
        assert_eq!(visits, 0, "a freshly built tree was swept");
        built.check_invariants(net).unwrap();
    }
}

#[test]
fn builds_match_the_spec_on_edge_rings() {
    const MAX: u32 = u32::MAX;
    let rings: [&[u32]; 9] = [
        &[0x1234_5678],
        &[0],
        &[MAX],
        // Adjacent positions split all the way down.
        &[0x7FFF_FFFF, 0x8000_0000],
        &[41, 42],
        // The root's center is owned across the wrap.
        &[0, MAX],
        &[MAX - 1, MAX],
        // Everything in one half: the other part needs no child.
        &[
            0x8000_0001,
            0x9000_0000,
            0xA000_0000,
            0xFFFF_FFF0,
            0xC123_4567,
        ],
        &[3, 1, 0, 2, 0x7FFF_FFFE, 0x1000_0000, 5],
    ];
    for positions in rings {
        assert_builds_match_the_spec(&net_at(positions));
    }
}

#[test]
fn no_change_touches_no_arena_node() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = ChordNetwork::new();
    for _ in 0..32 {
        net.join_peer(3, &mut rng);
    }
    let mut tree = KTree::build(&net, 2);
    let quiet = |tree: &mut KTree, net: &ChordNetwork| {
        visits_during(|| {
            assert_eq!(tree.maintain_round(net), 0);
            assert_eq!(tree.repair(net, 8).rounds, 0);
        })
    };
    assert_eq!(quiet(&mut tree, &net), 0);
    // A clone keeps the stamp.
    assert_eq!(quiet(&mut tree.clone(), &net), 0);
    // A transfer moves no ring position.
    let (from, to) = (net.alive_peers()[0], net.alive_peers()[1]);
    net.transfer_vs(&[(net.vss_of(from)[0], to)]);
    assert_eq!(quiet(&mut tree, &net), 0);
    // One join is work — then quiet again.
    net.join_peer(1, &mut rng);
    assert!(
        visits_during(|| {
            tree.maintain_until_stable(&net, 64, 0, &mut Trace::disabled());
        }) > 0
    );
    assert_eq!(quiet(&mut tree, &net), 0);
}

#[test]
fn a_join_visits_its_root_paths_not_the_arena() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut net = ChordNetwork::new();
    for _ in 0..4096 {
        net.join_peer(1, &mut rng);
    }
    for k in [2, 8] {
        let (mut net, mut rng) = (net.clone(), rng.clone());
        let mut tree = KTree::build(&net, k);
        let before = tree.checked();
        net.join_peer(1, &mut rng);
        let changes = net.ring().changes_since(before).expect("journalled").len();
        let bound = changes * k * tree.height() as usize;
        let visits = visits_during(|| {
            assert!(tree.maintain_round(&net) > 0);
        });
        assert!(
            visits > 0 && visits <= 2 * bound && visits * 32 < tree.slot_bound(),
            "k {k}: {visits} visits for {changes} changes × height {} of {} slots",
            tree.height(),
            tree.slot_bound()
        );
        tree.maintain_until_stable(&net, 64, 0, &mut Trace::disabled());
        tree.check_invariants(&net).unwrap();

        // A ring whose history the tree does not share: every live slot.
        let mut other = net.clone();
        net.join_peer(1, &mut rng);
        other.join_peer(1, &mut rng);
        tree.maintain_until_stable(&net, 64, 0, &mut Trace::disabled());
        assert_eq!(other.ring().changes_since(tree.checked()), None);
        let live = (0..tree.slot_bound() as u32).filter(|&s| tree.contains(KtNodeId(s)));
        let live = live.count();
        let visits = visits_during(|| {
            tree.maintain_round(&other);
        });
        assert!(
            visits >= live,
            "k {k}: {visits} visits of {live} live slots"
        );
    }
}

#[test]
fn a_clone_follows_its_own_history() {
    let mut rng = StdRng::seed_from_u64(19);
    let mut net = ChordNetwork::new();
    for _ in 0..32 {
        net.join_peer(3, &mut rng);
    }
    let pair = Pair::build(&net, 2);
    let mut clone = Pair {
        tree: pair.tree.clone(),
        spec: pair.spec.clone(),
    };
    clone.assert_same(&net);
    let before = net.clone();
    for p in net.alive_peers().into_iter().take(8) {
        net.crash_peer(p);
    }
    clone.stabilize(&net);
    let victim = clone
        .tree
        .preorder()
        .find(|&id| clone.tree.node(id).depth() >= 2);
    let root = clone.tree.root();
    clone.inject_stale_parent(&net, victim.expect("deep node"), root);
    clone.repair(&net);
    // The original answers for the arena it holds.
    pair.assert_same(&before);
}

#[test]
fn journal_overflow_falls_back_to_a_full_sweep() {
    let mut rng = StdRng::seed_from_u64(13);
    let mut net = ChordNetwork::new();
    for _ in 0..16 {
        net.join_peer(2, &mut rng);
    }
    let mut pair = Pair::build(&net, 2);
    // More changes than the ring retains, whatever its capacity.
    while net.ring().changes_since(pair.tree.checked()).is_some() {
        assert!(net.ring().version() < 1 << 20, "journal never overflows");
        net.join_peer(4, &mut rng);
    }
    assert!(pair.stabilize(&net) > 0);
    pair.tree.check_invariants(&net).unwrap();
    // Re-stamped: the next change is answered from the journal again.
    net.join_peer(1, &mut rng);
    assert_eq!(
        net.ring()
            .changes_since(pair.tree.checked())
            .map(|c| c.len()),
        Some(1)
    );
    pair.stabilize(&net);
}

#[test]
fn diverged_clone_falls_back_to_a_full_sweep() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut a = ChordNetwork::new();
    for _ in 0..24 {
        a.join_peer(3, &mut rng);
    }
    let mut pair = Pair::build(&a, 2);
    // Same number of changes on each side, but different ones.
    let mut b = a.clone();
    a.join_peer(2, &mut rng);
    b.join_peer(2, &mut rng);
    assert_eq!(a.ring().version(), b.ring().version());
    pair.stabilize(&a);
    // The tree is now stamped on A's history, which B does not share.
    assert_eq!(b.ring().changes_since(pair.tree.checked()), None);
    assert!(pair.stabilize(&b) > 0);
    pair.tree.check_invariants(&b).unwrap();
    assert_eq!(pair.repair(&b).rounds, 0);
}
