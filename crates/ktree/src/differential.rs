//! Differential tests: change-driven maintenance against the full sweep.
//!
//! Two clones of one tree go through the same history; `fast` uses the
//! public `maintain_round` / `repair_with_actions`, `slow` the reference
//! sweep (`reference_round` / `reference_repair`). After every step the two
//! arenas must be equal slot for slot, free list included — slot numbers
//! are observable (repair action logs, DES contributor order), so "same
//! shape" is not enough.
//!
//! The same histories check what the tree answers about its own shape on
//! demand (`levels`, `message_depth`, `max_message_depth`) and what the
//! walk's reference derives (`derive`): after every step both must equal a
//! breadth-first recomputation.

use crate::tree::VISITS;
use crate::*;
use proptest::prelude::*;
use proxbal_chord::{ChordNetwork, PeerId, VsId};
use proxbal_id::{Arc, Id};
use proxbal_trace::Trace;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

struct Pair {
    fast: KTree,
    slow: KTree,
}

/// What `tree` answers about its shape against [`KTree::reference_derived`].
#[track_caller]
fn assert_derived_fresh(tree: &KTree) {
    let (levels, depths, max) = tree.reference_derived();
    assert_eq!(tree.levels(), levels, "levels");
    let derived = tree.derive();
    let by_depth = derived.level_starts.windows(2);
    let counted: Vec<&[KtNodeId]> = by_depth.map(|w| &derived.level_slots[w[0]..w[1]]).collect();
    assert_eq!(counted, levels, "derived levels");
    // Every slot, free ones and the handle past the arena included.
    for id in (0..=tree.slot_bound() as u32).map(KtNodeId) {
        let depth = depths.get(id).copied();
        assert_eq!(tree.message_depth(id), depth, "message depth of {id:?}");
        let derived = derived.message_depths.get(id.0 as usize).copied();
        let derived = derived.filter(|&d| d != u32::MAX);
        assert_eq!(derived, depth, "derived message depth of {id:?}");
    }
    assert_eq!(tree.max_message_depth(), max, "max message depth");
    assert_eq!(derived.max_message_depth, max, "derived max message depth");
    assert_eq!(tree.height() as usize, levels.len(), "height");
}

/// The descents that carry the root's region down — one per virtual
/// server, and the bulk form that sorts its input into ring order and
/// shares paths — against the descent that reads every node's stored
/// region. The bulk form is fed ring order, a scrambled order, and the
/// scrambled order reversed with every virtual server twice; its answers
/// must come back in input order.
#[track_caller]
fn assert_report_targets_match(tree: &KTree, net: &ChordNetwork) {
    let ring_order: Vec<VsId> = net.ring().iter().map(|(_, vs)| vs).collect();
    let mut scrambled = ring_order.clone();
    scrambled.sort_unstable_by_key(|vs| vs.0.wrapping_mul(0x9E37_79B9));
    let repeated: Vec<VsId> = scrambled.iter().rev().flat_map(|&vs| [vs, vs]).collect();
    for vss in [ring_order, scrambled, repeated] {
        let by_stored_region: Vec<KtNodeId> = vss
            .iter()
            .map(|&vs| tree.reference_report_target(net, vs))
            .collect();
        let one_by_one: Vec<KtNodeId> = vss.iter().map(|&vs| tree.report_target(net, vs)).collect();
        assert_eq!(one_by_one, by_stored_region);
        let bulk = tree.report_targets(net, vss.iter().copied());
        assert_eq!(bulk.len(), vss.len());
        for (i, (&vs, target)) in vss.iter().zip(bulk).enumerate() {
            assert_eq!(
                target, one_by_one[i],
                "answer {i} ({vs:?}) out of input order"
            );
        }
    }
}

impl Pair {
    fn build(net: &ChordNetwork, k: usize) -> Self {
        let fast = KTree::build(net, k);
        assert_derived_fresh(&fast);
        Pair {
            slow: fast.clone(),
            fast,
        }
    }

    #[track_caller]
    fn assert_same(&self) {
        let (fast, slow) = (self.fast.arena(), self.slow.arena());
        assert_eq!(fast.1, slow.1, "free lists differ");
        for (slot, (f, s)) in fast.0.iter().zip(&slow.0).enumerate() {
            assert_eq!(f, s, "slot {slot} differs");
        }
        assert_eq!(fast.0.len(), slow.0.len(), "arena lengths differ");
        assert_derived_fresh(&self.fast);
    }

    #[track_caller]
    fn round(&mut self, net: &ChordNetwork) -> usize {
        // Before the round the tree is whatever the history left behind:
        // behind the ring, orphaned subtrees, half-grown parts.
        assert_report_targets_match(&self.fast, net);
        let mutations = self.fast.maintain_round(net);
        assert_eq!(mutations, self.slow.reference_round(net));
        self.assert_same();
        assert_report_targets_match(&self.fast, net);
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
        let (stats, actions) = self.fast.repair_with_actions(net, 256);
        let (ref_stats, ref_actions) = self.slow.reference_repair(net, 256);
        assert_eq!(stats, ref_stats);
        assert_eq!(actions, ref_actions);
        self.assert_same();
        self.fast.check_invariants(net).unwrap();
        stats
    }

    fn inject_stale_parent(&mut self, child: KtNodeId, stale: KtNodeId) {
        self.fast.inject_stale_parent(child, stale);
        self.slow.inject_stale_parent(child, stale);
        assert_derived_fresh(&self.fast);
    }

    /// The live node covering exactly `region`.
    fn node_over(&self, region: Arc) -> Option<KtNodeId> {
        self.fast
            .iter_ids()
            .find(|&id| self.fast.node(id).region() == region)
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

/// Detaches a random non-root node under a random stale parent.
fn inject_random_stale_link(pair: &mut Pair, rng: &mut StdRng) {
    let ids: Vec<KtNodeId> = pair.fast.iter_ids().collect();
    let child = ids[rng.gen_range(0..ids.len())];
    let stale = ids[rng.gen_range(0..ids.len())];
    // An earlier orphan's stale parent may have been pruned since; the
    // injection needs a live slot to detach from.
    let parent = pair.fast.node(child).parent();
    if parent.is_some_and(|p| pair.fast.contains(p)) {
        pair.inject_stale_parent(child, stale);
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
                inject_random_stale_link(&mut pair, &mut rng);
            } else {
                mutate_ring(&mut net, &mut rng);
            }
        }
        match rng.gen_range(0..4u8) {
            0 => {}
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_builders_match_reference(seed in 0u64..1_000_000, size in 1usize..=2000, bits in 8u32..=32) {
        // Narrow identifier ranges crowd the positions into deep subtrees.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut positions: Vec<u32> = (0..size).map(|_| rng.gen::<u32>() >> (32 - bits)).collect();
        positions.sort_unstable();
        positions.dedup();
        positions.shuffle(&mut rng);
        assert_builders_match_reference(&net_at(&positions));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn prop_incremental_equals_full_sweep(
        seed in 0u64..1_000_000,
        k in 2usize..5,
        peers in 8usize..49,
        vs_per_peer in 1usize..5,
        steps in 1usize..31,
    ) {
        run_history(seed, k, peers, vs_per_peer, steps);
    }
}

#[test]
fn histories_hold_at_the_degrees_the_paper_evaluates() {
    // The property above draws K from 2..5; K = 8 is the paper's other
    // degree, and the one whose child-table rows are widest.
    for k in [2usize, 3, 8] {
        for seed in 0..6u64 {
            run_history(seed, k, 24, 3, 16);
        }
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
    assert_eq!(pair.fast.node(node).host(), vs_at(&net, 0x5000_0000));

    // A join outside the region, between the center and its old owner.
    let joined = net.join_peer_at(&[Id::new(0x4800_0000)], &mut StdRng::seed_from_u64(1));
    assert!(!region.contains(Id::new(0x4800_0000)));
    pair.stabilize(&net);
    assert_eq!(pair.fast.node(node).host(), net.vss_of(joined)[0]);

    // And its departure hands the node back.
    net.crash_peer(joined);
    pair.stabilize(&net);
    assert_eq!(pair.fast.node(node).host(), vs_at(&net, 0x5000_0000));
    pair.fast.check_invariants(&net).unwrap();
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
    assert_eq!(pair.fast.node(node).host(), vs_at(&net, 0x1000_0000));

    // Changed position 0x0800_0000, predecessor 0xF100_0000: the arc runs
    // through 0 and covers the center.
    let joined = net.join_peer_at(&[Id::new(0x0800_0000)], &mut StdRng::seed_from_u64(1));
    pair.stabilize(&net);
    assert_eq!(pair.fast.node(node).host(), net.vss_of(joined)[0]);
    net.leave_peer(joined);
    pair.stabilize(&net);
    assert_eq!(pair.fast.node(node).host(), vs_at(&net, 0x1000_0000));

    // A change exactly at position 0.
    net.join_peer_at(&[Id::ZERO], &mut StdRng::seed_from_u64(2));
    pair.stabilize(&net);
    assert_eq!(pair.fast.node(node).host(), vs_at(&net, 0));
    pair.fast.check_invariants(&net).unwrap();
}

#[test]
fn slot_freed_and_reused_within_one_round() {
    // Search a few histories for a round in which a slot that was live at
    // round start ends the round holding a different region: pruned by one
    // node's check, reused by a later node's grow. The sweep visits such a
    // slot in the same round iff it lies ahead of the cursor.
    let mut reused = 0;
    for seed in 0..40u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = ChordNetwork::new();
        for _ in 0..24 {
            net.join_peer(3, &mut rng);
        }
        let mut pair = Pair::build(&net, 2);
        for _ in 0..12 {
            let crash: Vec<PeerId> = net.alive_peers().into_iter().take(2).collect();
            for p in crash {
                net.crash_peer(p);
            }
            for _ in 0..2 {
                net.join_peer(3, &mut rng);
            }
            loop {
                let before: Vec<Option<Arc>> = pair
                    .fast
                    .arena()
                    .0
                    .iter()
                    .map(|n| n.as_ref().map(|n| n.region()))
                    .collect();
                let mutations = pair.round(&net);
                reused += before
                    .iter()
                    .zip(pair.fast.arena().0)
                    .filter(|(b, a)| matches!((b, a), (Some(b), Some(a)) if *b != a.region()))
                    .count();
                if mutations == 0 {
                    break;
                }
            }
        }
    }
    assert!(reused > 0, "no history exercised in-round slot reuse");
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
        pair.inject_stale_parent(orphan, pair.fast.root());
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

/// `built` against the ring-query reference: arena slot for slot, nothing
/// free, nothing flagged, stamped with the ring it grew from — so neither
/// maintenance nor repair looks at a single node of it.
#[track_caller]
fn assert_same_build(built: KTree, reference: &KTree, net: &ChordNetwork) {
    let pair = Pair {
        fast: built,
        slow: reference.clone(),
    };
    pair.assert_same();
    let mut built = pair.fast;
    assert!(built.arena().1.is_empty());
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

/// Both builders against their references on `net`, for every degree and
/// split depth the differential suite covers.
#[track_caller]
fn assert_builders_match_reference(net: &ChordNetwork) {
    for k in [2usize, 3, 4, 8] {
        let reference = KTree::reference_build(net, k);
        assert_same_build(KTree::build(net, k), &reference, net);
        for split_depth in [0, 1, 3, 8, reference.height() + 4] {
            assert_same_build(
                KTree::build_split(net, k, split_depth),
                &KTree::reference_build_split(net, k, split_depth),
                net,
            );
        }
    }
}

#[test]
fn builders_match_reference_on_edge_rings() {
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
        assert_builders_match_reference(&net_at(positions));
    }
}

#[test]
fn builders_match_reference_after_churn() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut net = ChordNetwork::new();
    for _ in 0..48 {
        net.join_peer(4, &mut rng);
    }
    for _ in 0..6 {
        for _ in 0..40 {
            mutate_ring(&mut net, &mut rng);
        }
        assert_builders_match_reference(&net);
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
    // A clone keeps the stamp; so does a JSON round trip.
    assert_eq!(quiet(&mut tree.clone(), &net), 0);
    let json = serde_json::to_string(&tree).unwrap();
    let mut back: KTree = serde_json::from_str(&json).unwrap();
    assert_eq!(quiet(&mut back, &net), 0);
    // A transfer moves no ring position.
    let (from, to) = (net.alive_peers()[0], net.alive_peers()[1]);
    net.transfer_vs(net.vss_of(from)[0], to);
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
fn derived_data_survives_clone_and_json_and_follows_each_copy() {
    let mut rng = StdRng::seed_from_u64(19);
    let mut net = ChordNetwork::new();
    for _ in 0..32 {
        net.join_peer(3, &mut rng);
    }
    let tree = KTree::build(&net, 2);
    assert_derived_fresh(&tree);
    // A clone and a JSON round trip answer for the arena they hold.
    let mut clone = tree.clone();
    assert_derived_fresh(&clone);
    let json = serde_json::to_string(&tree).unwrap();
    let mut back: KTree = serde_json::from_str(&json).unwrap();
    assert_derived_fresh(&back);
    // Each copy follows its own arena from here on.
    for p in net.alive_peers().into_iter().take(8) {
        net.crash_peer(p);
    }
    clone.maintain_until_stable(&net, 64, 0, &mut Trace::disabled());
    assert_derived_fresh(&clone);
    assert_derived_fresh(&tree);
    let victim = back
        .iter_ids()
        .find(|&id| back.node(id).depth() >= 2)
        .expect("deep node");
    back.inject_stale_parent(victim, back.root());
    assert_derived_fresh(&back);
    // The root no longer reaches the detached subtree — until the repair.
    assert_eq!(back.message_depth(victim), None);
    back.repair(&net, 64);
    assert_derived_fresh(&back);
    assert!(back.message_depth(victim).is_some());
    assert_derived_fresh(&tree);
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
    while net.ring().changes_since(pair.fast.checked()).is_some() {
        assert!(net.ring().version() < 1 << 20, "journal never overflows");
        net.join_peer(4, &mut rng);
    }
    assert!(pair.stabilize(&net) > 0);
    pair.fast.check_invariants(&net).unwrap();
    // Re-stamped: the next change is answered from the journal again.
    net.join_peer(1, &mut rng);
    assert_eq!(
        net.ring()
            .changes_since(pair.fast.checked())
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
    assert_eq!(b.ring().changes_since(pair.fast.checked()), None);
    assert!(pair.stabilize(&b) > 0);
    pair.fast.check_invariants(&b).unwrap();
    assert_eq!(pair.repair(&b).rounds, 0);
}
