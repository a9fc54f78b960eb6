use crate::baselines::{cfs_shed, random_matching};
use crate::reports::{light_slots, shed_candidates, Classification};
use crate::selection::brute_force_shed_set;
use crate::*;
use proptest::prelude::*;
use proxbal_chord::{ChordNetwork, PeerId, PeerState, VsId};
use proxbal_ktree::KTree;
use proxbal_trace::Trace;
use proxbal_workload::{CapacityProfile, LoadModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn setup(peers: usize, vs: usize, seed: u64) -> (ChordNetwork, LoadState, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = ChordNetwork::new();
    for _ in 0..peers {
        net.join_peer(vs, &mut rng);
    }
    let loads = LoadState::generate(
        &net,
        &CapacityProfile::gnutella(),
        &LoadModel::gaussian(1_000_000.0, 10_000.0),
        &mut rng,
    );
    (net, loads, rng)
}

// ---------------------------------------------------------------- LBI

#[test]
fn lbi_merge_sums_and_mins() {
    let mut a = Lbi {
        load: 10.0,
        capacity: 5.0,
        min_vs_load: 3.0,
    };
    let b = Lbi {
        load: 7.0,
        capacity: 2.0,
        min_vs_load: 1.5,
    };
    proxbal_ktree::Merge::merge(&mut a, b);
    assert_eq!(a.load, 17.0);
    assert_eq!(a.capacity, 7.0);
    assert_eq!(a.min_vs_load, 1.5);
}

#[test]
fn tree_aggregated_lbi_matches_ground_truth() {
    let (net, loads, mut rng) = setup(48, 5, 1);
    let tree = KTree::build(&net, 2);
    let mut inputs: HashMap<_, Lbi> = HashMap::new();
    for p in net.alive_peers() {
        use rand::seq::SliceRandom;
        let vs = *net.vss_of(p).choose(&mut rng).unwrap();
        let target = tree.report_target(&net, vs);
        let lbi = loads.node_lbi(&net, p);
        use proxbal_ktree::Merge;
        match inputs.get_mut(&target) {
            Some(acc) => acc.merge(lbi),
            None => {
                inputs.insert(target, lbi);
            }
        }
    }
    let mut inputs: Vec<_> = inputs
        .into_iter()
        .map(|(at, value)| proxbal_ktree::AggregateInput {
            at,
            value,
            sent: true,
        })
        .collect();
    inputs.sort_unstable_by_key(|input| input.at);
    let out = tree.aggregate(&net, &inputs, 1);
    let got = out.root_value.unwrap();
    let want = loads.totals(&net);
    assert!((got.load - want.load).abs() < 1e-6 * want.load.max(1.0));
    assert!((got.capacity - want.capacity).abs() < 1e-9);
    assert_eq!(got.min_vs_load, want.min_vs_load);
}

#[test]
fn generate_scales_load_with_region_fraction() {
    // Statistically, VS load should correlate with owned fraction: compare
    // the average load of the largest-decile regions vs the smallest-decile.
    let (net, loads, _) = setup(128, 4, 2);
    let mut by_frac: Vec<(f64, f64)> = net
        .ring()
        .iter()
        .map(|(pos, vs)| (net.ring().region(pos).fraction(), loads.vs_load(vs)))
        .collect();
    by_frac.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = by_frac.len();
    let small: f64 = by_frac[..n / 10].iter().map(|x| x.1).sum::<f64>() / (n / 10) as f64;
    let large: f64 = by_frac[n - n / 10..].iter().map(|x| x.1).sum::<f64>() / (n / 10) as f64;
    assert!(
        large > 3.0 * small,
        "large-region loads {large} should dwarf small-region loads {small}"
    );
}

#[test]
fn generate_reads_each_region_off_the_walk() {
    // Every load is sampled for the region `Ring::region` states, on the
    // rings where the predecessor carried along the walk is special: alone
    // on the ring, a position at 0, both ends of the identifier space.
    let rings: [&[u32]; 6] = [
        &[777],
        &[0],
        &[0, 1000, 60_000],
        &[0, u32::MAX],
        &[5, u32::MAX],
        &[9, 4, 2_000_000_000],
    ];
    let (profile, model) = (
        CapacityProfile::gnutella(),
        LoadModel::gaussian(1_000_000.0, 10_000.0),
    );
    for positions in rings {
        let mut net = ChordNetwork::new();
        for &p in positions {
            net.join_peer_at(&[proxbal_id::Id::new(p)], &mut StdRng::seed_from_u64(0));
        }
        let mut rng = StdRng::seed_from_u64(9);
        let loads = LoadState::generate(&net, &profile, &model, &mut rng);
        let mut reference = StdRng::seed_from_u64(9);
        for _ in net.alive_peers() {
            profile.sample_class(&mut reference);
        }
        let mut covered = 0;
        for (pos, vs) in net.ring().iter() {
            let region = net.ring().region(pos);
            covered += region.len();
            let load = model.sample_vs_load(region.fraction(), &mut reference);
            assert_eq!(loads.vs_load(vs), load, "{positions:?} at {pos:?}");
        }
        assert_eq!(covered, proxbal_id::RING_SIZE);
        assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
    }
}

// ---------------------------------------------------------------- classification

fn lbi(load: f64, capacity: f64, min: f64) -> Lbi {
    Lbi {
        load,
        capacity,
        min_vs_load: min,
    }
}

#[test]
fn classify_boundaries() {
    let params = ClassifyParams::strict();
    // System: L = 100, C = 100 → T_i = C_i; L_min = 5.
    let system = lbi(100.0, 100.0, 5.0);
    // Heavy: load above target.
    assert_eq!(
        params.classify(&lbi(11.0, 10.0, 1.0), &system),
        NodeClass::Heavy
    );
    // Light: room >= L_min.
    assert_eq!(
        params.classify(&lbi(5.0, 10.0, 1.0), &system),
        NodeClass::Light
    );
    // Neutral: 0 <= room < L_min.
    assert_eq!(
        params.classify(&lbi(6.0, 10.0, 1.0), &system),
        NodeClass::Neutral
    );
    // Exactly at target: not heavy → neutral (room 0 < L_min).
    assert_eq!(
        params.classify(&lbi(10.0, 10.0, 1.0), &system),
        NodeClass::Neutral
    );
    // Exactly L_min room: light (>= is inclusive).
    assert_eq!(
        params.classify(&lbi(5.0, 10.0, 5.0), &lbi(100.0, 100.0, 5.0)),
        NodeClass::Light
    );
}

#[test]
fn epsilon_raises_targets() {
    let strict = ClassifyParams::strict();
    let relaxed = ClassifyParams { epsilon: 0.2 };
    let system = lbi(100.0, 100.0, 5.0);
    assert_eq!(strict.target(10.0, &system), 10.0);
    assert!((relaxed.target(10.0, &system) - 12.0).abs() < 1e-12);
    // A node heavy under strict can be neutral under relaxed
    // (room 1 < L_min 5, so not light either).
    let node = lbi(11.0, 10.0, 1.0);
    assert_eq!(strict.classify(&node, &system), NodeClass::Heavy);
    assert_eq!(relaxed.classify(&node, &system), NodeClass::Neutral);
}

#[test]
fn excess_and_spare_are_complementary() {
    let params = ClassifyParams::strict();
    let system = lbi(100.0, 100.0, 2.0);
    let heavy = lbi(15.0, 10.0, 1.0);
    assert!((params.excess(&heavy, &system) - 5.0).abs() < 1e-12);
    assert_eq!(params.spare(&heavy, &system), 0.0);
    let light = lbi(4.0, 10.0, 1.0);
    assert_eq!(params.excess(&light, &system), 0.0);
    assert!((params.spare(&light, &system) - 6.0).abs() < 1e-12);
}

// ---------------------------------------------------------------- shed selection

fn vs(i: u32) -> VsId {
    VsId(i)
}

/// [`choose_shed_set`] into a fresh buffer.
fn shed_set(vss: &[(VsId, f64)], excess: f64) -> Vec<VsId> {
    let mut out = vec![vs(u32::MAX)]; // stale contents must be replaced
    choose_shed_set(vss, excess, &mut out);
    out
}

#[test]
fn shed_set_empty_when_no_excess() {
    assert!(shed_set(&[(vs(0), 5.0)], 0.0).is_empty());
    assert!(shed_set(&[(vs(0), 5.0)], -1.0).is_empty());
}

#[test]
fn shed_set_single_exact() {
    let vss = [(vs(0), 5.0), (vs(1), 3.0), (vs(2), 8.0)];
    // Need >= 3: the single 3.0 VS is optimal.
    let got = shed_set(&vss, 3.0);
    assert_eq!(got, vec![vs(1)]);
}

#[test]
fn shed_set_prefers_combination_over_overshoot() {
    let vss = [(vs(0), 10.0), (vs(1), 4.0), (vs(2), 3.0)];
    // Need >= 6: {4, 3} = 7 beats {10}.
    let mut got = shed_set(&vss, 6.0);
    got.sort();
    assert_eq!(got, vec![vs(1), vs(2)]);
}

#[test]
fn shed_set_all_when_insufficient() {
    let vss = [(vs(0), 1.0), (vs(1), 2.0)];
    let mut got = shed_set(&vss, 10.0);
    got.sort();
    assert_eq!(got, vec![vs(0), vs(1)]);
}

#[test]
fn shed_set_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..200 {
        let n = rng.gen_range(1..12);
        let vss: Vec<(VsId, f64)> = (0..n)
            .map(|i| (vs(i), rng.gen_range(0.1..100.0f64)))
            .collect();
        let total: f64 = vss.iter().map(|x| x.1).sum();
        let excess = rng.gen_range(0.0..total * 1.1);
        let chosen = shed_set(&vss, excess);
        let sum: f64 = chosen
            .iter()
            .map(|v| vss.iter().find(|x| x.0 == *v).unwrap().1)
            .sum();
        if total >= excess && excess > 0.0 {
            let best = brute_force_shed_set(&vss, excess);
            assert!(sum >= excess - 1e-9, "must shed at least the excess");
            assert!(
                (sum - best).abs() < 1e-6,
                "exact solver suboptimal: {sum} vs {best}"
            );
        }
    }
}

#[test]
fn shed_set_greedy_near_optimal_for_many_vss() {
    let mut rng = StdRng::seed_from_u64(4);
    let vss: Vec<(VsId, f64)> = (0..50)
        .map(|i| (vs(i), rng.gen_range(1.0..10.0f64)))
        .collect();
    let excess = 80.0;
    let chosen = shed_set(&vss, excess);
    let sum: f64 = chosen
        .iter()
        .map(|v| vss.iter().find(|x| x.0 == *v).unwrap().1)
        .sum();
    assert!(sum >= excess);
    // Greedy overshoot is bounded by the largest item.
    assert!(sum < excess + 10.0);
}

/// A peer that can shed must shed something. Summed in input order these
/// loads reach the excess exactly, but the search's descending suffix sum
/// is 5.199999999999999, so every subset was pruned: the selection used to
/// return nothing (and panic on its debug assertion).
#[test]
fn shed_set_sheds_everything_when_the_search_sum_falls_short() {
    let vss = [(vs(0), 0.2), (vs(1), 1.0), (vs(2), 3.3), (vs(3), 0.7)];
    assert_eq!(vss.iter().map(|x| x.1).sum::<f64>(), 5.2);
    assert_eq!(shed_set(&vss, 5.2), vec![vs(0), vs(1), vs(2), vs(3)]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The mask-and-stack-array search against the `Vec<bool>` reference:
    /// the same set in the same order, on tie-heavy loads (`0.0` and `-0.0`
    /// included) whose every sum is exact, up to `EXACT_LIMIT` virtual
    /// servers and past it (the greedy path).
    #[test]
    fn prop_shed_set_matches_the_reference(seed: u64, n in 0usize..=2 * EXACT_LIMIT, quarters in 0u32..=320) {
        use crate::selection::reference_choose_shed_set;
        const LOADS: [f64; 7] = [-0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.5];
        let mut rng = StdRng::seed_from_u64(seed);
        let vss: Vec<(VsId, f64)> = (0..n as u32)
            .map(|i| (vs(i), LOADS[rng.gen_range(0..LOADS.len())]))
            .collect();
        let excess = f64::from(quarters) / 4.0;
        prop_assert_eq!(shed_set(&vss, excess), reference_choose_shed_set(&vss, excess));
    }
}

// ---------------------------------------------------------------- pairing

fn cand(load: f64, v: u32, p: u32) -> ShedCandidate {
    ShedCandidate {
        load,
        vs: vs(v),
        from: PeerId(p),
    }
}

fn slot(spare: f64, p: u32) -> LightSlot {
    LightSlot {
        spare,
        peer: PeerId(p),
    }
}

#[test]
fn pairing_best_fit_heaviest_first() {
    let mut lists = RendezvousLists::new();
    lists.push_shed(cand(5.0, 0, 100));
    lists.push_shed(cand(9.0, 1, 101));
    lists.push_light(slot(6.0, 200));
    lists.push_light(slot(10.0, 201));
    let a = lists.pair(1.0);
    assert_eq!(a.len(), 2);
    // Heaviest (9.0) paired first with the tightest fit (10.0).
    assert_eq!(a[0].vs, vs(1));
    assert_eq!(a[0].to, PeerId(201));
    assert_eq!(a[1].vs, vs(0));
    assert_eq!(a[1].to, PeerId(200));
    // Residuals (1.0 each, == L_min) are re-inserted as light slots.
    assert!(lists.shed().is_empty());
    assert_eq!(lists.light().len(), 2);
    assert!(lists.light().iter().all(|s| (s.spare - 1.0).abs() < 1e-12));
}

#[test]
fn pairing_residual_reinserted_when_above_lmin() {
    let mut lists = RendezvousLists::new();
    lists.push_shed(cand(4.0, 0, 100));
    lists.push_shed(cand(3.0, 1, 100));
    lists.push_light(slot(10.0, 200));
    let a = lists.pair(2.0);
    // 4.0 → slot (residual 6 ≥ 2, reinserted); 3.0 → residual slot (3 ≥ 2).
    assert_eq!(a.len(), 2);
    assert!(a.iter().all(|x| x.to == PeerId(200)));
    // Final residual 3.0 stays as an unpaired light slot.
    assert_eq!(lists.light().len(), 1);
    assert!((lists.light()[0].spare - 3.0).abs() < 1e-12);
}

#[test]
fn pairing_residual_dropped_below_lmin() {
    let mut lists = RendezvousLists::new();
    lists.push_shed(cand(4.0, 0, 100));
    lists.push_light(slot(5.0, 200));
    let a = lists.pair(2.0);
    assert_eq!(a.len(), 1);
    assert!(lists.light().is_empty(), "residual 1.0 < L_min dropped");
}

#[test]
fn pairing_never_overfills() {
    let mut lists = RendezvousLists::new();
    lists.push_shed(cand(7.0, 0, 100));
    lists.push_light(slot(5.0, 200));
    let a = lists.pair(1.0);
    assert!(
        a.is_empty(),
        "candidate larger than any slot stays unpaired"
    );
    assert_eq!(lists.shed().len(), 1);
    assert_eq!(lists.light().len(), 1);
}

#[test]
fn pairing_merge_keeps_sorted() {
    let mut a = RendezvousLists::new();
    a.push_shed(cand(5.0, 0, 1));
    a.push_light(slot(2.0, 2));
    let mut b = RendezvousLists::new();
    b.push_shed(cand(1.0, 3, 4));
    b.push_shed(cand(9.0, 5, 6));
    b.push_light(slot(7.0, 7));
    proxbal_ktree::Merge::merge(&mut a, b);
    assert!(a.check_sorted());
    assert_eq!(a.len(), 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_pairing_invariants(seed: u64, n_shed in 0usize..20, n_light in 0usize..20, l_min in 0.1f64..5.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lists = RendezvousLists::new();
        let mut spare_by_peer: HashMap<PeerId, f64> = HashMap::new();
        for i in 0..n_shed {
            lists.push_shed(cand(rng.gen_range(0.1..50.0), i as u32, 1000 + i as u32));
        }
        for j in 0..n_light {
            let s = rng.gen_range(l_min..60.0);
            spare_by_peer.insert(PeerId(j as u32), s);
            lists.push_light(slot(s, j as u32));
        }
        let assignments = lists.pair(l_min);
        prop_assert!(lists.check_sorted());
        // No light node receives more than its spare room in total.
        let mut received: HashMap<PeerId, f64> = HashMap::new();
        for a in &assignments {
            *received.entry(a.to).or_insert(0.0) += a.load;
        }
        for (p, got) in received {
            prop_assert!(got <= spare_by_peer[&p] + 1e-9, "{p:?} overfilled");
        }
        // Every assigned VS appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for a in &assignments {
            prop_assert!(seen.insert(a.vs));
        }
        // Unpaired candidates genuinely fit no remaining slot.
        for c in lists.shed() {
            for s in lists.light() {
                prop_assert!(s.spare < c.load);
            }
        }
    }

    /// Appending every record and sorting each entry node once leaves the
    /// lists one `push_shed` / `push_light` per record leaves: on a few
    /// entry nodes, tie-heavy keys (`0.0` and `-0.0` included), every
    /// record distinguishable by its ids.
    #[test]
    fn prop_publish_matches_one_push_per_record(seed: u64, n_shed in 0usize..60, n_light in 0usize..60) {
        use crate::pairing::{publish, reference_publish};
        use proxbal_ktree::KtNodeId;
        const LOADS: [f64; 4] = [0.0, -0.0, 1.0, 2.5];
        const SPARES: [f64; 3] = [0.5, 1.0, 2.0];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut next_vs = 0u32;
        // Peer ids interleave, so the publication order is not the
        // participants' draw order.
        let shed: std::collections::BTreeMap<PeerId, Vec<ShedCandidate>> = (0..n_shed as u32)
            .map(|i| {
                let p = i.wrapping_mul(0x9E37_79B9) % 1000;
                let cands = (0..rng.gen_range(1..4))
                    .map(|_| {
                        next_vs += 1;
                        cand(LOADS[rng.gen_range(0..LOADS.len())], next_vs, p)
                    })
                    .collect();
                (PeerId(p), cands)
            })
            .collect();
        let light: std::collections::BTreeMap<PeerId, LightSlot> = (0..n_light as u32)
            .map(|i| {
                let p = 1000 + i.wrapping_mul(0x9E37_79B9) % 1000;
                (PeerId(p), slot(SPARES[rng.gen_range(0..SPARES.len())], p))
            })
            .collect();
        let targets: Vec<KtNodeId> = (0..shed.len() + light.len())
            .map(|_| KtNodeId(rng.gen_range(0..4)))
            .collect();
        // Flat, the way the extraction hands them over: runs of candidates
        // ascending by shedding peer, slots ascending by peer.
        let shed: Vec<ShedCandidate> = shed.into_values().flatten().collect();
        let light: Vec<LightSlot> = light.into_values().collect();
        let contents = |lists: Vec<(KtNodeId, RendezvousLists)>| {
            lists
                .iter()
                .map(|(id, l)| {
                    let shed: Vec<_> = l.shed().iter().map(|c| (c.load.to_bits(), c.vs, c.from)).collect();
                    let light: Vec<_> = l.light().iter().map(|s| (s.spare.to_bits(), s.peer)).collect();
                    (*id, shed, light)
                })
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(
            contents(publish(&shed, &light, &targets)),
            contents(reference_publish(&shed, &light, &targets))
        );
    }
}

/// Shed candidates and light slots, every key by its bits.
type ListContents = (Vec<(u64, VsId, PeerId)>, Vec<(u64, PeerId)>);

/// Lists as a pairing leaves them, every key by its bits.
fn list_contents(lists: &RendezvousLists) -> ListContents {
    let shed = lists.shed().iter();
    let light = lists.light().iter();
    (
        shed.map(|c| (c.load.to_bits(), c.vs, c.from)).collect(),
        light.map(|s| (s.spare.to_bits(), s.peer)).collect(),
    )
}

fn assignment_bits(assignments: &[Assignment]) -> Vec<(VsId, u64, PeerId, PeerId)> {
    let bits = |a: &Assignment| (a.vs, a.load.to_bits(), a.from, a.to);
    assignments.iter().map(bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Skipping runs of misfits and compacting the survivors pair exactly
    /// as one visit and one `Vec::remove` per candidate: same assignments
    /// in the same order, same leftovers in the same order, same counters —
    /// over runs of equal keys (`0.0` and `-0.0` among them), residuals
    /// re-offered or dropped, and empty light lists.
    #[test]
    fn prop_pair_into_matches_reference(
        seed: u64,
        n_shed in 0usize..48,
        n_light in 0usize..24,
        l_min_at in 0usize..3,
    ) {
        const LOADS: [f64; 7] = [0.0, -0.0, 0.5, 1.0, 1.0, 2.5, 4.0];
        const SPARES: [f64; 5] = [0.25, 1.0, 1.5, 2.5, 6.0];
        let l_min = [0.0, 0.5, 3.0][l_min_at];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lists = RendezvousLists::new();
        for i in 0..n_shed as u32 {
            lists.push_shed(cand(LOADS[rng.gen_range(0..LOADS.len())], i, i % 7));
        }
        // Every fourth case offers no room at all.
        let n_light = if seed.is_multiple_of(4) { 0 } else { n_light };
        for j in 0..n_light as u32 {
            lists.push_light(slot(SPARES[rng.gen_range(0..SPARES.len())], 100 + j));
        }
        let mut reference = lists.clone();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let (mut got_trace, mut want_trace) = (Trace::enabled(""), Trace::enabled(""));
        lists.pair_into(l_min, &mut got, &mut got_trace);
        reference.reference_pair_into(l_min, &mut want, &mut want_trace);
        prop_assert_eq!(assignment_bits(&got), assignment_bits(&want));
        prop_assert_eq!(list_contents(&lists), list_contents(&reference));
        for counter in ["vsa_pair_misfits", "vsa_residual_reinserts"] {
            prop_assert_eq!(got_trace.counter(counter), want_trace.counter(counter));
        }
    }
}

/// The sweep that visits only the entry nodes' root paths against the scan
/// of every level, on random networks — K = 2, 3 and 8, rendezvous
/// thresholds from pairing everywhere to pairing at the root only, and
/// churned trees whose recycled slots no longer follow the tree's shape.
/// Everything it returns and records must be identical.
#[test]
fn sparse_vsa_sweep_matches_level_scan() {
    use crate::vsa::reference_run_vsa;
    for seed in 0..12u64 {
        let (mut net, _, mut rng) = setup(40, 4, 900 + seed);
        let k = [2usize, 3, 8][seed as usize % 3];
        let mut tree = KTree::build(&net, k);
        if seed % 2 == 1 {
            for p in net.alive_peers().into_iter().take(10) {
                net.crash_peer(p);
            }
            for _ in 0..8 {
                net.join_peer(3, &mut rng);
            }
            tree.maintain_until_stable(&net, 256);
        }
        let loads = LoadState::generate(
            &net,
            &CapacityProfile::gnutella(),
            &LoadModel::gaussian(1_000_000.0, 10_000.0),
            &mut rng,
        );
        let params = ClassifyParams::default();
        let system = loads.totals(&net);
        let classification = Classification::compute(&net, &loads, &params, system, 1);
        let shed = shed_candidates(&net, &loads, &params, &classification, 1);
        let light = light_slots(&net, &loads, &params, &classification, 1);
        let inputs = reports::ignorant_inputs(&net, &tree, &shed, &light, &mut rng);
        assert!(!inputs.is_empty());
        for threshold in [1usize, 4, 30, usize::MAX] {
            let vsa_params = VsaParams {
                rendezvous_threshold: threshold,
                l_min: system.min_vs_load,
            };
            let (mut got_trace, mut want_trace) = (Trace::enabled(""), Trace::enabled(""));
            let got = run_vsa(&tree, inputs.clone(), &vsa_params, &mut got_trace);
            let want = reference_run_vsa(&tree, inputs.clone(), &vsa_params, &mut want_trace);
            let at = format!("seed {seed}, k {k}, threshold {threshold}");
            assert_eq!(
                assignment_bits(&got.assignments),
                assignment_bits(&want.assignments),
                "{at}"
            );
            assert_eq!(
                list_contents(&got.unassigned),
                list_contents(&want.unassigned),
                "{at}"
            );
            assert_eq!(got.rounds, want.rounds, "{at}");
            assert_eq!(got.rendezvous_points, want.rendezvous_points, "{at}");
            assert_eq!(
                got.assignments_per_depth, want.assignments_per_depth,
                "{at}"
            );
            assert_eq!(got.record_hops, want.record_hops, "{at}");
            assert_eq!(
                got_trace.counters().collect::<Vec<_>>(),
                want_trace.counters().collect::<Vec<_>>(),
                "{at}"
            );
            assert_eq!(
                format!("{:?}", got_trace.histograms().collect::<Vec<_>>()),
                format!("{:?}", want_trace.histograms().collect::<Vec<_>>()),
                "{at}"
            );
        }
    }
}

// ---------------------------------------------------------------- full runs

#[test]
fn balancer_eliminates_heavy_nodes_gaussian() {
    let (mut net, mut loads, mut rng) = setup(128, 5, 10);
    let balancer = LoadBalancer::new(BalancerConfig::default());
    let report = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
    let heavy_before = report.before[&NodeClass::Heavy];
    assert!(heavy_before > 0, "workload should create heavy nodes");
    // The paper: "all heavy nodes become light by transferring excess loads"
    // — allow a tiny residue for unplaceable leftovers.
    assert!(
        report.heavy_after() * 20 <= heavy_before,
        "heavy {} -> {}",
        heavy_before,
        report.heavy_after()
    );
    net.check_invariants().unwrap();
}

#[test]
fn balancer_eliminates_heavy_nodes_pareto() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = ChordNetwork::new();
    for _ in 0..128 {
        net.join_peer(5, &mut rng);
    }
    let mut loads = LoadState::generate(
        &net,
        &CapacityProfile::gnutella(),
        &LoadModel::pareto(1_000_000.0),
        &mut rng,
    );
    let balancer = LoadBalancer::new(BalancerConfig::default());
    let report = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
    let heavy_before = report.before[&NodeClass::Heavy];
    assert!(heavy_before > 0);
    assert!(report.heavy_after() * 10 <= heavy_before);
}

#[test]
fn balancer_conserves_total_load() {
    let (mut net, mut loads, mut rng) = setup(64, 5, 12);
    let before = loads.totals(&net).load;
    let balancer = LoadBalancer::new(BalancerConfig::default());
    let _ = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
    let after = loads.totals(&net).load;
    assert!(
        (before - after).abs() < 1e-6 * before,
        "load must be conserved: {before} -> {after}"
    );
}

#[test]
fn balancer_no_node_exceeds_target_after_run() {
    let (mut net, mut loads, mut rng) = setup(96, 5, 13);
    let balancer = LoadBalancer::new(BalancerConfig::default());
    let report = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
    let params = ClassifyParams {
        epsilon: balancer.config().epsilon,
    };
    // Receiving nodes must never be pushed above their targets.
    for t in &report.transfers {
        let p = t.assignment.to;
        let load = loads.node_load(&net, p);
        let target = params.target(loads.capacity(p), &report.system);
        assert!(
            load <= target + 1e-6 * target.max(1.0),
            "receiver {p:?} overfilled: {load} > {target}"
        );
    }
}

#[test]
fn balancer_rounds_are_logarithmic() {
    for k in [2usize, 8] {
        let (mut net, mut loads, mut rng) = setup(256, 5, 14);
        let balancer = LoadBalancer::new(BalancerConfig {
            k,
            ..BalancerConfig::default()
        });
        let report = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
        let m = net.alive_vs_count() as f64;
        let bound = (2.0 * m.log(k as f64)).ceil() as u32 + 6;
        assert!(
            report.lbi_rounds <= bound,
            "k={k} lbi {}",
            report.lbi_rounds
        );
        assert!(
            report.vsa.rounds <= bound,
            "k={k} vsa {}",
            report.vsa.rounds
        );
    }
}

#[test]
fn balancer_aligns_load_with_capacity() {
    let (mut net, mut loads, mut rng) = setup(256, 5, 15);
    let balancer = LoadBalancer::new(BalancerConfig::default());
    let _ = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
    // Average load per capacity class must increase with capacity (Figures
    // 5/6: higher-capacity nodes carry more load).
    let mut per_class: HashMap<usize, (f64, usize)> = HashMap::new();
    for p in net.alive_peers() {
        let class = loads.class(p).unwrap().0;
        let e = per_class.entry(class).or_insert((0.0, 0));
        e.0 += loads.node_load(&net, p);
        e.1 += 1;
    }
    let mut avgs: Vec<(usize, f64)> = per_class
        .into_iter()
        .filter(|(_, (_, n))| *n > 0)
        .map(|(c, (sum, n))| (c, sum / n as f64))
        .collect();
    avgs.sort_by_key(|&(c, _)| c);
    for w in avgs.windows(2) {
        assert!(
            w[1].1 > w[0].1,
            "class {} avg {} should exceed class {} avg {}",
            w[1].0,
            w[1].1,
            w[0].0,
            w[0].1
        );
    }
}

#[test]
fn shed_candidates_only_from_heavy_nodes() {
    let (net, loads, _) = setup(64, 5, 16);
    let params = ClassifyParams::default();
    let system = loads.totals(&net);
    let classification = Classification::compute(&net, &loads, &params, system, 1);
    let shed = shed_candidates(&net, &loads, &params, &classification, 1);
    for c in &shed {
        assert_eq!(classification.class_of(c.from), Some(NodeClass::Heavy));
    }
    let light = light_slots(&net, &loads, &params, &classification, 1);
    for s in &light {
        assert_eq!(classification.class_of(s.peer), Some(NodeClass::Light));
    }
}

#[test]
fn shed_candidates_reduce_node_to_target() {
    let (net, loads, _) = setup(64, 5, 17);
    let params = ClassifyParams::default();
    let system = loads.totals(&net);
    let classification = Classification::compute(&net, &loads, &params, system, 1);
    let shed = shed_candidates(&net, &loads, &params, &classification, 1);
    for cands in reports::shed_sets(&shed) {
        let p = cands[0].from;
        let node = loads.node_lbi(&net, p);
        let shed_total: f64 = cands.iter().map(|c| c.load).sum();
        let target = params.target(node.capacity, &system);
        let total_vs: f64 = net.vss_of(p).iter().map(|&v| loads.vs_load(v)).sum();
        // Either the node reaches target, or it sheds everything it has.
        assert!(
            node.load - shed_total <= target + 1e-9 || shed_total >= total_vs - 1e-9,
            "{p:?} sheds too little"
        );
    }
}

// ---------------------------------------------------------------- report kernels

/// Enough peers for the per-peer sweeps to cross a chunk boundary (the
/// chunk is 8,192 peers; every other test stays inside the first one).
const MULTI_CHUNK_PEERS: usize = 20_000;

/// The report kernels against the maps they replaced over more than two
/// chunks of peers, at 1, 2 and 8 threads.
#[test]
fn report_kernels_agree_with_the_serial_fold_across_chunks() {
    let (net, loads, _) = setup(MULTI_CHUNK_PEERS, 1, 61);
    let params = ClassifyParams::default();
    let system = loads.totals(&net);
    let classification = Classification::compute(&net, &loads, &params, system, 1);
    for class in [NodeClass::Heavy, NodeClass::Light] {
        assert!(classification.count_of(class) > 0, "no {class:?} peer");
    }
    assert_round_state_matches_references(&net, &loads, &params, system, &[1, 2, 8]);
}

/// `proximity_inputs` over more than one chunk of participants: the same
/// records in the same order at every entry node, at any thread count.
#[test]
fn proximity_inputs_agree_with_the_serial_fold_across_chunks() {
    use crate::reports::proximity_inputs;
    use proxbal_topology::{
        select_landmarks, DistanceOracle, TransitStubConfig, TransitStubTopology,
    };
    let (mut net, loads, mut rng) = setup(MULTI_CHUNK_PEERS, 1, 62);
    let topo = TransitStubTopology::generate(TransitStubConfig::tiny(), &mut rng);
    let landmarks = select_landmarks(&topo, 4, &mut rng);
    let oracle = DistanceOracle::for_topology(&topo, 0);
    let stubs = topo.stub_nodes();
    for (i, p) in net.alive_peers().into_iter().enumerate() {
        net.attach(p, stubs[i % stubs.len()]);
    }
    let tree = KTree::build(&net, 2);
    let params = ClassifyParams::default();
    let classification = Classification::compute(&net, &loads, &params, loads.totals(&net), 1);
    let shed = shed_candidates(&net, &loads, &params, &classification, 1);
    let light = light_slots(&net, &loads, &params, &classification, 1);
    assert!(shed.len() + light.len() > 8192);
    let published = |threads| {
        let inputs = proximity_inputs(
            &net,
            &tree,
            &shed,
            &light,
            &ProximityParams::default(),
            &oracle,
            &landmarks,
            threads,
        )
        .unwrap();
        inputs
            .iter()
            .map(|(id, lists)| (*id, lists.shed().to_vec(), lists.light().to_vec()))
            .collect::<Vec<_>>()
    };
    let serial = published(1);
    assert!(!serial.is_empty());
    for threads in [2, 8] {
        assert_eq!(published(threads), serial, "{threads} threads");
    }
    // Against one ring search, one root descent and one sorted insert per
    // participant, each participant's key looked up through its vector's.
    let shedding = reports::shed_sets(&shed).map(|set| set[0].from);
    let participants: Vec<PeerId> = shedding.chain(light.iter().map(|s| s.peer)).collect();
    let (keys, key_of) = reports::dht_keys(
        &net,
        &participants,
        &ProximityParams::default(),
        &oracle,
        &landmarks,
        1,
    )
    .unwrap();
    assert!(
        keys.len() < participants.len(),
        "no two participants share a landmark vector"
    );
    let keys: Vec<u32> = key_of.iter().map(|&k| keys[k as usize]).collect();
    let targets = reports::reference_key_targets(&net, &tree, &keys);
    let reference = crate::pairing::reference_publish(&shed, &light, &targets);
    let reference: Vec<_> = reference
        .iter()
        .map(|(id, lists)| (*id, lists.shed().to_vec(), lists.light().to_vec()))
        .collect();
    assert_eq!(serial, reference);
}

/// The entry node of every DHT key — all found in one path-sharing descent
/// in ring order — against one root descent per key, over more than one
/// chunk of keys: keys past the last ring position (they wrap to the first
/// virtual server), keys on and next to ring positions, repeats.
#[test]
fn key_targets_match_one_owner_search_and_descent_per_key() {
    use crate::reports::{key_targets, reference_key_targets};
    let (net, _, mut rng) = setup(4_000, 5, 63);
    let tree = KTree::build(&net, 2);
    let positions: Vec<u32> = net.ring().iter().map(|(pos, _)| pos.raw()).collect();
    let (first, last) = (positions[0], positions[positions.len() - 1]);
    let mut keys: Vec<u32> = (0..MULTI_CHUNK_PEERS).map(|_| rng.gen()).collect();
    keys.extend([
        0,
        u32::MAX,
        first,
        first.wrapping_sub(1),
        last,
        last.saturating_add(1),
    ]);
    keys.extend(
        positions
            .iter()
            .step_by(97)
            .flat_map(|&p| [p, p.wrapping_add(1)]),
    );
    keys.extend_from_within(..500);
    assert!(keys.iter().filter(|&&k| k > last).count() > 1);
    assert_eq!(
        key_targets(&net, &tree, &keys).unwrap(),
        reference_key_targets(&net, &tree, &keys)
    );
    assert!(key_targets(&net, &tree, &[]).unwrap().is_empty());
}

/// `run_round`'s report bindings — one path-sharing descent over the bound
/// virtual servers, the root for a peer hosting none — against one root
/// descent per peer, over more than one chunk of peers: the aggregated
/// system LBI (merged per entry node in peer order) and the LBI message
/// count must be what per-peer `report_target` gives, every peer sent.
#[test]
fn run_round_report_bindings_match_one_descent_per_peer() {
    use rand::seq::SliceRandom;
    let (mut net, mut loads, mut rng) = setup(MULTI_CHUNK_PEERS / 2, 2, 64);
    // Every seventh peer hands its virtual servers away and reports at the
    // root.
    for p in net.alive_peers().into_iter().step_by(7) {
        for v in net.vss_of(p).to_vec() {
            net.drop_vs(v);
            loads.set_vs_load(v, 0.0);
        }
    }
    let mut tree = KTree::build(&net, 2);
    let peers = net.alive_peers();
    assert!(peers.len() > 8192);
    assert!(peers.iter().any(|&p| net.vss_of(p).is_empty()));
    // A cold round draws one reporting virtual server per peer, in order.
    let mut draws = rng.clone();
    let chosen: Vec<Option<VsId>> = peers
        .iter()
        .map(|&p| net.vss_of(p).choose(&mut draws).copied())
        .collect();
    let seeds: Vec<_> = chosen
        .iter()
        .map(|vs| vs.map_or(tree.root(), |vs| tree.report_target(&net, vs)))
        .collect();
    assert_eq!(
        crate::reports::entry_nodes(&net, &tree, chosen.iter().copied()),
        seeds
    );
    let mut inputs: std::collections::BTreeMap<_, Lbi> = std::collections::BTreeMap::new();
    for (&p, &target) in peers.iter().zip(&seeds) {
        let lbi = loads.node_lbi(&net, p);
        match inputs.get_mut(&target) {
            Some(acc) => proxbal_ktree::Merge::merge(acc, lbi),
            None => {
                inputs.insert(target, lbi);
            }
        }
    }
    let inputs: Vec<_> = inputs
        .into_iter()
        .map(|(at, value)| proxbal_ktree::AggregateInput {
            at,
            value,
            sent: true,
        })
        .collect();
    let walked = tree.aggregate(&net, &inputs, 1);
    let (want, want_messages) = (walked.root_value.unwrap(), walked.sent_messages);
    let report = LoadBalancer::new(BalancerConfig::default())
        .with_threads(2)
        .run_round(
            &mut net,
            &mut loads,
            &mut tree,
            None,
            &mut RoundCache::new(),
            &DirtySet::All,
            &mut rng,
            &mut Trace::disabled(),
            &mut RoundWalls::default(),
        )
        .unwrap();
    let bits = |l: &Lbi| {
        (
            l.load.to_bits(),
            l.capacity.to_bits(),
            l.min_vs_load.to_bits(),
        )
    };
    assert_eq!(bits(&report.system), bits(&want));
    assert_eq!(report.messages.lbi_messages, want_messages);
}

/// Classes, shed sets and light slots at every thread count of `threads`
/// against the maps they replaced: a class per alive peer, class counts,
/// peers per class, and every heavy peer's candidates and every light
/// peer's slot, in peer order.
fn assert_round_state_matches_references(
    net: &ChordNetwork,
    loads: &LoadState,
    params: &ClassifyParams,
    system: Lbi,
    threads: &[usize],
) {
    use reports::{reference_classes, reference_light_slots, reference_shed_candidates};
    let classes = reference_classes(net, loads, params, system);
    let shed: Vec<ShedCandidate> = reference_shed_candidates(net, loads, params, &classes, &system)
        .into_values()
        .flatten()
        .collect();
    let light: Vec<LightSlot> = reference_light_slots(net, loads, params, &classes, &system)
        .into_values()
        .collect();
    let mut counts: HashMap<NodeClass, usize> = HashMap::new();
    for &class in classes.values() {
        *counts.entry(class).or_insert(0) += 1;
    }
    for &t in threads {
        let got = Classification::compute(net, loads, params, system, t);
        assert_eq!(got.peers(), net.alive_peers(), "{t} threads");
        assert_eq!(got.peers().len(), classes.len());
        for (p, &class) in got.peers().iter().zip(got.classes()) {
            assert_eq!(classes.get(p), Some(&class), "{p:?}, {t} threads");
            assert_eq!(got.class_of(*p), Some(class));
        }
        assert_eq!(got.class_counts(), counts);
        for class in [NodeClass::Heavy, NodeClass::Light, NodeClass::Neutral] {
            let mut want: Vec<PeerId> = classes
                .iter()
                .filter(|&(_, &c)| c == class)
                .map(|(&p, _)| p)
                .collect();
            want.sort_unstable();
            assert_eq!(got.count_of(class), want.len());
            assert_eq!(got.peers_of(class), want);
        }
        assert_eq!(
            shed_candidates(net, loads, params, &got, t),
            shed,
            "{t} threads"
        );
        assert_eq!(
            light_slots(net, loads, params, &got, t),
            light,
            "{t} threads"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The peer-indexed round state against the maps it replaced, on
    /// churned networks holding dead peers, newcomers and peers with no
    /// virtual server: classes and shed/light lists at 1, 2 and 8 threads,
    /// then the report bindings over five rounds with random dirty sets and
    /// churn between them (crashes, moved and dropped virtual servers,
    /// joins, forgotten peers) — the same decisions, the same bindings and
    /// the same randomness consumed.
    #[test]
    fn prop_round_state_matches_map_references(
        seed in 0u64..100_000,
        peers in 8usize..96,
        vs in 1usize..5,
    ) {
        use crate::round::reference_bind;
        let (mut net, mut loads, mut rng) = setup(peers, vs, seed);
        for p in net.alive_peers().into_iter().step_by(5) {
            net.crash_peer(p);
        }
        for _ in 0..3 {
            let p = net.join_peer(vs, &mut rng);
            loads.set_capacity(p, 10.0);
        }
        let emptied = net.alive_peers()[0];
        for v in net.vss_of(emptied).to_vec() {
            net.drop_vs(v);
        }
        let params = ClassifyParams::default();
        let system = loads.totals(&net);
        assert_round_state_matches_references(&net, &loads, &params, system, &[1, 2, 8]);

        let (mut cache, mut reference) = (RoundCache::new(), std::collections::BTreeMap::new());
        for round in 0..5 {
            let alive = net.alive_peers();
            let dirty = match round {
                0 => DirtySet::All,
                _ => DirtySet::Peers(
                    alive.iter().copied().filter(|_| rng.gen_range(0..3) == 0).collect(),
                ),
            };
            let mut want_rng = rng.clone();
            let got = cache.bind(&net, &alive, &dirty, &mut rng);
            let want = reference_bind(&mut reference, &net, &dirty, &mut want_rng);
            prop_assert_eq!(got, want, "round {}", round);
            prop_assert_eq!(cache.bindings(), reference.clone());
            prop_assert_eq!(cache.len(), reference.len());
            prop_assert_eq!(cache.is_empty(), reference.is_empty());
            prop_assert_eq!(rng.gen::<u64>(), want_rng.gen::<u64>());
            let pick = |rng: &mut StdRng| alive[rng.gen_range(0..alive.len())];
            match round % 4 {
                0 => net.crash_peer(pick(&mut rng)),
                1 => {
                    let (p, q) = (pick(&mut rng), pick(&mut rng));
                    if let (Some(&v), true) = (net.vss_of(p).first(), p != q) {
                        net.transfer_vs(v, q);
                    }
                }
                2 => {
                    if let Some(&v) = net.vss_of(pick(&mut rng)).first() {
                        net.drop_vs(v);
                    }
                }
                _ => {
                    net.join_peer(vs, &mut rng);
                    let p = pick(&mut rng);
                    cache.forget(p);
                    reference.remove(&p);
                }
            }
        }
    }
}

/// An alive peer without a capacity — one that joined after the load state
/// was generated — is a typed error naming the first such peer, raised
/// before the round touches the network, the loads, the cache, the
/// randomness or the trace.
#[test]
fn run_round_without_capacity_is_typed_error_and_touches_nothing() {
    let (mut net, mut loads, mut rng) = setup(32, 3, 29);
    let mut tree = KTree::build(&net, 2);
    let balancer = LoadBalancer::new(BalancerConfig::default());
    let mut cache = RoundCache::new();
    let round = |net: &mut ChordNetwork,
                 loads: &mut LoadState,
                 tree: &mut KTree,
                 cache: &mut RoundCache,
                 rng: &mut StdRng,
                 trace: &mut Trace| {
        balancer.run_round(
            net,
            loads,
            tree,
            None,
            cache,
            &DirtySet::All,
            rng,
            trace,
            &mut RoundWalls::default(),
        )
    };
    let warm = &mut Trace::disabled();
    round(&mut net, &mut loads, &mut tree, &mut cache, &mut rng, warm).unwrap();
    assert!(!cache.is_empty());
    let newcomers = [net.join_peer(3, &mut rng), net.join_peer(3, &mut rng)];
    let net_before = format!("{net:?}");
    let loads_before = format!("{loads:?}");
    let (bindings_before, mut rng_before) = (cache.bindings(), rng.clone());
    let mut trace = Trace::enabled("");
    let err = round(
        &mut net, &mut loads, &mut tree, &mut cache, &mut rng, &mut trace,
    )
    .unwrap_err();
    assert_eq!(err, Error::MissingCapacity(newcomers[0]));
    assert_eq!(
        err.to_string(),
        format!("peer {:?} has no capacity", newcomers[0])
    );
    assert_eq!(format!("{net:?}"), net_before);
    assert_eq!(format!("{loads:?}"), loads_before);
    assert_eq!(cache.bindings(), bindings_before);
    assert_eq!(rng.gen::<u64>(), rng_before.gen::<u64>());
    assert_eq!(trace.event_count(), 0);
    // With capacities the same network balances.
    for p in newcomers {
        loads.set_capacity(p, 10.0);
    }
    round(
        &mut net, &mut loads, &mut tree, &mut cache, &mut rng, &mut trace,
    )
    .unwrap();
}

// ---------------------------------------------------------------- baselines

#[test]
fn cfs_baseline_thrashes_or_converges() {
    let (mut net, mut loads, _) = setup(96, 5, 18);
    let params = ClassifyParams::default();
    let outcome = cfs_shed(&mut net, &mut loads, &params, 20);
    net.check_invariants().unwrap();
    // The run must have done *something*.
    let total_dropped: usize = outcome.dropped_per_round.iter().sum();
    assert!(total_dropped > 0);
    // Either it converged, or thrashing was observed (usually both effects
    // appear; this documents the failure mode the paper criticizes).
    assert!(outcome.converged || outcome.thrash_events > 0);
}

#[test]
fn cfs_never_strands_a_peer_without_vss() {
    let (mut net, mut loads, _) = setup(48, 2, 19);
    let params = ClassifyParams::strict();
    let _ = cfs_shed(&mut net, &mut loads, &params, 30);
    for p in net.alive_peers() {
        assert!(
            !net.vss_of(p).is_empty(),
            "{p:?} lost all its virtual servers"
        );
    }
}

#[test]
fn random_matching_produces_valid_assignments() {
    let (net, loads, mut rng) = setup(96, 5, 20);
    let params = ClassifyParams::default();
    let assignments = random_matching(&net, &loads, &params, &mut rng);
    assert!(!assignments.is_empty());
    let system = loads.totals(&net);
    // Receivers not overfilled.
    let mut received: HashMap<PeerId, f64> = HashMap::new();
    for a in &assignments {
        *received.entry(a.to).or_insert(0.0) += a.load;
    }
    for (p, got) in received {
        let node = loads.node_lbi(&net, p);
        let spare = params.spare(&node, &system);
        assert!(got <= spare + 1e-9, "{p:?} overfilled");
    }
    // Each VS assigned at most once.
    let mut seen = std::collections::HashSet::new();
    for a in &assignments {
        assert!(seen.insert(a.vs));
    }
}

#[test]
fn execute_transfers_skips_stale_assignments() {
    let (mut net, mut loads, mut rng) = setup(16, 3, 21);
    let params = ClassifyParams::default();
    let assignments = random_matching(&net, &loads, &params, &mut rng);
    assert!(!assignments.is_empty());
    // Crash the source of the first assignment: it must be skipped.
    let victim = assignments[0].from;
    net.crash_peer(victim);
    let before = net.alive_vs_count();
    let records = execute_transfers(
        &mut net,
        &mut loads,
        &assignments,
        None,
        1,
        &mut Trace::disabled(),
    )
    .unwrap();
    assert!(records.iter().all(|r| r.assignment.from != victim));
    assert_eq!(net.alive_vs_count(), before);
    net.check_invariants().unwrap();
}

#[test]
fn execute_transfers_unattached_peer_is_typed_error() {
    use proxbal_topology::{DistanceOracle, TransitStubConfig, TransitStubTopology};
    use std::sync::Arc;
    let (mut net, mut loads, mut rng) = setup(16, 3, 23);
    let params = ClassifyParams::default();
    let assignments = random_matching(&net, &loads, &params, &mut rng);
    assert!(!assignments.is_empty());
    // An oracle is supplied but no peer was ever attached to the underlay:
    // the distance is undefined, and the run must say so instead of
    // asserting.
    let topo = TransitStubTopology::generate(TransitStubConfig::tiny(), &mut rng);
    let oracle = DistanceOracle::new(Arc::new(topo.graph));
    let err = execute_transfers(
        &mut net,
        &mut loads,
        &assignments,
        Some(crate::transfer::TransferDistances::Exact(&oracle)),
        1,
        &mut Trace::disabled(),
    )
    .unwrap_err();
    assert!(matches!(err, Error::UnattachedPeer(_)));
}

#[test]
fn execute_transfers_unattached_receiver_leaves_overlay_untouched() {
    use proxbal_topology::{DistanceOracle, TransitStubConfig, TransitStubTopology};
    let (mut net, mut loads, mut rng) = setup(32, 3, 25);
    let params = ClassifyParams::default();
    let assignments = random_matching(&net, &loads, &params, &mut rng);
    assert!(assignments.len() >= 2);
    // Everyone is attached except the receiver of the *last* assignment,
    // so every earlier transfer is executable when the error is found.
    let topo = TransitStubTopology::generate(TransitStubConfig::tiny(), &mut rng);
    let stubs = topo.stub_nodes();
    let orphan = assignments.last().unwrap().to;
    assert!(assignments[0].to != orphan && assignments[0].from != orphan);
    for (i, p) in net.alive_peers().into_iter().enumerate() {
        if p != orphan {
            net.attach(p, stubs[i % stubs.len()]);
        }
    }
    let oracle = DistanceOracle::for_topology(&topo, 0);
    let hosts = |net: &ChordNetwork| -> Vec<(VsId, PeerId)> {
        net.ring()
            .iter()
            .map(|(_, v)| (v, net.vs(v).host))
            .collect()
    };
    let peer_loads = |net: &ChordNetwork, loads: &LoadState| -> Vec<f64> {
        net.alive_peers()
            .into_iter()
            .map(|p| loads.node_lbi(net, p).load)
            .collect()
    };
    let (hosts_before, loads_before) = (hosts(&net), peer_loads(&net, &loads));
    let err = execute_transfers(
        &mut net,
        &mut loads,
        &assignments,
        Some(crate::transfer::TransferDistances::Exact(&oracle)),
        1,
        &mut Trace::disabled(),
    )
    .unwrap_err();
    assert_eq!(err, Error::UnattachedPeer(orphan));
    assert_eq!(hosts(&net), hosts_before, "a transfer was applied");
    assert_eq!(peer_loads(&net, &loads), loads_before);
    net.check_invariants().unwrap();
}

/// The ts5k-small topology the transfer-distance tests attach to, generated
/// once.
fn ts5k_small() -> std::sync::Arc<proxbal_topology::TransitStubTopology> {
    use proxbal_topology::{TransitStubConfig, TransitStubTopology};
    use std::sync::{Arc, OnceLock};
    static TOPO: OnceLock<Arc<TransitStubTopology>> = OnceLock::new();
    TOPO.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(5);
        Arc::new(TransitStubTopology::generate(
            TransitStubConfig::ts5k_small(),
            &mut rng,
        ))
    })
    .clone()
}

/// A churned network on ts5k-small and an assignment set that takes every
/// path of the transfer resolve: `peers` peers on the first `width` stub
/// nodes (a few ⇒ repeated endpoint pairs and pairs on one node), some of
/// them crashed; three quarters of the virtual servers assigned to random
/// peers, dead ones among them, in random order; every seventh assignment
/// made stale by moving its virtual server away; one receiver crashed after
/// the assignments were made; with `orphan`, one endpoint detached from the
/// underlay.
fn transfer_fixture(
    seed: u64,
    peers: usize,
    width: usize,
    orphan: bool,
) -> (ChordNetwork, LoadState, Vec<Assignment>) {
    use rand::seq::SliceRandom;
    let topo = ts5k_small();
    let (mut net, loads, mut rng) = setup(peers, 3, seed);
    let stubs = topo.stub_nodes();
    let width = width.clamp(1, stubs.len());
    for p in net.alive_peers() {
        net.attach(p, stubs[rng.gen_range(0..width)]);
    }
    for p in net.alive_peers().into_iter().step_by(11) {
        net.crash_peer(p);
    }
    let vss: Vec<VsId> = net.ring().iter().map(|(_, v)| v).collect();
    let mut assignments = Vec::new();
    for v in vss {
        let from = net.vs(v).host;
        let to = PeerId(rng.gen_range(0..net.peer_count() as u32));
        if to != from && rng.gen_range(0..4) != 0 {
            let load = loads.vs_load(v);
            assignments.push(Assignment {
                vs: v,
                load,
                from,
                to,
            });
        }
    }
    assignments.shuffle(&mut rng);
    let alive = net.alive_peers();
    for a in assignments.iter().step_by(7) {
        let to = alive[rng.gen_range(0..alive.len())];
        if to != a.from && net.vs(a.vs).alive {
            net.transfer_vs(a.vs, to);
        }
    }
    if let Some(a) = assignments
        .iter()
        .skip(3)
        .find(|a| net.peer(a.to).state == PeerState::Alive)
    {
        net.crash_peer(a.to);
    }
    if orphan {
        if let Some(a) = assignments.get(assignments.len() / 2) {
            net.attach(a.to, u32::MAX);
        }
    }
    (net, loads, assignments)
}

/// `(virtual server, host)` of every virtual server on the ring.
fn ring_hosts(net: &ChordNetwork) -> Vec<(VsId, PeerId)> {
    net.ring()
        .iter()
        .map(|(_, v)| (v, net.vs(v).host))
        .collect()
}

/// The approximate scheme's memo as `transfer::pair_distances` replaced
/// it, kept as its differential reference: the landmark filter over the
/// distinct endpoint `pairs` into a hash map, then one full Dijkstra row per
/// chosen source, filled in batches of half the oracle's row-cache capacity
/// on `threads` workers.
fn reference_pair_distances_approx(
    pairs: &[(u32, u32)],
    oracle: &proxbal_topology::DistanceOracle,
    landmarks: &proxbal_topology::LandmarkOracle,
    refine_sources: usize,
    threads: usize,
) -> HashMap<(u32, u32), u32> {
    let mut memo = HashMap::with_capacity(pairs.len());
    let mut uncertain: Vec<(u32, u32)> = Vec::new();
    for &(f, t) in pairs {
        let (lo, hi) = landmarks.bounds(f, t);
        if lo == hi {
            memo.insert((f, t), hi);
        } else {
            uncertain.push((f, t));
        }
    }
    if !uncertain.is_empty() && refine_sources > 0 {
        let mut froms: Vec<u32> = uncertain.iter().map(|&(f, _)| f).collect();
        let mut tos: Vec<u32> = uncertain.iter().map(|&(_, t)| t).collect();
        froms.sort_unstable();
        froms.dedup();
        tos.sort_unstable();
        tos.dedup();
        let by_to = tos.len() <= froms.len();
        let mut by_src: std::collections::BTreeMap<u32, Vec<u32>> =
            std::collections::BTreeMap::new();
        for &(f, t) in &uncertain {
            let (src, other) = if by_to { (t, f) } else { (f, t) };
            by_src.entry(src).or_default().push(other);
        }
        let mut ranked: Vec<(u32, usize)> = by_src.iter().map(|(&s, v)| (s, v.len())).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut chosen: Vec<u32> = ranked
            .iter()
            .take(refine_sources)
            .map(|&(s, _)| s)
            .collect();
        chosen.sort_unstable();
        let batch = match oracle.capacity() {
            0 => chosen.len().max(1),
            cap => (cap / 2).max(1),
        };
        for chunk in chosen.chunks(batch) {
            oracle.precompute(chunk, threads);
            for &src in chunk {
                let row = oracle.row(src);
                for &other in &by_src[&src] {
                    let (f, t) = if by_to { (other, src) } else { (src, other) };
                    memo.insert((f, t), row.get(other as usize));
                }
            }
        }
    }
    for (f, t) in uncertain {
        memo.entry((f, t))
            .or_insert_with(|| landmarks.bounds(f, t).1);
    }
    memo
}

/// `execute_transfers`' resolve step as it was, kept as its reference: the
/// approximate scheme memoizes the distinct endpoint pairs of the
/// executable assignments ([`reference_pair_distances_approx`]), then every
/// executable assignment, in order, checks both attachments and probes the
/// memo (the exact scheme asks the oracle once per assignment). Returns
/// the records `execute_transfers` must apply, touching nothing.
fn reference_transfer_records(
    net: &ChordNetwork,
    assignments: &[Assignment],
    distances: Option<TransferDistances<'_>>,
    threads: usize,
) -> Result<Vec<TransferRecord>, Error> {
    use crate::transfer::attachment;
    let executable = |a: &Assignment| {
        let vs = net.vs(a.vs);
        vs.alive && vs.host == a.from && net.peer(a.to).state == PeerState::Alive
    };
    let memo = match distances {
        Some(TransferDistances::Approx {
            oracle,
            landmarks,
            refine_sources,
        }) => {
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            for a in assignments.iter().filter(|a| executable(a)) {
                if let (Ok(f), Ok(t)) = (attachment(net, a.from), attachment(net, a.to)) {
                    pairs.push((f, t));
                }
            }
            pairs.sort_unstable();
            pairs.dedup();
            reference_pair_distances_approx(&pairs, oracle, landmarks, refine_sources, threads)
        }
        _ => HashMap::new(),
    };
    let mut out = Vec::new();
    for &a in assignments.iter().filter(|a| executable(a)) {
        let distance = match distances {
            Some(d) => {
                let from = attachment(net, a.from)?;
                let to = attachment(net, a.to)?;
                Some(match d {
                    TransferDistances::Exact(o) => o.distance(from, to),
                    TransferDistances::Approx { landmarks, .. } => memo
                        .get(&(from, to))
                        .copied()
                        .unwrap_or_else(|| landmarks.estimate(from, to)),
                })
            }
            None => None,
        };
        out.push(TransferRecord {
            assignment: a,
            distance,
        });
    }
    Ok(out)
}

/// `execute_transfers` at `threads` on a copy of `net` against the
/// reference records `want`: the same records (or the same first error),
/// the same overlay afterwards — `want` applied, or nothing on an error —
/// and the same VST counters.
fn assert_transfers_match(
    net: &ChordNetwork,
    loads: &LoadState,
    assignments: &[Assignment],
    distances: Option<TransferDistances<'_>>,
    threads: usize,
    want: &Result<Vec<TransferRecord>, Error>,
) -> Trace {
    let (mut got_net, mut got_loads) = (net.clone(), loads.clone());
    let mut trace = Trace::enabled("");
    let got = execute_transfers(
        &mut got_net,
        &mut got_loads,
        assignments,
        distances,
        threads,
        &mut trace,
    );
    assert_eq!(&got, want, "{threads} threads");
    let mut want_net = net.clone();
    for r in want.iter().flatten() {
        want_net.transfer_vs(r.assignment.vs, r.assignment.to);
    }
    assert_eq!(
        ring_hosts(&got_net),
        ring_hosts(&want_net),
        "{threads} threads"
    );
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sorted-key resolve against the hash-memo one: the same records
    /// in the same order, or the same first `UnattachedPeer` with the
    /// overlay untouched — over repeated endpoint pairs and pairs on one
    /// node, stale assignments (moved virtual servers, dead receivers) on
    /// churned networks, without distances, exactly, and approximately
    /// with `refine_sources` ∈ {0, 1, k, ∞} through an indexed and an
    /// evicting row oracle (the reference refines through full rows), at 1,
    /// 2 and 8 threads; the VST counters agree across thread counts.
    #[test]
    fn prop_transfer_records_match_hash_memo_reference(
        seed in 0u64..100_000,
        peers in 24usize..160,
        landmark_count in 1usize..5,
        narrow: bool,
        orphan: bool,
        k in 2usize..24,
    ) {
        use proxbal_topology::{select_landmarks, DistanceOracle, LandmarkOracle};
        use std::sync::Arc;
        let topo = ts5k_small();
        let width = if narrow { 6 } else { usize::MAX };
        let (net, loads, assignments) = transfer_fixture(seed, peers, width, orphan);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1A);
        let picks = select_landmarks(&topo, landmark_count, &mut rng);
        let rows = DistanceOracle::new(Arc::new(topo.graph.clone()));
        let landmarks = LandmarkOracle::build(&rows, &picks, 1);
        let indexed = DistanceOracle::for_topology(&topo, 0);
        let evicting = DistanceOracle::with_capacity(Arc::new(topo.graph.clone()), 8);
        let exact = TransferDistances::Exact(&indexed);
        let mut modes = vec![(None, None), (Some(exact), Some(exact))];
        for refine_sources in [0, 1, k, usize::MAX] {
            let approx = |oracle| TransferDistances::Approx {
                oracle,
                landmarks: &landmarks,
                refine_sources,
            };
            for oracle in [&indexed, &evicting] {
                modes.push((Some(approx(oracle)), Some(approx(&rows))));
            }
        }
        for (mode, reference) in modes {
            let want = reference_transfer_records(&net, &assignments, reference, 2);
            let serial = assert_transfers_match(&net, &loads, &assignments, mode, 1, &want);
            for threads in [2, 8] {
                let trace = assert_transfers_match(&net, &loads, &assignments, mode, threads, &want);
                prop_assert_eq!(
                    trace.counters().collect::<Vec<_>>(),
                    serial.counters().collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    format!("{:?}", trace.histograms().collect::<Vec<_>>()),
                    format!("{:?}", serial.histograms().collect::<Vec<_>>())
                );
            }
        }
        prop_assert_eq!(indexed.cache_stats().computes, 0, "the index filled a row");
    }
}

/// The same comparison over more than two chunks of assignments and more
/// than one of distinct endpoint pairs; then, with an unattached endpoint in each of two
/// chunks, the earlier one is the error at every thread count.
#[test]
fn transfer_records_match_the_reference_across_chunks() {
    use proxbal_topology::{select_landmarks, DistanceOracle, LandmarkOracle};
    let topo = ts5k_small();
    let (mut net, loads, assignments) = transfer_fixture(65, 6_000, usize::MAX, false);
    assert!(assignments.len() > 2 * 4096);
    let mut rng = StdRng::seed_from_u64(66);
    let picks = select_landmarks(&topo, 3, &mut rng);
    let oracle = DistanceOracle::for_topology(&topo, 0);
    let landmarks = LandmarkOracle::build(&oracle, &picks, 1);
    let mut modes = vec![None, Some(TransferDistances::Exact(&oracle))];
    for refine_sources in [0, 40] {
        modes.push(Some(TransferDistances::Approx {
            oracle: &oracle,
            landmarks: &landmarks,
            refine_sources,
        }));
    }
    for mode in modes {
        let want = reference_transfer_records(&net, &assignments, mode, 2);
        let records = want.as_ref().expect("every peer is attached");
        let at = |p: PeerId| net.peer(p).underlay;
        let mut pairs: Vec<_> = records
            .iter()
            .map(|r| (at(r.assignment.from), at(r.assignment.to)))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert!(pairs.len() > 4096);
        for threads in [1, 2, 8] {
            assert_transfers_match(&net, &loads, &assignments, mode, threads, &want);
        }
    }
    let executable = reference_transfer_records(&net, &assignments, None, 1).unwrap();
    let position = |r: &TransferRecord| assignments.iter().position(|a| a == &r.assignment);
    let second = executable
        .iter()
        .find(|r| position(r).unwrap() >= 4096)
        .unwrap();
    let third = executable
        .iter()
        .find(|r| position(r).unwrap() >= 2 * 4096)
        .unwrap();
    net.attach(third.assignment.from, u32::MAX);
    net.attach(second.assignment.to, u32::MAX);
    let exact = Some(TransferDistances::Exact(&oracle));
    let want = reference_transfer_records(&net, &assignments, exact, 1);
    assert!(matches!(want, Err(Error::UnattachedPeer(_))));
    for threads in [1, 2, 8] {
        assert_transfers_match(&net, &loads, &assignments, exact, threads, &want);
    }
}

#[test]
fn refinement_settles_pairs_the_landmark_filter_leaves_open() {
    // The differential property above is vacuous if the filter settles
    // everything: with two landmarks it must not, and refining must then
    // tighten some upper bound to the exact distance.
    use crate::transfer::pair_distances;
    use proxbal_topology::{select_landmarks, DistanceOracle, LandmarkOracle};
    let topo = ts5k_small();
    let (net, _, assignments) = transfer_fixture(7, 128, usize::MAX, false);
    let mut rng = StdRng::seed_from_u64(8);
    let oracle = DistanceOracle::for_topology(&topo, 0);
    let landmarks = LandmarkOracle::build(&oracle, &select_landmarks(&topo, 2, &mut rng), 1);
    let at = |p: PeerId| net.peer(p).underlay;
    let mut pairs: Vec<(u32, u32)> = assignments.iter().map(|a| (at(a.from), at(a.to))).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let approx = |refine_sources| {
        let distances = TransferDistances::Approx {
            oracle: &oracle,
            landmarks: &landmarks,
            refine_sources,
        };
        pair_distances(&pairs, distances, 1)
    };
    let (bounds_only, one, all) = (approx(0), approx(1), approx(usize::MAX));
    let tightened = |d: &[u32]| d.iter().zip(&bounds_only).filter(|(d, b)| b > d).count();
    assert!(tightened(&one) > 0, "no pair was uncertain");
    assert!(tightened(&all) >= tightened(&one));
    for (&(f, t), &d) in pairs.iter().zip(&all) {
        assert_eq!(
            d,
            oracle.distance(f, t),
            "refined pair ({f}, {t}) is not exact"
        );
    }
}

#[test]
fn aware_round_with_unattached_participant_is_typed_error() {
    use proxbal_topology::{
        select_landmarks, DistanceOracle, TransitStubConfig, TransitStubTopology,
    };
    let (mut net, mut loads, mut rng) = setup(48, 3, 27);
    let topo = TransitStubTopology::generate(TransitStubConfig::tiny(), &mut rng);
    let landmarks = select_landmarks(&topo, 4, &mut rng);
    let oracle = DistanceOracle::for_topology(&topo, 0);
    // Everyone is attached but the light peer with the most room to spare.
    let params = ClassifyParams::default();
    let classification = Classification::compute(&net, &loads, &params, loads.totals(&net), 1);
    let orphan = light_slots(&net, &loads, &params, &classification, 1)
        .iter()
        .max_by(|a, b| a.spare.total_cmp(&b.spare))
        .expect("a light peer")
        .peer;
    let stubs = topo.stub_nodes();
    for (i, p) in net.alive_peers().into_iter().enumerate() {
        if p != orphan {
            net.attach(p, stubs[i % stubs.len()]);
        }
    }
    let hosts = |net: &ChordNetwork| -> Vec<(proxbal_id::Id, VsId, PeerId)> {
        net.ring()
            .iter()
            .map(|(pos, v)| (pos, v, net.vs(v).host))
            .collect()
    };
    let vs_loads = |net: &ChordNetwork, loads: &LoadState| -> Vec<f64> {
        net.ring().iter().map(|(_, v)| loads.vs_load(v)).collect()
    };
    let (hosts_before, loads_before) = (hosts(&net), vs_loads(&net, &loads));
    let underlay = Underlay {
        oracle: &oracle,
        latency_oracle: None,
        landmarks: &landmarks,
        approx: None,
    };
    let err = LoadBalancer::new(BalancerConfig::proximity_aware())
        .run(&mut net, &mut loads, Some(underlay), &mut rng)
        .unwrap_err();
    assert_eq!(err, Error::UnattachedPeer(orphan));
    assert_eq!(hosts(&net), hosts_before, "the ring or a host changed");
    assert_eq!(vs_loads(&net, &loads), loads_before);
    net.check_invariants().unwrap();
}

#[test]
fn requeue_reassigns_transfers_whose_receiver_died() {
    let (mut net, mut loads, mut rng) = setup(32, 3, 22);
    let params = ClassifyParams::default();
    let assignments = random_matching(&net, &loads, &params, &mut rng);
    assert!(!assignments.is_empty());
    // The receiver of the first assignment dies between VSA and VST.
    let dead = assignments[0].to;
    net.crash_peer(dead);
    let lost = assignments.iter().filter(|a| a.to == dead).count();
    // A surviving non-heavy peer left room at the root rendezvous.
    let alt = net
        .alive_peers()
        .into_iter()
        .find(|&p| p != dead && assignments.iter().all(|a| a.from != p && a.to != p))
        .or_else(|| {
            net.alive_peers()
                .into_iter()
                .find(|&p| p != dead && assignments.iter().all(|a| a.from != p))
        })
        .expect("a surviving non-shedding peer");
    let mut spare = RendezvousLists::new();
    spare.push_light(LightSlot {
        spare: 1e18,
        peer: alt,
    });
    let outcome = execute_transfers_with_requeue(
        &mut net,
        &mut loads,
        &assignments,
        None,
        &mut spare,
        0.0,
        &mut Trace::disabled(),
    )
    .unwrap();
    assert_eq!(outcome.requeued, lost);
    assert_eq!(outcome.reassigned, lost, "roomy slot takes every orphan");
    assert_eq!(outcome.abandoned, 0);
    // The re-paired transfers landed on the substitute, none on the corpse.
    let onto_alt = outcome
        .transfers
        .iter()
        .filter(|r| r.assignment.to == alt)
        .count();
    assert!(onto_alt >= lost, "orphans re-paired onto the substitute");
    assert!(outcome.transfers.iter().all(|r| r.assignment.to != dead));
    net.check_invariants().unwrap();
}

#[test]
fn requeue_without_room_abandons_for_next_round() {
    let (mut net, mut loads, mut rng) = setup(32, 3, 24);
    let params = ClassifyParams::default();
    let assignments = random_matching(&net, &loads, &params, &mut rng);
    assert!(!assignments.is_empty());
    let dead = assignments[0].to;
    net.crash_peer(dead);
    let lost = assignments.iter().filter(|a| a.to == dead).count();
    let mut spare = RendezvousLists::new(); // no surviving light slots
    let outcome = execute_transfers_with_requeue(
        &mut net,
        &mut loads,
        &assignments,
        None,
        &mut spare,
        0.0,
        &mut Trace::disabled(),
    )
    .unwrap();
    assert_eq!(outcome.requeued, lost);
    assert_eq!(outcome.reassigned, 0);
    assert_eq!(outcome.abandoned, lost);
    // The stranded virtual servers stayed with their shedding hosts.
    for a in assignments.iter().filter(|a| a.to == dead) {
        assert_eq!(net.vs(a.vs).host, a.from);
    }
    net.check_invariants().unwrap();
}

// ---------------------------------------------------------------- splitting & params

#[test]
fn splitting_reduces_epsilon_zero_stragglers() {
    let run = |max_splits: usize| -> usize {
        let (mut net, mut loads, mut rng) = setup(192, 5, 40);
        let balancer = LoadBalancer::new(BalancerConfig {
            epsilon: 0.0,
            max_splits,
            ..BalancerConfig::default()
        });
        let report = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
        net.check_invariants().unwrap();
        report.heavy_after()
    };
    let without = run(0);
    let with = run(64);
    assert!(
        with <= without,
        "splitting should not increase stragglers: {without} -> {with}"
    );
}

#[test]
fn splitting_conserves_load_end_to_end() {
    let (mut net, mut loads, mut rng) = setup(96, 5, 41);
    let before = loads.totals(&net).load;
    let balancer = LoadBalancer::new(BalancerConfig {
        epsilon: 0.0,
        max_splits: 32,
        ..BalancerConfig::default()
    });
    let _ = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
    let after = loads.totals(&net).load;
    assert!((before - after).abs() < 1e-6 * before);
    net.check_invariants().unwrap();
}

#[test]
fn empty_peers_keep_reporting_capacity() {
    // A peer that shed all its virtual servers must still contribute its
    // capacity to the aggregate (via the root) — otherwise later targets
    // inflate and receivers overfill (see DESIGN.md).
    let mut rng = StdRng::seed_from_u64(42);
    let mut net = ChordNetwork::new();
    for _ in 0..32 {
        net.join_peer(3, &mut rng);
    }
    let mut loads = LoadState::generate(
        &net,
        &CapacityProfile::gnutella(),
        &LoadModel::gaussian(1e6, 1e4),
        &mut rng,
    );
    // Empty one peer by hand.
    let victim = net.alive_peers()[0];
    let vss: Vec<VsId> = net.vss_of(victim).to_vec();
    let target_peer = net.alive_peers()[1];
    for v in vss {
        net.transfer_vs(v, target_peer);
    }
    assert!(net.vss_of(victim).is_empty());

    let balancer = LoadBalancer::new(BalancerConfig::default());
    let report = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
    // Aggregated capacity equals ground truth (the empty peer included).
    let want = loads.totals(&net);
    assert!(
        (report.system.capacity - want.capacity).abs() < 1e-9,
        "aggregated C {} != true C {}",
        report.system.capacity,
        want.capacity
    );
}

#[test]
fn remove_shed_by_vs_id() {
    let mut lists = RendezvousLists::new();
    lists.push_shed(cand(5.0, 1, 10));
    lists.push_shed(cand(3.0, 2, 11));
    assert!(lists.remove_shed(vs(1)));
    assert!(!lists.remove_shed(vs(1)));
    assert_eq!(lists.shed().len(), 1);
    assert_eq!(lists.shed()[0].vs, vs(2));
    assert!(lists.check_sorted());
}

// ---------------------------------------------------------------- objects

#[test]
fn object_loads_charge_owner_vss() {
    use proxbal_workload::StoredObject;
    let mut rng = StdRng::seed_from_u64(50);
    let mut net = ChordNetwork::new();
    for _ in 0..16 {
        net.join_peer(3, &mut rng);
    }
    let objects = vec![
        StoredObject {
            key: 0x1000_0000,
            load: 5.0,
        },
        StoredObject {
            key: 0x9000_0000,
            load: 7.0,
        },
        StoredObject {
            key: 0x9000_0001,
            load: 2.0,
        },
    ];
    let loads = LoadState::from_objects(&net, &CapacityProfile::uniform(10.0), &objects, &mut rng);
    // Total conserved.
    let total: f64 = net.ring().iter().map(|(_, v)| loads.vs_load(v)).sum();
    assert!((total - 14.0).abs() < 1e-12);
    // Each object sits on the owner of its key.
    for obj in &objects {
        let owner = net.ring().owner(proxbal_id::Id::new(obj.key)).unwrap();
        assert!(loads.vs_load(owner) >= obj.load - 1e-12);
    }
}

#[test]
fn object_microfoundation_yields_balanceable_system() {
    // End-to-end: many small uniform objects → Gaussian-like per-VS loads →
    // the balancer behaves exactly as with the closed-form model.
    use proxbal_workload::ObjectWorkload;
    let mut rng = StdRng::seed_from_u64(51);
    let mut net = ChordNetwork::new();
    for _ in 0..128 {
        net.join_peer(5, &mut rng);
    }
    let objects = ObjectWorkload::uniform(200_000, 1e6).generate(&mut rng);
    let mut loads = LoadState::from_objects(&net, &CapacityProfile::gnutella(), &objects, &mut rng);
    let balancer = LoadBalancer::new(BalancerConfig::default());
    let report = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
    assert!(report.before[&NodeClass::Heavy] > 0);
    assert_eq!(report.heavy_after(), 0);
}

#[test]
fn zipf_objects_create_hotspot_vss() {
    use proxbal_workload::ObjectWorkload;
    let mut rng = StdRng::seed_from_u64(52);
    let mut net = ChordNetwork::new();
    for _ in 0..64 {
        net.join_peer(5, &mut rng);
    }
    let objects = ObjectWorkload::zipf(50_000, 1e6, 1.2).generate(&mut rng);
    let loads = LoadState::from_objects(&net, &CapacityProfile::gnutella(), &objects, &mut rng);
    let mut vs_loads: Vec<f64> = net.ring().iter().map(|(_, v)| loads.vs_load(v)).collect();
    vs_loads.sort_by(f64::total_cmp);
    let max = *vs_loads.last().unwrap();
    let median = vs_loads[vs_loads.len() / 2];
    assert!(
        max > 20.0 * median.max(1.0),
        "hot VS should dominate: max {max:.0} vs median {median:.0}"
    );
}

#[test]
fn weighted_cost_sums_load_times_distance() {
    let records = vec![
        TransferRecord {
            assignment: Assignment {
                vs: vs(0),
                load: 10.0,
                from: PeerId(0),
                to: PeerId(1),
            },
            distance: Some(3),
        },
        TransferRecord {
            assignment: Assignment {
                vs: vs(1),
                load: 2.0,
                from: PeerId(0),
                to: PeerId(1),
            },
            distance: None, // unknown distances don't contribute
        },
    ];
    assert!((weighted_cost(&records) - 30.0).abs() < 1e-12);
    assert!((total_moved_load(&records) - 12.0).abs() < 1e-12);
}

#[test]
fn message_stats_are_consistent() {
    let (mut net, mut loads, mut rng) = setup(128, 5, 60);
    let balancer = LoadBalancer::new(BalancerConfig::default());
    let report = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
    let m = &report.messages;
    // Every peer reports once; messages are aggregated along shared paths,
    // so LBI messages are at most (peers − 1) edges and at least the tree's
    // message depth.
    assert!(m.lbi_messages > 0);
    assert!(m.lbi_messages < net.alive_vs_count() * 2);
    // Dissemination touches at least as many inter-peer edges as the LBI
    // paths (it covers the whole tree).
    assert!(m.dissemination_messages >= m.lbi_messages);
    // Two notifications per assignment.
    assert_eq!(m.vsa_notifications, 2 * report.vsa.assignments.len());
    // Records climbed at least one inter-peer edge overall.
    assert!(m.vsa_record_hops > 0);
    // No underlay ⇒ no weighted transfer cost recorded.
    assert_eq!(m.vst_weighted_cost, 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_vsa_sweep_invariants(seed in 0u64..2000) {
        // Whole-sweep invariants over random networks and loads: no VS
        // assigned twice, no receiver overfilled beyond its published
        // spare, unassigned candidates genuinely fit nothing.
        let (net, loads, mut rng) = setup(48, 4, seed);
        let params = ClassifyParams::default();
        let system = loads.totals(&net);
        let classification = Classification::compute(&net, &loads, &params, system, 1);
        let shed = shed_candidates(&net, &loads, &params, &classification, 1);
        let light = light_slots(&net, &loads, &params, &classification, 1);
        let spare_by_peer: HashMap<PeerId, f64> =
            light.iter().map(|s| (s.peer, s.spare)).collect();
        let tree = KTree::build(&net, 2);
        let inputs = reports::ignorant_inputs(&net, &tree, &shed, &light, &mut rng);
        let vsa = run_vsa(
            &tree,
            inputs,
            &VsaParams::paper(system.min_vs_load),
            &mut Trace::disabled(),
        );

        let mut seen = std::collections::HashSet::new();
        let mut received: HashMap<PeerId, f64> = HashMap::new();
        for a in &vsa.assignments {
            prop_assert!(seen.insert(a.vs), "vs assigned twice");
            *received.entry(a.to).or_insert(0.0) += a.load;
        }
        for (p, got) in received {
            prop_assert!(
                got <= spare_by_peer[&p] + 1e-9,
                "receiver {p:?} overfilled: {got} > {}",
                spare_by_peer[&p]
            );
        }
        // Root leftovers fit no remaining light slot.
        for c in vsa.unassigned.shed() {
            for s in vsa.unassigned.light() {
                prop_assert!(s.spare < c.load);
            }
        }
    }
}

#[test]
fn graceful_leave_hands_load_to_absorbers() {
    let (mut net, mut loads, _) = setup(24, 3, 70);
    let total_before = loads.totals(&net).load;
    let victim = net.alive_peers()[0];
    let victim_load = loads.node_load(&net, victim);
    assert!(victim_load > 0.0);

    let handed = graceful_leave(&mut net, &mut loads, victim);
    assert!((handed - victim_load).abs() < 1e-9 * victim_load.max(1.0));
    net.check_invariants().unwrap();
    // Total load conserved across the leave (unlike a crash).
    let total_after = loads.totals(&net).load;
    assert!(
        (total_before - total_after).abs() < 1e-6 * total_before,
        "{total_before} -> {total_after}"
    );
}

#[test]
fn crash_loses_load_but_leave_does_not() {
    let (net0, loads0, _) = setup(24, 3, 71);
    let victim = net0.alive_peers()[0];

    let mut net_crash = net0.clone();
    let loads_crash = loads0.clone();
    net_crash.crash_peer(victim);
    let after_crash = loads_crash.totals(&net_crash).load;

    let mut net_leave = net0.clone();
    let mut loads_leave = loads0.clone();
    graceful_leave(&mut net_leave, &mut loads_leave, victim);
    let after_leave = loads_leave.totals(&net_leave).load;

    let before = loads0.totals(&net0).load;
    assert!(after_crash < before, "crash loses the victim's load");
    assert!((after_leave - before).abs() < 1e-6 * before);
    // The unused variable warnings guard.
    let _ = (loads_crash, net_leave);
}

/// One untraced balancing pass, no underlay, over a long-lived tree.
fn pass_over_tree(
    balancer: &LoadBalancer,
    net: &mut ChordNetwork,
    loads: &mut LoadState,
    tree: &mut KTree,
    rng: &mut StdRng,
) -> BalanceReport {
    let (trace, walls) = (&mut Trace::disabled(), &mut RoundWalls::default());
    balancer
        .run_with_tree_walls(net, loads, tree, None, rng, trace, walls)
        .unwrap()
}

#[test]
fn run_with_tree_reuses_and_tree_survives_transfers() {
    let (mut net, mut loads, mut rng) = setup(96, 5, 80);
    let mut tree = KTree::build(&net, 2);
    let balancer = LoadBalancer::new(BalancerConfig::default());
    let report = pass_over_tree(&balancer, &mut net, &mut loads, &mut tree, &mut rng);
    assert!(!report.transfers.is_empty());
    // Transfers keep ring positions, so the tree needs no maintenance.
    assert_eq!(
        tree.maintain_round(&net),
        0,
        "a balancing pass must leave the tree structurally intact"
    );
    // Churn, then a second pass over the same (now maintained) tree.
    net.crash_peer(report.transfers[0].assignment.to);
    for _ in 0..4 {
        net.join_peer(5, &mut rng);
    }
    for p in net.alive_peers() {
        if loads.class(p).is_none() {
            loads.set_capacity(p, 10.0);
            loads.set_class(p, proxbal_workload::CapacityClass(1));
        }
    }
    let report2 = pass_over_tree(&balancer, &mut net, &mut loads, &mut tree, &mut rng);
    tree.check_invariants(&net).unwrap();
    net.check_invariants().unwrap();
    assert!(report2.heavy_after() <= report2.before[&NodeClass::Heavy]);
}

#[test]
#[should_panic(expected = "tree degree must match")]
fn run_with_tree_rejects_mismatched_degree() {
    let (mut net, mut loads, mut rng) = setup(8, 2, 81);
    let mut tree = KTree::build(&net, 8);
    let balancer = LoadBalancer::new(BalancerConfig::default()); // k = 2
    pass_over_tree(&balancer, &mut net, &mut loads, &mut tree, &mut rng);
}

#[test]
fn absorb_join_moves_proportional_load() {
    let mut rng = StdRng::seed_from_u64(90);
    let mut net = ChordNetwork::new();
    let p0 = net.join_peer(1, &mut rng);
    let v0 = net.vss_of(p0)[0];
    let mut loads = LoadState::new();
    loads.set_capacity(p0, 10.0);
    loads.set_vs_load(v0, 100.0);

    // A new VS exactly halfway around the ring from v0 takes half the load.
    let p1 = net.join_peer(0, &mut rng);
    loads.set_capacity(p1, 10.0);
    let pos0 = net.vs(v0).position;
    let v1 = net.spawn_vs_at(p1, pos0.wrapping_add(1 << 31)).unwrap();
    let moved = absorb_join(&net, &mut loads, v1);
    assert!((moved - 50.0).abs() < 1e-6, "moved {moved}");
    assert!((loads.vs_load(v0) - 50.0).abs() < 1e-6);
    assert!((loads.vs_load(v1) - 50.0).abs() < 1e-6);
    // Total conserved.
    assert!((loads.totals(&net).load - 100.0).abs() < 1e-9);
}

#[test]
fn absorb_join_sole_vs_is_noop() {
    let mut rng = StdRng::seed_from_u64(91);
    let mut net = ChordNetwork::new();
    let p = net.join_peer(1, &mut rng);
    let v = net.vss_of(p)[0];
    let mut loads = LoadState::new();
    loads.set_capacity(p, 1.0);
    loads.set_vs_load(v, 5.0);
    assert_eq!(absorb_join(&net, &mut loads, v), 0.0);
    assert_eq!(loads.vs_load(v), 5.0);
}
