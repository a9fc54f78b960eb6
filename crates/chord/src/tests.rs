use crate::*;
use proptest::prelude::*;
use proxbal_id::Id;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn net_with(peers: usize, vs_per_peer: usize, seed: u64) -> (ChordNetwork, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = ChordNetwork::new();
    for _ in 0..peers {
        net.join_peer(vs_per_peer, &mut rng);
    }
    (net, rng)
}

#[test]
fn ring_owner_wraps() {
    let mut ring = Ring::new();
    ring.insert(Id::new(100), VsId(0));
    ring.insert(Id::new(200), VsId(1));
    assert_eq!(ring.owner(Id::new(50)), Some(VsId(0)));
    assert_eq!(ring.owner(Id::new(100)), Some(VsId(0))); // inclusive
    assert_eq!(ring.owner(Id::new(101)), Some(VsId(1)));
    assert_eq!(ring.owner(Id::new(201)), Some(VsId(0))); // wraps
    assert_eq!(ring.owner(Id::new(u32::MAX)), Some(VsId(0)));
}

#[test]
fn ring_regions_partition_the_space() {
    let mut ring = Ring::new();
    ring.insert(Id::new(0), VsId(0));
    ring.insert(Id::new(1000), VsId(1));
    ring.insert(Id::new(60000), VsId(2));
    let total: u64 = ring.iter().map(|(p, _)| ring.region(p).len()).sum();
    assert_eq!(total, proxbal_id::RING_SIZE);
    // Region of VS at 1000 is (0, 1000] = [1, 1001).
    let r = ring.region(Id::new(1000));
    assert!(r.contains(Id::new(1)));
    assert!(r.contains(Id::new(1000)));
    assert!(!r.contains(Id::new(0)));
    assert!(!r.contains(Id::new(1001)));
}

#[test]
fn ring_single_vs_owns_everything() {
    let mut ring = Ring::new();
    ring.insert(Id::new(777), VsId(3));
    assert!(ring.region(Id::new(777)).is_full());
    assert_eq!(ring.owner(Id::new(0)), Some(VsId(3)));
}

#[test]
fn ring_duplicate_position_rejected() {
    let mut ring = Ring::new();
    assert!(ring.insert(Id::new(5), VsId(0)));
    assert!(!ring.insert(Id::new(5), VsId(1)));
    assert_eq!(ring.at(Id::new(5)), Some(VsId(0)));
}

#[test]
fn join_creates_vss_and_invariants_hold() {
    let (net, _) = net_with(10, 5, 1);
    assert_eq!(net.alive_vs_count(), 50);
    assert_eq!(net.alive_peers().len(), 10);
    net.check_invariants().unwrap();
    for p in net.alive_peers() {
        assert_eq!(net.vss_of(p).len(), 5);
    }
}

#[test]
fn regions_cover_space_after_churn() {
    let (mut net, mut rng) = net_with(20, 3, 2);
    net.leave_peer(PeerId(3));
    net.crash_peer(PeerId(7));
    net.join_peer(4, &mut rng);
    net.check_invariants().unwrap();
    let total: u64 = net
        .ring()
        .iter()
        .map(|(p, _)| net.ring().region(p).len())
        .sum();
    assert_eq!(total, proxbal_id::RING_SIZE);
}

#[test]
fn owner_peer_resolves_to_hosting_peer() {
    let (net, mut rng) = net_with(8, 4, 3);
    for _ in 0..100 {
        let key = Id::new(rng.gen());
        let vs = net.ring().owner(key).unwrap();
        assert_eq!(net.owner_peer(key), Some(net.vs(vs).host));
        assert!(net.region_of(vs).contains(key));
    }
}

#[test]
fn transfer_moves_vs_between_peers() {
    let (mut net, _) = net_with(4, 3, 4);
    let src = PeerId(0);
    let dst = PeerId(1);
    let v = net.vss_of(src)[0];
    let region_before = net.region_of(v);
    net.transfer_vs(&[(v, dst)]);
    net.check_invariants().unwrap();
    assert_eq!(net.vs(v).host, dst);
    assert_eq!(net.vss_of(src).len(), 2);
    assert_eq!(net.vss_of(dst).len(), 4);
    // Ring position (and thus region) is unchanged by a transfer.
    assert_eq!(net.region_of(v), region_before);
}

#[test]
fn transfer_to_self_is_noop() {
    let (mut net, _) = net_with(2, 2, 5);
    let v = net.vss_of(PeerId(0))[0];
    net.transfer_vs(&[(v, PeerId(0))]);
    net.check_invariants().unwrap();
    assert_eq!(net.vss_of(PeerId(0)).len(), 2);
}

#[test]
#[should_panic(expected = "not alive")]
fn transfer_to_dead_peer_panics() {
    let (mut net, _) = net_with(3, 2, 6);
    net.crash_peer(PeerId(1));
    let v = net.vss_of(PeerId(0))[0];
    net.transfer_vs(&[(v, PeerId(1))]);
}

#[test]
fn debug_prints_the_contents_not_the_layout() {
    // One batch sizes the receiver's run for what it gets (3); one move at
    // a time doubles it (4): the same contents in two layouts.
    let (mut batched, _) = net_with(3, 2, 9);
    let mut moved = batched.clone();
    let (a, b) = (batched.vss_of(PeerId(0))[0], batched.vss_of(PeerId(2))[1]);
    batched.transfer_vs(&[(a, PeerId(1))]);
    moved.transfer_vs(&[(a, PeerId(2))]);
    moved.transfer_vs(&[(a, PeerId(1))]);
    assert_eq!(batched.vss_of(PeerId(1)), moved.vss_of(PeerId(1)));
    assert_eq!(format!("{batched:?}"), format!("{moved:?}"));
    // The same servers arriving in the other order: one run differs.
    let c = batched.vss_of(PeerId(0))[0];
    let (mut first, mut second) = (batched.clone(), batched.clone());
    first.transfer_vs(&[(b, PeerId(1)), (c, PeerId(1))]);
    second.transfer_vs(&[(c, PeerId(1)), (b, PeerId(1))]);
    assert_ne!(first.vss_of(PeerId(1)), second.vss_of(PeerId(1)));
    assert_ne!(format!("{first:?}"), format!("{second:?}"));
}

#[test]
fn drop_vs_removes_from_ring() {
    let (mut net, _) = net_with(3, 3, 7);
    let v = net.vss_of(PeerId(2))[1];
    let n_before = net.alive_vs_count();
    net.drop_vs(v);
    net.check_invariants().unwrap();
    assert_eq!(net.alive_vs_count(), n_before - 1);
    assert!(!net.vs(v).alive);
}

#[test]
fn crash_removes_all_peer_vss() {
    let (mut net, _) = net_with(5, 4, 8);
    net.crash_peer(PeerId(2));
    assert_eq!(net.alive_vs_count(), 16);
    assert_eq!(net.alive_peers().len(), 4);
    net.check_invariants().unwrap();
}

/// One random membership change: a join, a leave, a crash or a transfer.
fn random_op(net: &mut ChordNetwork, rng: &mut StdRng) {
    let alive = net.alive_peers();
    match rng.gen_range(0..4u8) {
        0 => {
            net.join_peer(rng.gen_range(1..5), rng);
        }
        1 if alive.len() > 1 => {
            let p = alive[rng.gen_range(0..alive.len())];
            net.leave_peer(p);
        }
        2 if alive.len() > 1 => {
            let p = alive[rng.gen_range(0..alive.len())];
            net.crash_peer(p);
        }
        _ if alive.len() >= 2 => {
            let from = alive[rng.gen_range(0..alive.len())];
            let to = alive[rng.gen_range(0..alive.len())];
            let vss = net.vss_of(from);
            if !vss.is_empty() && from != to {
                let v = vss[rng.gen_range(0..vss.len())];
                net.transfer_vs(&[(v, to)]);
            }
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_invariants_after_random_ops(seed in 0u64..5000, ops in 1usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = ChordNetwork::new();
        net.join_peer(3, &mut rng);
        for _ in 0..ops {
            random_op(&mut net, &mut rng);
            net.check_invariants().map_err(TestCaseError::fail)?;
        }
        // Regions always partition the full ring when non-empty.
        if net.alive_vs_count() > 0 {
            let total: u64 = net.ring().iter().map(|(p, _)| net.ring().region(p).len()).sum();
            prop_assert_eq!(total, proxbal_id::RING_SIZE);
        }
    }

    /// `Ring::owner` resolves every DHT key, so it is checked against a scan
    /// of the whole ring: the first position `≥ key`, else the first position.
    /// `Ring::successor_after` is the same scan with `> key`.
    #[test]
    fn prop_owner_equals_a_scan_of_the_ring(seed in 0u64..5000, ops in 0usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = ChordNetwork::new();
        net.join_peer(3, &mut rng);
        for _ in 0..ops {
            random_op(&mut net, &mut rng);
        }
        let keys: Vec<u32> = (0..16).map(|_| rng.gen()).collect();
        let ring = net.ring();
        let scan = |key: Id| ring.iter().find(|&(p, _)| p >= key).or_else(|| ring.iter().next());
        let after = |key: Id| ring.iter().find(|&(p, _)| p > key).or_else(|| ring.iter().next());
        let occupied = ring.iter().map(|(p, _)| p.raw());
        for key in keys.into_iter().chain(occupied).chain([0, u32::MAX]) {
            let key = Id::new(key);
            prop_assert_eq!(ring.owner(key), scan(key).map(|(_, v)| v), "key {}", key);
            prop_assert_eq!(ring.successor_after(key), after(key), "key {}", key);
        }
    }
}

#[test]
fn spawn_vs_at_exact_position_and_collision() {
    let (mut net, _) = net_with(2, 2, 30);
    let v = net.spawn_vs_at(PeerId(0), Id::new(12345)).unwrap();
    assert_eq!(net.vs(v).position, Id::new(12345));
    assert!(net.spawn_vs_at(PeerId(1), Id::new(12345)).is_none());
    net.check_invariants().unwrap();
}

#[test]
fn split_vs_halves_region_on_same_host() {
    let (mut net, _) = net_with(8, 3, 32);
    let (pos, v) = net.ring().iter().next().unwrap();
    let region = net.ring().region(pos);
    if region.len() < 2 {
        return; // astronomically unlikely with 24 VSs on a 2^32 ring
    }
    let host = net.vs(v).host;
    let before = net.alive_vs_count();
    let new = net.split_vs(v);
    net.check_invariants().unwrap();
    assert_eq!(net.alive_vs_count(), before + 1);
    assert_eq!(net.vs(new).host, host);
    // The two halves partition the original region.
    let r_old = net.region_of(v);
    let r_new = net.region_of(new);
    assert_eq!(r_old.len() + r_new.len(), region.len());
    assert!(!r_old.overlaps(&r_new));
    assert!((r_new.len() as i64 - r_old.len() as i64).abs() <= 1);
}

#[test]
fn iter_in_wraps_correctly() {
    let mut ring = Ring::new();
    ring.insert(Id::new(10), VsId(0));
    ring.insert(Id::new(0xFFFF_FFF0), VsId(1));
    ring.insert(Id::new(500), VsId(2));
    // Wrapping region covering the top and bottom of the ring.
    let wrap = proxbal_id::Arc::from_bounds(Id::new(0xFFFF_FF00), Id::new(100));
    assert_eq!(ring.iter_in(&wrap).count(), 2);
    let inside: Vec<_> = ring.iter_in(&wrap).collect();
    assert_eq!(inside.len(), 2);
    assert_eq!(inside[0].1, VsId(1)); // clockwise order: high side first
    assert_eq!(inside[1].1, VsId(0));
    // Full and empty regions.
    assert_eq!(ring.iter_in(&proxbal_id::Arc::full(Id::ZERO)).count(), 3);
    assert_eq!(ring.iter_in(&proxbal_id::Arc::empty(Id::ZERO)).count(), 0);
}

#[test]
fn journal_version_counts_successful_mutations_only() {
    let mut ring = Ring::new();
    let start = ring.stamp();
    assert_eq!(ring.version(), 0);
    assert!(ring.insert(Id::new(10), VsId(0)));
    assert!(ring.insert(Id::new(20), VsId(1)));
    assert_eq!(ring.version(), 2);
    // An occupied insert and a missing remove change nothing and journal
    // nothing.
    let before = ring.stamp();
    assert!(!ring.insert(Id::new(10), VsId(2)));
    assert_eq!(ring.remove(Id::new(15)), None);
    assert_eq!(ring.stamp(), before);
    assert_eq!(ring.changes_since(before), Some(vec![]));
    assert_eq!(ring.remove(Id::new(10)), Some(VsId(0)));
    assert_eq!(ring.version(), 3);
    // Oldest first; a position changed twice appears twice.
    assert_eq!(
        ring.changes_since(start),
        Some(vec![Id::new(10), Id::new(20), Id::new(10)])
    );
    assert_eq!(ring.changes_since(before), Some(vec![Id::new(10)]));
}

#[test]
fn journal_retains_a_bounded_window_in_order() {
    let cap = crate::ring::JOURNAL_CAPACITY as u32;
    let mut ring = Ring::new();
    let mut stamps = vec![ring.stamp()];
    // Two and a half times around the ring buffer.
    let total = cap * 5 / 2;
    for i in 0..total {
        assert!(ring.insert(Id::new(i * 7), VsId(i)));
        stamps.push(ring.stamp());
    }
    assert_eq!(ring.version(), u64::from(total));
    // Exactly the last `cap` changes are answerable, oldest first, across
    // the wrap.
    let oldest = (total - cap) as usize;
    let expect: Vec<Id> = (total - cap..total).map(|i| Id::new(i * 7)).collect();
    assert_eq!(ring.changes_since(stamps[oldest]), Some(expect.clone()));
    assert_eq!(
        ring.changes_since(stamps[oldest + 3]),
        Some(expect[3..].to_vec())
    );
    assert_eq!(ring.changes_since(stamps[oldest - 1]), None);
    assert_eq!(ring.changes_since(stamps[0]), None);
    assert_eq!(ring.changes_since(ring.stamp()), Some(vec![]));
}

#[test]
fn journal_rejects_stamps_from_another_history() {
    let (a, mut rng) = net_with(8, 3, 21);
    let stamp = a.ring().stamp();
    // A clone shares the history up to the stamp...
    let mut b = a.clone();
    assert_eq!(b.ring().changes_since(stamp), Some(vec![]));
    // ...and stays a continuation of it while only it changes.
    b.join_peer(2, &mut rng);
    assert_eq!(b.ring().changes_since(stamp).map(|c| c.len()), Some(2));
    // Once both sides moved — by the same *number* of different changes —
    // neither answers the other's stamps.
    let mut a = a;
    a.join_peer(2, &mut rng);
    assert_eq!(a.ring().version(), b.ring().version());
    assert_eq!(a.ring().changes_since(b.ring().stamp()), None);
    assert_eq!(b.ring().changes_since(a.ring().stamp()), None);
    // A stamp ahead of the ring it is shown to is not answerable either.
    assert_eq!(Ring::new().changes_since(stamp), None);
    // Same position, different virtual server: a different history.
    let (mut x, mut y) = (Ring::new(), Ring::new());
    x.insert(Id::new(9), VsId(1));
    y.insert(Id::new(9), VsId(2));
    assert_eq!(x.changes_since(y.stamp()), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_journal_replays_to_the_same_position_set(seed in 0u64..5000, ops in 1usize..200) {
        // Toggling every journalled position on a snapshot of the position
        // set reproduces the current set: the journal names exactly the
        // positions that changed, and the version is monotone.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ring = Ring::new();
        for i in 0..8u32 {
            ring.insert(Id::new(rng.gen_range(0..64)), VsId(i));
        }
        let stamp = ring.stamp();
        let mut positions: std::collections::BTreeSet<Id> = ring.iter().map(|(p, _)| p).collect();
        let mut last = ring.version();
        for i in 0..ops {
            let pos = Id::new(rng.gen_range(0..64));
            let changed = if rng.gen() {
                ring.insert(pos, VsId(100 + i as u32))
            } else {
                ring.remove(pos).is_some()
            };
            prop_assert_eq!(ring.version(), last + u64::from(changed));
            last = ring.version();
        }
        for pos in ring.changes_since(stamp).expect("within the window") {
            if !positions.remove(&pos) {
                positions.insert(pos);
            }
        }
        let now: std::collections::BTreeSet<Id> = ring.iter().map(|(p, _)| p).collect();
        prop_assert_eq!(positions, now);
    }
}

// ── Bulk join vs the join-by-join replay ─────────────────────────────────

/// Yields `draws` in order, then a counter far from any test position.
struct Script {
    draws: Vec<u32>,
    at: usize,
}

impl Script {
    fn new(draws: &[u32]) -> Self {
        Script {
            draws: draws.to_vec(),
            at: 0,
        }
    }
}

impl rand::RngCore for Script {
    fn next_u32(&mut self) -> u32 {
        let x = self.draws.get(self.at).copied();
        self.at += 1;
        x.unwrap_or(0xF000_0000 + self.at as u32)
    }
    fn next_u64(&mut self) -> u64 {
        u64::from(self.next_u32())
    }
}

/// Draws from `0..64` only, so nearly every join and resample collides.
struct Narrow(StdRng);

impl rand::RngCore for Narrow {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32() % 64
    }
    fn next_u64(&mut self) -> u64 {
        u64::from(self.next_u32())
    }
}

/// The reference [`ChordNetwork::join_peers_at`] must be indistinguishable
/// from: one `join_peer_at` per peer. Also returns the ring's stamp as it
/// was `tail` virtual servers before the end.
fn replay_joins<R: Rng>(
    positions: &[u32],
    vs_per_peer: usize,
    tail: usize,
    rng: &mut R,
) -> (ChordNetwork, RingStamp) {
    let mut net = ChordNetwork::new();
    let mut stamp = net.ring().stamp();
    for (i, chunk) in positions.chunks(vs_per_peer).enumerate() {
        if i * vs_per_peer + tail <= positions.len() {
            stamp = net.ring().stamp();
        }
        let chunk: Vec<Id> = chunk.iter().map(|&p| Id::new(p)).collect();
        net.join_peer_at(&chunk, rng);
    }
    (net, stamp)
}

/// Everything a caller can observe of a network: ring order, stamp, what
/// changed since `since`, every handle, the invariants — and, through
/// `Debug`, the journal itself.
fn assert_same_network(
    bulk: &ChordNetwork,
    replay: &ChordNetwork,
    since: RingStamp,
    vs_count: usize,
) {
    assert!(bulk.ring().iter().eq(replay.ring().iter()));
    assert_eq!(bulk.ring().stamp(), replay.ring().stamp());
    assert_eq!(
        bulk.ring().changes_since(since),
        replay.ring().changes_since(since)
    );
    assert_eq!(bulk.peer_count(), replay.peer_count());
    for p in 0..replay.peer_count() as u32 {
        assert_eq!(bulk.vss_of(PeerId(p)), replay.vss_of(PeerId(p)));
    }
    for v in (0..vs_count as u32).map(VsId) {
        assert_eq!(bulk.vs(v), replay.vs(v));
    }
    bulk.check_invariants().unwrap();
    assert!(format!("{bulk:?}") == format!("{replay:?}"));
}

/// Bulk-joins `positions` and checks the result, and the generator
/// afterwards, against the replay. Returns the bulk-built network.
fn bulk_matches_replay<R: Rng + rand::RngCore>(
    positions: &[u32],
    vs_per_peer: usize,
    mut rng: impl FnMut() -> R,
) -> ChordNetwork {
    let (mut bulk_rng, mut replay_rng) = (rng(), rng());
    let (mut replay, since) = replay_joins(positions, vs_per_peer, 10, &mut replay_rng);
    let mut bulk = ChordNetwork::new();
    let ids: Vec<Id> = positions.iter().map(|&p| Id::new(p)).collect();
    bulk.join_peers_at(ids, vs_per_peer, &mut bulk_rng);
    assert_same_network(&bulk, &replay, since, positions.len());
    assert_eq!(bulk_rng.next_u32(), replay_rng.next_u32());
    assert!(replay.ring().changes_since(since).is_some());

    // One more join and one leave: the journal keeps its layout.
    for net in [&mut bulk, &mut replay] {
        let joined = net.join_peer(1, &mut Script::new(&[0x7654_3210]));
        assert_eq!(net.vss_of(joined).len(), 1);
        net.drop_vs(VsId(0));
    }
    assert_same_network(&bulk, &replay, since, positions.len() + 1);
    bulk
}

/// Bulk-joins `batch` against a generator yielding `draws`, checks it
/// against the replay, that the entries `moved` names ended up where it
/// says, and that exactly the scripted draws were consumed.
fn check_scripted(batch: &[u32], vs_per_peer: usize, draws: &[u32], moved: &[(u32, u32)]) {
    let bulk = bulk_matches_replay(batch, vs_per_peer, || Script::new(draws));
    for &(seq, pos) in moved {
        assert_eq!(bulk.vs(VsId(seq)).position, Id::new(pos), "{batch:?}");
    }
    let mut rng = Script::new(draws);
    let ids: Vec<Id> = batch.iter().map(|&p| Id::new(p)).collect();
    ChordNetwork::new().join_peers_at(ids, vs_per_peer, &mut rng);
    assert_eq!(rng.at, draws.len(), "{batch:?}");
}

#[test]
fn bulk_join_resolves_collisions_in_join_order() {
    const MAX: u32 = u32::MAX;
    // No collision: the generator is not touched.
    check_scripted(&[5, 9, 7, 3], 2, &[], &[]);
    // A duplicate inside the batch.
    check_scripted(&[5, 9, 5, 7], 1, &[100], &[(2, 100)]);
    // The resample lands on earlier entries, twice: redrawn.
    check_scripted(&[5, 9, 5, 7], 2, &[9, 5, 100], &[(2, 100)]);
    // It lands on a *later* entry: free now, and that entry resamples when
    // its turn comes.
    check_scripted(&[5, 9, 5, 7], 1, &[7, 200], &[(2, 7), (3, 200)]);
    // The displaced entry's own resample displaces the next one, whose draw
    // of an already handed-out position is redrawn.
    check_scripted(
        &[5, 5, 7, 8],
        2,
        &[7, 8, 7, 300],
        &[(1, 7), (2, 8), (3, 300)],
    );
    // Three on one position; a draw handed out a moment ago.
    check_scripted(&[5, 5, 5], 1, &[6, 6, 7], &[(1, 6), (2, 7)]);
    // A displaced entry whose position has a second holder.
    check_scripted(&[4, 4, 6, 6], 1, &[6, 9, 6, 10], &[(1, 6), (2, 9), (3, 10)]);
    // Both ends of the identifier space.
    check_scripted(
        &[0, MAX, 0, MAX, 1],
        1,
        &[MAX, 0, 1, MAX - 1, 2],
        &[(2, 1), (3, MAX - 1), (4, 2)],
    );
}

#[test]
fn bulk_join_lays_the_journal_out_as_the_replay_does() {
    // The journal is a ring buffer indexed by version: sizes on either
    // side of its capacity, then one more insert and one remove.
    let cap = crate::ring::JOURNAL_CAPACITY;
    for size in [1, cap - 1, cap, cap + 1, cap + 1024] {
        let mut rng = StdRng::seed_from_u64(size as u64);
        // A narrow range, so a few dozen entries collide at every size.
        let positions: Vec<u32> = (0..size).map(|_| rng.gen_range(0..1 << 18)).collect();
        let bulk = bulk_matches_replay(&positions, 1, || StdRng::seed_from_u64(3));
        assert_eq!(bulk.ring().version(), size as u64 + 2);
    }
}

#[test]
#[should_panic(expected = "nothing has joined yet")]
fn bulk_join_refuses_a_used_network() {
    let (mut net, mut rng) = net_with(1, 1, 5);
    net.join_peers_at(vec![Id::new(1)], 1, &mut rng);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_bulk_join_equals_replay(seed in 0u64..100_000, peers in 1usize..=12, vs_per_peer in 1usize..=4) {
        // At most 48 of 64 positions, batch and resamples alike.
        let mut draw = Narrow(StdRng::seed_from_u64(seed));
        let positions: Vec<u32> = (0..peers * vs_per_peer).map(|_| draw.gen()).collect();
        bulk_matches_replay(&positions, vs_per_peer, || {
            Narrow(StdRng::seed_from_u64(seed ^ 0xB01C))
        });
    }
}

// ── The overlay against an independent model ─────────────────────────────

/// The overlay as plain per-peer lists and a position list answered by
/// scanning: what [`ChordNetwork`]'s columns, runs and sorted ring must
/// agree with after every operation.
#[derive(Default)]
struct Model {
    alive_peers: Vec<bool>,
    lists: Vec<Vec<VsId>>,
    /// Per virtual server: position, host, alive.
    vss: Vec<(u32, PeerId, bool)>,
    /// The ring, in no order.
    ring: Vec<(u32, VsId)>,
}

impl Model {
    fn spawn_at(&mut self, host: PeerId, pos: u32) -> Option<VsId> {
        if self.ring.iter().any(|&(p, _)| p == pos) {
            return None;
        }
        let v = VsId(self.vss.len() as u32);
        self.vss.push((pos, host, true));
        self.ring.push((pos, v));
        self.lists[host.0 as usize].push(v);
        Some(v)
    }

    fn spawn(&mut self, host: PeerId, rng: &mut impl Rng) -> VsId {
        loop {
            if let Some(v) = self.spawn_at(host, rng.gen()) {
                return v;
            }
        }
    }

    fn join(&mut self, vs_count: usize, rng: &mut impl Rng) -> PeerId {
        let p = PeerId(self.lists.len() as u32);
        self.alive_peers.push(true);
        self.lists.push(Vec::new());
        for _ in 0..vs_count {
            self.spawn(p, rng);
        }
        p
    }

    fn unlist(&mut self, v: VsId) {
        self.vss[v.0 as usize].2 = false;
        self.ring.retain(|&(_, x)| x != v);
    }

    fn retire(&mut self, p: PeerId) {
        self.alive_peers[p.0 as usize] = false;
        for v in std::mem::take(&mut self.lists[p.0 as usize]) {
            self.unlist(v);
        }
    }

    fn drop_vs(&mut self, v: VsId) {
        self.unlist(v);
        let host = self.vss[v.0 as usize].1;
        self.lists[host.0 as usize].retain(|&x| x != v);
    }

    fn transfer(&mut self, v: VsId, to: PeerId) {
        let from = std::mem::replace(&mut self.vss[v.0 as usize].1, to);
        if from != to {
            self.lists[from.0 as usize].retain(|&x| x != v);
            self.lists[to.0 as usize].push(v);
        }
    }

    /// The first entry by `key(position)` among the positions `keep`
    /// accepts, else the first of all.
    fn first_by(&self, keep: impl Fn(u32) -> bool, key: impl Fn(u32) -> u32) -> Option<(Id, VsId)> {
        let best =
            |it: &mut dyn Iterator<Item = &(u32, VsId)>| it.min_by_key(|e| key(e.0)).copied();
        best(&mut self.ring.iter().filter(|e| keep(e.0)))
            .or_else(|| best(&mut self.ring.iter()))
            .map(|(p, v)| (Id::new(p), v))
    }

    fn owner(&self, key: u32) -> Option<(Id, VsId)> {
        self.first_by(|p| p >= key, |p| p)
    }

    fn successor_after(&self, key: u32) -> Option<(Id, VsId)> {
        self.first_by(|p| p > key, |p| p)
    }

    fn predecessor(&self, key: u32) -> Option<(Id, VsId)> {
        self.first_by(|p| p < key, |p| u32::MAX - p)
    }

    fn region(&self, pos: u32) -> proxbal_id::Arc {
        match self.predecessor(pos) {
            Some((pred, _)) if pred.raw() != pos => proxbal_id::Arc::new(
                Id::new(pred.raw().wrapping_add(1)),
                u64::from(pos.wrapping_sub(pred.raw())),
            ),
            _ => proxbal_id::Arc::full(Id::new(pos.wrapping_add(1))),
        }
    }

    /// The entries inside `region`: clockwise from its start, or from 0
    /// when it is the full ring.
    fn inside(&self, region: &proxbal_id::Arc) -> Vec<(Id, VsId)> {
        let mut inside: Vec<_> = (self.ring.iter())
            .filter(|&&(p, _)| region.contains(Id::new(p)))
            .map(|&(p, v)| (Id::new(p), v))
            .collect();
        let start = if region.is_full() {
            0
        } else {
            region.start().raw()
        };
        inside.sort_by_key(|&(p, _)| p.raw().wrapping_sub(start));
        inside
    }
}

/// Everything [`ChordNetwork`] answers, against the model: every peer's
/// list in order, every virtual server, and the ring's point and range
/// queries at random keys, at every occupied position and beside it, and
/// on random regions.
fn assert_matches_model(net: &ChordNetwork, model: &Model, rng: &mut StdRng) {
    net.check_invariants().unwrap();
    let ring = net.ring();
    assert_eq!(ring.len(), model.ring.len());
    let alive: Vec<PeerId> = (0..model.lists.len() as u32)
        .map(PeerId)
        .filter(|p| model.alive_peers[p.0 as usize])
        .collect();
    assert_eq!(net.alive_peers(), alive);
    for (p, list) in (0..).map(PeerId).zip(&model.lists) {
        assert_eq!(net.vss_of(p), &list[..], "peer {p:?}");
    }
    for (v, &(position, host, alive)) in (0..).map(VsId).zip(&model.vss) {
        let want = VirtualServer {
            position: Id::new(position),
            host,
            alive,
        };
        assert_eq!(net.vs(v), want, "{v:?}");
    }
    let occupied = model
        .ring
        .iter()
        .flat_map(|&(p, _)| [p.wrapping_sub(1), p, p.wrapping_add(1)]);
    let random: Vec<u32> = (0..8).map(|_| rng.gen()).collect();
    for key in occupied.chain(random).chain([0, u32::MAX]) {
        let id = Id::new(key);
        assert_eq!(
            ring.owner(id),
            model.owner(key).map(|(_, v)| v),
            "owner {key}"
        );
        assert_eq!(
            ring.predecessor(id),
            model.predecessor(key),
            "predecessor {key}"
        );
        assert_eq!(
            ring.successor_after(id),
            model.successor_after(key),
            "after {key}"
        );
        let at = model.ring.iter().find(|&&(p, _)| p == key).map(|&(_, v)| v);
        assert_eq!(ring.at(id), at, "at {key}");
        if !model.ring.is_empty() {
            assert_eq!(ring.region(id), model.region(key), "region {key}");
        }
    }
    let mut regions = vec![
        proxbal_id::Arc::full(Id::new(rng.gen())),
        proxbal_id::Arc::empty(Id::new(rng.gen())),
    ];
    for _ in 0..8 {
        let len = if rng.gen() {
            rng.gen_range(0..96)
        } else {
            rng.gen_range(0..=1 << 32)
        };
        regions.push(proxbal_id::Arc::new(
            Id::new(rng.gen_range(0..80u32).wrapping_sub(8)),
            len,
        ));
    }
    for region in &regions {
        let want = model.inside(region);
        assert!(
            ring.iter_in(region).eq(want.iter().copied()),
            "iter_in {region:?}"
        );
        assert_eq!(ring.count_in(region), want.len(), "count_in {region:?}");
    }
}

/// Up to seven moves of the alive `vss` to `alive` peers, each of one
/// kind: a server to a random peer, a server this batch moved already
/// (moved twice), one back to the host it started the batch on (away and
/// back), one to the host it has at that point (a self-move), or one off
/// a peer this batch gave a server to (a receiver that also sheds). Empty
/// one time in eight.
fn random_batch(
    net: &ChordNetwork,
    alive: &[PeerId],
    vss: &[VsId],
    rng: &mut StdRng,
) -> Vec<(VsId, PeerId)> {
    let mut batch: Vec<(VsId, PeerId)> = Vec::new();
    for _ in 0..rng.gen_range(0..8) {
        let host = |batch: &[(VsId, PeerId)], v: VsId| {
            let last = batch.iter().rev().find(|&&(x, _)| x == v);
            last.map_or(net.vs(v).host, |&(_, to)| to)
        };
        let any = vss[rng.gen_range(0..vss.len())];
        let to = alive[rng.gen_range(0..alive.len())];
        let earlier = (!batch.is_empty()).then(|| batch[rng.gen_range(0..batch.len())]);
        let step = match (rng.gen_range(0..5u8), earlier) {
            (0, Some((v, _))) => (v, to),
            (1, Some((v, _))) => (v, net.vs(v).host),
            (2, _) => (any, host(&batch, any)),
            (3, Some((_, receiver))) => {
                let held = vss.iter().find(|&&v| host(&batch, v) == receiver);
                (held.copied().unwrap_or(any), to)
            }
            _ => (any, to),
        };
        batch.push(step);
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random histories of joins, departures, batches of moves
    /// ([`random_batch`], checked against the model moved one at a time),
    /// splits, drops and spawns on positions from `0..64` (so draws collide all the time and
    /// runs move and compact every few steps), checked against the model
    /// after every step.
    #[test]
    fn prop_overlay_equals_the_model(seed in 0u64..100_000, steps in 1usize..120) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut draws, mut model_draws) = (Narrow(StdRng::seed_from_u64(seed)), Narrow(StdRng::seed_from_u64(seed)));
        let (mut net, mut model) = (ChordNetwork::new(), Model::default());
        for _ in 0..steps {
            let alive: Vec<PeerId> = net.alive_peers();
            let vss: Vec<VsId> = net.ring().iter().map(|(_, v)| v).collect();
            let room = vss.len() < 48;
            let peer = (!alive.is_empty()).then(|| alive[rng.gen_range(0..alive.len())]);
            let vs = (!vss.is_empty()).then(|| vss[rng.gen_range(0..vss.len())]);
            match (rng.gen_range(0..7u8), peer, vs) {
                (1, Some(p), _) => {
                    net.leave_peer(p);
                    model.retire(p);
                }
                (2, Some(p), _) => {
                    net.crash_peer(p);
                    model.retire(p);
                }
                (3, Some(_), Some(_)) => {
                    let batch = random_batch(&net, &alive, &vss, &mut rng);
                    net.transfer_vs(&batch);
                    for &(v, to) in &batch {
                        model.transfer(v, to);
                    }
                }
                (4, _, Some(v)) if room && net.region_of(v).len() >= 2 => {
                    let region = model.region(net.vs(v).position.raw());
                    let mid = region.start().raw().wrapping_add((region.len() / 2 - 1) as u32);
                    let host = net.vs(v).host;
                    prop_assert_eq!(Some(net.split_vs(v)), model.spawn_at(host, mid));
                }
                (5, _, Some(v)) => {
                    net.drop_vs(v);
                    model.drop_vs(v);
                }
                (6, Some(p), _) if room => {
                    prop_assert_eq!(net.spawn_vs(p, &mut draws), model.spawn(p, &mut model_draws));
                }
                _ if room => {
                    let count = rng.gen_range(0..4);
                    prop_assert_eq!(net.join_peer(count, &mut draws), model.join(count, &mut model_draws));
                }
                _ => {}
            }
            assert_matches_model(&net, &model, &mut rng);
        }
    }
}

/// [`ChordNetwork::join_peers`] against `peers` calls of `join_peer`:
/// ring, stamp, journal, every handle and list, and the next draw.
fn serial_join_matches_the_loop<R: Rng + rand::RngCore>(
    peers: usize,
    vs_per_peer: usize,
    mut rng: impl FnMut() -> R,
) {
    let (mut bulk_rng, mut loop_rng) = (rng(), rng());
    let mut looped = ChordNetwork::new();
    let mut since = looped.ring().stamp();
    for i in 0..peers {
        if i + 2 == peers {
            since = looped.ring().stamp();
        }
        looped.join_peer(vs_per_peer, &mut loop_rng);
    }
    let mut bulk = ChordNetwork::new();
    bulk.join_peers(peers, vs_per_peer, &mut bulk_rng);
    assert_same_network(&bulk, &looped, since, peers * vs_per_peer);
    assert_eq!(bulk_rng.next_u32(), loop_rng.next_u32());
}

#[test]
fn serial_bulk_join_equals_the_join_peer_loop() {
    // Repeats, scripted: the third draw repeats the first and the fourth
    // the second; both are redrawn at once, before the next server's.
    let draws = [5, 9, 5, 7, 9, 11, 7, 3];
    serial_join_matches_the_loop(3, 2, || Script::new(&draws));
    let mut rng = Script::new(&draws);
    let mut net = ChordNetwork::new();
    net.join_peers(3, 2, &mut rng);
    let positions: Vec<u32> = (0..6).map(|v| net.vs(VsId(v)).position.raw()).collect();
    assert_eq!(positions, [5, 9, 7, 11, 3, 0xF000_0009]);
    // Positions from `0..64`: many repeats, some redrawn more than once.
    for seed in 0..32 {
        serial_join_matches_the_loop(9, 4, || Narrow(StdRng::seed_from_u64(seed)));
    }
    serial_join_matches_the_loop(300, 5, || StdRng::seed_from_u64(7));
    // Peers without virtual servers draw nothing.
    serial_join_matches_the_loop(4, 0, || StdRng::seed_from_u64(8));
}
