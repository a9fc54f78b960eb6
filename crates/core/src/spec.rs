//! An executable specification of one balancing round: PAPER.md §1's four
//! phases written with per-node maps and plain loops, the reference
//! [`crate::LoadBalancer::run_round`] is checked against bit for bit.
//!
//! It calls no round kernel — nothing of `reports`, `pairing`, `vsa`,
//! `selection`, `transfer` or `round`, neither `KTree::{aggregate,
//! report_target}` nor `DistanceOracle::{distance, row, landmark_vector}`.
//! It reads the ring, the tree's shape (children, regions, hosts) and the
//! underlay graphs, and answers every question of the round itself. Where
//! the paper leaves an order open, the rule is fixed in one line marked
//! **Order:**. The tree must be stable, freshly built or maintained; its
//! shape is read through `levels` and `children`, in the tree's preorder.

use crate::{
    Assignment, BalanceReport, BalancerConfig, DirtySet, Error, Lbi, LightSlot, LoadState,
    MessageStats, NodeClass, ProximityMode, ProximityParams, ShedCandidate, TransferRecord,
    Underlay, EXACT_LIMIT,
};
use proxbal_chord::{ChordNetwork, PeerId, PeerState, VsId};
use proxbal_hilbert::LandmarkMapper;
use proxbal_id::Id;
use proxbal_ktree::{KTree, KtNodeId};
use proxbal_topology::{DijkstraScratch, Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};

/// Everything one round answers: the fields of a [`BalanceReport`], with
/// the per-class counts as `([heavy, light, neutral], classes present)`
/// and the leftover lists as `(shed, light)`. Rounds are compared through
/// their `Debug` form, which shows every `f64` exactly.
#[derive(Debug)]
#[allow(dead_code)]
pub(crate) struct Round {
    pub system: Lbi,
    pub lbi_rounds: u32,
    pub dissemination_rounds: u32,
    pub before: ([usize; 3], usize),
    pub assignments: Vec<Assignment>,
    pub unassigned: (Vec<ShedCandidate>, Vec<LightSlot>),
    pub vsa_rounds: u32,
    pub rendezvous_points: usize,
    pub assignments_per_depth: Vec<usize>,
    pub record_hops: usize,
    pub transfers: Vec<TransferRecord>,
    pub after: ([usize; 3], usize),
    pub messages: MessageStats,
}

impl Round {
    /// The same fields, read off a report of the balancer.
    pub fn of(report: &BalanceReport) -> Round {
        let counts = |map: &HashMap<NodeClass, usize>| {
            let get = |class| map.get(&class).copied().unwrap_or(0);
            let classes = [NodeClass::Heavy, NodeClass::Light, NodeClass::Neutral];
            (classes.map(get), map.len())
        };
        let (vsa, left) = (&report.vsa, &report.vsa.unassigned);
        Round {
            system: report.system,
            lbi_rounds: report.lbi_rounds,
            dissemination_rounds: report.dissemination_rounds,
            before: counts(&report.before),
            assignments: vsa.assignments.clone(),
            unassigned: (left.shed().to_vec(), left.light().to_vec()),
            vsa_rounds: vsa.rounds,
            rendezvous_points: vsa.rendezvous_points,
            assignments_per_depth: vsa.assignments_per_depth.clone(),
            record_hops: vsa.record_hops,
            transfers: report.transfers.clone(),
            after: counts(&report.after),
            messages: report.messages,
        }
    }
}

/// One balancing round over `net` with the stable `tree`:
/// what `run_round` does with the same arguments, the virtual server each
/// peer last reported through kept in `cache`. Only the paper's round is
/// specified: no virtual-server splits, and exact transfer distances.
#[allow(clippy::too_many_arguments)]
pub(crate) fn round<R: Rng>(
    cfg: &BalancerConfig,
    net: &mut ChordNetwork,
    loads: &mut LoadState,
    tree: &KTree,
    underlay: Option<Underlay<'_>>,
    cache: &mut BTreeMap<PeerId, VsId>,
    dirty: &DirtySet,
    rng: &mut R,
) -> Result<Round, Error> {
    assert_eq!(cfg.max_splits, 0, "the spec has no virtual-server splits");
    assert!(underlay.is_none_or(|u| u.approx.is_none()), "exact only");
    let alive = net.alive_peers();
    if let Some(&p) = alive.iter().find(|&&p| !loads.has_capacity(p)) {
        return Err(Error::MissingCapacity(p));
    }
    let levels = tree.levels();
    let peer_of = |id: KtNodeId| net.vs(tree.node(id).host()).host;

    // Phase 1, leaf reports (§3.2). Each alive peer, ascending, reports its
    // LBI through the KT leaf of one of its virtual servers: a dirty peer,
    // or one whose binding died or moved away, draws it at random; a clean
    // peer keeps its binding; a peer hosting none reports at the root.
    cache.retain(|&p, _| net.peer(p).state == PeerState::Alive);
    let mut reports: HashMap<KtNodeId, (Lbi, bool)> = HashMap::new();
    for &p in &alive {
        let is_dirty = match dirty {
            DirtySet::All => true,
            DirtySet::Peers(peers) => peers.contains(&p),
        };
        let kept = cache.get(&p).copied();
        let kept = kept.filter(|&v| net.vs(v).alive && net.vs(v).host == p);
        let (vs, sent) = match kept {
            Some(vs) if !is_dirty => (Some(vs), false),
            _ => (net.vss_of(p).choose(rng).copied(), true),
        };
        match vs {
            Some(vs) => cache.insert(p, vs),
            None => cache.remove(&p),
        };
        let at = vs.map_or(tree.root(), |vs| leaf_of(tree, net.vs(vs).position));
        let lbi = loads.node_lbi(net, p);
        // Order: the LBIs of peers sharing a leaf merge in ascending peer order.
        match reports.get_mut(&at) {
            Some((acc, any_sent)) => {
                merge(acc, lbi);
                *any_sent |= sent;
            }
            None => {
                reports.insert(at, (lbi, sent));
            }
        }
    }

    // Level by level, deepest first, every node merges its own report with
    // what its children sent up. An edge between two peers carries one
    // message: up if a re-reported LBI lies below it, and down again when
    // the root disseminates `<L, C, L_min>` to every node. A node's message
    // depth counts the changes of virtual server on its root path.
    let mut depth: HashMap<KtNodeId, u32> = HashMap::from([(tree.root(), 0)]);
    for level in &levels {
        for &id in level {
            for c in children(tree, id) {
                let hop = u32::from(tree.node(c).host() != tree.node(id).host());
                depth.insert(c, depth[&id] + hop);
            }
        }
    }
    let (mut lbi_messages, mut dissemination_messages) = (0, 0);
    let mut folded: HashMap<KtNodeId, (Option<Lbi>, bool)> = HashMap::new();
    for level in levels.iter().rev() {
        for &id in level {
            let (mut value, mut sent) = match reports.get(&id) {
                Some(&(lbi, sent)) => (Some(lbi), sent),
                None => (None, false),
            };
            // Order: children fold in part order.
            for c in children(tree, id) {
                let (below, below_sent) = folded.remove(&c).expect("children fold first");
                let crossing = usize::from(peer_of(c) != peer_of(id));
                dissemination_messages += crossing;
                if below_sent {
                    lbi_messages += crossing;
                    sent = true;
                }
                value = match (value, below) {
                    (Some(mut acc), Some(lbi)) => {
                        merge(&mut acc, lbi);
                        Some(acc)
                    }
                    (acc, lbi) => acc.or(lbi),
                };
            }
            folded.insert(id, (value, sent));
        }
    }
    let system = folded[&tree.root()].0.ok_or(Error::EmptyNetwork)?;
    let lbi_rounds = reports.keys().map(|id| depth[id]).max().unwrap_or(0);
    let dissemination_rounds = depth.values().copied().max().unwrap_or(0);

    // Phase 2, classification (§3.3): `T_i = (L/C)·C_i·(1+ε)`; heavy above
    // it, light with at least `L_min` of room, neutral otherwise.
    assert!(system.capacity > 0.0, "system has no capacity");
    let target = |c: f64| system.load / system.capacity * c * (1.0 + cfg.epsilon);
    let classify = |loads: &LoadState, net: &ChordNetwork, p: PeerId| {
        let lbi = loads.node_lbi(net, p);
        let t = target(lbi.capacity);
        match () {
            _ if lbi.load > t => (NodeClass::Heavy, lbi.load - t),
            _ if t - lbi.load >= system.min_vs_load => (NodeClass::Light, t - lbi.load),
            _ => (NodeClass::Neutral, 0.0),
        }
    };
    let counts = |loads: &LoadState, net: &ChordNetwork| {
        let mut n = [0usize; 3];
        for p in net.alive_peers() {
            n[classify(loads, net, p).0 as usize] += 1;
        }
        (n, n.iter().filter(|&&n| n > 0).count())
    };
    let before = counts(loads, net);

    // Phase 3, VSA (§3.4). Every heavy peer offers its minimum-load shed
    // set, every light peer its room; shedding peers then light peers, each
    // ascending, publish their records.
    let mut participants: Vec<(PeerId, Vec<ShedCandidate>, Option<LightSlot>)> = Vec::new();
    let mut light = Vec::new();
    for &p in &alive {
        match classify(loads, net, p) {
            (NodeClass::Heavy, excess) => {
                let vss: Vec<(VsId, f64)> = net
                    .vss_of(p)
                    .iter()
                    .map(|&v| (v, loads.vs_load(v)))
                    .collect();
                let set = shed_set(&vss, excess);
                let cands = set.iter().map(|&vs| ShedCandidate {
                    load: loads.vs_load(vs),
                    vs,
                    from: p,
                });
                if !set.is_empty() {
                    participants.push((p, cands.collect(), None));
                }
            }
            (NodeClass::Light, spare) if spare > 0.0 => {
                light.push((p, Vec::new(), Some(LightSlot { spare, peer: p })));
            }
            _ => {}
        }
    }
    participants.extend(light);
    let entries: Vec<KtNodeId> = match cfg.mode {
        // Ignorant (§3.4): at the leaf of one random virtual server, the
        // root for a peer hosting none.
        ProximityMode::Ignorant => participants
            .iter()
            .map(|(p, ..)| {
                let vs = net.vss_of(*p).choose(rng);
                vs.map_or(tree.root(), |&vs| leaf_of(tree, net.vs(vs).position))
            })
            .collect(),
        // Aware (§4.3): at the DHT key of the peer's Hilbert number, which
        // its owner virtual server reports through its own leaf.
        ProximityMode::Aware(prox) => {
            let u = underlay.ok_or(Error::MissingUnderlay)?;
            let peers: Vec<PeerId> = participants.iter().map(|(p, ..)| *p).collect();
            let latency = u.latency_oracle.unwrap_or(u.oracle).graph();
            let keys = hilbert_keys(net, &peers, &prox, latency, u.landmarks)?;
            let owner = |key| net.ring().owner(Id::new(key)).ok_or(Error::EmptyNetwork);
            let owners = keys.into_iter().map(owner).collect::<Result<Vec<_>, _>>()?;
            let leaf = |vs: VsId| leaf_of(tree, net.vs(vs).position);
            owners.into_iter().map(leaf).collect()
        }
    };
    let mut held: HashMap<KtNodeId, Lists> = HashMap::new();
    for ((_, cands, slot), at) in participants.iter().zip(entries) {
        let lists = held.entry(at).or_default();
        // Order: a published record goes before the records of equal key.
        for &c in cands {
            insert(&mut lists.shed, c, |c| c.load);
        }
        if let Some(slot) = *slot {
            insert(&mut lists.light, slot, |s| s.spare);
        }
    }
    let vsa_rounds = held.keys().map(|id| depth[id]).max().unwrap_or(0);

    // The sweep: a node holding at least the threshold of records — and
    // the root, whatever it holds — is a rendezvous point and pairs. What
    // is left climbs to the parent, each record costing a message per
    // change of peer. Order: level by level, deepest first, each level
    // by ascending region start.
    let l_min = system.min_vs_load;
    let (mut assignments, mut per_depth) = (Vec::new(), Vec::new());
    let (mut rendezvous_points, mut record_hops) = (0, 0);
    let mut unassigned = Lists::default();
    for (d, level) in levels.iter().enumerate().rev() {
        for &id in level {
            let Some(mut lists) = held.remove(&id) else {
                continue;
            };
            let size = lists.shed.len() + lists.light.len();
            if size > 0 && (id == tree.root() || size >= cfg.rendezvous_threshold) {
                let produced = pair(&mut lists, l_min, &mut assignments);
                if produced > 0 {
                    rendezvous_points += 1;
                    per_depth.resize(per_depth.len().max(d + 1), 0);
                    per_depth[d] += produced;
                }
            }
            let Some(parent) = tree.node(id).parent() else {
                unassigned = lists;
                continue;
            };
            if tree.node(id).host() != tree.node(parent).host() {
                record_hops += lists.shed.len() + lists.light.len();
            }
            // Order: a node's own records first, then its children's in
            // part order; a stable sort keeps the earlier of equal keys first.
            let up = held.entry(parent).or_default();
            up.shed.extend(lists.shed);
            up.shed.sort_by(|a, b| a.load.total_cmp(&b.load));
            up.light.extend(lists.light);
            up.light.sort_by(|a, b| a.spare.total_cmp(&b.spare));
        }
    }

    // Phase 4, VST (§3.5). Every assignment whose virtual server still
    // sits on the shedding peer and whose receiver lives moves, the
    // distance between the two peers' attachments read off a Dijkstra row
    // of the hop graph; no transfer starts before every one is resolved.
    let graph = underlay.map(|u| u.oracle.graph());
    let mut rows: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut transfers = Vec::new();
    for a in &assignments {
        let vs = net.vs(a.vs);
        if !(vs.alive && vs.host == a.from && net.peer(a.to).state == PeerState::Alive) {
            continue;
        }
        let distance = match graph {
            Some(g) => {
                let (from, to) = (attachment(net, a.from)?, attachment(net, a.to)?);
                let row = rows.entry(from).or_insert_with(|| dijkstra(g, from));
                Some(row[to as usize])
            }
            None => None,
        };
        transfers.push(TransferRecord {
            assignment: *a,
            distance,
        });
    }
    for t in &transfers {
        net.transfer_vs(&[(t.assignment.vs, t.assignment.to)]);
    }
    let after = counts(loads, net);
    let cost = |t: &TransferRecord| t.distance.map(|d| t.assignment.load * f64::from(d));
    let messages = MessageStats {
        lbi_messages,
        dissemination_messages,
        vsa_record_hops: record_hops,
        vsa_notifications: 2 * assignments.len(),
        vst_weighted_cost: transfers.iter().filter_map(cost).sum(),
    };
    Ok(Round {
        system,
        lbi_rounds,
        dissemination_rounds,
        before,
        assignments,
        unassigned: (unassigned.shed, unassigned.light),
        vsa_rounds,
        rendezvous_points,
        assignments_per_depth: per_depth,
        record_hops,
        transfers,
        after,
        messages,
    })
}

/// `<L, C, L_min>` merged: loads and capacities add, minima take the least.
fn merge(acc: &mut Lbi, other: Lbi) {
    acc.load += other.load;
    acc.capacity += other.capacity;
    acc.min_vs_load = acc.min_vs_load.min(other.min_vs_load);
}

/// The children of `id`, in part order.
fn children(tree: &KTree, id: KtNodeId) -> Vec<KtNodeId> {
    tree.node(id).children().flatten().collect()
}

/// The node a ring position reports through: from the root down the child
/// whose region holds it, as deep as such a child exists — on a stable
/// tree the leaf planted in the virtual server at that position.
fn leaf_of(tree: &KTree, pos: Id) -> KtNodeId {
    let mut at = tree.root();
    let holds = |c: &KtNodeId| tree.node(*c).region().contains(pos);
    while let Some(c) = children(tree, at).into_iter().find(holds) {
        at = c;
    }
    at
}

/// A node's two VSA lists, each ascending by key.
#[derive(Default)]
struct Lists {
    shed: Vec<ShedCandidate>,
    light: Vec<LightSlot>,
}

/// Inserts `x` into the ascending `list` before every entry of equal key.
fn insert<T>(list: &mut Vec<T>, x: T, key: impl Fn(&T) -> f64) {
    let at = list.iter().position(|y| key(y).total_cmp(&key(&x)).is_ge());
    list.insert(at.unwrap_or(list.len()), x);
}

/// The pairing of §3.4 at one rendezvous point: for each candidate,
/// heaviest first, the light slot with the least room that still takes it
/// (best fit) receives it, and a residual of at least `L_min` is offered
/// again. Candidates that fit nowhere stay. Order: among equally roomy
/// slots, the first in the list. Returns the number of assignments.
fn pair(lists: &mut Lists, l_min: f64, out: &mut Vec<Assignment>) -> usize {
    let before = out.len();
    for i in (0..lists.shed.len()).rev() {
        let c = lists.shed[i];
        let fits = |s: &LightSlot| s.spare.total_cmp(&c.load).is_ge();
        let Some(j) = lists.light.iter().position(fits) else {
            continue;
        };
        lists.shed.remove(i);
        let slot = lists.light.remove(j);
        out.push(Assignment {
            vs: c.vs,
            load: c.load,
            from: c.from,
            to: slot.peer,
        });
        let residual = slot.spare - c.load;
        if residual >= l_min && residual > 0.0 {
            let slot = LightSlot {
                spare: residual,
                peer: slot.peer,
            };
            insert(&mut lists.light, slot, |s| s.spare);
        }
    }
    out.len() - before
}

/// The minimum-load subset of `vss` whose loads reach `excess` (§3.4),
/// heaviest first. Order: the loads are sorted heaviest first (stably) and
/// every sum adds them in that order. Up to [`EXACT_LIMIT`] virtual
/// servers every subset is tried; one counts when its sum first reaches the
/// excess at its last member, and the least sum wins, ties going to the
/// subset that takes the heavier virtual servers (the search tries taking
/// a server before skipping it). Above that, the greedy: take the heaviest
/// while short, then drop the lightest taken ones that are not needed.
/// When nothing reaches the excess, everything goes, in input order. (The
/// balancer's search prunes on sums added from the lightest up, so the two
/// can part where a subset reaches the excess only in its last bit.)
pub(crate) fn shed_set(vss: &[(VsId, f64)], excess: f64) -> Vec<VsId> {
    let mut sorted = vss.to_vec();
    sorted.sort_by(|a, b| b.1.total_cmp(&a.1));
    let n = sorted.len();
    let taken: Option<Vec<usize>> = if n <= EXACT_LIMIT {
        // Descending masks with the heaviest server on the top bit: the
        // subsets in the search's take-before-skip order.
        let mut best: Option<(f64, u32)> = None;
        'masks: for mask in (0..1u32 << n).rev() {
            let mut sum = 0.0;
            for i in (0..n).filter(|i| mask >> (n - 1 - i) & 1 == 1) {
                if sum >= excess {
                    continue 'masks;
                }
                sum += sorted[i].1;
            }
            if sum >= excess && best.is_none_or(|(b, _)| sum < b) {
                best = Some((sum, mask));
            }
        }
        best.map(|(_, mask)| (0..n).filter(|i| mask >> (n - 1 - i) & 1 == 1).collect())
    } else {
        let (mut sum, mut taken) = (0.0, Vec::new());
        for (i, &(_, load)) in sorted.iter().enumerate() {
            if sum >= excess {
                break;
            }
            sum += load;
            taken.push(i);
        }
        for j in (0..taken.len()).rev() {
            if sum - sorted[taken[j]].1 >= excess {
                sum -= sorted[taken[j]].1;
                taken.remove(j);
            }
        }
        (sum >= excess).then_some(taken)
    };
    match taken {
        Some(taken) => taken.into_iter().map(|i| sorted[i].0).collect(),
        None => vss.iter().map(|&(vs, _)| vs).collect(),
    }
}

/// The DHT key each of `peers` publishes at (§4.3): its landmark vector —
/// Dijkstra distances on the latency graph from the key's landmarks —
/// mapped to a Hilbert number, the grid scaled the way `prox` says.
fn hilbert_keys(
    net: &ChordNetwork,
    peers: &[PeerId],
    prox: &ProximityParams,
    latency: &Graph,
    landmarks: &[NodeId],
) -> Result<Vec<u32>, Error> {
    let dims = prox
        .key_dims
        .map_or(landmarks.len(), |d| d.clamp(1, landmarks.len()));
    let bits = prox.bits_per_dim.clamp(1, (128 / dims as u32).min(32));
    let rows: Vec<Vec<u32>> = landmarks[..dims]
        .iter()
        .map(|&l| dijkstra(latency, l))
        .collect();
    let mut vectors = Vec::new();
    for &p in peers {
        let at = attachment(net, p)? as usize;
        vectors.push(rows.iter().map(|row| row[at]).collect::<Vec<u32>>());
    }
    let scale_max = vectors.iter().flatten().copied().max().unwrap_or(0).max(1);
    if prox.center_vectors {
        for v in &mut vectors {
            let min = v.iter().copied().min().unwrap_or(0);
            v.iter_mut().for_each(|d| *d -= min);
        }
    }
    let mapper = if prox.per_dim_scaling {
        let ranges = (0..dims)
            .map(|d| {
                let lo = vectors.iter().map(|v| v[d]).min();
                let hi = vectors.iter().map(|v| v[d]).max();
                lo.zip(hi).unwrap_or((0, 1))
            })
            .collect();
        LandmarkMapper::with_ranges(dims as u32, bits, ranges)
    } else if prox.center_vectors {
        LandmarkMapper::centered(dims as u32, bits, scale_max)
    } else {
        LandmarkMapper::new(dims as u32, bits, scale_max)
    };
    let mapper = mapper.with_curve(prox.curve);
    Ok(vectors.iter().map(|v| mapper.dht_key(v).raw()).collect())
}

/// The underlay node `p` is attached to.
fn attachment(net: &ChordNetwork, p: PeerId) -> Result<u32, Error> {
    match net.peer(p).underlay {
        u32::MAX => Err(Error::UnattachedPeer(p)),
        node => Ok(node),
    }
}

/// Every node's distance from `src`.
fn dijkstra(graph: &Graph, src: NodeId) -> Vec<u32> {
    graph
        .dijkstra_into(src, &mut DijkstraScratch::new())
        .to_vec()
}
