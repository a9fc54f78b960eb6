use crate::error::Error;
use crate::lbi::LoadState;
use crate::pairing::{Assignment, RendezvousLists, ShedCandidate};
use proxbal_chord::{ChordNetwork, PeerId, PeerState, VsId};
use proxbal_topology::{DistanceOracle, LandmarkOracle};
use proxbal_trace::Trace;
use serde::{Deserialize, Serialize};

/// How VST accounts the physical distance of each transfer.
///
/// The exact scheme asks the oracle one point query per transfer — O(1)
/// table lookups on a transit-stub underlay
/// ([`DistanceOracle::for_topology`]), a Dijkstra row per uncached source
/// on any other graph. The hierarchical scheme answers most pairs from
/// landmark triangle-inequality bounds and asks the oracle only where the
/// bounds disagree *and* the source is among the `refine_sources` covering
/// the most uncertain pairs (filter-then-refine). Both are pure functions of
/// their inputs, so either mode is byte-identical at any thread count.
#[derive(Clone, Copy)]
pub enum TransferDistances<'a> {
    /// Every pair measured exactly (the default).
    Exact(&'a DistanceOracle),
    /// Landmark bounds first, exact point queries only for the
    /// highest-coverage uncertain sources.
    Approx {
        /// Exact oracle answering the refinement queries.
        oracle: &'a DistanceOracle,
        /// Precomputed landmark vectors answering the filter stage.
        landmarks: &'a LandmarkOracle,
        /// How many distinct sources (on the cheaper endpoint side) have
        /// their uncertain pairs measured exactly; the rest keep the
        /// landmark upper bound.
        refine_sources: usize,
    },
}

impl TransferDistances<'_> {
    /// The number of underlay nodes: every attachment is below it.
    fn node_count(&self) -> usize {
        match self {
            TransferDistances::Exact(oracle) | TransferDistances::Approx { oracle, .. } => {
                oracle.graph().node_count()
            }
        }
    }
}

/// One executed virtual-server transfer (VST, §3.5).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TransferRecord {
    /// The assignment that was executed.
    pub assignment: Assignment,
    /// Physical distance between the shedding and receiving peers, in
    /// latency units (interdomain hop = 3, intradomain hop = 1). `None`
    /// when the run has no underlay topology.
    pub distance: Option<u32>,
}

/// Fixed chunk size of the parallel transfer passes (resolving
/// assignments, measuring distinct endpoint pairs). A compile-time constant
/// — never derived from the thread count — though every pass's output is a
/// pure per-item function concatenated in order, so no chunk boundary can
/// show in it.
const TRANSFER_CHUNK: usize = 4096;

/// Executes assignments against the network: each virtual server moves to
/// its assigned peer (a Chord *leave* + *join* at the same ring position),
/// its load riding along. Records the physical transfer distance when an
/// underlay oracle is available — the cost metric of Figures 7 and 8.
///
/// Assignments whose source peer no longer hosts the virtual server (e.g.
/// it crashed between VSA and VST) are skipped, mirroring the soft-state
/// tolerance of the protocol. Fails with
/// [`Error::UnattachedPeer`] when a distance is requested for a
/// peer that was never attached to the underlay — the first such endpoint
/// in assignment order (source before receiver).
///
/// Runs in two steps. **Resolve**: decide which assignments are executable
/// and measure each one's distance, touching nothing — a typed error
/// leaves ring, hosts and loads exactly as they were. **Apply**: move the
/// virtual servers. Executability is judged against the overlay as the
/// batch finds it (the protocol runs a round's transfers in parallel, and
/// VSA assigns a virtual server at most once).
///
/// Resolving runs on `threads` workers: the executable check and both
/// endpoints' attachments per assignment over fixed chunks, then the
/// executable transfers' `(from, to, record)` keys sorted once, and the
/// distance of each distinct attachment pair measured once, over fixed
/// chunks of pairs — identical at any thread count.
///
/// Records VST metrics into `trace`: the `vst_load_per_hop` histogram
/// (observation = physical distance, weight = load moved at that
/// distance), executed/skipped counters, and the moved load and
/// `Σ load·distance` cost as floating-point counters.
pub fn execute_transfers(
    net: &mut ChordNetwork,
    loads: &mut LoadState,
    assignments: &[Assignment],
    distances: Option<TransferDistances<'_>>,
    threads: usize,
    trace: &mut Trace,
) -> Result<Vec<TransferRecord>, Error> {
    let prof = proxbal_profile::phase("round/transfer/distances");
    let resolved = resolve(net, assignments, distances.is_some(), threads)?;
    let measured = match distances {
        Some(distances) => record_distances(&resolved, distances, threads),
        None => Vec::new(),
    };
    let out: Vec<TransferRecord> = resolved
        .iter()
        .enumerate()
        .map(|(record, &(_, _, i))| TransferRecord {
            assignment: assignments[i as usize],
            distance: distances.map(|_| measured[record]),
        })
        .collect();
    drop(prof);

    let prof = proxbal_profile::phase("round/transfer/apply");
    for t in &out {
        let a = t.assignment;
        // Load rides with the virtual server (`LoadState` is keyed by
        // `VsId`), so there is nothing to move in the books — but what VSA
        // promised the receiver must still be what the server carries.
        debug_assert!(
            (loads.vs_load(a.vs) - a.load).abs() <= 1e-9 * a.load.abs().max(1.0),
            "assignment load {} differs from booked load {} of {:?}",
            a.load,
            loads.vs_load(a.vs),
            a.vs
        );
        net.transfer_vs(a.vs, a.to);
    }
    drop(prof);
    if trace.is_enabled() {
        trace.count("vst_transfers", out.len() as u64);
        trace.count("vst_skipped", (assignments.len() - out.len()) as u64);
        trace.count_f64("vst_moved_load", total_moved_load(&out));
        trace.count_f64("vst_weighted_cost", weighted_cost(&out));
        for t in &out {
            if let Some(d) = t.distance {
                trace.record_weighted("vst_load_per_hop", u64::from(d), t.assignment.load);
            }
        }
    }
    Ok(out)
}

/// The distance of every transfer of `resolved` (see [`resolve`]), by
/// position: each one's `(from, to, position)` key, the keys sorted by
/// pair once, and the distance of each distinct pair measured once
/// ([`pair_distances`]). The sort compares one packed `u64` per key and
/// leaves the positions within a pair in any order: each takes its
/// pair's distance.
fn record_distances(
    resolved: &[(u32, u32, u32)],
    distances: TransferDistances<'_>,
    threads: usize,
) -> Vec<u32> {
    let mut keys: Vec<(u32, u32, u32)> = resolved
        .iter()
        .enumerate()
        .map(|(record, &(from, to, _))| (from, to, record as u32))
        .collect();
    keys.sort_unstable_by_key(|&(from, to, _)| u64::from(from) << 32 | u64::from(to));
    let same_pair = |a: &(u32, u32, u32), b: &(u32, u32, u32)| (a.0, a.1) == (b.0, b.1);
    let pairs: Vec<(u32, u32)> = keys
        .chunk_by(same_pair)
        .map(|run| (run[0].0, run[0].1))
        .collect();
    let measured = pair_distances(&pairs, distances, threads);
    let mut out = vec![0; resolved.len()];
    for (run, &d) in keys.chunk_by(same_pair).zip(&measured) {
        for &(_, _, record) in run {
            out[record as usize] = d;
        }
    }
    out
}

/// The executable assignments of `assignments`, in order, as `(from, to,
/// assignment index)` — `from` and `to` the endpoints' attachments when
/// `attach` is set, `0` otherwise. Fails with the first unattached
/// endpoint in assignment order. Runs over fixed chunks of assignments on
/// `threads` workers; a chunk stops at its first error, and the chunks are
/// drained in order, so the first error of the earliest failing chunk is
/// the first overall.
fn resolve(
    net: &ChordNetwork,
    assignments: &[Assignment],
    attach: bool,
    threads: usize,
) -> Result<Vec<(u32, u32, u32)>, Error> {
    let chunks =
        proxbal_parallel::map_chunked(assignments.len(), TRANSFER_CHUNK, threads, |range| {
            let mut keys = Vec::with_capacity(range.len());
            for i in range {
                let a = &assignments[i];
                if !executable(net, a) {
                    continue;
                }
                let (from, to) = match attach {
                    true => (attachment(net, a.from)?, attachment(net, a.to)?),
                    false => (0, 0),
                };
                keys.push((from, to, u32::try_from(i).expect("u32 assignment indices")));
            }
            Ok(keys)
        });
    let mut keys = Vec::with_capacity(assignments.len());
    for chunk in chunks {
        keys.extend(chunk?);
    }
    Ok(keys)
}

/// True iff `a` can execute against the current overlay: its source still
/// hosts the virtual server and its receiver is alive. Anything else is a
/// stale assignment (e.g. a crash between VSA and VST) and is skipped,
/// mirroring the soft-state tolerance of the protocol.
fn executable(net: &ChordNetwork, a: &Assignment) -> bool {
    let vs = net.vs(a.vs);
    vs.alive && vs.host == a.from && net.peer(a.to).state == PeerState::Alive
}

/// The underlay node `peer` is attached to.
pub(crate) fn attachment(net: &ChordNetwork, peer: PeerId) -> Result<u32, Error> {
    match net.peer(peer).underlay {
        u32::MAX => Err(Error::UnattachedPeer(peer)),
        node => Ok(node),
    }
}

/// The distance of every pair of `pairs` (distinct attachment pairs), in
/// order, on `threads` workers.
///
/// [`TransferDistances::Exact`] asks the oracle about each pair.
/// [`TransferDistances::Approx`] runs filter-then-refine. **Filter**: every
/// pair gets landmark triangle-inequality bounds; pairs whose lower and
/// upper bounds meet are exact for free. **Refine**: the remaining
/// uncertain pairs are grouped by their cheaper endpoint side (fewer
/// distinct sources), sources are ranked by how many uncertain pairs they
/// cover (ties by ascending id), and the pairs of the top `refine_sources`
/// of them are measured with [`DistanceOracle::distance`] — table lookups
/// on an indexed oracle, the source's cached row otherwise. Pairs left over
/// keep the landmark upper bound. Every step is a pure function of the
/// pairs and the oracles.
pub(crate) fn pair_distances(
    pairs: &[(u32, u32)],
    distances: TransferDistances<'_>,
    threads: usize,
) -> Vec<u32> {
    let (oracle, landmarks, refine_sources) = match distances {
        TransferDistances::Exact(oracle) => {
            return measure(pairs, threads, |&(f, t)| oracle.distance(f, t));
        }
        TransferDistances::Approx {
            oracle,
            landmarks,
            refine_sources,
        } => (oracle, landmarks, refine_sources),
    };
    let prof = proxbal_profile::phase("round/transfer/distances/filter");
    let bounds = measure(pairs, threads, |&(f, t)| landmarks.bounds(f, t));
    let mut out: Vec<u32> = bounds.iter().map(|&(_, hi)| hi).collect();
    let uncertain: Vec<u32> = (0..pairs.len() as u32)
        .filter(|&i| bounds[i as usize].0 != bounds[i as usize].1)
        .collect();
    drop(prof);
    let _prof = proxbal_profile::phase("round/transfer/distances/refine");
    if uncertain.is_empty() || refine_sources == 0 {
        return out;
    }
    // Uncertain pairs per source node, on either side.
    let nodes = distances.node_count();
    let (mut per_from, mut per_to) = (vec![0u32; nodes], vec![0u32; nodes]);
    for &i in &uncertain {
        let (f, t) = pairs[i as usize];
        per_from[f as usize] += 1;
        per_to[t as usize] += 1;
    }
    let distinct = |per: &[u32]| per.iter().filter(|&&n| n > 0).count();
    let by_to = distinct(&per_to) <= distinct(&per_from);
    let per_src = if by_to { per_to } else { per_from };
    let src_other = |(f, t): (u32, u32)| if by_to { (t, f) } else { (f, t) };
    let mut ranked: Vec<(u32, u32)> = (0..nodes as u32)
        .map(|s| (s, per_src[s as usize]))
        .filter(|&(_, n)| n > 0)
        .collect();
    ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut chosen = vec![false; nodes];
    for &(src, _) in ranked.iter().take(refine_sources) {
        chosen[src as usize] = true;
    }
    let refined: Vec<u32> = uncertain
        .into_iter()
        .filter(|&i| chosen[src_other(pairs[i as usize]).0 as usize])
        .collect();
    let exact = measure(&refined, threads, |&i| {
        let (src, other) = src_other(pairs[i as usize]);
        oracle.distance(src, other)
    });
    for (&i, d) in refined.iter().zip(exact) {
        out[i as usize] = d;
    }
    out
}

/// `f` of every item of `items`, in order, over fixed chunks on `threads`
/// workers.
fn measure<I: Sync, T: Copy + Send>(
    items: &[I],
    threads: usize,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    proxbal_parallel::map_chunked(items.len(), TRANSFER_CHUNK, threads, |range| {
        items[range].iter().map(&f).collect::<Vec<T>>()
    })
    .concat()
}

/// Accounting of a fault-tolerant VST round
/// ([`execute_transfers_with_requeue`]).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RequeueOutcome {
    /// Every transfer that executed (first pass plus re-pairings).
    pub transfers: Vec<TransferRecord>,
    /// Assignments whose receiving peer was dead at execution time and
    /// that were re-offered at the next-higher rendezvous.
    pub requeued: usize,
    /// Of the requeued, how many found a surviving light slot and moved.
    pub reassigned: usize,
    /// Of the requeued, how many found no room and stayed put (they will
    /// be picked up by the next balancing round).
    pub abandoned: usize,
}

/// Fault-tolerant variant of [`execute_transfers`]: an assignment
/// whose receiving peer died between VSA and VST is not silently skipped
/// but **requeued at the next-higher rendezvous** — its shed candidate is
/// re-inserted into `spare` (the surviving light slots that bubbled up to
/// the root during the sweep) and re-paired best-fit, exactly as the
/// rendezvous point itself would have done had the failure been known
/// (§3.4's graceful degradation). Deterministic: both lists are sorted and
/// the re-pairing is the same best-fit walk as the in-sweep pairing.
///
/// Records the VST metrics of [`execute_transfers`] plus
/// `requeue_requeued` / `requeue_reassigned` / `requeue_abandoned`
/// counters into `trace`.
///
/// The default [`execute_transfers`] path is untouched — fault-free runs
/// stay byte-identical.
pub fn execute_transfers_with_requeue(
    net: &mut ChordNetwork,
    loads: &mut LoadState,
    assignments: &[Assignment],
    distances: Option<TransferDistances<'_>>,
    spare: &mut RendezvousLists,
    l_min: f64,
    trace: &mut Trace,
) -> Result<RequeueOutcome, Error> {
    let transfers = execute_transfers(net, loads, assignments, distances, 1, trace)?;
    // Assignments still valid on the shedding side whose receiver died.
    let mut requeued = 0usize;
    for a in assignments {
        let vs = net.vs(a.vs);
        if vs.alive && vs.host == a.from && net.peer(a.to).state != PeerState::Alive {
            spare.push_shed(ShedCandidate {
                load: a.load,
                vs: a.vs,
                from: a.from,
            });
            requeued += 1;
        }
    }
    let mut outcome = RequeueOutcome {
        transfers,
        requeued,
        reassigned: 0,
        abandoned: 0,
    };
    if requeued == 0 {
        return Ok(outcome);
    }
    let mut extra = Vec::new();
    spare.pair_into(l_min, &mut extra, trace);
    // Dead light peers may linger in `spare` too; the executor's liveness
    // filter drops those pairings, leaving the candidate for next round.
    let executed = execute_transfers(net, loads, &extra, distances, 1, trace)?;
    outcome.reassigned = executed.len();
    outcome.abandoned = requeued - outcome.reassigned;
    outcome.transfers.extend(executed);
    trace.count("requeue_requeued", outcome.requeued as u64);
    trace.count("requeue_reassigned", outcome.reassigned as u64);
    trace.count("requeue_abandoned", outcome.abandoned as u64);
    Ok(outcome)
}

/// Total load moved across a set of transfers.
pub fn total_moved_load(transfers: &[TransferRecord]) -> f64 {
    transfers.iter().map(|t| t.assignment.load).sum()
}

/// Load-weighted transfer cost: `Σ load·distance` (only counting transfers
/// with a known distance).
pub fn weighted_cost(transfers: &[TransferRecord]) -> f64 {
    transfers
        .iter()
        .filter_map(|t| t.distance.map(|d| t.assignment.load * f64::from(d)))
        .sum()
}

/// Gracefully removes a peer from the overlay: each of its virtual servers
/// leaves the ring and the objects it held (modelled as its load) are
/// handed to the virtual server absorbing its region — a Chord *leave*
/// with data handover, in contrast to [`ChordNetwork::crash_peer`] where
/// the load vanishes with the node (no replication is modelled).
///
/// Returns the total load handed over.
pub fn graceful_leave(net: &mut ChordNetwork, loads: &mut LoadState, peer: PeerId) -> f64 {
    let vss: Vec<VsId> = net.vss_of(peer).to_vec();
    let mut handed = 0.0;
    // Drop one VS at a time so each region's absorber is the live owner at
    // that instant (matters when the peer owns adjacent regions).
    for v in vss {
        let load = loads.vs_load(v);
        let pos = net.vs(v).position;
        net.drop_vs(v);
        loads.set_vs_load(v, 0.0);
        if let Some(absorber) = net.ring().owner(pos) {
            loads.add_vs_load(absorber, load);
            handed += load;
        }
    }
    net.leave_peer(peer);
    handed
}

/// Settles the load books after a virtual server joins the ring: the new
/// virtual server's region was carved out of its successor's region, so
/// the successor's load (its objects) moves in proportion to the region
/// fraction taken. Returns the load moved to the new virtual server.
pub fn absorb_join(net: &ChordNetwork, loads: &mut LoadState, new_vs: VsId) -> f64 {
    let position = net.vs(new_vs).position;
    let Some((_, successor)) = net.ring().successor_after(position) else {
        return 0.0; // sole virtual server on the ring
    };
    if successor == new_vs {
        return 0.0;
    }
    let new_len = net.region_of(new_vs).len() as f64;
    let succ_len = net.region_of(successor).len() as f64;
    let succ_load = loads.vs_load(successor);
    let moved = succ_load * new_len / (new_len + succ_len);
    loads.set_vs_load(successor, succ_load - moved);
    loads.add_vs_load(new_vs, moved);
    moved
}
