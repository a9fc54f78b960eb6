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

/// Executes assignments against the network: each virtual server moves to
/// its assigned peer (a Chord *leave* + *join* at the same ring position),
/// its load riding along. Records the physical transfer distance when an
/// underlay oracle is available — the cost metric of Figures 7 and 8.
///
/// Assignments whose source peer no longer hosts the virtual server (e.g.
/// it crashed between VSA and VST) are skipped, mirroring the soft-state
/// tolerance of the protocol. Fails with
/// [`Error::UnattachedPeer`] when a distance is requested for a
/// peer that was never attached to the underlay.
///
/// Runs in two steps. **Resolve**: decide which assignments are executable
/// and measure each one's distance, touching nothing — a typed error
/// leaves ring, hosts and loads exactly as they were. **Apply**: move the
/// virtual servers. Executability is judged against the overlay as the
/// batch finds it (the protocol runs a round's transfers in parallel, and
/// VSA assigns a virtual server at most once).
pub fn execute_transfers(
    net: &mut ChordNetwork,
    loads: &mut LoadState,
    assignments: &[Assignment],
    distances: Option<TransferDistances<'_>>,
) -> Result<Vec<TransferRecord>, Error> {
    let prof = proxbal_profile::phase("round/transfer/distances");
    // The approximate scheme memoizes every pair up front (landmark
    // filter, then exact refinement); exact distances are point queries
    // asked per transfer.
    let memo = match distances {
        Some(TransferDistances::Approx {
            oracle,
            landmarks,
            refine_sources,
        }) => pair_distances_approx(net, assignments, oracle, landmarks, refine_sources),
        _ => DistanceMemo::new(),
    };
    let mut out = Vec::with_capacity(assignments.len());
    for &a in assignments {
        if !executable(net, &a) {
            continue;
        }
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
    drop(prof);

    let _prof = proxbal_profile::phase("round/transfer/apply");
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
    Ok(out)
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

/// Like [`execute_transfers`], recording VST metrics into `trace`: the
/// `vst_load_per_hop` histogram (observation = physical distance, weight =
/// load moved at that distance), executed/skipped counters, and the moved
/// load and `Σ load·distance` cost as floating-point counters.
pub fn execute_transfers_traced(
    net: &mut ChordNetwork,
    loads: &mut LoadState,
    assignments: &[Assignment],
    distances: Option<TransferDistances<'_>>,
    trace: &mut Trace,
) -> Result<Vec<TransferRecord>, Error> {
    let out = execute_transfers(net, loads, assignments, distances)?;
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

/// Fault-tolerant variant of [`execute_transfers_traced`]: an assignment
/// whose receiving peer died between VSA and VST is not silently skipped
/// but **requeued at the next-higher rendezvous** — its shed candidate is
/// re-inserted into `spare` (the surviving light slots that bubbled up to
/// the root during the sweep) and re-paired best-fit, exactly as the
/// rendezvous point itself would have done had the failure been known
/// (§3.4's graceful degradation). Deterministic: both lists are sorted and
/// the re-pairing is the same best-fit walk as the in-sweep pairing.
///
/// Records the VST metrics of [`execute_transfers_traced`] plus
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
    let transfers = execute_transfers_traced(net, loads, assignments, distances, trace)?;
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
    let executed = execute_transfers_traced(net, loads, &extra, distances, trace)?;
    outcome.reassigned = executed.len();
    outcome.abandoned = requeued - outcome.reassigned;
    outcome.transfers.extend(executed);
    trace.count("requeue_requeued", outcome.requeued as u64);
    trace.count("requeue_reassigned", outcome.reassigned as u64);
    trace.count("requeue_abandoned", outcome.abandoned as u64);
    Ok(outcome)
}

pub(crate) type DistanceMemo = std::collections::HashMap<(u32, u32), u32>;

/// Collects the distinct `(from, to)` attachment pairs of the executable
/// assignments (unattached endpoints are left for the executor to report).
pub(crate) fn endpoint_pairs(net: &ChordNetwork, assignments: &[Assignment]) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(assignments.len());
    for a in assignments {
        if !executable(net, a) {
            continue;
        }
        if let (Ok(from), Ok(to)) = (attachment(net, a.from), attachment(net, a.to)) {
            pairs.push((from, to));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Filter-then-refine pair distances for [`TransferDistances::Approx`].
///
/// **Filter**: every endpoint pair gets landmark triangle-inequality
/// bounds; pairs whose lower and upper bounds meet are exact for free.
/// **Refine**: the remaining uncertain pairs are grouped by their cheaper
/// endpoint side (fewer distinct sources), sources are ranked by how many
/// uncertain pairs they cover (ties by ascending id), and the pairs of the
/// top `refine_sources` of them are measured with
/// [`DistanceOracle::distance`] — table lookups on an indexed oracle, the
/// source's cached row otherwise. Pairs left over keep the landmark upper
/// bound. Every step is a pure function of the assignment set and the
/// oracles.
pub(crate) fn pair_distances_approx(
    net: &ChordNetwork,
    assignments: &[Assignment],
    oracle: &DistanceOracle,
    landmarks: &LandmarkOracle,
    refine_sources: usize,
) -> DistanceMemo {
    let prof = proxbal_profile::phase("round/transfer/distances/filter");
    let pairs = endpoint_pairs(net, assignments);
    let mut memo = DistanceMemo::with_capacity(pairs.len());
    // `(from, to, landmark upper bound)` of every pair the bounds leave open.
    let mut uncertain: Vec<(u32, u32, u32)> = Vec::new();
    for &(f, t) in &pairs {
        let (lo, hi) = landmarks.bounds(f, t);
        if lo == hi {
            memo.insert((f, t), hi);
        } else {
            uncertain.push((f, t, hi));
        }
    }
    drop(prof);
    let _prof = proxbal_profile::phase("round/transfer/distances/refine");
    if !uncertain.is_empty() && refine_sources > 0 {
        let mut froms: Vec<u32> = uncertain.iter().map(|&(f, _, _)| f).collect();
        let mut tos: Vec<u32> = uncertain.iter().map(|&(_, t, _)| t).collect();
        froms.sort_unstable();
        froms.dedup();
        tos.sort_unstable();
        tos.dedup();
        let by_to = tos.len() <= froms.len();
        let mut by_src: std::collections::BTreeMap<u32, Vec<u32>> =
            std::collections::BTreeMap::new();
        for &(f, t, _) in &uncertain {
            let (src, other) = if by_to { (t, f) } else { (f, t) };
            by_src.entry(src).or_default().push(other);
        }
        let mut ranked: Vec<(u32, usize)> = by_src.iter().map(|(&s, v)| (s, v.len())).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for &(src, _) in ranked.iter().take(refine_sources) {
            for &other in &by_src[&src] {
                let (f, t) = if by_to { (other, src) } else { (src, other) };
                memo.insert((f, t), oracle.distance(src, other));
            }
        }
    }
    for (f, t, hi) in uncertain {
        memo.entry((f, t)).or_insert(hi);
    }
    memo
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
