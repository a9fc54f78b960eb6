//! Incremental balancing rounds for continuous operation.
//!
//! A one-shot [`LoadBalancer::run`] treats every peer as brand new: each
//! one draws a fresh reporting virtual server and pushes its LBI up the
//! tree. Under continuous operation (§3.2's *periodic* reporting) that is
//! wasteful — between rounds only a few peers change, and only *their*
//! reports travel. [`LoadBalancer::run_round`] captures this: a
//! [`RoundCache`] remembers each peer's report binding across rounds and a
//! [`DirtySet`] names the peers whose load, capacity, or membership
//! changed, so unchanged peers neither consume randomness nor generate
//! upward messages.
//!
//! The one-shot entry points delegate here with [`DirtySet::All`] and a
//! throwaway cache, so there is exactly one four-phase code path.

use crate::classify::{ClassifyParams, NodeClass};
use crate::error::Error;
use crate::lbi::{Lbi, LoadState};
use crate::reports::{
    entry_nodes, ignorant_inputs, light_slots, proximity_inputs, shed_candidates, shed_sets,
    Classification,
};
use crate::transfer::execute_transfers;
use crate::vsa::{run_vsa, VsaParams};
use crate::{BalanceReport, LoadBalancer, MessageStats, ProximityMode, Underlay};
use proxbal_chord::{ChordNetwork, PeerId, PeerState, VsId};
use proxbal_ktree::{AggregateInput, KTree, KtNodeId, Merge};
use proxbal_trace::Trace;
use rand::Rng;
#[cfg(test)]
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::time::Instant;

/// Wall-clock seconds of each intra-round phase, measured by
/// [`LoadBalancer::run_round`]. Walls travel as an out-parameter —
/// never inside [`BalanceReport`] or the trace — because they are
/// inherently nondeterministic, while everything the round *returns* must
/// stay byte-identical at any thread count.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundWalls {
    /// Report rebinding + per-peer LBI generation (phase 1 up to the tree).
    pub lbi_wall_s: f64,
    /// The bottom-up tree aggregation of the LBIs.
    pub aggregate_wall_s: f64,
    /// Classification, shed/light extraction, VSA input publication and
    /// the rendezvous sweep (phases 2–3).
    pub vsa_wall_s: f64,
    /// Transfer execution including distance accounting (phase 4).
    pub transfer_wall_s: f64,
}

/// Fixed per-peer chunk size of the intra-round parallel sweeps. A chunk is
/// the unit a worker claims; results are drained in chunk order, so the
/// size must **never** depend on the thread count (that would change the
/// drain order and with it f64 associations).
const PEER_CHUNK: usize = 8192;

/// Which peers changed since the last balancing round.
#[derive(Clone, Debug)]
pub enum DirtySet {
    /// Every peer re-reports — a cold start, a one-shot run, or a change
    /// that touched every peer's load.
    All,
    /// Only these peers changed; everyone else re-uses its cached report
    /// binding and sends nothing up the tree.
    Peers(BTreeSet<PeerId>),
}

impl DirtySet {
    /// Whether `p` must redraw its reporting virtual server this round.
    pub fn contains(&self, p: PeerId) -> bool {
        match self {
            DirtySet::All => true,
            DirtySet::Peers(set) => set.contains(&p),
        }
    }

    /// Marks `p` dirty; on `All` there is nothing to add.
    pub fn insert(&mut self, p: PeerId) {
        if let DirtySet::Peers(set) = self {
            set.insert(p);
        }
    }

    /// Forgets `p` (a peer that left); on `All` nothing changes — a round
    /// asks only about alive peers.
    pub fn remove(&mut self, p: PeerId) {
        if let DirtySet::Peers(set) = self {
            set.remove(&p);
        }
    }
}

/// Per-peer soft state the periodic reporting protocol keeps between
/// rounds: the virtual server each peer last reported through. A peer
/// keeps its binding until it goes dirty, its virtual server dies, or the
/// virtual server moves to another host.
///
/// Peer ids are dense indices, so the bindings are one slot per peer id
/// rather than a map: binding a million peers is a pass over an array.
#[derive(Clone, Debug, Default)]
pub struct RoundCache {
    /// The binding of every peer, indexed by peer id.
    reports: Vec<Option<VsId>>,
    /// Number of `Some` slots of `reports`.
    live: usize,
}

impl RoundCache {
    /// An empty cache (every peer reports fresh on the first round).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of peers with a live report binding.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no peer has a report binding yet.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Drops a peer's binding (e.g. when it leaves the overlay).
    pub fn forget(&mut self, p: PeerId) {
        if let Some(slot) = self.reports.get_mut(p.0 as usize) {
            if slot.take().is_some() {
                self.live -= 1;
            }
        }
    }

    /// Phase 1's report bindings (pass A of [`LoadBalancer::run_round`]):
    /// forgets the bindings of peers no longer alive, then, for every peer
    /// of `alive` in order, keeps its cached binding or — dirty, or its
    /// virtual server gone or moved — draws a fresh one from `rng`. Returns
    /// each peer's binding (`None`: it hosts no virtual server) and whether
    /// it re-reported.
    pub(crate) fn bind<R: Rng>(
        &mut self,
        net: &ChordNetwork,
        alive: &[PeerId],
        dirty: &DirtySet,
        rng: &mut R,
    ) -> Vec<(PeerId, Option<VsId>, bool)> {
        use rand::seq::SliceRandom;
        for (i, slot) in self.reports.iter_mut().enumerate() {
            if slot.is_some() && net.peer(PeerId(i as u32)).state != PeerState::Alive {
                *slot = None;
                self.live -= 1;
            }
        }
        if self.reports.len() < net.peer_count() {
            self.reports.resize(net.peer_count(), None);
        }
        let mut decisions = Vec::with_capacity(alive.len());
        for &p in alive {
            let slot = &mut self.reports[p.0 as usize];
            let cached = slot.filter(|&v| {
                let vs = net.vs(v);
                vs.alive && vs.host == p
            });
            let (vs, re_reported) = if dirty.contains(p) || cached.is_none() {
                (net.vss_of(p).choose(rng).copied(), true)
            } else {
                (cached, false)
            };
            match (slot.is_some(), vs.is_some()) {
                (false, true) => self.live += 1,
                (true, false) => self.live -= 1,
                _ => {}
            }
            *slot = vs;
            decisions.push((p, vs, re_reported));
        }
        decisions
    }

    /// Every live binding, by peer (for the comparison with the spec).
    #[cfg(test)]
    pub(crate) fn bindings(&self) -> BTreeMap<PeerId, VsId> {
        let bound = |(i, vs): (usize, &Option<VsId>)| Some((PeerId(i as u32), (*vs)?));
        self.reports.iter().enumerate().filter_map(bound).collect()
    }
}

impl LoadBalancer {
    /// One incremental balancing round over a long-lived tree: peers in
    /// `dirty` redraw their reporting virtual server and re-report, all
    /// others reuse the binding in `cache`. See [`LoadBalancer::run`] for
    /// the phase structure; `underlay` and `rng` behave identically. Spans
    /// and counters go to `trace`, the wall-clock seconds of each phase to
    /// `walls` (see [`RoundWalls`]).
    ///
    /// With [`DirtySet::All`] and a fresh cache this is exactly a one-shot
    /// run — the one-shot entry points delegate here.
    ///
    /// The four phases are laid out sequentially on a virtual timeline whose
    /// unit is one message round: tree maintenance, then `phase/lbi`
    /// (duration = aggregation rounds), `phase/classify` (dissemination
    /// rounds), `phase/vsa` (sweep rounds) and `phase/vst` (the maximum
    /// physical transfer distance, since transfers run in parallel).
    /// `lbi_messages` counts only the tree edges the *re-reporting* peers'
    /// LBIs crossed — under a small dirty set most of the tree stays quiet,
    /// the paper's periodic-report economy.
    ///
    /// # Intra-round parallelism
    ///
    /// The per-peer sweeps (LBI generation, classification, shed/light
    /// extraction) and the tree aggregation run on
    /// [`LoadBalancer::threads`] workers. Determinism is preserved by a
    /// three-pass structure: a serial pass performs every RNG draw and
    /// cache mutation in original peer order; a parallel pass computes
    /// pure per-peer values over fixed-size chunks; a serial drain merges
    /// the chunk buffers in chunk order — reproducing the serial loop's
    /// exact iteration order, including every f64 association and record
    /// order. Chunk sizes are compile-time constants, never derived from
    /// the thread count.
    ///
    /// Fails with [`Error::MissingCapacity`] — before anything is touched —
    /// if an alive peer has no capacity in `loads`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_round<R: Rng>(
        &self,
        net: &mut ChordNetwork,
        loads: &mut LoadState,
        tree: &mut KTree,
        underlay: Option<Underlay<'_>>,
        cache: &mut RoundCache,
        dirty: &DirtySet,
        rng: &mut R,
        trace: &mut Trace,
        walls: &mut RoundWalls,
    ) -> Result<BalanceReport, Error> {
        let cfg = self.config();
        let threads = self.threads();
        assert_eq!(tree.k(), cfg.k, "tree degree must match the config");
        // A peer without a capacity has no LBI: refuse the round before it
        // touches the tree, the cache or the randomness.
        let alive = net.alive_peers();
        if let Some(&p) = alive.iter().find(|&&p| !loads.has_capacity(p)) {
            return Err(Error::MissingCapacity(p));
        }
        let mut clock = tree.maintain_until_stable(net, 256, 0, trace) as u64;
        let params = ClassifyParams {
            epsilon: cfg.epsilon,
        };
        let tree = &*tree;

        // Phase 1: LBI aggregation. Each peer reports through the KT leaf of
        // one chosen virtual server (§3.2) — dirty peers choose at random,
        // clean peers keep their cached binding. A peer that currently
        // hosts no virtual servers (it shed everything in an earlier pass)
        // reports through the root directly — in a real deployment it would
        // retain an empty virtual-server registration; losing its capacity
        // from the aggregate would silently inflate every target.
        // Pass A (serial): every RNG draw and cache mutation, in original
        // peer order — redraw decisions are exactly the serial loop's.
        let wall = Instant::now();
        let prof = proxbal_profile::phase("round/lbi");
        let sub = proxbal_profile::phase("round/lbi/bind");
        let decisions = cache.bind(net, &alive, dirty, rng);
        drop(alive);
        drop(sub);
        // Pass B: every bound virtual server's report target in one
        // path-sharing descent in ring order (a peer with none reports at
        // the root), then the LBI triple per peer — pure reads over
        // fixed-size chunks in parallel.
        let sub = proxbal_profile::phase("round/lbi/targets");
        let targets = entry_nodes(net, tree, decisions.iter().map(|&(_, vs, _)| vs));
        let lbi_chunks =
            proxbal_parallel::map_chunked(decisions.len(), PEER_CHUNK, threads, |range| {
                range
                    .map(|i| loads.node_lbi(net, decisions[i].0))
                    .collect::<Vec<_>>()
            });
        drop(sub);
        // Pass C (serial): the LBI inputs, one per target in slot order —
        // the order the walk looks them up in. Peers sharing a target merge
        // in original peer order, so per-target f64 associations are
        // byte-identical to the serial loop; a target's input is sent if any
        // of its peers re-reported.
        let sub = proxbal_profile::phase("round/lbi/merge");
        let lbi_inputs = lbi_inputs(&targets, &decisions, &lbi_chunks);
        let peers = decisions.len();
        drop((decisions, targets, lbi_chunks));
        drop(sub);
        walls.lbi_wall_s = wall.elapsed().as_secs_f64();
        drop(prof);
        // One walk of the tree folds the LBIs to the root and answers the
        // rest of what phases 1 and 2 need of it: the inter-peer tree edges
        // the re-reporting peers' LBIs crossed (each edge carries exactly
        // one aggregated LBI message; quiet peers' cached contributions cost
        // nothing), and every inter-peer edge and the message depth that
        // disseminating the result costs.
        let wall = Instant::now();
        let prof = proxbal_profile::phase("round/aggregate");
        let proxbal_ktree::AggregateOutcome {
            root_value,
            rounds: lbi_rounds,
            merges: lbi_merges,
            sent_messages: lbi_messages,
            tree_messages: dissemination_messages,
            max_message_depth: dissemination_rounds,
        } = tree.aggregate(net, &lbi_inputs, threads);
        walls.aggregate_wall_s = wall.elapsed().as_secs_f64();
        drop(prof);
        let lbi_input_count = lbi_inputs.len();
        drop(lbi_inputs);
        let system = root_value.ok_or(Error::EmptyNetwork)?;
        trace.span_args(
            "phase/lbi",
            clock,
            u64::from(lbi_rounds),
            &[
                ("messages", lbi_messages.into()),
                ("merges", lbi_merges.into()),
            ],
        );
        // Parallel-section spans: args are pure functions of the workload
        // (peer count, fixed chunking, merge count) — never of the thread
        // count or wall time — so traces stay byte-identical at any
        // `--threads`.
        trace.span_args(
            "round/lbi",
            clock,
            u64::from(lbi_rounds),
            &[
                ("peers", peers.into()),
                (
                    "chunks",
                    proxbal_parallel::chunk_ranges(peers, PEER_CHUNK)
                        .len()
                        .into(),
                ),
            ],
        );
        trace.span_args(
            "round/aggregate",
            clock,
            u64::from(lbi_rounds),
            &[
                ("inputs", lbi_input_count.into()),
                ("merges", lbi_merges.into()),
            ],
        );
        trace.count("lbi_messages", lbi_messages as u64);
        trace.count("kt_aggregate_merges", lbi_merges as u64);
        clock += u64::from(lbi_rounds);

        // Phase 2: dissemination + classification (§3.3). Disseminating the
        // system LBI reaches every node in the tree's largest message depth
        // of downward rounds over every inter-peer tree edge, both counted
        // by the aggregation's walk; every node receives the same value, so
        // no per-node copy is ever materialized.
        let wall = Instant::now();
        let prof = proxbal_profile::phase("round/vsa");
        let sub = proxbal_profile::phase("round/vsa/classify");
        let classification = Classification::compute(net, loads, &params, system, threads);
        let before = classification.class_counts();
        let heavy_before = classification.count_of(NodeClass::Heavy);
        drop(sub);
        trace.span_args(
            "phase/classify",
            clock,
            u64::from(dissemination_rounds),
            &[
                ("messages", dissemination_messages.into()),
                ("heavy", heavy_before.into()),
            ],
        );
        trace.count("dissemination_messages", dissemination_messages as u64);
        trace.count("heavy_before", heavy_before as u64);
        clock += u64::from(dissemination_rounds);

        // Phase 3: VSA (§3.4 / §4.3).
        let sub = proxbal_profile::phase("round/vsa/candidates");
        let shed = shed_candidates(net, loads, &params, &classification, threads);
        let light = light_slots(net, loads, &params, &classification, threads);
        drop(sub);
        let sub = proxbal_profile::phase("round/vsa/inputs");
        let entries = match cfg.mode {
            ProximityMode::Ignorant => ignorant_inputs(net, tree, &shed, &light, rng),
            ProximityMode::Aware(ref prox) => {
                let u = underlay.ok_or(Error::MissingUnderlay)?;
                proximity_inputs(
                    net,
                    tree,
                    &shed,
                    &light,
                    prox,
                    u.latency(),
                    u.landmarks,
                    threads,
                )?
            }
        };
        drop(sub);
        let vsa_params = VsaParams {
            rendezvous_threshold: cfg.rendezvous_threshold,
            l_min: system.min_vs_load,
        };
        let sub = proxbal_profile::phase("round/vsa/sweep");
        let mut vsa = run_vsa(tree, &shed, &light, &entries, &vsa_params, threads, trace);
        drop(sub);

        // Optional extension: split unplaceable virtual servers and place
        // the halves (off unless `max_splits > 0`).
        if cfg.max_splits > 0 && !vsa.unassigned.shed().is_empty() {
            let extra = crate::split_and_place(
                net,
                loads,
                &mut vsa.unassigned,
                system.min_vs_load,
                cfg.max_splits,
            );
            trace.count("vsa_split_placed", extra.len() as u64);
            vsa.assignments.extend(extra);
        }
        trace.span_args(
            "phase/vsa",
            clock,
            u64::from(vsa.rounds),
            &[
                ("pairings", vsa.assignments.len().into()),
                ("record_hops", vsa.record_hops.into()),
                ("rendezvous_points", vsa.rendezvous_points.into()),
            ],
        );
        trace.span_args(
            "round/vsa",
            clock,
            u64::from(vsa.rounds),
            &[
                ("shed_peers", shed_sets(&shed).count().into()),
                ("light_peers", light.len().into()),
                ("pairings", vsa.assignments.len().into()),
            ],
        );
        // The VSA transients end here, before the transfers' own.
        drop((classification, shed, light, entries));
        trace.count("vsa_record_hops", vsa.record_hops as u64);
        trace.count("vsa_notifications", 2 * vsa.assignments.len() as u64);
        clock += u64::from(vsa.rounds);
        walls.vsa_wall_s = wall.elapsed().as_secs_f64();
        drop(prof);

        // Phase 4: VST (§3.5).
        let wall = Instant::now();
        let prof = proxbal_profile::phase("round/transfer");
        let transfers = execute_transfers(
            net,
            loads,
            &vsa.assignments,
            underlay.map(|u| u.transfer_distances()),
            threads,
            trace,
        )?;
        let vst_dur = transfers
            .iter()
            .filter_map(|t| t.distance)
            .max()
            .map_or(0, u64::from);
        trace.span_args(
            "phase/vst",
            clock,
            vst_dur,
            &[
                ("transfers", transfers.len().into()),
                ("moved_load", crate::total_moved_load(&transfers).into()),
            ],
        );
        trace.span_args(
            "round/transfer",
            clock,
            vst_dur,
            &[
                ("assignments", vsa.assignments.len().into()),
                ("transfers", transfers.len().into()),
            ],
        );

        // Re-classify against the same system LBI for the after picture.
        let after_cls = Classification::compute(net, loads, &params, system, threads);
        let after = after_cls.class_counts();
        walls.transfer_wall_s = wall.elapsed().as_secs_f64();
        drop(prof);
        trace.count("heavy_after", after_cls.count_of(NodeClass::Heavy) as u64);

        let messages = MessageStats {
            lbi_messages,
            dissemination_messages,
            vsa_record_hops: vsa.record_hops,
            vsa_notifications: 2 * vsa.assignments.len(),
            vst_weighted_cost: crate::weighted_cost(&transfers),
        };

        Ok(BalanceReport {
            system,
            lbi_rounds,
            dissemination_rounds,
            before,
            vsa,
            transfers,
            after,
            messages,
        })
    }
}

/// The LBI inputs of the aggregation: the LBI of peer `i` (chunk
/// `i / PEER_CHUNK` of `lbis`) enters at `targets[i]`. One input per target,
/// ascending by handle (one sort of `(target, peer index)`); the LBIs of
/// peers sharing a target merge in peer order, and the input is sent if any
/// of them re-reported.
fn lbi_inputs(
    targets: &[KtNodeId],
    decisions: &[(PeerId, Option<VsId>, bool)],
    lbis: &[Vec<Lbi>],
) -> Vec<AggregateInput<Lbi>> {
    let at = |(i, &id): (usize, &KtNodeId)| (id, u32::try_from(i).expect("u32 positions"));
    let mut order: Vec<(KtNodeId, u32)> = targets.iter().enumerate().map(at).collect();
    order.sort_unstable();
    let mut inputs: Vec<AggregateInput<Lbi>> = Vec::with_capacity(targets.len());
    for (at, i) in order {
        let i = i as usize;
        let (lbi, sent) = (lbis[i / PEER_CHUNK][i % PEER_CHUNK], decisions[i].2);
        match inputs.last_mut() {
            Some(last) if last.at == at => {
                last.value.merge(lbi);
                last.sent |= sent;
            }
            _ => inputs.push(AggregateInput {
                at,
                value: lbi,
                sent,
            }),
        }
    }
    inputs
}
