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
use crate::lbi::LoadState;
use crate::reports::{
    entry_nodes, ignorant_inputs, light_slots, proximity_inputs, shed_candidates, Classification,
};
use crate::transfer::execute_transfers_traced;
use crate::vsa::{run_vsa, VsaParams};
use crate::{BalanceReport, LoadBalancer, MessageStats, ProximityMode, Underlay};
use proxbal_chord::{ChordNetwork, PeerId, PeerState, VsId};
use proxbal_ktree::KTree;
use proxbal_trace::Trace;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, HashMap};
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
    /// Every peer re-reports — a cold start, or a one-shot run.
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
}

/// Per-peer soft state the periodic reporting protocol keeps between
/// rounds: the virtual server each peer last reported through. A peer
/// keeps its binding until it goes dirty, its virtual server dies, or the
/// virtual server moves to another host.
#[derive(Clone, Debug, Default)]
pub struct RoundCache {
    reports: BTreeMap<PeerId, VsId>,
}

impl RoundCache {
    /// An empty cache (every peer reports fresh on the first round).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of peers with a live report binding.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether no peer has a report binding yet.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Drops a peer's binding (e.g. when it leaves the overlay).
    pub fn forget(&mut self, p: PeerId) {
        self.reports.remove(&p);
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
    /// exact iteration order, including every f64 association and map
    /// insertion sequence. Chunk sizes are compile-time constants, never
    /// derived from the thread count.
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
        let mut clock = tree.maintain_until_stable_traced(net, 256, 0, trace) as u64;
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
        let alive = net.alive_peers();
        cache
            .reports
            .retain(|&p, _| net.peer(p).state == PeerState::Alive);
        // Pass A (serial): every RNG draw and cache mutation, in original
        // peer order — redraw decisions are exactly the serial loop's.
        let wall = Instant::now();
        let prof = proxbal_profile::phase("round/lbi");
        let sub = proxbal_profile::phase("round/lbi/bind");
        let mut decisions: Vec<(PeerId, Option<VsId>, bool)> = Vec::with_capacity(alive.len());
        for p in alive {
            use rand::seq::SliceRandom;
            let cached = cache.reports.get(&p).copied().filter(|&v| {
                let vs = net.vs(v);
                vs.alive && vs.host == p
            });
            let (vs, re_reported) = if dirty.contains(p) || cached.is_none() {
                (net.vss_of(p).choose(rng).copied(), true)
            } else {
                (cached, false)
            };
            match vs {
                Some(v) => {
                    cache.reports.insert(p, v);
                }
                None => {
                    cache.reports.remove(&p);
                }
            }
            decisions.push((p, vs, re_reported));
        }
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
        // Pass C (serial drain in chunk order): merges happen in original
        // peer order, so per-target f64 associations are byte-identical to
        // the serial loop.
        //
        // LBIs are boxed so the dense per-node map costs one pointer per
        // arena slot — at million-peer scale the tree has tens of millions
        // of slots and the unboxed map alone would dwarf the arena.
        let sub = proxbal_profile::phase("round/lbi/merge");
        let mut lbi_inputs: proxbal_ktree::KtNodeMap<Box<crate::Lbi>> =
            proxbal_ktree::KtNodeMap::with_slot_bound(tree.slot_bound());
        let mut report_seeds: Vec<proxbal_ktree::KtNodeId> = Vec::new();
        {
            use proxbal_ktree::Merge;
            let lbis = lbi_chunks.into_iter().flatten();
            for ((&target, &(_, _, re_reported)), lbi) in targets.iter().zip(&decisions).zip(lbis) {
                if re_reported {
                    report_seeds.push(target);
                }
                match lbi_inputs.get_mut(target) {
                    Some(acc) => Merge::merge(&mut **acc, lbi),
                    None => {
                        lbi_inputs.insert(target, Box::new(lbi));
                    }
                }
            }
        }
        let peers = decisions.len();
        drop((decisions, targets));
        drop(sub);
        // Count inter-peer tree edges on the re-reporting paths (each edge
        // carries exactly one aggregated LBI message; quiet peers' cached
        // contributions cost nothing).
        let sub = proxbal_profile::phase("round/lbi/edges");
        let lbi_messages = count_active_edges(net, tree, report_seeds.iter().copied());
        drop(sub);
        walls.lbi_wall_s = wall.elapsed().as_secs_f64();
        drop(prof);
        let lbi_input_count = lbi_inputs.len();
        let wall = Instant::now();
        let prof = proxbal_profile::phase("round/aggregate");
        let proxbal_ktree::AggregateOutcome {
            root_value,
            rounds: lbi_rounds,
            merges: lbi_merges,
        } = tree.aggregate_with(lbi_inputs, threads);
        walls.aggregate_wall_s = wall.elapsed().as_secs_f64();
        drop(prof);
        let system = *root_value.ok_or(Error::EmptyNetwork)?;
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
        // system LBI reaches every node in `max_message_depth` downward
        // rounds (the tree already knows it from the aggregation) over every
        // inter-peer tree edge; every node receives the same value, so no
        // per-node copy is ever materialized.
        let wall = Instant::now();
        let prof = proxbal_profile::phase("round/vsa");
        let sub = proxbal_profile::phase("round/vsa/disseminate");
        let dissemination_rounds = tree.max_message_depth();
        let dissemination_messages = count_tree_edges(net, tree, threads);
        drop(sub);
        let sub = proxbal_profile::phase("round/vsa/classify");
        let classification = Classification::compute(net, loads, &params, system, threads);
        let before = class_counts(&classification);
        let heavy_before = before.get(&NodeClass::Heavy).copied().unwrap_or(0);
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
        let inputs = match cfg.mode {
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
        let mut vsa = run_vsa(tree, inputs, &vsa_params, trace);
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
                ("shed_peers", shed.len().into()),
                ("light_peers", light.len().into()),
                ("pairings", vsa.assignments.len().into()),
            ],
        );
        trace.count("vsa_record_hops", vsa.record_hops as u64);
        trace.count("vsa_notifications", 2 * vsa.assignments.len() as u64);
        clock += u64::from(vsa.rounds);
        walls.vsa_wall_s = wall.elapsed().as_secs_f64();
        drop(prof);

        // Phase 4: VST (§3.5).
        let wall = Instant::now();
        let prof = proxbal_profile::phase("round/transfer");
        let transfers = execute_transfers_traced(
            net,
            loads,
            &vsa.assignments,
            underlay.map(|u| u.transfer_distances()),
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
        let after = class_counts(&after_cls);
        walls.transfer_wall_s = wall.elapsed().as_secs_f64();
        drop(prof);
        trace.count(
            "heavy_after",
            after.get(&NodeClass::Heavy).copied().unwrap_or(0) as u64,
        );

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

/// Counts tree edges between KT nodes planted on *different peers* along
/// the root paths of `seeds` (each edge counted once).
pub(crate) fn count_active_edges(
    net: &ChordNetwork,
    tree: &KTree,
    seeds: impl Iterator<Item = proxbal_ktree::KtNodeId>,
) -> usize {
    // One bit per arena slot: 1.6 MB at the million-peer tree.
    let mut visited = vec![0u64; tree.slot_bound().div_ceil(64)];
    let peer_of = |host| net.vs(host).host;
    let mut edges = 0;
    for seed in seeds {
        let mut node = tree.node(seed);
        let mut slot = seed.0 as usize;
        while let Some(parent) = node.parent() {
            let (word, bit) = (&mut visited[slot / 64], 1u64 << (slot % 64));
            if *word & bit != 0 {
                break; // shared suffix already counted
            }
            *word |= bit;
            let above = tree.node(parent);
            edges += usize::from(peer_of(node.host()) != peer_of(above.host()));
            (node, slot) = (above, parent.0 as usize);
        }
    }
    edges
}

/// Counts every tree edge between KT nodes planted on *different peers* —
/// what [`count_active_edges`] finds when every node is a seed, as one
/// chunked pass over the arena (an integer sum, so any `threads` agrees).
fn count_tree_edges(net: &ChordNetwork, tree: &KTree, threads: usize) -> usize {
    const NODE_CHUNK: usize = 1 << 16;
    let peer_of = |id| net.vs(tree.node(id).host()).host;
    proxbal_parallel::map_chunked(tree.slot_bound(), NODE_CHUNK, threads, |range| {
        range
            .map(|slot| proxbal_ktree::KtNodeId(slot as u32))
            .filter(|&id| tree.contains(id))
            .filter(|&id| {
                let parent = tree.node(id).parent();
                parent.is_some_and(|parent| peer_of(id) != peer_of(parent))
            })
            .count()
    })
    .into_iter()
    .sum()
}

pub(crate) fn class_counts(c: &Classification) -> HashMap<NodeClass, usize> {
    let mut out = HashMap::new();
    for class in c.classes.values() {
        *out.entry(*class).or_insert(0) += 1;
    }
    out
}
