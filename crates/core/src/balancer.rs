use crate::classify::NodeClass;
use crate::lbi::{Lbi, LoadState};
use crate::reports::ProximityParams;
use crate::round::{DirtySet, RoundCache};
use crate::transfer::{TransferDistances, TransferRecord};
use crate::vsa::VsaOutcome;
use proxbal_chord::ChordNetwork;
use proxbal_ktree::KTree;
use proxbal_topology::{DistanceOracle, LandmarkOracle, NodeId};
use proxbal_trace::Trace;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Whether virtual-server assignment uses proximity information (§4) or the
/// plain identifier-space sweep (§3.4).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub enum ProximityMode {
    /// Records enter the tree at the reporting node's own (random) virtual
    /// server — the paper's baseline.
    Ignorant,
    /// Records are published at the node's Hilbert number so physically
    /// close heavy/light nodes meet at deep rendezvous points.
    Aware(ProximityParams),
}

/// Full configuration for one balancing run.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BalancerConfig {
    /// Degree `K` of the aggregation tree (paper: 2 and 8).
    pub k: usize,
    /// Balance-quality knob `ε` (see [`crate::ClassifyParams`]).
    pub epsilon: f64,
    /// Rendezvous threshold (paper: 30).
    pub rendezvous_threshold: usize,
    /// Proximity mode.
    pub mode: ProximityMode,
    /// Maximum virtual-server splits for shed candidates that fit no light
    /// node (0 = off, the paper-faithful behaviour). See
    /// [`crate::split_and_place`].
    pub max_splits: usize,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            k: 2,
            epsilon: 0.05,
            rendezvous_threshold: 30,
            mode: ProximityMode::Ignorant,
            max_splits: 0,
        }
    }
}

impl BalancerConfig {
    /// The paper's proximity-aware configuration.
    pub fn proximity_aware() -> Self {
        BalancerConfig {
            mode: ProximityMode::Aware(ProximityParams::default()),
            ..Self::default()
        }
    }
}

/// The physical-network context needed for proximity-aware balancing and
/// for transfer-cost accounting.
#[derive(Clone, Copy)]
pub struct Underlay<'a> {
    /// Shortest-path oracle in the paper's **hop-cost** metric (interdomain
    /// hop = 3, intradomain hop = 1) — used for transfer-cost accounting.
    pub oracle: &'a DistanceOracle,
    /// Oracle in the **latency** metric (Euclidean edge lengths) — what RTT
    /// probes to landmarks actually measure. Falls back to `oracle` when
    /// absent.
    pub latency_oracle: Option<&'a DistanceOracle>,
    /// The landmark nodes (paper: 15 of them).
    pub landmarks: &'a [NodeId],
    /// When set, VST distance accounting runs the hierarchical landmark
    /// scheme instead of exact per-pair Dijkstra (see
    /// [`TransferDistances::Approx`]). `None` — the default everywhere the
    /// builder's exact mode is in effect — asks the oracle about every
    /// pair.
    pub approx: Option<ApproxTransfer<'a>>,
}

/// Configuration of the hierarchical (landmark filter-then-refine) VST
/// distance scheme, carried by [`Underlay::approx`].
#[derive(Clone, Copy)]
pub struct ApproxTransfer<'a> {
    /// Precomputed landmark vectors in the hop-cost metric.
    pub landmarks: &'a LandmarkOracle,
    /// How many sources have their uncertain pairs measured exactly.
    pub refine_sources: usize,
}

impl<'a> Underlay<'a> {
    /// The oracle landmark vectors are measured with.
    pub fn latency(&self) -> &'a DistanceOracle {
        self.latency_oracle.unwrap_or(self.oracle)
    }

    /// The VST distance scheme this underlay implies.
    pub(crate) fn transfer_distances(&self) -> TransferDistances<'a> {
        match self.approx {
            None => TransferDistances::Exact(self.oracle),
            Some(a) => TransferDistances::Approx {
                oracle: self.oracle,
                landmarks: a.landmarks,
                refine_sources: a.refine_sources,
            },
        }
    }
}

/// Communication overhead of one balancing run — the "load balancing
/// cost" the paper sets out to minimize, broken down by phase.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct MessageStats {
    /// Upward tree messages carrying LBI (inter-peer edges on contributing
    /// paths, each crossed once).
    pub lbi_messages: usize,
    /// Downward tree messages disseminating `<L, C, L_min>` (every
    /// inter-peer tree edge once).
    pub dissemination_messages: usize,
    /// Record·hop units of the VSA sweep (see
    /// [`crate::VsaOutcome::record_hops`]).
    pub vsa_record_hops: usize,
    /// Direct notifications from rendezvous points to the paired heavy and
    /// light nodes (two per assignment, §3.4).
    pub vsa_notifications: usize,
    /// Load-weighted transfer cost `Σ load·distance` of the VST phase —
    /// the bandwidth consumption Figures 7/8 are about (0 without an
    /// underlay).
    pub vst_weighted_cost: f64,
}

/// Everything a balancing run produces.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BalanceReport {
    /// System LBI aggregated at the root, `<L, C, L_min>`.
    pub system: Lbi,
    /// Message rounds of the LBI aggregation (`O(log_K N)`).
    pub lbi_rounds: u32,
    /// Message rounds of the top-down dissemination.
    pub dissemination_rounds: u32,
    /// Per-class node counts before balancing.
    pub before: HashMap<NodeClass, usize>,
    /// The VSA sweep outcome (assignments, rounds, leftovers).
    pub vsa: VsaOutcome,
    /// Executed transfers with physical distances.
    pub transfers: Vec<TransferRecord>,
    /// Per-class node counts after balancing (re-classified against the
    /// same system LBI).
    pub after: HashMap<NodeClass, usize>,
    /// Communication overhead by phase.
    pub messages: MessageStats,
}

impl BalanceReport {
    /// Number of heavy nodes remaining after the run.
    pub fn heavy_after(&self) -> usize {
        self.after.get(&NodeClass::Heavy).copied().unwrap_or(0)
    }

    /// Fraction of nodes that were heavy before the run.
    pub fn heavy_before_fraction(&self) -> f64 {
        let total: usize = self.before.values().sum();
        let heavy = self.before.get(&NodeClass::Heavy).copied().unwrap_or(0);
        heavy as f64 / total.max(1) as f64
    }
}

/// The four-phase load balancer of the paper: LBI aggregation → node
/// classification → virtual server assignment → virtual server transferring.
#[derive(Clone, Debug)]
pub struct LoadBalancer {
    cfg: BalancerConfig,
    threads: usize,
}

impl LoadBalancer {
    /// Creates a balancer with the given configuration (single-threaded
    /// rounds; see [`LoadBalancer::with_threads`]).
    pub fn new(cfg: BalancerConfig) -> Self {
        assert!(cfg.k >= 2, "tree degree must be >= 2");
        assert!(cfg.epsilon >= 0.0, "epsilon must be non-negative");
        LoadBalancer { cfg, threads: 1 }
    }

    /// Sets the worker-thread count for the parallel sections *inside* a
    /// balancing round (LBI generation, aggregation, classification, shed
    /// extraction, VSA input publication, transfer resolution and
    /// distances). Purely a performance
    /// knob: every output is byte-identical at any thread count — parallel
    /// work is chunked deterministically and merged in index order, and
    /// all randomness is drawn on the caller's thread.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The intra-round worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configuration.
    pub fn config(&self) -> &BalancerConfig {
        &self.cfg
    }

    /// Runs one complete balancing pass over the network.
    ///
    /// `underlay` supplies the physical topology; it is required for
    /// [`ProximityMode::Aware`] and, when present, transfer distances are
    /// recorded for the cost analysis of Figures 7 and 8.
    pub fn run<R: Rng>(
        &self,
        net: &mut ChordNetwork,
        loads: &mut LoadState,
        underlay: Option<Underlay<'_>>,
        rng: &mut R,
    ) -> Result<BalanceReport, crate::Error> {
        self.run_traced(net, loads, underlay, rng, &mut Trace::disabled())
    }

    /// Like [`LoadBalancer::run`], recording per-phase spans and counters
    /// into `trace`. Tracing never perturbs the run: a disabled collector
    /// takes the identical code path and the report is byte-for-byte the
    /// same either way.
    pub fn run_traced<R: Rng>(
        &self,
        net: &mut ChordNetwork,
        loads: &mut LoadState,
        underlay: Option<Underlay<'_>>,
        rng: &mut R,
        trace: &mut Trace,
    ) -> Result<BalanceReport, crate::Error> {
        let mut tree = KTree::build(net, self.cfg.k);
        let walls = &mut crate::RoundWalls::default();
        self.run_with_tree_walls(net, loads, &mut tree, underlay, rng, trace, walls)
    }

    /// Like [`LoadBalancer::run_traced`], but over a long-lived tree — the
    /// tree is brought up to date with ordinary soft-state maintenance
    /// rounds and then reused — and measuring the wall-clock seconds each
    /// intra-round phase took into `walls`. The walls are an out-parameter
    /// (not part of [`BalanceReport`]) because they are inherently
    /// nondeterministic — everything inside the report stays byte-identical
    /// at any thread count.
    ///
    /// Virtual-server *transfers* never change ring positions, so a
    /// balancing pass leaves the tree structurally intact — the paper's
    /// lazy-migration point (§3.5: "in order to keep the K-nary tree
    /// relatively stable, we could adopt a lazy migration protocol")
    /// falls out of the identifier-space construction. Only churn (and VS
    /// splits) require maintenance.
    ///
    /// Delegates to [`LoadBalancer::run_round`] with [`DirtySet::All`] and
    /// a throwaway [`RoundCache`]: a one-shot run is exactly one
    /// incremental round in which every peer is dirty, so both entry
    /// points share a single four-phase code path (and the same randomness
    /// consumption order).
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_tree_walls<R: Rng>(
        &self,
        net: &mut ChordNetwork,
        loads: &mut LoadState,
        tree: &mut KTree,
        underlay: Option<Underlay<'_>>,
        rng: &mut R,
        trace: &mut Trace,
        walls: &mut crate::RoundWalls,
    ) -> Result<BalanceReport, crate::Error> {
        self.run_round(
            net,
            loads,
            tree,
            underlay,
            &mut RoundCache::new(),
            &DirtySet::All,
            rng,
            trace,
            walls,
        )
    }
}
