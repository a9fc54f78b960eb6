use proxbal_chord::ChordNetwork;
use proxbal_core::{ApproxTransfer, BalancerConfig, LoadState, Underlay};
use proxbal_topology::{
    select_landmarks, DistanceOracle, LandmarkOracle, NodeId, TransitStubConfig,
    TransitStubTopology,
};
use proxbal_workload::{CapacityProfile, LoadModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which physical topology to attach the overlay to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// The paper's "ts5k-large": a few big stub domains.
    Ts5kLarge,
    /// The paper's "ts5k-small": nodes scattered across the Internet.
    Ts5kSmall,
    /// A 50k-node transit-stub underlay (ts5k-large shape, 10× the size)
    /// for the xl-scale runs.
    Ts50k,
    /// A tiny topology for tests and examples.
    Tiny,
    /// No underlay (proximity-ignorant experiments only).
    None,
}

/// How transfer-phase distances are answered.
///
/// `Exact` runs a bucket-queue Dijkstra (memoized per row) for every query —
/// the default, and what every pre-existing experiment uses. `Approximate`
/// answers from precomputed landmark vectors (triangle-inequality bounds)
/// and falls back to exact rows only for the candidate transfer pairs whose
/// bounds do not pin the distance — the filter-then-refine scheme that makes
/// the million-peer runs affordable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistanceMode {
    /// Exact shortest-path distances for every query.
    Exact,
    /// Landmark bounds first, exact refinement for uncertain pairs only.
    Approximate,
}

/// Declarative description of one experiment, fully determined by `seed`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Scenario {
    /// Number of DHT peers (paper: 4096).
    pub peers: usize,
    /// Virtual servers per peer at start (paper: 5).
    pub vs_per_peer: usize,
    /// Virtual-server load distribution.
    pub load: LoadModel,
    /// Node capacity profile.
    pub capacity: CapacityProfile,
    /// Physical topology.
    pub topology: TopologyKind,
    /// Number of landmarks (paper: 15).
    pub landmarks: usize,
    /// Balancer configuration.
    pub balancer: BalancerConfig,
    /// Fault regime driven through the protocol sims (`None` = the
    /// fault-free runs of the paper's evaluation). Kept out of `prepare`
    /// on purpose: faults never perturb scenario construction, so a faulty
    /// scenario shares its network/loads/topology bit-for-bit with the
    /// fault-free one.
    pub faults: Option<crate::faults::FaultConfig>,
    /// Churn regime for continuous operation (`None` = static membership).
    /// Like `faults`, never consulted by `prepare`.
    pub churn: Option<crate::churn::ChurnConfig>,
    /// Load-drift regime for continuous operation (`None` = static loads).
    /// Like `faults`, never consulted by `prepare`.
    pub drift: Option<crate::drift::DriftConfig>,
    /// Bound on both distance oracles' row memos, in stored rows (`0` =
    /// unbounded): rows are stored until the memo is full and never
    /// evicted. [`Scenario::prepare`] fills the landmark rows first; on the
    /// generated topologies they are the only rows a run fills, because
    /// the transit-stub index answers point queries. Results never depend
    /// on it.
    pub oracle_capacity: usize,
    /// How transfer-phase distances are answered (see [`DistanceMode`]).
    /// `Exact` (the default) reproduces every historical output
    /// byte-for-byte; `Approximate` builds a hop-metric [`LandmarkOracle`]
    /// during preparation and routes phase-4 distance queries through it.
    pub distance_mode: DistanceMode,
    /// With [`DistanceMode::Approximate`]: how many sources per balancing
    /// pass have their candidate transfer pairs whose landmark bounds do
    /// not pin the distance measured exactly (point queries, which the
    /// transit-stub index answers without filling a row).
    pub refine_sources: usize,
    /// Number of preparation shards (`0` = the serial preparation path).
    /// With `shards > 0`, ring-position generation is partitioned across
    /// this many independent RNG streams and merged deterministically — the
    /// result depends on `shards` but never on `--threads`.
    pub shards: usize,
    /// Master seed: every random choice derives from it.
    pub seed: u64,
}

/// Oracle row-memo bound used by the xl-scale runs. Only the landmark rows
/// are ever stored (15 per oracle, under 1 MB compressed on ts50k), so the
/// bound is never reached; the `xl` header prints it.
pub const XL_ORACLE_CAPACITY: usize = 4096;

/// Oracle row-memo bound for the xl2 (million-peer) runs. As at xl scale,
/// only the landmark rows are ever stored and the bound is never reached;
/// the `xl2` header prints it.
pub const XL2_ORACLE_CAPACITY: usize = 1024;

impl Scenario {
    /// Starts a fluent builder preloaded with the paper's full-scale setup
    /// (§5.2): 4096 peers × 5 virtual servers, Gaussian loads, Gnutella
    /// capacities, ts5k-large, 15 landmarks, K = 2, seed 0.
    ///
    /// ```
    /// use proxbal_sim::{Scenario, TopologyKind};
    ///
    /// let scenario = Scenario::builder().small().peers(256).seed(7).build();
    /// assert_eq!(scenario.topology, TopologyKind::Tiny);
    /// let prepared = scenario.prepare();
    /// assert_eq!(prepared.net.alive_peers().len(), 256);
    /// ```
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// Builds the network, loads, topology, oracle and landmarks. The
    /// oracle row memos store at most [`Scenario::oracle_capacity`] rows
    /// (`0` = unbounded); the landmark rows are filled first, so any
    /// capacity of at least the landmark count keeps them stored. Every
    /// result is bit-identical across capacity settings — the memo only
    /// holds pure functions of the graph.
    ///
    /// With [`Scenario::shards`] `> 0` the ring is built the sharded way
    /// ([`crate::shard`]); the result is deterministic in the scenario
    /// (including `shards`) and independent of the worker-thread count.
    pub fn prepare(&self) -> Prepared {
        self.prepare_run(
            crate::parallel::default_threads(),
            &proxbal_profile::NullSink,
        )
    }

    /// [`Scenario::prepare`] on `threads` workers — the thread count never
    /// changes the result, it only bounds parallelism — with per-phase
    /// heartbeat lines on `progress` (topology, join, attach/landmarks,
    /// loads, landmark vectors). Heartbeats go to the sink (stderr for the
    /// CLI), never to stdout, and never change the prepared result.
    pub fn prepare_run(
        &self,
        threads: usize,
        progress: &dyn proxbal_profile::ProgressSink,
    ) -> Prepared {
        let _prof = proxbal_profile::phase("prepare");
        let mut rng = StdRng::seed_from_u64(self.seed);

        let sub = proxbal_profile::phase("prepare/topology");
        let config = match self.topology {
            TopologyKind::Ts5kLarge => Some(TransitStubConfig::ts5k_large()),
            TopologyKind::Ts5kSmall => Some(TransitStubConfig::ts5k_small()),
            TopologyKind::Ts50k => Some(TransitStubConfig::ts50k()),
            TopologyKind::Tiny => Some(TransitStubConfig::tiny()),
            TopologyKind::None => None,
        };
        let topo = config.map(|config| TransitStubTopology::generate(config, &mut rng));
        if let Some(ref topo) = topo {
            progress.event(&format!(
                "prepare: topology generated ({} nodes)",
                topo.graph.node_count()
            ));
        }
        drop(sub);

        // Peers without virtual servers have no positions to shard: either
        // way they join as the serial loop joins them.
        let mut net = if self.shards > 0 && self.vs_per_peer > 0 {
            crate::shard::join_sharded(self, threads, &mut rng, progress)
        } else {
            let _sub = proxbal_profile::phase("prepare/ring");
            let mut net = ChordNetwork::new();
            net.join_peers(self.peers, self.vs_per_peer, &mut rng);
            progress.event(&format!(
                "prepare: joined {}/{} peers",
                self.peers, self.peers
            ));
            net
        };

        // Attach peers to distinct random stub nodes (peers are end hosts);
        // only fall back to sharing when there are more peers than stubs.
        let sub = proxbal_profile::phase("prepare/attach");
        let (oracle, latency_oracle, landmarks) = if let Some(ref topo) = topo {
            let mut stubs = topo.stub_nodes();
            assert!(!stubs.is_empty());
            stubs.shuffle(&mut rng);
            for (i, p) in net.alive_peers().into_iter().enumerate() {
                net.attach(p, stubs[i % stubs.len()]);
            }
            let landmarks = select_landmarks(topo, self.landmarks, &mut rng);
            let cap = self.oracle_capacity;
            let oracle = DistanceOracle::for_topology(topo, &topo.graph, cap);
            let latency_oracle = DistanceOracle::for_topology(topo, &topo.latency_graph, cap);
            // Landmark vectors need the distance row *from* each landmark in
            // the latency metric; batch-fill them up front, into the empty
            // memo, so no balancing run (aware or ignorant, any mode
            // ordering) computes one twice.
            latency_oracle.precompute(&landmarks, threads);
            progress.event(&format!(
                "prepare: peers attached, {} landmark rows precomputed",
                landmarks.len()
            ));
            (Some(oracle), Some(latency_oracle), landmarks)
        } else {
            (None, None, Vec::new())
        };
        drop(sub);

        let sub = proxbal_profile::phase("prepare/loads");
        let loads = LoadState::generate(&net, &self.capacity, &self.load, &mut rng);
        progress.event("prepare: load state generated");
        drop(sub);

        // Hop-metric landmark vectors back the approximate transfer
        // distances; built after everything else so the exact path's RNG
        // consumption (and therefore every historical output) is untouched.
        let _sub = proxbal_profile::phase("prepare/landmarks");
        let hop_landmarks = match (self.distance_mode, oracle.as_ref()) {
            (DistanceMode::Approximate, Some(oracle)) if !landmarks.is_empty() => {
                let vectors = LandmarkOracle::build(oracle, &landmarks, threads);
                progress.event("prepare: hop-metric landmark vectors built");
                Some(vectors)
            }
            _ => None,
        };
        Prepared {
            scenario: self.clone(),
            net,
            loads,
            topo,
            oracle,
            latency_oracle,
            landmarks,
            hop_landmarks,
            rng,
            threads,
        }
    }
}

/// Fluent construction of a [`Scenario`] — the one front door for every
/// experiment configuration (one-shot figures, fault sweeps, xl-scale runs
/// and the continuous-operation engine alike).
///
/// A fresh builder carries the paper's full-scale defaults; the
/// [`ScenarioBuilder::small`] and [`ScenarioBuilder::xl`] presets rescale
/// them wholesale, and the knobs experiments vary have a setter (any other
/// is a plain field write on the built [`Scenario`]). `build` is
/// infallible: all invariants are enforced by types and the few numeric
/// ones (`peers >= 1`, …) by the same asserts `prepare` always had.
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// A builder with the paper's full-scale defaults (see
    /// [`Scenario::builder`]).
    pub fn new() -> Self {
        ScenarioBuilder {
            scenario: Scenario {
                peers: 4096,
                vs_per_peer: 5,
                load: LoadModel::gaussian(1_000_000.0, 10_000.0),
                capacity: CapacityProfile::gnutella(),
                topology: TopologyKind::Ts5kLarge,
                landmarks: 15,
                balancer: BalancerConfig::default(),
                faults: None,
                churn: None,
                drift: None,
                oracle_capacity: 0,
                distance_mode: DistanceMode::Exact,
                refine_sources: 4096,
                shards: 0,
                seed: 0,
            },
        }
    }

    /// Rescales to the test-sized preset: 128 peers on the tiny topology
    /// with 4 landmarks (fast, same shape as the paper setup).
    pub fn small(mut self) -> Self {
        self.scenario.peers = 128;
        self.scenario.topology = TopologyKind::Tiny;
        self.scenario.landmarks = 4;
        self
    }

    /// Rescales to the xl preset: 65,536 peers over a ~50k-node
    /// transit-stub underlay, with the oracle row memos bounded to
    /// [`XL_ORACLE_CAPACITY`] rows.
    pub fn xl(mut self) -> Self {
        self.scenario.peers = 65_536;
        self.scenario.topology = TopologyKind::Ts50k;
        self.scenario.oracle_capacity = XL_ORACLE_CAPACITY;
        self
    }

    /// Rescales to the xl2 (million-peer) preset: 1,048,576 peers × 5
    /// virtual servers over the ~50k-node transit-stub underlay, prepared
    /// across 8 shards with landmark-approximate transfer distances
    /// ([`DistanceMode::Approximate`]) and the oracle row memos bounded to
    /// [`XL2_ORACLE_CAPACITY`] rows. Sharding is always on for this preset,
    /// so the run is identical at any `--threads`.
    pub fn xl2(mut self) -> Self {
        self.scenario.peers = 1_048_576;
        self.scenario.topology = TopologyKind::Ts50k;
        self.scenario.oracle_capacity = XL2_ORACLE_CAPACITY;
        self.scenario.distance_mode = DistanceMode::Approximate;
        self.scenario.refine_sources = 4096;
        self.scenario.shards = 8;
        self
    }

    /// Number of DHT peers (paper: 4096).
    pub fn peers(mut self, peers: usize) -> Self {
        self.scenario.peers = peers;
        self
    }

    /// Number of landmarks (paper: 15).
    pub fn landmarks(mut self, landmarks: usize) -> Self {
        self.scenario.landmarks = landmarks;
        self
    }

    /// Balancer configuration.
    pub fn balancer(mut self, balancer: BalancerConfig) -> Self {
        self.scenario.balancer = balancer;
        self
    }

    /// Fault regime (message loss, delay, crashes, stale links).
    pub fn faults(mut self, faults: crate::faults::FaultConfig) -> Self {
        self.scenario.faults = Some(faults);
        self
    }

    /// Churn regime for continuous operation.
    pub fn churn(mut self, churn: crate::churn::ChurnConfig) -> Self {
        self.scenario.churn = Some(churn);
        self
    }

    /// Load-drift regime for continuous operation.
    pub fn drift(mut self, drift: crate::drift::DriftConfig) -> Self {
        self.scenario.drift = Some(drift);
        self
    }

    /// Master seed: every random choice derives from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.scenario.seed = seed;
        self
    }

    /// Finalizes the scenario.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

/// A fully materialized scenario, ready to run.
pub struct Prepared {
    /// The source scenario.
    pub scenario: Scenario,
    /// The Chord overlay.
    pub net: ChordNetwork,
    /// Per-VS loads and per-peer capacities.
    pub loads: LoadState,
    /// The physical topology, if any.
    pub topo: Option<TransitStubTopology>,
    /// Hop-cost distance oracle over the topology, if any.
    pub oracle: Option<DistanceOracle>,
    /// Latency-metric oracle (landmark measurements), if any.
    pub latency_oracle: Option<DistanceOracle>,
    /// Landmark nodes.
    pub landmarks: Vec<NodeId>,
    /// Hop-metric landmark vectors for approximate transfer distances —
    /// present exactly when the scenario asked for
    /// [`DistanceMode::Approximate`] and has a topology.
    pub hop_landmarks: Option<LandmarkOracle>,
    /// The scenario RNG, positioned after setup (use for the run itself).
    pub rng: StdRng,
    /// Worker-thread count the scenario was prepared with; runs over this
    /// `Prepared` reuse it for the intra-round parallel sections. Purely a
    /// performance knob — every output is byte-identical at any value.
    pub threads: usize,
}

impl Prepared {
    /// The [`Underlay`] view required by proximity-aware balancing, if this
    /// scenario has a topology. Carries the approximate-distance scheme
    /// whenever the scenario was prepared with
    /// [`DistanceMode::Approximate`].
    pub fn underlay(&self) -> Option<Underlay<'_>> {
        underlay_of(
            &self.scenario,
            &self.oracle,
            &self.latency_oracle,
            &self.landmarks,
            &self.hop_landmarks,
        )
    }

    /// The overlay and loads, borrowed mutably beside the
    /// [`Prepared::underlay`] view — what one balancing pass over this
    /// scenario takes.
    pub fn split(&mut self) -> (&mut ChordNetwork, &mut LoadState, Option<Underlay<'_>>) {
        let underlay = underlay_of(
            &self.scenario,
            &self.oracle,
            &self.latency_oracle,
            &self.landmarks,
            &self.hop_landmarks,
        );
        (&mut self.net, &mut self.loads, underlay)
    }

    /// A fresh RNG stream derived from the scenario seed and a label, for
    /// runs that must not perturb each other's randomness.
    pub fn derived_rng(&self, label: u64) -> StdRng {
        StdRng::seed_from_u64(self.scenario.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ label)
    }
}

/// [`Prepared::underlay`] over the fields it reads, so [`Prepared::split`]
/// can lend `net` and `loads` beside it.
pub(crate) fn underlay_of<'a>(
    scenario: &Scenario,
    oracle: &'a Option<DistanceOracle>,
    latency_oracle: &'a Option<DistanceOracle>,
    landmarks: &'a [NodeId],
    hop_landmarks: &'a Option<LandmarkOracle>,
) -> Option<Underlay<'a>> {
    oracle.as_ref().map(|oracle| Underlay {
        oracle,
        latency_oracle: latency_oracle.as_ref(),
        landmarks,
        approx: hop_landmarks.as_ref().map(|landmarks| ApproxTransfer {
            landmarks,
            refine_sources: scenario.refine_sources,
        }),
    })
}
