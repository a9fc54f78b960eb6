//! # proxbal — proximity-aware load balancing for structured P2P systems
//!
//! A full reproduction of **Zhu & Hu, "Towards Efficient Load Balancing in
//! Structured P2P Systems" (IPDPS 2004)** as a Rust workspace: the
//! proximity-aware virtual-server load balancer plus every substrate it
//! needs, built from scratch —
//!
//! * [`chord`] — the Chord ring (32-bit identifiers, virtual servers,
//!   ownership, join / leave / crash / transfer / split);
//! * [`ktree`] — the self-organized distributed K-nary tree for
//!   aggregation/dissemination (§3.1);
//! * [`hilbert`] — m-dimensional Hilbert curves and the landmark-vector →
//!   DHT-key mapping (§4.2.1);
//! * [`topology`] — GT-ITM-style transit-stub Internet topologies with the
//!   paper's 3:1 interdomain:intradomain hop costs (§5.1);
//! * [`workload`] — Gaussian/Pareto load models and the Gnutella capacity
//!   profile (§5.1);
//! * [`core`] — the four-phase load balancer itself (LBI aggregation,
//!   classification, VSA, VST) and baselines (CFS shedding, random
//!   matching);
//! * [`sim`] — scenarios (via [`sim::ScenarioBuilder`]), metrics, a
//!   discrete-event engine, churn, the continuous-operation engine
//!   ([`sim::run_engine`]) and the drivers regenerating every figure of
//!   the paper.
//!
//! This facade crate re-exports the workspace so `use proxbal::…` works
//! from examples and downstream code. The short calls its story uses —
//! [`core::LoadBalancer::run`], [`sim::Scenario::prepare`],
//! [`sim::run_engine`] — are shorthands for the one general form of each
//! operation, which takes the trace collector, worker-thread count and
//! progress sink as arguments ([`core::LoadBalancer::run_round`],
//! [`sim::Scenario::prepare_run`], [`sim::run_engine_with`]); below the
//! facade nothing exists in a suffixed second copy.
//!
//! ## Quickstart
//!
//! ```
//! use proxbal::core::{BalancerConfig, LoadBalancer, LoadState};
//! use proxbal::chord::ChordNetwork;
//! use proxbal::workload::{CapacityProfile, LoadModel};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//!
//! // A DHT of 64 peers, each hosting 5 virtual servers.
//! let mut net = ChordNetwork::new();
//! for _ in 0..64 {
//!     net.join_peer(5, &mut rng);
//! }
//!
//! // Skewed loads and heterogeneous (Gnutella-like) capacities.
//! let mut loads = LoadState::generate(
//!     &net,
//!     &CapacityProfile::gnutella(),
//!     &LoadModel::gaussian(1e6, 1e4),
//!     &mut rng,
//! );
//!
//! // One balancing pass: aggregate → classify → assign → transfer.
//! let report = LoadBalancer::new(BalancerConfig::default())
//!     .run(&mut net, &mut loads, None, &mut rng)
//!     .expect("attached network");
//! assert_eq!(report.heavy_after(), 0);
//! ```

pub use proxbal_chord as chord;
pub use proxbal_core as core;
pub use proxbal_hilbert as hilbert;
pub use proxbal_id as id;
pub use proxbal_ktree as ktree;
pub use proxbal_sim as sim;
pub use proxbal_topology as topology;
pub use proxbal_workload as workload;
