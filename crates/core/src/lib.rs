//! Proximity-aware load balancing for structured P2P systems — the primary
//! contribution of Zhu & Hu (IPDPS 2004), built on the substrates in the
//! sibling crates (`proxbal-chord`, `proxbal-ktree`, `proxbal-hilbert`,
//! `proxbal-topology`, `proxbal-workload`).
//!
//! The scheme runs in four phases (§1.2):
//!
//! 1. **LBI aggregation** — per-node `<L_i, C_i, L_{i,min}>` triples flow up
//!    the K-nary tree to the root ([`Lbi`], [`KTree::aggregate`]).
//! 2. **Node classification** — the system `<L, C, L_min>` is disseminated
//!    and every node classifies itself heavy / light / neutral against its
//!    capacity-proportional target ([`ClassifyParams`], [`NodeClass`]).
//! 3. **Virtual server assignment (VSA)** — heavy nodes pick minimum-load
//!    shed sets; records meet at rendezvous points in a bottom-up sweep
//!    ([`RendezvousLists`], [`run_vsa`]). In proximity-aware mode records
//!    are published at each node's Hilbert number first
//!    ([`ProximityParams`]).
//! 4. **Virtual server transferring (VST)** — assignments execute as Chord
//!    leave+join moves, with physical transfer distances recorded
//!    ([`execute_transfers`]).
//!
//! [`LoadBalancer`] orchestrates all four phases — every entry point is
//! [`LoadBalancer::run_round`] with some arguments filled in, so there is
//! exactly one four-phase code path; [`baselines`] implements the
//! comparators (CFS shedding, proximity-blind random matching).
//!
//! Each operation has one entry point: the trace collector, the
//! worker-thread count and the phase walls are arguments of it
//! (`&mut Trace::disabled()` / `1` / `&mut RoundWalls::default()` when the
//! caller does not care), never a `_traced` / `_with` copy.
//!
//! [`KTree::aggregate`]: proxbal_ktree::KTree::aggregate
//!
//! # Example
//!
//! ```
//! use proxbal_chord::ChordNetwork;
//! use proxbal_core::{BalancerConfig, LoadBalancer, LoadState};
//! use proxbal_workload::{CapacityProfile, LoadModel};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut net = ChordNetwork::new();
//! for _ in 0..64 {
//!     net.join_peer(5, &mut rng);
//! }
//! let mut loads = LoadState::generate(
//!     &net,
//!     &CapacityProfile::gnutella(),
//!     &LoadModel::gaussian(1e6, 1e4),
//!     &mut rng,
//! );
//! let balancer = LoadBalancer::new(BalancerConfig::default());
//! let report = balancer.run(&mut net, &mut loads, None, &mut rng).unwrap();
//! assert!(report.heavy_after() <= report.before[&proxbal_core::NodeClass::Heavy]);
//! ```

mod balancer;
pub mod baselines;
mod classify;
mod error;
mod lbi;
mod pairing;
pub mod reports;
mod round;
mod selection;
mod split;
mod transfer;
mod vsa;

pub use balancer::{
    ApproxTransfer, BalanceReport, BalancerConfig, LoadBalancer, MessageStats, ProximityMode,
    Underlay,
};
pub use classify::{ClassifyParams, NodeClass};
pub use error::Error;
pub use lbi::{Lbi, LoadState};
pub use pairing::{Assignment, LightSlot, RendezvousLists, ShedCandidate};
pub use reports::{Classification, ProximityParams};
pub use round::{DirtySet, RoundCache, RoundWalls};
pub use selection::EXACT_LIMIT;
pub use split::split_and_place;
pub use transfer::{
    absorb_join, execute_transfers, execute_transfers_with_requeue, graceful_leave,
    total_moved_load, weighted_cost, RequeueOutcome, TransferDistances, TransferRecord,
};
pub use vsa::{run_vsa, VsaOutcome, VsaParams};

#[cfg(test)]
mod spec;
#[cfg(test)]
mod tests;
