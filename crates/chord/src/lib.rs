//! A from-scratch Chord DHT simulator.
//!
//! The paper's evaluation runs "a Chord simulator (32-bit identifier space)"
//! in which **each physical node hosts multiple virtual servers** — each
//! virtual server (VS) acts as an independent Chord protocol participant
//! owning a contiguous arc of the ring. Load balancing moves whole virtual
//! servers between physical nodes; Chord sees the move as a *leave* followed
//! by a *join* (paper §2).
//!
//! Main types:
//!
//! * [`Ring`] — the sorted ring of virtual-server positions with
//!   successor/predecessor/ownership queries, plus a bounded journal of
//!   recent membership changes ([`RingStamp`], [`Ring::changes_since`]).
//! * [`ChordNetwork`] — physical peers ([`PeerId`]) hosting virtual servers
//!   ([`VsId`]); join / leave / crash / transfer; region queries.
//! * [`RoutingState`] — per-VS finger tables and successor lists with
//!   iterative greedy lookup (hop-counted) and stabilization, so churn
//!   experiments see genuinely stale routing state until repair runs.
//!
//! # Example
//!
//! ```
//! use proxbal_chord::ChordNetwork;
//! use proxbal_id::Id;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut net = ChordNetwork::new();
//! for _ in 0..8 {
//!     net.join_peer(5, &mut rng); // 5 virtual servers per peer
//! }
//! let key = Id::new(0xCAFE_BABE);
//! let owner_vs = net.ring().owner(key).unwrap();
//! assert!(net.region_of(owner_vs).contains(key));
//! ```

mod network;
mod ring;
mod routing;

pub use network::{ChordNetwork, PeerId, PeerState, VirtualServer, VsId};
pub use ring::{Ring, RingStamp};
pub use routing::{LookupOutcome, RoutingState, SUCCESSOR_LIST_LEN};

#[cfg(test)]
mod tests;
