//! The Chord ring with virtual servers, as the paper's evaluation uses it.
//!
//! The paper runs "a Chord simulator (32-bit identifier space)" in which
//! **each physical node hosts multiple virtual servers** — each virtual
//! server (VS) owns the contiguous arc of the ring that ends at its
//! position. Load balancing moves whole virtual servers between physical
//! nodes; Chord sees the move as a *leave* followed by a *join* (paper §2).
//!
//! What is simulated is the ring and its membership: virtual-server
//! positions, join / leave / crash / transfer / split, and ownership. A DHT
//! key resolves directly through [`Ring::owner`]; no finger table or
//! routed lookup is modelled, since the scheme's message cost is counted
//! on the K-nary tree, not on Chord routes.
//!
//! Main types:
//!
//! * [`Ring`] — the sorted ring of virtual-server positions with
//!   successor/predecessor/ownership queries, plus a bounded journal of
//!   recent membership changes ([`RingStamp`], [`Ring::changes_since`]).
//! * [`ChordNetwork`] — physical peers ([`PeerId`]) hosting virtual servers
//!   ([`VsId`]); join / leave / crash / transfer; region queries.
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

pub use network::{ChordNetwork, PeerId, PeerState, VirtualServer, VsId};
pub use ring::{Ring, RingStamp};

#[cfg(test)]
mod tests;
