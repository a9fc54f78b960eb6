//! The unified error hierarchy of the balancing core.
//!
//! Every fallible protocol-level path — one-shot balancing runs, transfer
//! execution, and the continuous-operation engine built on top — reports
//! through [`Error`]. The variants cover conditions a caller can hit with a
//! half-configured network (in contrast to the programmer-error `assert!`s
//! on [`crate::BalancerConfig`] values), so they are recoverable by fixing
//! the setup rather than by catching a panic.

use proxbal_chord::PeerId;

/// Why a balancing operation could not proceed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A transfer endpoint has no underlay attachment, so its physical
    /// distance is undefined. Attach every peer
    /// (`ChordNetwork::attach`) before running with an oracle.
    UnattachedPeer(PeerId),
    /// An alive peer has no capacity in the load state (e.g. it joined
    /// after `LoadState::generate`), so its LBI `<L_i, C_i, L_{i,min}>` is
    /// undefined. Set one (`LoadState::set_capacity`) before balancing.
    MissingCapacity(PeerId),
    /// The network has no alive peers, so there is nothing to aggregate:
    /// the system LBI `<L, C, L_min>` is undefined on an empty membership.
    EmptyNetwork,
    /// Proximity-aware balancing was requested without an underlay
    /// topology; landmark vectors cannot be measured.
    MissingUnderlay,
    /// A continuous-operation engine configuration is invalid (zero
    /// intervals, zero epochs, a non-positive emergency threshold, …).
    /// The message names the offending knob.
    InvalidEngineConfig(&'static str),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::UnattachedPeer(p) => {
                write!(f, "peer {p:?} has no underlay attachment")
            }
            Error::MissingCapacity(p) => write!(f, "peer {p:?} has no capacity"),
            Error::EmptyNetwork => {
                write!(f, "no alive peers: the system LBI is undefined")
            }
            Error::MissingUnderlay => {
                write!(f, "proximity-aware balancing requires an underlay topology")
            }
            Error::InvalidEngineConfig(what) => {
                write!(f, "invalid engine configuration: {what}")
            }
        }
    }
}

impl std::error::Error for Error {}
