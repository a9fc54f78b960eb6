//! What the message-level simulation of the tree protocols
//! ([`crate::faults`]) shares with the engine and the benchmark: the phase
//! timing, the typed error, and the pooled working state.
//!
//! The phase drivers run inside a caller-held [`ProtocolScratch`]. The
//! scratch pools every per-run allocation — the active/pending/delivered
//! node tables, the per-edge latency memo, and the event queue's heap — so a
//! sweep that simulates hundreds of phases over the same tree (claim-latency
//! curves run 100k+ messages) stops allocating per event and stops re-asking
//! the distance oracle for the same tree edge.

use crate::des::{EventQueue, SimTime};
use crate::faults::FEvent;
use proxbal_chord::ChordNetwork;
use proxbal_ktree::{KTree, KtNodeId};
use proxbal_topology::DistanceOracle;
use serde::{Deserialize, Serialize};

/// Outcome of one simulated phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Simulated time at which the phase completed.
    pub completion: SimTime,
    /// Messages sent (including retransmissions).
    pub messages: usize,
    /// Messages lost and retransmitted.
    pub losses: usize,
}

/// Why a protocol simulation could not run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolError {
    /// A tree edge crosses a peer with no underlay attachment, so its
    /// latency is undefined. Attach every peer (`ChordNetwork::attach`)
    /// before simulating over a physical topology.
    UnattachedPeer(proxbal_chord::PeerId),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::UnattachedPeer(p) => {
                write!(f, "peer {p:?} has no underlay attachment")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Sentinel for "edge latency not memoized yet".
const UNMEMOIZED: SimTime = SimTime::MAX;

/// Reusable working state for the phase simulations.
///
/// One scratch serves any number of runs of either phase. It re-binds
/// itself to whatever tree it is handed; per-node tables and the event
/// queue are reset in O(tree size) and the edge-latency memo survives
/// across runs **over the same binding** (same tree shape on the same
/// network), which is exactly the claim-latency sweep's access pattern.
/// Reusing a scratch across *different* trees is safe — the binding
/// fingerprint changes and the memo is dropped.
#[derive(Default)]
pub struct ProtocolScratch {
    /// Fingerprint of the tree this scratch is bound to:
    /// `(root, len, slot_bound)`. Trees are arena-allocated and mutated in
    /// place, so pointer identity is meaningless; this triple changes for
    /// any structural change that could invalidate the memo.
    binding: Option<(KtNodeId, usize, usize)>,
    /// Latency of the edge from KT node (by slot) to its parent;
    /// [`UNMEMOIZED`] when unknown.
    edge_memo: Vec<SimTime>,
    /// Scratch bitmap: node participates in the current aggregation.
    pub(crate) active: Vec<bool>,
    /// Scratch table: active children the node still waits for.
    pub(crate) pending: Vec<u32>,
    /// Scratch bitmap: node already received the current dissemination.
    pub(crate) delivered: Vec<bool>,
    /// Scratch bitmap: the edge from the node (by slot) to its parent
    /// delivered in the current aggregation.
    pub(crate) edge_delivered: Vec<bool>,
    /// Pooled event queue (the heap's buffer survives across runs).
    pub(crate) queue: EventQueue<FEvent>,
}

impl ProtocolScratch {
    /// An empty scratch, bound to nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Points the scratch at `tree`, resetting the per-run tables and the
    /// event queue, and keeping the edge memo iff the binding fingerprint is
    /// unchanged.
    pub(crate) fn bind(&mut self, tree: &KTree) {
        let bound = tree.slot_bound();
        let binding = Some((tree.root(), tree.len(), bound));
        if self.binding != binding {
            self.binding = binding;
            self.edge_memo.clear();
            self.edge_memo.resize(bound, UNMEMOIZED);
        }
        self.active.clear();
        self.active.resize(bound, false);
        self.pending.clear();
        self.pending.resize(bound, 0);
        self.delivered.clear();
        self.delivered.resize(bound, false);
        self.edge_delivered.clear();
        self.edge_delivered.resize(bound, false);
        self.queue.reset();
    }

    /// Latency of the tree edge between `a` and `b`, in whichever direction
    /// the message travels: the child is the end whose `parent` is the
    /// other, and the memo is keyed by the child's slot (a node has one
    /// parent). Free if both KT nodes are planted in virtual servers of the
    /// same peer.
    pub(crate) fn edge_latency(
        &mut self,
        net: &ChordNetwork,
        oracle: &DistanceOracle,
        tree: &KTree,
        a: KtNodeId,
        b: KtNodeId,
    ) -> Result<SimTime, ProtocolError> {
        let (child, parent) = if tree.node(a).parent == Some(b) {
            (a, b)
        } else {
            (b, a)
        };
        let slot = child.0 as usize;
        let memoized = self.edge_memo[slot];
        if memoized != UNMEMOIZED {
            return Ok(memoized);
        }
        let a = net.vs(tree.node(child).host).host;
        let b = net.vs(tree.node(parent).host).host;
        let latency = if a == b {
            0
        } else {
            let (ua, ub) = (net.peer(a).underlay, net.peer(b).underlay);
            if ua == u32::MAX {
                return Err(ProtocolError::UnattachedPeer(a));
            }
            if ub == u32::MAX {
                return Err(ProtocolError::UnattachedPeer(b));
            }
            SimTime::from(oracle.distance(ua, ub))
        };
        self.edge_memo[slot] = latency;
        Ok(latency)
    }
}
