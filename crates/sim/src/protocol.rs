//! What the message-level simulation of the tree protocols
//! ([`crate::faults`]) shares with the engine and the benchmark: the phase
//! timing, the typed error, and the pooled working state.
//!
//! A phase runs in two steps. [`ProtocolScratch::bind`] reads the network,
//! the tree and the distance oracle **once** into flat slot-indexed arrays
//! — parent, child list, edge latency, host peer. The run
//! ([`crate::faults::run_aggregation`], [`crate::faults::run_dissemination`])
//! then touches only the scratch, its fault plan and its trace: it is a pure
//! function of (snapshot, plan) and allocates nothing once the scratch is
//! warm. A sweep that replays one tree (the claim-latency curves run
//! 100k+ messages per cell) binds once and runs many times.
//!
//! The bind itself has two halves. The snapshot reads the network and the
//! tree: the structure, each node's host peer, and each peer's underlay
//! node. The latency half reads only the snapshot and the oracle. The
//! engine takes the snapshot on its main thread and hands the scratch to
//! its second thread, which resolves the latencies and runs both phases
//! while the main thread mutates the network and the tree again
//! ([`crate::engine`]; DESIGN.md §6).

use crate::des::{EventQueue, SimTime};
use crate::faults::FEvent;
use proxbal_chord::{ChordNetwork, PeerId};
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

/// "No node" / "no peer" in the snapshot's `u32` tables.
pub(crate) const NIL: u32 = u32::MAX;
/// "Never crashes" in the per-peer crash table.
const NEVER: SimTime = SimTime::MAX;

/// Reusable working state for the phase simulations: the flat snapshot of
/// one (network, tree, oracle) state, plus the per-run tables and the event
/// queue, all pooled across runs.
///
/// The snapshot is exactly what [`ProtocolScratch::bind`] last read —
/// nothing is carried over from an earlier binding, so a virtual server
/// that moved to another peer, a repaired link or a recycled slot can never
/// leave a stale latency behind.
#[derive(Default)]
pub struct ProtocolScratch {
    /// Slot of the bound tree's root.
    pub(crate) root: u32,
    /// Live nodes of the bound tree.
    pub(crate) len: usize,
    /// Parent slot by slot; [`NIL`] for the root and for vacant slots.
    pub(crate) parent: Vec<u32>,
    /// `child_list[child_start[s]..child_start[s + 1]]` are the children of
    /// slot `s`, in the tree's part order.
    child_start: Vec<u32>,
    child_list: Vec<u32>,
    /// Latency of the edge from the node (by slot) to its parent.
    edge_latency: Vec<u32>,
    /// The edges that have no latency, by child slot in ascending order,
    /// each with the unattached peer it crosses. Empty on any network a
    /// scenario prepares.
    unattached: Vec<(u32, PeerId)>,
    /// Peer hosting the node's virtual server, by slot.
    host_peer: Vec<u32>,
    /// Pooled stack of the aggregation's preorder walk.
    pub(crate) walk: Vec<u32>,
    /// Underlay node by peer (`u32::MAX`: unattached).
    peer_underlay: Vec<u32>,
    /// Crash-stop instant by peer; [`NEVER`] when it stays up.
    crash_at: Vec<SimTime>,
    /// Whether the current run has a crash schedule (most have none, and
    /// then nobody is ever looked up).
    crashes: bool,
    /// Per-run node flags, by slot ([`crate::faults`] owns the bits).
    pub(crate) flags: Vec<u8>,
    /// Per-run table: active children the node still waits for.
    pub(crate) pending: Vec<u32>,
    /// Pooled event queue (its slab survives across runs).
    pub(crate) queue: EventQueue<FEvent>,
}

/// Empties `table` and makes room for `n` entries. The tables are refilled
/// at every bind and a tree outgrows them a few slots at a time, so the
/// room is sized to the tree (plus an eighth) where `Vec`'s own doubling
/// would hold up to twice the snapshot.
fn refill<T>(table: &mut Vec<T>, n: usize) {
    table.clear();
    if table.capacity() < n {
        table.reserve_exact(n + n / 8);
    }
}

impl ProtocolScratch {
    /// An empty scratch, bound to nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the snapshot of `tree` over `net`: one pass over the arena for
    /// parents, child lists and host peers, one `oracle` look-up per tree
    /// edge (none where both ends sit on one peer). An edge that crosses an
    /// unattached peer is only marked here; the run reports it as
    /// [`ProtocolError::UnattachedPeer`] if and when a message takes it.
    pub fn bind(&mut self, net: &ChordNetwork, tree: &KTree, oracle: &DistanceOracle) {
        self.snapshot(net, tree);
        self.resolve_latencies(oracle);
    }

    /// The half of [`Self::bind`] that reads `net` and `tree`: parents,
    /// child lists and host peers by slot, underlay nodes by peer. What is
    /// left, [`Self::resolve_latencies`], reads only the scratch and the
    /// oracle, so it can run on another thread while the network and the
    /// tree move on.
    pub(crate) fn snapshot(&mut self, net: &ChordNetwork, tree: &KTree) {
        let bound = tree.slot_bound();
        self.root = tree.root().0;
        self.len = tree.len();
        refill(&mut self.parent, bound);
        refill(&mut self.child_start, bound + 1);
        refill(&mut self.child_list, self.len);
        refill(&mut self.host_peer, bound);
        refill(&mut self.flags, bound);
        refill(&mut self.pending, bound);
        let mut leaves = 0;
        for slot in 0..bound {
            let id = KtNodeId(slot as u32);
            let first_child = self.child_list.len();
            self.child_start.push(first_child as u32);
            if !tree.contains(id) {
                self.parent.push(NIL);
                self.host_peer.push(NIL);
                continue;
            }
            let node = tree.node(id);
            self.parent.push(node.parent().map_or(NIL, |p| p.0));
            self.host_peer.push(net.vs(node.host()).host.0);
            self.child_list
                .extend(node.children().flatten().map(|c| c.0));
            leaves += usize::from(self.child_list.len() == first_child);
        }
        self.child_start.push(self.child_list.len() as u32);

        let peers = net.peer_count() as u32;
        refill(&mut self.peer_underlay, peers as usize);
        let attachments = (0..peers).map(|p| net.peer(PeerId(p)).underlay);
        self.peer_underlay.extend(attachments);
        self.crash_at.clear();
        self.crash_at.resize(net.peer_count(), NEVER);
        self.crashes = false;
        self.flags.resize(bound, 0);
        self.pending.resize(bound, 0);
        // A tree edge carries at most one event at a time, and the edges
        // that carry one at the same time have no ancestor among them (a
        // node sends up after its whole subtree, down before any of it), so
        // the leaves bound the queue's depth.
        self.queue.reset();
        self.queue.reserve(leaves);
    }

    /// The half of [`Self::bind`] that reads the oracle: one look-up per
    /// tree edge of the last [`Self::snapshot`] between two peers.
    pub(crate) fn resolve_latencies(&mut self, oracle: &DistanceOracle) {
        let bound = self.parent.len();
        refill(&mut self.edge_latency, bound);
        self.unattached.clear();
        for slot in 0..bound {
            // The root and vacant slots have no edge; neither has an orphan
            // whose stale parent slot was pruned (nothing can reach it).
            let latency = match self.parent[slot] {
                NIL => 0,
                parent => {
                    let p = parent as usize;
                    let (a, b) = (self.host_peer[slot], self.host_peer[p]);
                    if a == b || b == NIL {
                        0
                    } else {
                        let underlay = |peer: u32| self.peer_underlay[peer as usize];
                        let (ua, ub) = (underlay(a), underlay(b));
                        if ua == u32::MAX || ub == u32::MAX {
                            let peer = if ua == u32::MAX { a } else { b };
                            self.unattached.push((slot as u32, PeerId(peer)));
                            0
                        } else {
                            oracle.distance(ua, ub)
                        }
                    }
                }
            };
            self.edge_latency.push(latency);
        }
    }

    /// Readies the per-run tables for one phase under `crashes`.
    pub(crate) fn begin_run(&mut self, crashes: &[(SimTime, PeerId)]) {
        assert!(!self.parent.is_empty(), "bind the scratch to a tree first");
        self.flags.fill(0);
        self.queue.reset();
        if self.crashes {
            self.crash_at.fill(NEVER);
        }
        self.crashes = !crashes.is_empty();
        for &(t, p) in crashes {
            // A peer that joined after the bind hosts nothing in the
            // snapshot.
            if let Some(at) = self.crash_at.get_mut(p.0 as usize) {
                *at = t;
            }
        }
    }

    /// Children of `node`, in the tree's part order.
    pub(crate) fn children(&self, node: u32) -> std::ops::Range<usize> {
        self.child_start[node as usize] as usize..self.child_start[node as usize + 1] as usize
    }

    /// The `i`-th entry of the flat child list (see [`Self::children`]).
    pub(crate) fn child(&self, i: usize) -> u32 {
        self.child_list[i]
    }

    /// Whether the peer hosting `node` is still up at `t` (crash-stop: dead
    /// forever from its crash instant on).
    pub(crate) fn alive_at(&self, node: u32, t: SimTime) -> bool {
        !self.crashes || t < self.crash_at[self.host_peer[node as usize] as usize]
    }

    /// Latency of the tree edge between `child` and its parent, in
    /// whichever direction the message travels. Free if both KT nodes are
    /// planted in virtual servers of the same peer.
    pub(crate) fn edge_latency(&self, child: u32) -> Result<SimTime, ProtocolError> {
        match self
            .unattached
            .binary_search_by_key(&child, |&(slot, _)| slot)
        {
            Ok(i) => Err(ProtocolError::UnattachedPeer(self.unattached[i].1)),
            Err(_) => Ok(SimTime::from(self.edge_latency[child as usize])),
        }
    }
}
