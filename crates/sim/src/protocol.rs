//! Message-level discrete-event simulation of the tree protocols.
//!
//! The round counts of [`crate::experiments::rounds_scaling`] abstract away
//! link latencies; this module simulates the LBI aggregation and
//! dissemination phases message by message over the physical topology —
//! each tree edge costs its shortest-path latency, a parent forwards only
//! once every contributing child has reported, and messages can be lost
//! and retransmitted after a timeout. The result is the *wall-clock*
//! completion time behind the paper's "fast load balancing" claim.
//!
//! The phase drivers run inside a caller-held [`ProtocolScratch`]. The
//! scratch pools every per-run allocation — the active/pending/delivered
//! node tables, the per-edge latency memo, and the event queue's heap — so a
//! sweep that simulates hundreds of phases over the same tree (claim-latency
//! curves run 100k+ messages) stops allocating per event and stops re-asking
//! the distance oracle for the same tree edge.

use crate::des::{EventQueue, SimTime};
use proxbal_chord::ChordNetwork;
use proxbal_ktree::{KTree, KtNodeId};
use proxbal_topology::DistanceOracle;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Message-loss model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LossModel {
    /// Probability that any single message transmission is lost.
    pub loss_probability: f64,
    /// Retransmission timeout (the sender retries after this delay).
    pub retransmit_after: SimTime,
}

impl LossModel {
    /// No loss.
    pub fn reliable() -> Self {
        LossModel {
            loss_probability: 0.0,
            retransmit_after: 1,
        }
    }
}

/// Outcome of one simulated phase.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Simulated time at which the phase completed.
    pub completion: SimTime,
    /// Messages sent (including retransmissions).
    pub messages: usize,
    /// Messages lost and retransmitted.
    pub losses: usize,
}

/// Why a protocol simulation could not run (or could not complete).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolError {
    /// A tree edge crosses a peer with no underlay attachment, so its
    /// latency is undefined. Attach every peer (`ChordNetwork::attach`)
    /// before simulating over a physical topology.
    UnattachedPeer(proxbal_chord::PeerId),
    /// The loss model's probability is outside `[0, 1)` — `1.0` would
    /// retransmit forever.
    InvalidLossProbability(f64),
    /// A phase ended without covering the tree: `reached` of `expected`
    /// nodes saw the message. Unreachable under the infinite-retransmit
    /// loss model; the fault-injected drivers in [`crate::faults`] report
    /// partial coverage through their own outcome instead of this error.
    Incomplete {
        /// Which phase fell short (`"aggregation"` or `"dissemination"`).
        phase: &'static str,
        /// Nodes the phase actually covered.
        reached: usize,
        /// Nodes the phase had to cover.
        expected: usize,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::UnattachedPeer(p) => {
                write!(f, "peer {p:?} has no underlay attachment")
            }
            ProtocolError::InvalidLossProbability(p) => {
                write!(f, "loss probability {p} outside [0, 1)")
            }
            ProtocolError::Incomplete {
                phase,
                reached,
                expected,
            } => {
                write!(f, "{phase} covered {reached} of {expected} tree nodes")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

#[derive(Debug)]
enum Event {
    /// A message from `from` arrives at `to` (tree edge).
    Deliver {
        #[allow(dead_code)] // kept for event tracing/debugging
        from: KtNodeId,
        to: KtNodeId,
    },
}

/// Validates a loss probability (`1.0` would retransmit forever).
fn check_loss(loss: &LossModel) -> Result<(), ProtocolError> {
    if (0.0..1.0).contains(&loss.loss_probability) {
        Ok(())
    } else {
        Err(ProtocolError::InvalidLossProbability(loss.loss_probability))
    }
}

/// Sentinel for "edge latency not memoized yet".
const UNMEMOIZED: SimTime = SimTime::MAX;

/// Reusable working state for the phase simulations.
///
/// One scratch serves any number of runs. It re-binds itself to whatever
/// tree it is handed; per-node tables are reset in O(tree size) and the
/// edge-latency memo survives across runs **over the same binding** (same
/// tree shape on the same network), which is exactly the claim-latency
/// sweep's access pattern. Reusing a scratch across *different* trees is
/// safe — the binding fingerprint changes and the memo is dropped.
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
    /// Pooled event queue (the heap's buffer survives across runs).
    queue: EventQueue<Event>,
}

impl ProtocolScratch {
    /// An empty scratch, bound to nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Points the scratch at `tree`, resetting the per-run tables and
    /// keeping the edge memo iff the binding fingerprint is unchanged.
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
        self.queue.reset();
    }

    /// Latency of the tree edge from `child` to `parent`, memoized by the
    /// child's slot (a node has one parent). Free if both KT nodes are
    /// planted in virtual servers of the same peer.
    pub(crate) fn edge_latency(
        &mut self,
        net: &ChordNetwork,
        oracle: &DistanceOracle,
        tree: &KTree,
        child: KtNodeId,
        parent: KtNodeId,
    ) -> Result<SimTime, ProtocolError> {
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

/// Simulates the bottom-up LBI aggregation as individual messages: every
/// KT node on the path from a contributing node to the root forwards
/// upward once all its contributing children have reported.
///
/// `contributors` may repeat nodes and come in any order; the simulation is
/// a function of the contributor *set*.
///
/// Returns the timing; with [`LossModel::reliable`] the completion time
/// equals the analytic maximum root-path latency over contributing nodes.
///
/// Runs inside the caller-held `scratch` — no per-run allocation once it
/// is warm — and records DES metrics into `trace`: `des_messages` /
/// `des_losses` counters, the `des_queue_depth` histogram (pending events
/// sampled at every pop) and one `des_queue_peak` observation. The
/// simulation itself is bit-identical with tracing on or off; spans are the
/// caller's job (it owns the virtual-time offset).
#[allow(clippy::too_many_arguments)]
pub fn simulate_aggregation<R: Rng>(
    net: &ChordNetwork,
    tree: &KTree,
    oracle: &DistanceOracle,
    contributors: &[KtNodeId],
    loss: &LossModel,
    rng: &mut R,
    scratch: &mut ProtocolScratch,
    trace: &mut proxbal_trace::Trace,
) -> Result<PhaseTiming, ProtocolError> {
    check_loss(loss)?;
    scratch.bind(tree);
    // Active nodes: contributors and all their ancestors.
    let mut any_active = false;
    for &c in contributors {
        let mut cur = Some(c);
        while let Some(id) = cur {
            let slot = id.0 as usize;
            if std::mem::replace(&mut scratch.active[slot], true) {
                break;
            }
            any_active = true;
            cur = tree.node(id).parent;
        }
    }
    if !any_active {
        return Ok(PhaseTiming {
            completion: 0,
            messages: 0,
            losses: 0,
        });
    }

    // pending[n] = number of active children n still waits for.
    for slot in 0..scratch.active.len() {
        if !scratch.active[slot] {
            continue;
        }
        let n = KtNodeId(slot as u32);
        scratch.pending[slot] = tree
            .node(n)
            .children
            .iter()
            .flatten()
            .filter(|c| scratch.active[c.0 as usize])
            .count() as u32;
    }

    let mut timing = PhaseTiming {
        completion: 0,
        messages: 0,
        losses: 0,
    };

    // `send` models one (possibly lossy) transmission: schedules either the
    // delivery or a chain of retransmissions.
    let send = |queue: &mut EventQueue<Event>,
                timing: &mut PhaseTiming,
                rng: &mut R,
                from: KtNodeId,
                to: KtNodeId,
                latency: SimTime| {
        let mut delay = latency;
        loop {
            timing.messages += 1;
            if rng.gen::<f64>() < loss.loss_probability {
                timing.losses += 1;
                delay += loss.retransmit_after + latency;
            } else {
                queue.schedule_in(delay, Event::Deliver { from, to });
                break;
            }
        }
    };

    // Leaves of the active set (pending == 0) fire immediately, in node-id
    // order — the ascending bitmap scan *is* that order, so with loss
    // enabled RNG draws bind to leaves deterministically.
    let mut root_done = false;
    for slot in 0..scratch.active.len() {
        if !scratch.active[slot] || scratch.pending[slot] != 0 {
            continue;
        }
        let n = KtNodeId(slot as u32);
        match tree.node(n).parent {
            Some(parent) => {
                let lat = scratch.edge_latency(net, oracle, tree, n, parent)?;
                send(&mut scratch.queue, &mut timing, rng, n, parent, lat);
            }
            None => root_done = true, // degenerate: root is the only node
        }
    }

    while let Some((t, Event::Deliver { from: _, to })) = scratch.queue.pop() {
        trace.record("des_queue_depth", scratch.queue.len() as u64);
        let slot = &mut scratch.pending[to.0 as usize];
        *slot -= 1;
        if *slot > 0 {
            continue;
        }
        match tree.node(to).parent {
            Some(parent) => {
                let lat = scratch.edge_latency(net, oracle, tree, to, parent)?;
                send(&mut scratch.queue, &mut timing, rng, to, parent, lat);
            }
            None => {
                timing.completion = t;
                root_done = true;
            }
        }
    }
    if !root_done {
        return Err(ProtocolError::Incomplete {
            phase: "aggregation",
            reached: 0,
            expected: 1,
        });
    }
    trace.count("des_messages", timing.messages as u64);
    trace.count("des_losses", timing.losses as u64);
    trace.record("des_queue_peak", scratch.queue.high_water() as u64);
    Ok(timing)
}

/// Simulates the top-down dissemination: the root broadcasts, every node
/// forwards to its children on arrival. Completion is the last delivery.
/// Scratch and trace as in [`simulate_aggregation`].
pub fn simulate_dissemination<R: Rng>(
    net: &ChordNetwork,
    tree: &KTree,
    oracle: &DistanceOracle,
    loss: &LossModel,
    rng: &mut R,
    scratch: &mut ProtocolScratch,
    trace: &mut proxbal_trace::Trace,
) -> Result<PhaseTiming, ProtocolError> {
    check_loss(loss)?;
    scratch.bind(tree);
    let mut timing = PhaseTiming {
        completion: 0,
        messages: 0,
        losses: 0,
    };
    let mut reached = 0usize;

    #[allow(clippy::too_many_arguments)]
    fn fanout<R: Rng>(
        scratch: &mut ProtocolScratch,
        net: &ChordNetwork,
        oracle: &DistanceOracle,
        tree: &KTree,
        loss: &LossModel,
        timing: &mut PhaseTiming,
        rng: &mut R,
        node: KtNodeId,
    ) -> Result<(), ProtocolError> {
        let children: Vec<KtNodeId> = tree.node(node).children.iter().flatten().copied().collect();
        for child in children {
            let lat = scratch.edge_latency(net, oracle, tree, child, node)?;
            let mut delay = lat;
            loop {
                timing.messages += 1;
                if rng.gen::<f64>() < loss.loss_probability {
                    timing.losses += 1;
                    delay += loss.retransmit_after + lat;
                } else {
                    scratch.queue.schedule_in(
                        delay,
                        Event::Deliver {
                            from: node,
                            to: child,
                        },
                    );
                    break;
                }
            }
        }
        Ok(())
    }

    scratch.delivered[tree.root().0 as usize] = true;
    reached += 1;
    fanout(
        scratch,
        net,
        oracle,
        tree,
        loss,
        &mut timing,
        rng,
        tree.root(),
    )?;
    while let Some((t, Event::Deliver { to, .. })) = scratch.queue.pop() {
        trace.record("des_queue_depth", scratch.queue.len() as u64);
        if std::mem::replace(&mut scratch.delivered[to.0 as usize], true) {
            continue;
        }
        reached += 1;
        timing.completion = t;
        fanout(scratch, net, oracle, tree, loss, &mut timing, rng, to)?;
    }
    if reached != tree.len() {
        return Err(ProtocolError::Incomplete {
            phase: "dissemination",
            reached,
            expected: tree.len(),
        });
    }
    trace.count("des_messages", timing.messages as u64);
    trace.count("des_losses", timing.losses as u64);
    trace.record("des_queue_peak", scratch.queue.high_water() as u64);
    Ok(timing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::root_path_latencies;
    use crate::{Scenario, TopologyKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (crate::Prepared, KTree) {
        let mut scenario = Scenario::builder().small().seed(60).build();
        scenario.peers = 96;
        scenario.topology = TopologyKind::Tiny;
        let prepared = scenario.prepare();
        let tree = KTree::build(&prepared.net, 2);
        (prepared, tree)
    }

    /// One aggregation in a fresh scratch, untraced.
    fn aggregation(
        prepared: &crate::Prepared,
        tree: &KTree,
        contributors: &[KtNodeId],
        loss: &LossModel,
        rng: &mut StdRng,
    ) -> Result<PhaseTiming, ProtocolError> {
        simulate_aggregation(
            &prepared.net,
            tree,
            prepared.oracle.as_ref().unwrap(),
            contributors,
            loss,
            rng,
            &mut ProtocolScratch::new(),
            &mut proxbal_trace::Trace::disabled(),
        )
    }

    fn all_report_targets(prepared: &crate::Prepared, tree: &KTree) -> Vec<KtNodeId> {
        let mut targets: Vec<KtNodeId> = prepared
            .net
            .ring()
            .iter()
            .map(|(_, vs)| tree.report_target(&prepared.net, vs))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    #[test]
    fn reliable_aggregation_matches_analytic_latency() {
        let (prepared, tree) = setup();
        let oracle = prepared.oracle.as_ref().unwrap();
        let contributors = all_report_targets(&prepared, &tree);
        let mut rng = StdRng::seed_from_u64(1);
        let timing = aggregation(
            &prepared,
            &tree,
            &contributors,
            &LossModel::reliable(),
            &mut rng,
        )
        .expect("attached");
        // With every node contributing, the DES completion equals the max
        // root-path latency over all contributing nodes.
        let paths = root_path_latencies(&prepared.net, oracle, &tree);
        let analytic = contributors.iter().map(|c| paths[c]).max().unwrap();
        assert_eq!(timing.completion, analytic);
        assert_eq!(timing.losses, 0);
        assert!(timing.messages > 0);
    }

    #[test]
    fn partial_contributors_complete_sooner_or_equal() {
        let (prepared, tree) = setup();
        let all = all_report_targets(&prepared, &tree);
        let few: Vec<KtNodeId> = all.iter().copied().take(3).collect();
        let mut rng = StdRng::seed_from_u64(2);
        let t_all = aggregation(&prepared, &tree, &all, &LossModel::reliable(), &mut rng)
            .expect("attached");
        let t_few = aggregation(&prepared, &tree, &few, &LossModel::reliable(), &mut rng)
            .expect("attached");
        assert!(t_few.completion <= t_all.completion);
        assert!(t_few.messages < t_all.messages);
    }

    #[test]
    fn loss_delays_but_completes() {
        let (prepared, tree) = setup();
        let contributors = all_report_targets(&prepared, &tree);
        let mut rng = StdRng::seed_from_u64(3);
        let reliable = aggregation(
            &prepared,
            &tree,
            &contributors,
            &LossModel::reliable(),
            &mut rng,
        )
        .expect("attached");
        let lossy = aggregation(
            &prepared,
            &tree,
            &contributors,
            &LossModel {
                loss_probability: 0.3,
                retransmit_after: 20,
            },
            &mut rng,
        )
        .expect("attached");
        assert!(lossy.losses > 0);
        assert!(lossy.completion >= reliable.completion);
        assert!(lossy.messages > reliable.messages);
    }

    #[test]
    fn dissemination_reaches_everyone() {
        let (prepared, tree) = setup();
        let oracle = prepared.oracle.as_ref().unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let timing = simulate_dissemination(
            &prepared.net,
            &tree,
            oracle,
            &LossModel::reliable(),
            &mut rng,
            &mut ProtocolScratch::new(),
            &mut proxbal_trace::Trace::disabled(),
        )
        .expect("attached");
        // Broadcast completion equals the max root-path latency over all
        // nodes.
        let paths = root_path_latencies(&prepared.net, oracle, &tree);
        assert_eq!(timing.completion, *paths.values().max().unwrap());
        // Exactly one message per tree edge when reliable.
        assert_eq!(timing.messages, tree.len() - 1);
    }

    #[test]
    fn empty_contributor_set_is_trivial() {
        let (prepared, tree) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let timing =
            aggregation(&prepared, &tree, &[], &LossModel::reliable(), &mut rng).expect("attached");
        assert_eq!(timing.completion, 0);
        assert_eq!(timing.messages, 0);
    }

    #[test]
    fn unattached_peer_is_a_typed_error() {
        let (mut prepared, tree) = setup();
        let contributors = all_report_targets(&prepared, &tree);
        // Detach every peer: any inter-peer tree edge now has no latency.
        let peers: Vec<_> = prepared.net.alive_peers();
        for p in &peers {
            prepared.net.attach(*p, u32::MAX);
        }
        let mut rng = StdRng::seed_from_u64(6);
        let err = aggregation(
            &prepared,
            &tree,
            &contributors,
            &LossModel::reliable(),
            &mut rng,
        )
        .expect_err("unattached peers must not simulate");
        assert!(matches!(err, ProtocolError::UnattachedPeer(_)));
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let (prepared, tree) = setup();
        let oracle = prepared.oracle.as_ref().unwrap();
        let contributors = all_report_targets(&prepared, &tree);
        let loss = LossModel {
            loss_probability: 0.2,
            retransmit_after: 15,
        };
        let fresh: Vec<PhaseTiming> = (0..4)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(100 + i);
                aggregation(&prepared, &tree, &contributors, &loss, &mut rng).expect("attached")
            })
            .collect();
        let mut scratch = ProtocolScratch::new();
        let pooled: Vec<PhaseTiming> = (0..4)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(100 + i);
                simulate_aggregation(
                    &prepared.net,
                    &tree,
                    oracle,
                    &contributors,
                    &loss,
                    &mut rng,
                    &mut scratch,
                    &mut proxbal_trace::Trace::disabled(),
                )
                .expect("attached")
            })
            .collect();
        for (f, p) in fresh.iter().zip(&pooled) {
            assert_eq!(f.completion, p.completion);
            assert_eq!(f.messages, p.messages);
            assert_eq!(f.losses, p.losses);
        }
    }
}
