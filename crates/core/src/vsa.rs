use crate::pairing::{Assignment, RendezvousLists};
use proxbal_ktree::{KTree, KtNodeId, Merge};
use proxbal_trace::Trace;
use serde::{Deserialize, Serialize};

/// Parameters of the VSA sweep.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct VsaParams {
    /// A KT node becomes a rendezvous point once the total length of its
    /// two lists reaches this threshold (the paper suggests 30). The root
    /// always pairs, threshold or not.
    pub rendezvous_threshold: usize,
    /// The system-wide minimum virtual-server load `L_min`, used for the
    /// residual re-insertion rule.
    pub l_min: f64,
}

impl VsaParams {
    /// The paper's configuration (threshold 30).
    pub fn paper(l_min: f64) -> Self {
        VsaParams {
            rendezvous_threshold: 30,
            l_min,
        }
    }
}

/// Result of a bottom-up VSA sweep.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct VsaOutcome {
    /// All assignments, in the order rendezvous points produced them
    /// (deepest first — these pair physically/logically closest nodes).
    pub assignments: Vec<Assignment>,
    /// Entries left unpaired at the root (excess that could not be placed).
    pub unassigned: RendezvousLists,
    /// Upward message rounds of the sweep (`O(log_K N)`).
    pub rounds: u32,
    /// Number of KT nodes that acted as rendezvous points.
    pub rendezvous_points: usize,
    /// Assignments produced per tree depth (index = depth of the rendezvous
    /// node). Proximity-aware runs should see most assignments at deep
    /// (close-in-identifier-space ⇒ close-physically) levels.
    pub assignments_per_depth: Vec<usize>,
    /// Record·hop units: how many VSA records crossed an inter-peer tree
    /// edge while climbing toward rendezvous points — the communication
    /// overhead of the sweep (edges between KT nodes planted on the same
    /// virtual server are free).
    pub record_hops: usize,
}

/// Runs the bottom-up VSA sweep of §3.4 over the tree.
///
/// `inputs` holds the VSA records entering the sweep at each entry node
/// (report targets the root reaches), one entry per node, in any order.
/// Each KT node merges what its children pushed up with its local input;
/// once its combined lists reach the rendezvous threshold it pairs
/// greedily and forwards only the leftovers; the root pairs
/// unconditionally.
///
/// Only the entry nodes and their root paths are visited — deepest level
/// first, each level by ascending region start (the tree's preorder), the
/// order a scan of every level of the tree processes the same nodes in. A
/// node merges its own records first, then what its children forwarded,
/// in part order. `rounds` is the largest message depth of an entry node,
/// carried up the same paths: each visit forwards the most
/// inter-virtual-server hops below it.
///
/// Records per-rendezvous metrics into `trace`: the
/// `vsa_rendezvous_list_depth` histogram (combined list length at the moment
/// a node pairs), the depth-weighted `vsa_assignment_depth` histogram, and
/// `vsa_pairings` / `vsa_unassigned` counters. Tracing reads state only —
/// the sweep itself is bit-identical with tracing on or off.
pub fn run_vsa(
    tree: &KTree,
    inputs: Vec<(KtNodeId, RendezvousLists)>,
    params: &VsaParams,
    trace: &mut Trace,
) -> VsaOutcome {
    let mut outcome = VsaOutcome::default();
    // What each depth still has to visit: `(node, lists, hops below it)`,
    // entry nodes' own records first, then whatever their children forward
    // — in the order the children are visited.
    let mut levels: Vec<Vec<(KtNodeId, RendezvousLists, u32)>> = Vec::new();
    for (id, lists) in inputs.into_iter().filter(|(_, lists)| !lists.is_empty()) {
        let depth = tree.node(id).depth() as usize;
        if levels.len() <= depth {
            levels.resize_with(depth + 1, Vec::new);
        }
        levels[depth].push((id, lists, 0));
    }

    for depth in (0..levels.len()).rev() {
        let mut level = std::mem::take(&mut levels[depth]);
        // Stable, so each node's share keeps its arrival order; one depth
        // holds one node per region start.
        level.sort_by_key(|&(id, ..)| tree.node(id).region().start());
        let mut level = level.into_iter().peekable();
        while let Some((id, mut lists, mut hops)) = level.next() {
            while let Some((_, more, below)) = level.next_if(|(next, ..)| *next == id) {
                hops = hops.max(below);
                if lists.is_empty() {
                    lists = more;
                } else {
                    lists.merge(more);
                }
            }
            let node = tree.node(id);
            let is_root = id == tree.root();
            if !lists.is_empty() && (is_root || lists.len() >= params.rendezvous_threshold) {
                trace.record("vsa_rendezvous_list_depth", lists.len() as u64);
                // Pair straight into the outcome's assignment buffer — one
                // growing Vec for the whole sweep, no per-node allocation.
                let before = outcome.assignments.len();
                lists.pair_into(params.l_min, &mut outcome.assignments, trace);
                let produced = outcome.assignments.len() - before;
                if produced > 0 {
                    outcome.rendezvous_points += 1;
                    if outcome.assignments_per_depth.len() <= depth {
                        outcome.assignments_per_depth.resize(depth + 1, 0);
                    }
                    outcome.assignments_per_depth[depth] += produced;
                    trace.record_weighted("vsa_assignment_depth", depth as u64, produced as f64);
                }
            }
            match node.parent() {
                Some(parent) => {
                    let hop = u32::from(node.host() != tree.node(parent).host());
                    if hop == 1 {
                        outcome.record_hops += lists.len();
                    }
                    levels[depth - 1].push((parent, lists, hops + hop));
                }
                None => {
                    // Root leftovers.
                    outcome.unassigned = lists;
                    outcome.rounds = hops;
                }
            }
        }
    }
    trace.count("vsa_pairings", outcome.assignments.len() as u64);
    trace.count("vsa_unassigned", outcome.unassigned.len() as u64);
    outcome
}
