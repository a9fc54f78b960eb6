use crate::pairing::{Assignment, RendezvousLists};
use proxbal_ktree::{KTree, KtNodeMap};
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
/// `inputs` maps KT nodes (report targets) to the VSA records entering the
/// sweep there (boxed, so the dense per-slot map stays one pointer wide at
/// million-node tree scale). Each KT node merges what its children pushed up with its
/// local input; once its combined lists reach the rendezvous threshold it
/// pairs greedily and forwards only the leftovers; the root pairs
/// unconditionally.
///
/// Records per-rendezvous metrics into `trace`: the
/// `vsa_rendezvous_list_depth` histogram (combined list length at the moment
/// a node pairs), the depth-weighted `vsa_assignment_depth` histogram, and
/// `vsa_pairings` / `vsa_unassigned` counters. Tracing reads state only —
/// the sweep itself is bit-identical with tracing on or off.
pub fn run_vsa(
    tree: &KTree,
    inputs: impl Into<KtNodeMap<Box<RendezvousLists>>>,
    params: &VsaParams,
    trace: &mut Trace,
) -> VsaOutcome {
    let mut inputs: KtNodeMap<Box<RendezvousLists>> = inputs.into();
    let contributing = inputs.iter().filter(|(_, lists)| !lists.is_empty());
    let depths = contributing.map(|(id, _)| tree.message_depth(id).unwrap_or(0));
    let mut outcome = VsaOutcome {
        rounds: depths.max().unwrap_or(0),
        ..VsaOutcome::default()
    };

    for level in tree.levels().rev() {
        for &id in level {
            let Some(mut lists) = inputs.remove(id) else {
                continue;
            };
            if lists.is_empty() {
                continue;
            }
            let is_root = id == tree.root();
            if is_root || lists.len() >= params.rendezvous_threshold {
                trace.record("vsa_rendezvous_list_depth", lists.len() as u64);
                // Pair straight into the outcome's assignment buffer — one
                // growing Vec for the whole sweep, no per-node allocation.
                let before = outcome.assignments.len();
                lists.pair_into(params.l_min, &mut outcome.assignments, trace);
                let produced = outcome.assignments.len() - before;
                if produced > 0 {
                    outcome.rendezvous_points += 1;
                    let d = tree.node(id).depth() as usize;
                    if outcome.assignments_per_depth.len() <= d {
                        outcome.assignments_per_depth.resize(d + 1, 0);
                    }
                    outcome.assignments_per_depth[d] += produced;
                    trace.record_weighted("vsa_assignment_depth", d as u64, produced as f64);
                }
            }
            if lists.is_empty() {
                continue;
            }
            match tree.node(id).parent() {
                Some(parent) => {
                    use proxbal_ktree::Merge;
                    if tree.node(id).host() != tree.node(parent).host() {
                        outcome.record_hops += lists.len();
                    }
                    match inputs.get_mut(parent) {
                        Some(acc) => acc.merge(lists),
                        None => {
                            inputs.insert(parent, lists);
                        }
                    }
                }
                None => outcome.unassigned = *lists, // root leftovers
            }
        }
    }
    trace.count("vsa_pairings", outcome.assignments.len() as u64);
    trace.count("vsa_unassigned", outcome.unassigned.len() as u64);
    outcome
}
