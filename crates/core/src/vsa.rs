use crate::pairing::{Assignment, LightSlot, Marks, RendezvousLists, ShedCandidate};
use crate::reports::shed_sets;
use proxbal_chord::VsId;
use proxbal_ktree::{KTree, KtNodeId};
use proxbal_trace::Trace;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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
/// `shed` holds the shed candidates (one run per shedding peer, the runs
/// ascending by peer, as [`crate::reports::shed_candidates`] returns them)
/// and `light` the light slots, ascending by peer;
/// `entries` holds the entry node of every participant — the shedding
/// peers, then the peers of `light`: the publication order. Each KT node
/// merges what its children pushed up with the records published at it;
/// once its combined lists reach the rendezvous threshold it pairs
/// greedily and forwards only the leftovers; the root pairs
/// unconditionally.
///
/// The entry nodes and their root paths are walked depth first in the
/// tree's preorder — by region start, a parent before the child that
/// shares its start — over two stacks, one of shed candidates and one of
/// light slots. A node's lists are the records above its mark: its own,
/// pushed as published and ordered once (among equal keys the latest
/// published first), then each finished child's leftovers merged in, in
/// part order, the node's entries first among equal keys. A node pairs in
/// place once its last child is done, and its leftovers stay on the stacks
/// for its parent. Its assignments go to a buffer for its depth; the
/// buffers are concatenated deepest first, so they come out deepest level
/// first, each level by ascending region start — the order a scan of every
/// level of the tree processes the same nodes in. `rounds` is the largest
/// message depth of an entry node, carried up the same paths: each node
/// forwards the most inter-virtual-server hops below it.
///
/// With `threads > 1` the subtrees hanging at the shallowest depth that
/// can hold eight of them per worker are walked on workers, each into
/// stacks, depth buffers and a trace of its own, and the caller walks the
/// nodes above them, taking each subtree's leftovers where its root's
/// parent receives them. A subtree's nodes pair
/// exactly as in one walk, its depth buffers are concatenated in preorder,
/// and every count is a sum or a maximum, so the outcome is bit-identical
/// at any `threads`.
///
/// Records per-rendezvous metrics into `trace`: the
/// `vsa_rendezvous_list_depth` histogram (combined list length at the moment
/// a node pairs), the depth-weighted `vsa_assignment_depth` histogram, and
/// `vsa_pairings` / `vsa_unassigned` counters. Tracing reads state only —
/// the sweep itself is bit-identical with tracing on or off.
pub fn run_vsa(
    tree: &KTree,
    shed: &[ShedCandidate],
    light: &[LightSlot],
    entries: &[KtNodeId],
    params: &VsaParams,
    threads: usize,
    trace: &mut Trace,
) -> VsaOutcome {
    let runs: Vec<&[ShedCandidate]> = shed_sets(shed).collect();
    debug_assert!(
        runs.windows(2).all(|w| w[0][0].from < w[1][0].from),
        "runs ascend by peer"
    );
    assert_eq!(
        entries.len(),
        runs.len() + light.len(),
        "one entry node per participant"
    );
    // Participants grouped by entry node (handle, then publication order),
    // and the groups in the tree's preorder: region start, then depth.
    let mut order: Vec<u64> = entries
        .iter()
        .zip(0u64..)
        .map(|(id, i)| u64::from(id.0) << 32 | i)
        .collect();
    order.sort_unstable();
    let mut nodes: Vec<(u64, Range<usize>)> = Vec::new();
    let mut at = 0;
    for group in order.chunk_by(|a, b| a >> 32 == b >> 32) {
        let node = tree.node(KtNodeId((group[0] >> 32) as u32));
        let start = u64::from(node.region().start().raw());
        nodes.push((start << 8 | u64::from(node.depth()), at..at + group.len()));
        at += group.len();
    }
    nodes.sort_unstable_by_key(|(place, _)| *place);
    let publish = |walk: &mut Walk, group: &Range<usize>| {
        walk.enter(KtNodeId((order[group.start] >> 32) as u32));
        let marks = walk.stacks.marks();
        for i in order[group.clone()].iter().map(|&key| key as u32 as usize) {
            match runs.get(i) {
                Some(run) => walk.stacks.push_unsorted(run, &[]),
                None => walk
                    .stacks
                    .push_unsorted(&[], std::slice::from_ref(&light[i - runs.len()])),
            }
        }
        walk.stacks.settle_above(marks, shed);
    };

    // The subtrees below the frontier, as ranges of `nodes` with the
    // subtree's root, each walked on a worker down to that root.
    let frontier = frontier_depth(tree.k(), threads);
    let mut subtrees: Vec<(KtNodeId, Range<usize>)> = Vec::new();
    for (i, (place, _)) in nodes.iter().enumerate() {
        // The low byte of a place is the node's depth.
        let Some(depth) = (*place as u8 as usize).checked_sub(frontier) else {
            continue;
        };
        let mut root = KtNodeId((order[nodes[i].1.start] >> 32) as u32);
        for _ in 0..depth {
            root = tree
                .node(root)
                .parent()
                .expect("a parent above the frontier");
        }
        match subtrees.last_mut() {
            Some((last, range)) if *last == root => range.end = i + 1,
            _ => subtrees.push((root, i..i + 1)),
        }
    }
    let traced = trace.is_enabled();
    let walked = proxbal_parallel::map_items(&subtrees, threads, |_, (_, range)| {
        let mut trace = Trace::new(traced, "");
        let mut walk = Walk::new(tree, params, &mut trace);
        for (_, group) in &nodes[range.clone()] {
            publish(&mut walk, group);
        }
        walk.close_above(frontier);
        let hops = walk.open.last().map_or(0, |parent| parent.hops);
        let Walk {
            stacks,
            by_depth,
            outcome,
            ..
        } = walk;
        (stacks, hops, by_depth, outcome, trace)
    });

    let mut walk = Walk::new(tree, params, trace);
    let mut walked = subtrees.iter().zip(walked).peekable();
    let mut i = 0;
    let mut depth_buffers = Vec::new();
    while i < nodes.len() {
        let Some(((root, range), done)) = walked.next_if(|((_, range), _)| range.start == i) else {
            publish(&mut walk, &nodes[i].1);
            i += 1;
            continue;
        };
        let (leftovers, hops, by_depth, outcome, trace) = done;
        walk.enter(
            tree.node(*root)
                .parent()
                .expect("the frontier is below the root"),
        );
        walk.adopt(&leftovers, hops);
        walk.outcome.rendezvous_points += outcome.rendezvous_points;
        walk.outcome.record_hops += outcome.record_hops;
        walk.trace.absorb(trace);
        depth_buffers.push(by_depth);
        i = range.end;
    }
    walk.close_above(0);
    let Walk {
        mut outcome,
        by_depth,
        stacks,
        trace,
        ..
    } = walk;
    // The subtrees' buffers hold the depths at and below the frontier, in
    // preorder; the walk's own those above it.
    depth_buffers.push(by_depth);
    let depths = depth_buffers.iter().map(Vec::len).max().unwrap_or(0);
    let per_depth = |d: usize| depth_buffers.iter().filter_map(move |b| b.get(d));
    outcome.assignments_per_depth = (0..depths)
        .map(|d| per_depth(d).map(Vec::len).sum())
        .collect();
    while outcome.assignments_per_depth.last() == Some(&0) {
        outcome.assignments_per_depth.pop();
    }
    outcome.assignments = Vec::with_capacity(outcome.assignments_per_depth.iter().sum());
    for d in (0..depths).rev() {
        per_depth(d).for_each(|buffer| outcome.assignments.extend_from_slice(buffer));
    }
    outcome.unassigned = stacks;
    trace.count("vsa_pairings", outcome.assignments.len() as u64);
    trace.count("vsa_unassigned", outcome.unassigned.len() as u64);
    outcome
}

/// The depth whose subtrees [`run_vsa`] hands to workers: the shallowest at
/// which the tree can have eight subtrees per worker. Past the tree's
/// depth, or with one thread, nothing is handed out.
fn frontier_depth(k: usize, threads: usize) -> usize {
    if threads <= 1 {
        return usize::MAX;
    }
    let (mut depth, mut width) = (1, k);
    while width < 8 * threads {
        (depth, width) = (depth + 1, width * k);
    }
    depth
}

/// A KT node on the walk's open root path.
struct Frame {
    id: KtNodeId,
    host: VsId,
    /// Where its lists start on the stacks.
    marks: Marks,
    /// The most inter-virtual-server hops below it.
    hops: u32,
}

/// The state of [`run_vsa`]'s walk: the two record stacks, the open root
/// path (a frame per depth), and the assignments of every depth.
struct Walk<'a> {
    tree: &'a KTree,
    params: &'a VsaParams,
    trace: &'a mut Trace,
    stacks: RendezvousLists,
    /// The buffers merges go through.
    scratch: RendezvousLists,
    open: Vec<Frame>,
    /// The nodes [`Walk::enter`] opens, deepest first.
    path: Vec<KtNodeId>,
    by_depth: Vec<Vec<Assignment>>,
    outcome: VsaOutcome,
}

impl<'a> Walk<'a> {
    fn new(tree: &'a KTree, params: &'a VsaParams, trace: &'a mut Trace) -> Self {
        Walk {
            tree,
            params,
            trace,
            stacks: RendezvousLists::new(),
            scratch: RendezvousLists::new(),
            open: Vec::new(),
            path: Vec::new(),
            by_depth: Vec::new(),
            outcome: VsaOutcome::default(),
        }
    }

    /// Hands the top open node the leftovers of a child walked apart, and
    /// the most hops below that child's parent edge.
    fn adopt(&mut self, leftovers: &RendezvousLists, hops: u32) {
        let parent = self.open.last_mut().expect("an open parent");
        parent.hops = parent.hops.max(hops);
        let marks = self.stacks.marks();
        self.stacks
            .push_unsorted(leftovers.shed(), leftovers.light());
        self.stacks
            .merge_above(parent.marks, marks, &mut self.scratch);
    }

    /// Makes `id` the top of the open path: closes every open node that is
    /// not on its root path, then opens the nodes of that path below the
    /// deepest one still open, `id` last.
    fn enter(&mut self, id: KtNodeId) {
        let mut at = Some(id);
        let keep = loop {
            let Some(x) = at else { break 0 };
            let node = self.tree.node(x);
            let depth = node.depth() as usize;
            if self.open.get(depth).is_some_and(|frame| frame.id == x) {
                break depth + 1;
            }
            self.path.push(x);
            at = node.parent();
        };
        self.close_above(keep);
        while let Some(x) = self.path.pop() {
            let node = self.tree.node(x);
            debug_assert_eq!(
                node.depth() as usize,
                self.open.len(),
                "depth is distance from the root"
            );
            self.open.push(Frame {
                id: x,
                host: node.host(),
                marks: self.stacks.marks(),
                hops: 0,
            });
        }
    }

    /// Closes the open nodes at depth `keep` and below, deepest first: each
    /// pairs if it is a rendezvous point and hands its leftovers, and its
    /// hops, to its parent.
    fn close_above(&mut self, keep: usize) {
        while self.open.len() > keep {
            let frame = self.open.pop().expect("an open node");
            let depth = self.open.len();
            let len = self.stacks.len_above(frame.marks);
            let is_root = frame.id == self.tree.root();
            if len > 0 && (is_root || len >= self.params.rendezvous_threshold) {
                self.trace.record("vsa_rendezvous_list_depth", len as u64);
                if self.by_depth.len() <= depth {
                    self.by_depth.resize_with(depth + 1, Vec::new);
                }
                let out = &mut self.by_depth[depth];
                let before = out.len();
                self.stacks
                    .pair_above(frame.marks, self.params.l_min, out, self.trace);
                let produced = out.len() - before;
                if produced > 0 {
                    self.outcome.rendezvous_points += 1;
                    self.trace.record_weighted(
                        "vsa_assignment_depth",
                        depth as u64,
                        produced as f64,
                    );
                }
            }
            match self.open.last_mut() {
                Some(parent) => {
                    let hop = u32::from(frame.host != parent.host);
                    if hop == 1 {
                        self.outcome.record_hops += self.stacks.len_above(frame.marks);
                    }
                    parent.hops = parent.hops.max(frame.hops + hop);
                    self.stacks
                        .merge_above(parent.marks, frame.marks, &mut self.scratch);
                }
                None => self.outcome.rounds = frame.hops,
            }
        }
    }
}
