//! An executable specification of the K-nary tree (PAPER.md §3.1): the
//! tree written as nested values over a map of ring positions, the
//! reference [`KTree`] is checked against.
//!
//! A stable tree is a pure function of (ring, K): the root covers the whole
//! ring; a node is planted at the virtual server that owns its region's
//! centre, or at the sole one inside its region; a node whose region holds
//! at most one position is a leaf; otherwise the region splits into K
//! parts, with a child for each part that holds a position. One
//! maintenance round is every node's periodic self-check, ancestors first:
//! re-plant, prune the parts that no longer need a subtree, grow the ones
//! that do — and a child grown in a round is first checked in the next. A
//! subtree cut off by a stale link sits beside the tree until a repair puts
//! it back where its region belongs, or drops it.
//!
//! Nothing here reads an arena: the real tree is compared with the spec
//! by shape — (depth, region, host) per node, children in part order.

use crate::{KTree, KtNodeId, RepairAction, RepairStats};
use proxbal_chord::{ChordNetwork, VsId};
use proxbal_id::{Arc, Id};
use std::collections::{BTreeMap, HashSet};

/// The ring: virtual server by position.
pub(crate) struct Ring(BTreeMap<u32, VsId>);

impl Ring {
    pub(crate) fn of(net: &ChordNetwork) -> Self {
        Ring(net.ring().iter().map(|(pos, vs)| (pos.raw(), vs)).collect())
    }

    /// The virtual servers positioned inside `region`, in ring order.
    /// Every region descends from the root's, which starts at 0: none wraps.
    fn inside(&self, region: &Arc) -> Vec<VsId> {
        if region.is_empty() {
            return Vec::new();
        }
        let first = u64::from(region.start().raw());
        let last = (first + region.len() - 1) as u32;
        self.0
            .range(first as u32..=last)
            .map(|(_, &vs)| vs)
            .collect()
    }

    /// Where a node over `region` is planted: the sole virtual server
    /// inside it, else the owner of its centre — the first position at or
    /// after the centre, wrapping to the ring's first.
    fn host(&self, region: &Arc) -> VsId {
        match self.inside(region)[..] {
            [only] => only,
            _ => {
                let centre = region.center().raw();
                let mut owners = self.0.range(centre..).chain(self.0.iter());
                *owners.next().expect("non-empty ring").1
            }
        }
    }

    /// Whether a node over `region` keeps a child on part `i`.
    fn needs_child(&self, region: &Arc, i: usize, k: usize) -> bool {
        self.inside(region).len() > 1 && !self.inside(&region.child(i, k)).is_empty()
    }
}

/// A KT node and the subtree under it: its children by part.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Node {
    pub(crate) region: Arc,
    pub(crate) depth: u32,
    pub(crate) host: VsId,
    pub(crate) kids: Vec<Option<Node>>,
}

impl Node {
    fn planted(ring: &Ring, k: usize, region: Arc, depth: u32) -> Node {
        Node {
            host: ring.host(&region),
            kids: vec![None; k],
            region,
            depth,
        }
    }

    /// The subtree in preorder: the node, then its children's subtrees in
    /// part order.
    fn preorder(&self) -> Vec<&Node> {
        let mut nodes = vec![self];
        for kid in self.kids.iter().flatten() {
            nodes.extend(kid.preorder());
        }
        nodes
    }

    /// (region start, depth, host) of each node in preorder: how two
    /// subtrees over one region are told apart.
    fn shape(&self) -> Vec<(Id, u32, VsId)> {
        let at = |n: &&Node| (n.region.start(), n.depth, n.host);
        self.preorder().iter().map(at).collect()
    }

    fn rebase(&mut self, depth: u32) {
        self.depth = depth;
        for kid in self.kids.iter_mut().flatten() {
            kid.rebase(depth + 1);
        }
    }
}

/// The tree the root reaches, and the subtrees stale links cut off from
/// it, by their roots' (region start, depth, shape).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Forest {
    pub(crate) k: usize,
    pub(crate) tree: Node,
    pub(crate) detached: Vec<Node>,
}

/// The stable tree over `ring`.
pub(crate) fn stable(ring: &Ring, k: usize) -> Forest {
    fn grown(ring: &Ring, k: usize, region: Arc, depth: u32) -> Node {
        let mut node = Node::planted(ring, k, region, depth);
        for i in 0..k {
            if ring.needs_child(&region, i, k) {
                node.kids[i] = Some(grown(ring, k, region.child(i, k), depth + 1));
            }
        }
        node
    }
    let tree = grown(ring, k, Arc::full(Id::ZERO), 0);
    Forest {
        k,
        tree,
        detached: Vec::new(),
    }
}

/// One maintenance round over every node of the forest; returns the number
/// of mutations (re-plants, prunes, grows).
pub(crate) fn round(ring: &Ring, forest: &mut Forest) -> usize {
    fn check(ring: &Ring, k: usize, node: &mut Node) -> usize {
        let mut mutations = 0;
        let host = ring.host(&node.region);
        if node.host != host {
            node.host = host;
            mutations += 1;
        }
        for i in 0..k {
            let part = node.region.child(i, k);
            match (ring.needs_child(&node.region, i, k), &mut node.kids[i]) {
                (false, kid @ Some(_)) => {
                    *kid = None;
                    mutations += 1;
                }
                (true, kid @ None) => {
                    *kid = Some(Node::planted(ring, k, part, node.depth + 1));
                    mutations += 1;
                }
                (true, Some(kid)) => mutations += check(ring, k, kid),
                (false, None) => {}
            }
        }
        mutations
    }
    let k = forest.k;
    let roots = std::iter::once(&mut forest.tree).chain(&mut forest.detached);
    roots.map(|root| check(ring, k, root)).sum()
}

/// Cuts the subtree over `region` at `depth` off the tree.
pub(crate) fn detach(forest: &mut Forest, region: Arc, depth: u32) {
    let mut at = &mut forest.tree;
    for _ in 1..depth {
        let (i, _) = at.region.child_towards(region.start(), forest.k);
        at = at.kids[i].as_mut().expect("on the tree");
    }
    let (i, _) = at.region.child_towards(region.start(), forest.k);
    let cut = at.kids[i].take().expect("on the tree");
    assert_eq!(cut.region, region);
    forest.detached.push(cut);
}

/// A repair: each cut-off subtree, in order of its root, goes back to the
/// part its region is of if the tree has that part empty under a node that
/// still splits, else it is dropped; then rounds until one changes nothing.
pub(crate) fn repair(ring: &Ring, forest: &mut Forest) -> (RepairStats, Vec<RepairAction>) {
    let mut stats = RepairStats::default();
    let mut actions = Vec::new();
    let mut orphans = std::mem::take(&mut forest.detached);
    orphans.sort_by_key(|o| (o.region.start(), o.depth, o.shape()));
    for mut orphan in orphans {
        let (region, k) = (orphan.region, forest.k);
        let mut at = &mut forest.tree;
        let slot = loop {
            let (i, part) = at.region.child_towards(region.center(), k);
            if part == region {
                let splits = ring.inside(&at.region).len() > 1;
                break (splits && at.kids[i].is_none()).then(|| (at.depth, &mut at.kids[i]));
            }
            match &mut at.kids[i] {
                Some(kid) => at = kid,
                None => break None,
            }
        };
        let reattached = slot.is_some();
        match slot {
            Some((depth, kid)) => {
                orphan.rebase(depth + 1);
                *kid = Some(orphan);
                stats.reattached += 1;
            }
            None => stats.pruned += orphan.preorder().len(),
        }
        actions.push(RepairAction { region, reattached });
    }
    while round(ring, forest) > 0 {
        stats.rounds += 1;
        assert!(stats.rounds < 256, "the spec failed to stabilize");
    }
    (stats, actions)
}

/// The forest `tree` holds: what the root reaches, and each live node that
/// nobody reachable lists with what hangs under it.
pub(crate) fn forest_of(tree: &KTree) -> Forest {
    fn node(tree: &KTree, id: KtNodeId) -> Node {
        let view = tree.node(id);
        let kids = view.children().map(|c| c.map(|c| node(tree, c))).collect();
        Node {
            region: view.region(),
            depth: view.depth(),
            host: view.host(),
            kids,
        }
    }
    let reached: HashSet<KtNodeId> = tree.preorder().collect();
    let live = (0..tree.slot_bound() as u32)
        .map(KtNodeId)
        .filter(|&id| tree.contains(id));
    let listed = |id: KtNodeId, p: KtNodeId| tree.node(p).children().any(|c| c == Some(id));
    let cut = |id: &KtNodeId| {
        let parent = tree.node(*id).parent();
        !reached.contains(id) && parent.is_none_or(|p| !tree.contains(p) || !listed(*id, p))
    };
    let mut detached: Vec<Node> = live.filter(cut).map(|id| node(tree, id)).collect();
    detached.sort_by_key(|o| (o.region.start(), o.depth, o.shape()));
    Forest {
        k: tree.k(),
        tree: node(tree, tree.root()),
        detached,
    }
}

/// Everything `tree` answers about its shape, against `forest` over `net`:
/// the shape itself, `len`, `height`, `levels`, `message_depth` and
/// `max_message_depth`, and `report_target(s)` for every virtual server in
/// ring order, in a scrambled order and with repeats.
#[track_caller]
pub(crate) fn assert_matches(tree: &KTree, net: &ChordNetwork, forest: &Forest) {
    let mut sorted = forest.clone();
    sorted
        .detached
        .sort_by_key(|o| (o.region.start(), o.depth, o.shape()));
    assert_eq!(forest_of(tree), sorted, "shape");
    let roots = || std::iter::once(&forest.tree).chain(&forest.detached);
    let nodes = || roots().flat_map(|root| root.preorder());
    assert_eq!(tree.len(), nodes().count(), "len");
    let deepest = nodes().map(|n| n.depth + 1).max();
    assert_eq!(tree.height(), deepest.unwrap_or(0), "height");

    let key = |n: &Node| (n.depth, n.region, n.host);
    let view = |id: KtNodeId| {
        (
            tree.node(id).depth(),
            tree.node(id).region(),
            tree.node(id).host(),
        )
    };
    let mut levels: Vec<Vec<_>> = Vec::new();
    for n in forest.tree.preorder() {
        levels.resize_with(levels.len().max(n.depth as usize + 1), Vec::new);
        levels[n.depth as usize].push(key(n));
    }
    let real = tree
        .levels()
        .into_iter()
        .map(|l| l.into_iter().map(view).collect());
    assert_eq!(real.collect::<Vec<Vec<_>>>(), levels, "levels");

    // A message crosses every edge between nodes on two virtual servers;
    // a node the root does not reach has no message depth.
    fn message_depths(node: &Node, depth: u32, out: &mut Vec<Option<u32>>) {
        out.push(Some(depth));
        for kid in node.kids.iter().flatten() {
            message_depths(kid, depth + u32::from(kid.host != node.host), out);
        }
    }
    let mut want = Vec::new();
    message_depths(&forest.tree, 0, &mut want);
    let max = want.iter().flatten().max().copied();
    let reached: HashSet<KtNodeId> = tree.preorder().collect();
    let cut = (0..=tree.slot_bound() as u32)
        .map(KtNodeId)
        .filter(|id| !reached.contains(id));
    want.extend(cut.clone().map(|_| None));
    let real = tree.preorder().chain(cut).map(|id| tree.message_depth(id));
    assert_eq!(real.collect::<Vec<_>>(), want, "message depths");
    assert_eq!(Some(tree.max_message_depth()), max, "max message depth");

    // A position reports through the deepest node whose region holds it.
    let target = |pos: Id| {
        let mut at = &forest.tree;
        while let Some(kid) = at.kids.iter().flatten().find(|k| k.region.contains(pos)) {
            at = kid;
        }
        key(at)
    };
    let ring: Vec<VsId> = net.ring().iter().map(|(_, vs)| vs).collect();
    let mut scrambled = ring.clone();
    scrambled.sort_unstable_by_key(|vs| vs.0.wrapping_mul(0x9E37_79B9));
    let repeated: Vec<VsId> = scrambled.iter().rev().flat_map(|&vs| [vs, vs]).collect();
    for vss in [ring, scrambled, repeated] {
        let want: Vec<_> = vss.iter().map(|&vs| target(net.vs(vs).position)).collect();
        let one = vss.iter().map(|&vs| view(tree.report_target(net, vs)));
        assert_eq!(one.collect::<Vec<_>>(), want, "report_target");
        let bulk = tree.report_targets(net, vss.iter().copied()).into_iter();
        assert_eq!(bulk.map(view).collect::<Vec<_>>(), want, "report_targets");
    }
}
