use proxbal_chord::{ChordNetwork, Ring, RingStamp, VsId};
use proxbal_id::{Arc, Id};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::OnceLock;

/// Handle of a KT node within a [`KTree`] arena. Slots are recycled after
/// pruning, so handles are only meaningful while the node is live.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct KtNodeId(pub u32);

/// Child-pointer storage for a [`KtNode`].
///
/// Binary trees (`k == 2`, the paper's default degree and the only one used
/// at million-peer scale) keep both slots inline in the node; higher degrees
/// fall back to one boxed slice per node. Dereferences to
/// `[Option<KtNodeId>]` either way, so call sites index and iterate it like
/// the plain vector it replaces — without the per-node heap allocation that
/// dominated arena memory at tens of millions of nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KtChildren {
    /// Both child slots of a binary node, stored inline.
    Inline([Option<KtNodeId>; 2]),
    /// `k` child slots for `k != 2`.
    Heap(Box<[Option<KtNodeId>]>),
}

impl KtChildren {
    /// `k` empty child slots, inline when `k == 2`.
    pub fn none(k: usize) -> Self {
        if k == 2 {
            KtChildren::Inline([None, None])
        } else {
            KtChildren::Heap(vec![None; k].into_boxed_slice())
        }
    }
}

impl std::ops::Deref for KtChildren {
    type Target = [Option<KtNodeId>];
    #[inline]
    fn deref(&self) -> &[Option<KtNodeId>] {
        match self {
            KtChildren::Inline(slots) => slots,
            KtChildren::Heap(slots) => slots,
        }
    }
}

impl std::ops::DerefMut for KtChildren {
    #[inline]
    fn deref_mut(&mut self) -> &mut [Option<KtNodeId>] {
        match self {
            KtChildren::Inline(slots) => slots,
            KtChildren::Heap(slots) => slots,
        }
    }
}

// Serialized as the plain sequence of child slots, indistinguishable from
// the `Vec<Option<KtNodeId>>` representation it replaced.
impl Serialize for KtChildren {
    fn to_content(&self) -> serde::Content {
        serde::Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl Deserialize for KtChildren {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let slots = Vec::<Option<KtNodeId>>::from_content(content)?;
        Ok(if let [a, b] = slots[..] {
            KtChildren::Inline([a, b])
        } else {
            KtChildren::Heap(slots.into_boxed_slice())
        })
    }
}

/// One node of the K-nary tree.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KtNode {
    /// The contiguous arc of the identifier space this KT node covers.
    pub region: Arc,
    /// The virtual server this KT node is planted in.
    pub host: VsId,
    /// Children, indexed by which of the K equal parts of `region` they
    /// cover. `None` where the part needs no subtree (it holds at most one
    /// virtual-server position that the node itself already represents, or
    /// none at all).
    pub children: KtChildren,
    /// Parent (`None` for the root).
    pub parent: Option<KtNodeId>,
    /// Distance from the root.
    pub depth: u32,
}

impl KtNode {
    /// True iff the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.iter().all(Option::is_none)
    }
}

/// Accounting returned by [`KTree::repair`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairStats {
    /// Orphaned subtrees re-attached at their region's slot.
    pub reattached: usize,
    /// Nodes discarded because their region slot was gone or taken.
    pub pruned: usize,
    /// Maintenance rounds needed to stabilize afterwards.
    pub rounds: usize,
}

/// What [`KTree::repair`] did to one orphaned subtree, identified by the
/// KT slot of its root — the per-subtree identity that lets observers
/// (traces, retention gates) follow a subtree across repairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairAction {
    /// Arena slot of the orphan subtree's root.
    pub slot: KtNodeId,
    /// `true` if the subtree was re-attached, `false` if pruned.
    pub reattached: bool,
}

/// The distributed K-nary tree, materialized as an arena.
///
/// `K` is the tree degree (the paper evaluates K = 2 and K = 8). The root
/// covers the full ring anchored at identifier 0 and can be "located
/// deterministically" (§3.1.1).
///
/// # Termination rule (refinement over the paper's wording)
///
/// The paper splits a KT node until its region is "completely covered by
/// that of a virtual server". Taken literally over a 2³²-point ring, a
/// region straddling the ownership boundary between two adjacent virtual
/// servers keeps splitting until a split boundary aligns with the ownership
/// boundary — an expected ~30 extra levels hosted alternately by the same
/// two virtual servers, which breaks the paper's own `O(log_K N)` time
/// bounds. We therefore stop one step earlier: **a KT node is a leaf once
/// its region contains at most one virtual-server position**, and a leaf
/// whose region holds exactly one position is planted in that virtual
/// server. This preserves the paper's stated guarantee — "a KT leaf node
/// will be planted in each virtual server" — with exactly one leaf per
/// virtual server, while keeping both the structural depth and the message
/// depth `O(log_K N)`. Interior nodes are planted at the owner of their
/// region's center point, exactly as in the paper.
///
/// # Change-driven maintenance
///
/// A KT node's periodic check reads only the ring positions inside its own
/// region plus the owner of its region's center, so a membership change
/// disturbs one root path, not the tree. The tree therefore remembers the
/// ring state its nodes were last checked against (`checked`) and asks the
/// ring's journal ([`Ring::changes_since`]) what moved since:
/// [`Self::maintain_round`] runs the check only on nodes a journalled change
/// can reach, plus the nodes *flagged* because the tree itself touched
/// their child slots since their last check (freshly grown children, the
/// parent a stale link was cut from, the parent a repair re-attached into).
/// Every round leaves the arena — slot for slot, free list included —
/// exactly as a sweep over every node would.
///
/// # Derived data
///
/// [`Self::levels`], [`Self::message_depths`] and
/// [`Self::max_message_depth`] depend on nothing but the arena, so they are
/// computed once per arena state and borrowed by every caller until a
/// mutation (maintenance that changes something, repair, an injected
/// fault) drops them. A balancing round moves virtual servers between
/// peers, never KT nodes between virtual servers, so one computation serves
/// all its phases — and every later round on an unchanged ring.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct KTree {
    k: usize,
    nodes: Vec<Option<KtNode>>,
    free: Vec<u32>,
    root: KtNodeId,
    /// The ring state against which the check of every unflagged live node
    /// is known to be a no-op.
    checked: RingStamp,
    /// Bitmap over arena slots: live nodes whose check must run at their
    /// next visit whatever the journal says.
    flags: Vec<u64>,
    /// Number of set bits in `flags`.
    flagged: usize,
    /// Subtrees detached by [`Self::inject_stale_parent`] since the last
    /// repair — the only way a node becomes unreachable from the root.
    detached: usize,
    /// What [`Self::levels`] and [`Self::message_depths`] answer from,
    /// computed on first use and dropped by [`Self::node_mut`] and
    /// [`Self::prune`] — every write to a live node goes through the first,
    /// a node [`Self::alloc`] adds is linked in through it within the same
    /// call, and only the second frees a slot. A pure function of the arena,
    /// so it takes no part in serialization or arena equality.
    #[serde(skip)]
    derived: OnceLock<Derived>,
}

/// Data derived from the arena alone (hosts are `VsId`s, which virtual-server
/// transfers never change), shared by every aggregation and VSA sweep until
/// the next arena write.
#[derive(Clone, Debug)]
struct Derived {
    levels: Vec<Vec<KtNodeId>>,
    message_depths: crate::KtNodeMap<u32>,
    max_message_depth: u32,
}

/// The part of the identifier space in which ring membership changes can
/// alter a KT node's check: for every changed position `x`, the arc
/// `(pred(x), x]` up to its predecessor in the *current* ring.
///
/// A check reads the positions inside the node's region — and `x` lies in
/// its own arc — plus the owner of the region's center `c`, which moves
/// only if `c` lies in such an arc: if the owner moved from `o` to `o'`,
/// the nearer of the two was inserted (or removed), and no current position
/// separates `c` from it. Either way the node's region meets an arc, which
/// is the (slightly conservative) test [`Self::touches`] applies; checking
/// an unaffected node is a no-op, so over-approximating is safe.
struct DirtyArcs {
    /// Disjoint inclusive `(lo, hi)` intervals, ascending; an arc that
    /// wraps past 0 is stored as two.
    arcs: Vec<(u32, u32)>,
}

impl DirtyArcs {
    fn new(ring: &Ring, changed: &[Id]) -> Self {
        let mut arcs = Vec::with_capacity(changed.len() + 1);
        for &x in changed {
            match ring.predecessor(x) {
                Some((pred, _)) if pred != x => {
                    let (lo, hi) = (pred.raw().wrapping_add(1), x.raw());
                    if lo <= hi {
                        arcs.push((lo, hi));
                    } else {
                        arcs.push((lo, u32::MAX));
                        arcs.push((0, hi));
                    }
                }
                // `x` is the only position left (or the ring is empty).
                _ => arcs.push((0, u32::MAX)),
            }
        }
        arcs.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(arcs.len());
        for (lo, hi) in arcs {
            match merged.last_mut() {
                Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        DirtyArcs { arcs: merged }
    }

    /// Whether `region` shares an identifier with any arc.
    fn touches(&self, region: &Arc) -> bool {
        if region.is_empty() || self.arcs.is_empty() {
            return false;
        }
        if region.is_full() {
            return true;
        }
        let start = region.start().raw();
        let Some(last) = start.checked_add((region.len() - 1) as u32) else {
            return true; // wraps past 0: never skipped
        };
        let i = self.arcs.partition_point(|&(_, hi)| hi < start);
        self.arcs.get(i).is_some_and(|&(lo, _)| lo <= last)
    }
}

/// The ring as the builders read it: every position clockwise from 0 with
/// the virtual server planted there, in two flat arrays. The root's region
/// is the whole ring anchored at 0, so a region's contents are one index
/// range and what a builder asks of the ring is arithmetic on it.
struct Snapshot {
    positions: Vec<u32>,
    vss: Vec<VsId>,
}

impl Snapshot {
    fn of(ring: &Ring) -> Self {
        let (positions, vss) = ring.iter().map(|(pos, vs)| (pos.raw(), vs)).unzip();
        Snapshot { positions, vss }
    }

    /// [`KTree::host_for`] for a non-empty `region` whose positions are the
    /// entries `inside`: the sole one, else the owner of the center — the
    /// first entry at or after it, which past the region's last entry is
    /// the next one clockwise, wrapping to the ring's first.
    fn host_for(&self, region: &Arc, inside: Range<usize>) -> VsId {
        if inside.len() == 1 {
            return self.vss[inside.start];
        }
        let center = region.center().raw();
        let at = inside.start + self.positions[inside].partition_point(|&p| p < center);
        self.vss[if at < self.vss.len() { at } else { 0 }]
    }
}

#[cfg(test)]
thread_local! {
    /// Arena slots a maintenance round or repair scan has looked at, so
    /// tests can assert that a no-change call touches none.
    pub(crate) static VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[inline]
fn count_visits(_n: usize) {
    #[cfg(test)]
    VISITS.with(|v| v.set(v.get() + _n));
}

impl KTree {
    /// Builds the complete tree for the current state of `net`.
    /// Panics if the network has no virtual servers or `k < 2`.
    ///
    /// ```
    /// use proxbal_chord::ChordNetwork;
    /// use proxbal_ktree::KTree;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let mut net = ChordNetwork::new();
    /// for _ in 0..16 {
    ///     net.join_peer(3, &mut rng);
    /// }
    /// let tree = KTree::build(&net, 2);
    /// tree.check_invariants(&net).unwrap();
    /// // Every virtual server has its own KT leaf, planted in itself.
    /// for (_, vs) in net.ring().iter() {
    ///     assert_eq!(tree.node(tree.report_target(&net, vs)).host, vs);
    /// }
    /// ```
    pub fn build(net: &ChordNetwork, k: usize) -> Self {
        Self::build_split(net, k, u32::MAX)
    }

    /// The same tree as [`Self::build`], numbered the way the million-peer
    /// runs have always numbered it: the levels down to `split_depth` first,
    /// then the subtree under each still-unexpanded node at that depth, in
    /// ascending slot order of those nodes. Arena slot order is the order in
    /// which every per-node `f64` fold associates, so the numbering is part
    /// of the result; it is a pure function of `(net, k, split_depth)`.
    /// Nothing is left flagged and no slot is free: maintenance on the
    /// result has nothing to do until the ring changes.
    pub fn build_split(net: &ChordNetwork, k: usize, split_depth: u32) -> Self {
        assert!(k >= 2, "tree degree must be at least 2");
        assert!(
            net.alive_vs_count() > 0,
            "cannot build a tree over an empty DHT"
        );
        let _prof = proxbal_profile::phase("tree");
        let sub = proxbal_profile::phase("tree/snapshot");
        let snapshot = Snapshot::of(net.ring());
        drop(sub);

        let everything = 0..snapshot.vss.len();
        let mut tree = Self::empty(net, k, Self::arena_estimate(everything.len()));
        let root_region = Arc::full(Id::ZERO);
        tree.root = tree.alloc(KtNode {
            region: root_region,
            host: snapshot.host_for(&root_region, everything.clone()),
            children: KtChildren::none(k),
            parent: None,
            depth: 0,
        });
        // Two passes over what is still to grow: the root down to the
        // split, then whatever that left unexpanded, without a cap.
        let mut pending = vec![(tree.root, everything)];
        for (phase, cap) in [("tree/prefix", split_depth), ("tree/grow", u32::MAX)] {
            let _sub = proxbal_profile::phase(phase);
            for (id, inside) in std::mem::take(&mut pending) {
                tree.grow(&snapshot, id, inside, cap, &mut pending);
            }
        }
        tree
    }

    /// Grows the whole subtree under `id`, whose region holds the snapshot
    /// entries `inside`, depth first with children in part order — except
    /// that a node at depth `cap` that would split is left as it is and
    /// pushed, with its entries, onto `unexpanded`.
    ///
    /// Every rule of the tree is index arithmetic on the sorted snapshot: a
    /// region is a leaf iff it holds at most one entry, a part needs a child
    /// iff it holds at least one, and the parts' entry ranges are found by
    /// binary search inside the parent's.
    fn grow(
        &mut self,
        snapshot: &Snapshot,
        id: KtNodeId,
        inside: Range<usize>,
        cap: u32,
        unexpanded: &mut Vec<(KtNodeId, Range<usize>)>,
    ) {
        if inside.len() <= 1 {
            return;
        }
        let node = self.node(id);
        if node.depth >= cap {
            unexpanded.push((id, inside));
            return;
        }
        let depth = node.depth + 1;
        // All regions descend from the root's, which starts at 0 and does
        // not wrap: a part's bounds are plain sums.
        let (k, len) = (self.k as u64, node.region.len());
        let (base, rem) = (len / k, len % k);
        let mut start = u64::from(node.region.start().raw());
        let mut lo = inside.start;
        for i in 0..self.k {
            let part_len = base + u64::from((i as u64) < rem);
            let end = start + part_len;
            let hi = if i + 1 == self.k {
                inside.end
            } else {
                lo + snapshot.positions[lo..inside.end].partition_point(|&p| u64::from(p) < end)
            };
            if lo < hi {
                let part = Arc::new(Id::new(start as u32), part_len);
                let child = self.alloc(KtNode {
                    region: part,
                    host: snapshot.host_for(&part, lo..hi),
                    children: KtChildren::none(self.k),
                    parent: Some(id),
                    depth,
                });
                self.node_mut(id).children[i] = Some(child);
                self.grow(snapshot, child, lo..hi, cap, unexpanded);
            }
            (start, lo) = (end, hi);
        }
    }

    /// [`Self::build`] by the rules as [`Self::check_node`] states them —
    /// one ring query per question — kept as the reference of the
    /// differential tests.
    #[cfg(test)]
    pub(crate) fn reference_build(net: &ChordNetwork, k: usize) -> Self {
        let mut tree = Self::with_root(net, k);
        tree.grow_capped(net, tree.root, None);
        tree
    }

    /// [`Self::build_split`] by the same rules: the prefix grown to
    /// `split_depth`, then each unexpanded node at that depth grown in
    /// place, in ascending slot order.
    #[cfg(test)]
    pub(crate) fn reference_build_split(net: &ChordNetwork, k: usize, split_depth: u32) -> Self {
        let mut tree = Self::with_root(net, k);
        tree.grow_capped(net, tree.root, Some(split_depth));
        let frontier: Vec<KtNodeId> = tree
            .iter_ids()
            .filter(|&id| {
                let node = tree.node(id);
                node.depth == split_depth && !Self::is_leaf_region(net, &node.region)
            })
            .collect();
        for id in frontier {
            tree.grow_capped(net, id, None);
        }
        tree
    }

    /// An arena holding just the root node.
    #[cfg(test)]
    fn with_root(net: &ChordNetwork, k: usize) -> Self {
        let mut tree = Self::empty(net, k, 0);
        let root_region = Arc::full(Id::ZERO);
        tree.root = tree.alloc(KtNode {
            region: root_region,
            host: Self::host_for(net, &root_region),
            children: KtChildren::none(k),
            parent: None,
            depth: 0,
        });
        tree
    }

    /// An arena with no nodes yet, stamped with the current state of `net`'s
    /// ring — what the builders grow their nodes against.
    fn empty(net: &ChordNetwork, k: usize, reserve: usize) -> Self {
        KTree {
            k,
            nodes: Vec::with_capacity(reserve),
            free: Vec::new(),
            root: KtNodeId(0),
            checked: net.ring().stamp(),
            flags: Vec::new(),
            flagged: 0,
            detached: 0,
            derived: OnceLock::new(),
        }
    }

    /// Expected arena slots for a tree over `positions` ring positions
    /// (leaves ≈ positions, inner nodes ≈ positions/ln 2 for the binary
    /// case, plus headroom) — reserving up front avoids the transient
    /// doubling reallocation that would briefly hold two multi-hundred-MB
    /// arenas at million-peer scale.
    fn arena_estimate(positions: usize) -> usize {
        positions * 11 / 4 + 16
    }

    /// The virtual server a KT node with `region` is planted in: the sole
    /// virtual server positioned inside the region if there is exactly one,
    /// otherwise the owner of the region's center point.
    fn host_for(net: &ChordNetwork, region: &Arc) -> VsId {
        // Peek at most two entries instead of materializing the region's
        // whole contents — the root's region holds every virtual server.
        let mut inside = net.ring().iter_in(region);
        match (inside.next(), inside.next()) {
            (Some((_, vs)), None) => vs,
            _ => net.ring().owner(region.center()).expect("non-empty ring"),
        }
    }

    /// Whether a node over `region` should be a leaf.
    fn is_leaf_region(net: &ChordNetwork, region: &Arc) -> bool {
        net.ring().count_in_at_most(region, 2) <= 1
    }

    /// Tree degree `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The root handle.
    pub fn root(&self) -> KtNodeId {
        self.root
    }

    /// Number of live KT nodes.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Exclusive upper bound on raw slot indices of live handles — the
    /// arena length, used to size flat per-node vectors
    /// ([`crate::KtNodeMap`], protocol scratch bitsets).
    pub fn slot_bound(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the tree is empty (never the case after `build`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff `id` names a live node (slots are recycled after pruning).
    pub fn contains(&self, id: KtNodeId) -> bool {
        self.nodes
            .get(id.0 as usize)
            .is_some_and(|slot| slot.is_some())
    }

    /// Access a node. Panics on a stale handle.
    pub fn node(&self, id: KtNodeId) -> &KtNode {
        self.nodes[id.0 as usize]
            .as_ref()
            .expect("stale KT node handle")
    }

    /// Write access to a node; drops the derived data.
    fn node_mut(&mut self, id: KtNodeId) -> &mut KtNode {
        self.derived.take();
        self.nodes[id.0 as usize]
            .as_mut()
            .expect("stale KT node handle")
    }

    /// Height of the tree: number of levels (a lone root has height 1).
    pub fn height(&self) -> u32 {
        self.iter_ids()
            .map(|id| self.node(id).depth + 1)
            .max()
            .unwrap_or(0)
    }

    /// Iterates live node handles in arbitrary order.
    pub fn iter_ids(&self) -> impl Iterator<Item = KtNodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| KtNodeId(i as u32)))
    }

    /// Live node handles grouped by depth, deepest level last; within a
    /// level in ascending slot order.
    pub fn levels(&self) -> &[Vec<KtNodeId>] {
        &self.derived().levels
    }

    /// All leaves.
    pub fn leaves(&self) -> Vec<KtNodeId> {
        self.iter_ids()
            .filter(|&id| self.node(id).is_leaf())
            .collect()
    }

    /// The *report target* of a virtual server: the deepest KT node on the
    /// descent path of the VS's ring position. On a stable tree this is the
    /// unique leaf whose region contains (only) the VS's position, and it
    /// is planted in the VS itself — so "each virtual server reports its LBI
    /// through a KT node planted in it" (§3.2) always holds.
    pub fn report_target(&self, net: &ChordNetwork, vs: VsId) -> KtNodeId {
        let pos = net.vs(vs).position;
        let mut cur = self.root;
        while let Some(child) = self.child_towards(cur, pos) {
            cur = child;
        }
        cur
    }

    /// One step of the descent towards `pos`: the child of `id` planted on
    /// the part of its region that holds `pos`, if that part has a subtree.
    fn child_towards(&self, id: KtNodeId, pos: Id) -> Option<KtNodeId> {
        let node = self.node(id);
        let part = (0..self.k).find(|&i| node.region.child(i, self.k).contains(pos))?;
        node.children[part]
    }

    /// [`Self::report_target`] of every virtual server of `vss`, in order.
    ///
    /// Each descent starts from the deepest node of the previous one whose
    /// region still holds the position instead of from the root: a listed
    /// child covers exactly its part of the parent's region and parts are
    /// disjoint, so a node on the previous path whose region contains the
    /// position is on this position's path too. Ring neighbours
    /// ([`Ring::iter`] order) then cost a few nodes each instead of the
    /// tree's height; any other order is correct, only slower.
    pub fn report_targets(
        &self,
        net: &ChordNetwork,
        vss: impl IntoIterator<Item = VsId>,
    ) -> Vec<KtNodeId> {
        let mut path = vec![self.root];
        vss.into_iter()
            .map(|vs| {
                let pos = net.vs(vs).position;
                while path.len() > 1 && !self.node(path[path.len() - 1]).region.contains(pos) {
                    path.pop();
                }
                while let Some(child) = self.child_towards(path[path.len() - 1], pos) {
                    path.push(child);
                }
                path[path.len() - 1]
            })
            .collect()
    }

    /// One round of every KT node's periodic self-check against the current
    /// network state: re-plant on a changed owner, prune children whose part
    /// no longer needs a subtree, grow missing children **one level per
    /// round** — new children are checked next round, which is what makes
    /// post-churn repair take `O(log_K N)` rounds, as the paper claims.
    ///
    /// Only nodes whose check can have a different outcome than last time
    /// actually run it: those the ring's journalled changes can reach (their
    /// region meets an arc `(pred(x), x]` of a changed position `x`) and
    /// those flagged by a tree-side mutation. With no
    /// ring change and nothing flagged the call returns without touching
    /// the arena. When the journal cannot say what changed (the tree is
    /// further behind than it retains, or `net` is not a continuation of
    /// the history the tree was last checked on) every node is checked.
    ///
    /// Nodes are visited as a full sweep would visit them — the slots live
    /// at round start, in slot order — so a slot freed by a prune and
    /// reused by a grow within the round is checked in that round exactly
    /// when it was live at round start and still lies ahead.
    ///
    /// Returns the number of mutations (replants + prunes + grows); `0`
    /// means the tree is stable for the current network.
    pub fn maintain_round(&mut self, net: &ChordNetwork) -> usize {
        let ring = net.ring();
        let dirty = match ring.changes_since(self.checked) {
            Some(changed) if changed.is_empty() && self.flagged == 0 => return 0,
            Some(changed) => Some(DirtyArcs::new(ring, &changed)),
            None => None,
        };
        let mut born_free = self.free.clone();
        born_free.sort_unstable();
        let mut mutations = 0;
        let live_bound = self.nodes.len();
        count_visits(live_bound);
        for slot in 0..live_bound {
            let Some(node) = &self.nodes[slot] else {
                continue;
            };
            let id = KtNodeId(slot as u32);
            let suspect =
                self.is_flagged(id) || dirty.as_ref().is_none_or(|d| d.touches(&node.region));
            if !suspect || born_free.binary_search(&id.0).is_ok() {
                continue;
            }
            self.unflag(id);
            mutations += self.check_node(net, id);
        }
        self.checked = ring.stamp();
        mutations
    }

    /// The full sweep [`Self::maintain_round`] must be indistinguishable
    /// from: every node live at round start runs its check, in slot order.
    /// Kept as the reference of the differential tests.
    #[cfg(test)]
    pub(crate) fn reference_round(&mut self, net: &ChordNetwork) -> usize {
        let mut mutations = 0;
        let snapshot: Vec<KtNodeId> = self.iter_ids().collect();
        for id in snapshot {
            // The node may have been pruned earlier in this very round.
            if self.nodes[id.0 as usize].is_some() {
                mutations += self.check_node(net, id);
            }
        }
        mutations
    }

    /// One KT node's periodic check; returns the number of mutations.
    fn check_node(&mut self, net: &ChordNetwork, id: KtNodeId) -> usize {
        let mut mutations = 0;
        let region = self.node(id).region;
        let host = Self::host_for(net, &region);
        if self.node(id).host != host {
            self.node_mut(id).host = host;
            mutations += 1;
        }
        if Self::is_leaf_region(net, &region) {
            // Leaf: prune any children.
            for i in 0..self.k {
                if let Some(child) = self.node(id).children[i] {
                    self.prune(child);
                    self.node_mut(id).children[i] = None;
                    mutations += 1;
                }
            }
            return mutations;
        }
        for i in 0..self.k {
            let part = region.child(i, self.k);
            let needed = !part.is_empty() && net.ring().count_in_at_most(&part, 1) >= 1;
            let existing = self.node(id).children[i];
            match (needed, existing) {
                (false, Some(child)) => {
                    self.prune(child);
                    self.node_mut(id).children[i] = None;
                    mutations += 1;
                }
                (true, None) => {
                    let depth = self.node(id).depth + 1;
                    let child = self.alloc(KtNode {
                        region: part,
                        host: Self::host_for(net, &part),
                        children: KtChildren::none(self.k),
                        parent: Some(id),
                        depth,
                    });
                    self.node_mut(id).children[i] = Some(child);
                    // One level per round: the child's own check is due.
                    self.flag(child);
                    mutations += 1;
                }
                _ => {}
            }
        }
        mutations
    }

    /// Runs [`Self::maintain_round`] until stable, returning the number of
    /// rounds needed (0 if already stable). Panics after `limit` rounds.
    pub fn maintain_until_stable(&mut self, net: &ChordNetwork, limit: usize) -> usize {
        let _prof = proxbal_profile::phase("kt/maintain");
        for round in 0..limit {
            if self.maintain_round(net) == 0 {
                return round;
            }
        }
        panic!("K-nary tree failed to stabilize within {limit} rounds");
    }

    /// Like [`Self::maintain_until_stable`], but records a `kt/maintain`
    /// span (one virtual-time unit per round) starting at `ts`.
    pub fn maintain_until_stable_traced(
        &mut self,
        net: &ChordNetwork,
        limit: usize,
        ts: proxbal_trace::VirtualTime,
        trace: &mut proxbal_trace::Trace,
    ) -> usize {
        let rounds = self.maintain_until_stable(net, limit);
        trace.span_args(
            "kt/maintain",
            ts,
            rounds as u64,
            &[("rounds", (rounds as u64).into())],
        );
        rounds
    }

    /// Checks structural invariants of a **stable** tree. Used by tests.
    pub fn check_invariants(&self, net: &ChordNetwork) -> Result<(), String> {
        for id in self.iter_ids() {
            let node = self.node(id);
            let host = Self::host_for(net, &node.region);
            if node.host != host {
                return Err(format!(
                    "{id:?} hosted by {:?}, should be {host:?}",
                    node.host
                ));
            }
            if Self::is_leaf_region(net, &node.region) {
                if !node.is_leaf() {
                    return Err(format!("{id:?} should be a leaf"));
                }
                continue;
            }
            for i in 0..self.k {
                let part = node.region.child(i, self.k);
                let needed = !part.is_empty() && net.ring().count_in_at_most(&part, 1) >= 1;
                match node.children[i] {
                    Some(child) => {
                        if !needed {
                            return Err(format!("{id:?} child {i} should be pruned"));
                        }
                        let c = self.node(child);
                        if c.region != part || c.parent != Some(id) || c.depth != node.depth + 1 {
                            return Err(format!("{id:?} child {i} metadata wrong"));
                        }
                    }
                    None => {
                        if needed {
                            return Err(format!("{id:?} child {i} missing"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Simulates a *stale parent pointer*: detaches `child` from its real
    /// parent (which forgets it, as a pruned-and-rebuilt parent would) and
    /// leaves `child.parent` dangling at `stale` — a node that does not list
    /// it as a child. The whole subtree under `child` becomes unreachable
    /// from the root until [`Self::repair`] runs. Panics on the root.
    pub fn inject_stale_parent(&mut self, child: KtNodeId, stale: KtNodeId) {
        assert!(child != self.root, "cannot orphan the root");
        let real = self.node(child).parent.expect("non-root has a parent");
        for slot in self.node_mut(real).children.iter_mut() {
            if *slot == Some(child) {
                *slot = None;
            }
        }
        self.node_mut(child).parent = Some(stale);
        // The real parent's next check regrows the emptied slot.
        self.flag(real);
        self.detached += 1;
    }

    /// Repairs the tree after faults: orphaned subtrees (stale parent
    /// pointers, crashed hosts) are re-attached by the DHT analogue of
    /// "look up the parent's key region" — a root descent to the node whose
    /// region subdivision exactly matches the orphan's region. An orphan
    /// whose slot is gone (the region no longer needs a subtree, or a fresh
    /// duplicate already grew there) is pruned instead; the periodic
    /// maintenance rounds that follow regrow whatever coverage is missing
    /// and re-plant hosts for the current membership. Returns the repair
    /// accounting; panics (via [`Self::maintain_until_stable`]) if the tree
    /// does not stabilize within `limit` rounds.
    pub fn repair(&mut self, net: &ChordNetwork, limit: usize) -> RepairStats {
        self.repair_with_actions(net, limit).0
    }

    /// [`Self::repair`] plus the per-orphan action log: one
    /// [`RepairAction`] per orphan root, in deterministic slot order.
    pub fn repair_with_actions(
        &mut self,
        net: &ChordNetwork,
        limit: usize,
    ) -> (RepairStats, Vec<RepairAction>) {
        let _prof = proxbal_profile::phase("kt/repair");
        // With no subtree detached since the last repair the reachability
        // scan has nothing to find.
        let (mut stats, actions) = if self.detached == 0 {
            (RepairStats::default(), Vec::new())
        } else {
            self.reattach_orphans(net)
        };
        // Ordinary periodic maintenance converges the rest (replanting,
        // missing coverage, leftover duplicates).
        stats.rounds = self.maintain_until_stable(net, limit);
        (stats, actions)
    }

    /// [`Self::repair_with_actions`] over [`Self::reference_round`], with
    /// the orphan scan unconditional.
    #[cfg(test)]
    pub(crate) fn reference_repair(
        &mut self,
        net: &ChordNetwork,
        limit: usize,
    ) -> (RepairStats, Vec<RepairAction>) {
        let (mut stats, actions) = self.reattach_orphans(net);
        while self.reference_round(net) > 0 {
            stats.rounds += 1;
            assert!(stats.rounds < limit, "reference failed to stabilize");
        }
        (stats, actions)
    }

    /// The fault-specific part of a repair: finds every orphaned subtree
    /// and re-attaches it where its region belongs, or prunes it.
    fn reattach_orphans(&mut self, net: &ChordNetwork) -> (RepairStats, Vec<RepairAction>) {
        count_visits(self.slot_bound());
        // Phase 1: mark everything reachable from the root.
        let mut reachable = vec![false; self.slot_bound()];
        let mut queue = std::collections::VecDeque::new();
        reachable[self.root.0 as usize] = true;
        queue.push_back(self.root);
        while let Some(id) = queue.pop_front() {
            for &child in self.node(id).children.iter().flatten() {
                if !std::mem::replace(&mut reachable[child.0 as usize], true) {
                    queue.push_back(child);
                }
            }
        }

        // Phase 2: orphan roots — unreachable nodes nobody claims as a
        // child (their descendants are claimed, by them). Slot order keeps
        // the repair deterministic.
        let orphan_roots: Vec<KtNodeId> = self
            .iter_ids()
            .filter(|&id| {
                if reachable[id.0 as usize] {
                    return false;
                }
                match self.node(id).parent {
                    None => true,
                    Some(p) => match &self.nodes[p.0 as usize] {
                        None => true, // parent slot itself is gone
                        Some(pn) => !pn.children.contains(&Some(id)),
                    },
                }
            })
            .collect();

        // Phase 3: re-attach each orphan where its region belongs, or prune.
        let mut stats = RepairStats::default();
        let mut actions = Vec::with_capacity(orphan_roots.len());
        for orphan in orphan_roots {
            let region = self.node(orphan).region;
            let slot = self.lookup_parent_slot(&region).filter(|&(p, i)| {
                reachable[p.0 as usize]
                    && self.node(p).children[i].is_none()
                    && !Self::is_leaf_region(net, &self.node(p).region)
            });
            match slot {
                Some((p, i)) => {
                    self.node_mut(p).children[i] = Some(orphan);
                    self.node_mut(orphan).parent = Some(p);
                    // The part may have emptied while the subtree was
                    // orphaned; the new parent's next check decides.
                    self.flag(p);
                    // Fix depths and extend reachability over the subtree.
                    let base = self.node(p).depth + 1;
                    let mut fix = std::collections::VecDeque::new();
                    fix.push_back((orphan, base));
                    while let Some((id, depth)) = fix.pop_front() {
                        self.node_mut(id).depth = depth;
                        reachable[id.0 as usize] = true;
                        for &child in self.node(id).children.iter().flatten() {
                            fix.push_back((child, depth + 1));
                        }
                    }
                    stats.reattached += 1;
                    actions.push(RepairAction {
                        slot: orphan,
                        reattached: true,
                    });
                }
                None => {
                    stats.pruned += self.subtree_len(orphan);
                    self.prune(orphan);
                    actions.push(RepairAction {
                        slot: orphan,
                        reattached: false,
                    });
                }
            }
        }

        self.detached = 0;
        (stats, actions)
    }

    /// [`Self::repair_with_actions`] recording a `kt/repair` span (one
    /// virtual-time unit per stabilization round) starting at `ts`, plus
    /// `kt_reattached` / `kt_pruned` counters. Each orphan root
    /// additionally records a `kt/repair/orphan` instant carrying its KT
    /// slot and outcome, so a trace consumer can follow an individual
    /// subtree across the run (e.g. a retention gate checking that a
    /// repaired subtree stays attached).
    pub fn repair_traced_with_actions(
        &mut self,
        net: &ChordNetwork,
        limit: usize,
        ts: proxbal_trace::VirtualTime,
        trace: &mut proxbal_trace::Trace,
    ) -> (RepairStats, Vec<RepairAction>) {
        let (stats, actions) = self.repair_with_actions(net, limit);
        trace.span_args(
            "kt/repair",
            ts,
            stats.rounds as u64,
            &[
                ("reattached", stats.reattached.into()),
                ("pruned", stats.pruned.into()),
            ],
        );
        for a in &actions {
            trace.instant_args(
                "kt/repair/orphan",
                ts,
                &[
                    ("slot", u64::from(a.slot.0).into()),
                    ("reattached", a.reattached.into()),
                ],
            );
        }
        trace.count("kt_reattached", stats.reattached as u64);
        trace.count("kt_pruned", stats.pruned as u64);
        (stats, actions)
    }

    /// Root descent to the (node, child-slot) whose region subdivision is
    /// exactly `region` — the DHT-lookup analogue used by [`Self::repair`]
    /// (any peer can locate the root deterministically and walk down by key
    /// region). `None` if the current tree shape has no such slot.
    fn lookup_parent_slot(&self, region: &Arc) -> Option<(KtNodeId, usize)> {
        let pos = region.center();
        let mut cur = self.root;
        loop {
            let node = self.node(cur);
            let mut next = None;
            for i in 0..self.k {
                let part = node.region.child(i, self.k);
                if part == *region {
                    return Some((cur, i));
                }
                if part.contains(pos) {
                    next = node.children[i];
                    break;
                }
            }
            cur = next?;
        }
    }

    /// Number of nodes in the subtree rooted at `id`.
    fn subtree_len(&self, id: KtNodeId) -> usize {
        1 + self
            .node(id)
            .children
            .iter()
            .flatten()
            .map(|&c| self.subtree_len(c))
            .sum::<usize>()
    }

    /// Number of **inter-virtual-server messages** needed to reach each KT
    /// node from the root along tree edges: an edge between KT nodes planted
    /// in the *same* virtual server is free (intra-process). This is the
    /// metric behind the paper's `O(log_K N)` bounds. Nodes the root cannot
    /// reach (a subtree detached by a fault, until repair) have no entry.
    pub fn message_depths(&self) -> &crate::KtNodeMap<u32> {
        &self.derived().message_depths
    }

    /// The largest message depth in the tree (`O(log_K N)` in expectation).
    pub fn max_message_depth(&self) -> u32 {
        self.derived().max_message_depth
    }

    fn derived(&self) -> &Derived {
        self.derived.get_or_init(|| self.derive())
    }

    /// Live node handles by depth, slot-ascending within a depth.
    fn group_by_depth(&self) -> Vec<Vec<KtNodeId>> {
        let mut levels: Vec<Vec<KtNodeId>> = Vec::new();
        for id in self.iter_ids() {
            let d = self.node(id).depth as usize;
            if levels.len() <= d {
                levels.resize_with(d + 1, Vec::new);
            }
            levels[d].push(id);
        }
        levels
    }

    /// One pass over the arena groups the nodes by depth; one depth-first
    /// walk from the root, children in part order, hands every node its
    /// parent's message depth plus the hop to it. Builders allocate in that
    /// same order, so on a tree that churn has not reshuffled the walk reads
    /// the arena front to back.
    fn derive(&self) -> Derived {
        let levels = self.group_by_depth();
        let mut message_depths = crate::KtNodeMap::with_slot_bound(self.slot_bound());
        let mut max_message_depth = 0;
        // (node, its parent's host, its parent's message depth)
        let mut stack = vec![(self.root, self.node(self.root).host, 0u32)];
        while let Some((id, above_host, above)) = stack.pop() {
            let node = self.node(id);
            let md = above + u32::from(node.host != above_host);
            message_depths.insert(id, md);
            max_message_depth = max_message_depth.max(md);
            stack.extend(
                node.children
                    .iter()
                    .rev()
                    .flatten()
                    .map(|&child| (child, node.host, md)),
            );
        }
        Derived {
            levels,
            message_depths,
            max_message_depth,
        }
    }

    /// What [`Self::derive`] must equal, recomputed from the arena: the
    /// breadth-first walk and the scan for its maximum that the depth-first
    /// walk replaced, kept for the differential tests.
    #[cfg(test)]
    pub(crate) fn reference_derived(&self) -> (Vec<Vec<KtNodeId>>, crate::KtNodeMap<u32>, u32) {
        let levels = self.group_by_depth();
        let mut depths = crate::KtNodeMap::with_slot_bound(self.slot_bound());
        let mut queue = std::collections::VecDeque::new();
        depths.insert(self.root, 0u32);
        queue.push_back(self.root);
        while let Some(id) = queue.pop_front() {
            let md = depths[id];
            let node = self.node(id);
            for &child in node.children.iter().flatten() {
                let hop = u32::from(self.node(child).host != node.host);
                depths.insert(child, md + hop);
                queue.push_back(child);
            }
        }
        let max = depths.values().copied().max().unwrap_or(0);
        (levels, depths, max)
    }

    /// Full recursive growth by ring queries, the reference [`Self::grow`]
    /// is tested against. With `cap = Some(d)`, nodes at depth `d` are left
    /// unexpanded.
    #[cfg(test)]
    fn grow_capped(&mut self, net: &ChordNetwork, id: KtNodeId, cap: Option<u32>) {
        let region = self.node(id).region;
        if Self::is_leaf_region(net, &region) {
            return;
        }
        let depth = self.node(id).depth + 1;
        if cap.is_some_and(|limit| depth > limit) {
            return;
        }
        for i in 0..self.k {
            let part = region.child(i, self.k);
            if part.is_empty() || net.ring().count_in_at_most(&part, 1) == 0 {
                continue;
            }
            let child = self.alloc(KtNode {
                region: part,
                host: Self::host_for(net, &part),
                children: KtChildren::none(self.k),
                parent: Some(id),
                depth,
            });
            self.node_mut(id).children[i] = Some(child);
            self.grow_capped(net, child, cap);
        }
    }

    fn alloc(&mut self, node: KtNode) -> KtNodeId {
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = Some(node);
            KtNodeId(slot)
        } else {
            self.nodes.push(Some(node));
            KtNodeId((self.nodes.len() - 1) as u32)
        }
    }

    /// Removes `id` and its whole subtree.
    fn prune(&mut self, id: KtNodeId) {
        let children: Vec<KtNodeId> = self.node(id).children.iter().flatten().copied().collect();
        for c in children {
            self.prune(c);
        }
        self.derived.take();
        self.nodes[id.0 as usize] = None;
        self.free.push(id.0);
        self.unflag(id);
    }

    /// The arena as the differential tests compare it: every slot, and the
    /// free list in order.
    #[cfg(test)]
    pub(crate) fn arena(&self) -> (&[Option<KtNode>], &[u32]) {
        (&self.nodes, &self.free)
    }

    /// The ring state the tree was last checked against.
    #[cfg(test)]
    pub(crate) fn checked(&self) -> RingStamp {
        self.checked
    }

    /// Number of nodes whose check is due whatever the journal says.
    #[cfg(test)]
    pub(crate) fn flagged(&self) -> usize {
        self.flagged
    }

    fn is_flagged(&self, id: KtNodeId) -> bool {
        self.flags
            .get(id.0 as usize / 64)
            .is_some_and(|word| word & (1 << (id.0 % 64)) != 0)
    }

    /// Marks `id` as due for its check at the next visit.
    fn flag(&mut self, id: KtNodeId) {
        let word = id.0 as usize / 64;
        if self.flags.len() <= word {
            self.flags.resize(word + 1, 0);
        }
        let bit = 1 << (id.0 % 64);
        if self.flags[word] & bit == 0 {
            self.flags[word] |= bit;
            self.flagged += 1;
        }
    }

    fn unflag(&mut self, id: KtNodeId) {
        if self.is_flagged(id) {
            self.flags[id.0 as usize / 64] &= !(1 << (id.0 % 64));
            self.flagged -= 1;
        }
    }
}
