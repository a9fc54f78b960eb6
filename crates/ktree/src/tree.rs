use proxbal_chord::{ChordNetwork, Ring, RingStamp, VsId};
use proxbal_id::{Arc, Id};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Handle of a KT node within a [`KTree`]. Slots are recycled after
/// pruning, so handles are only meaningful while the node is live.
///
/// A node that holds an arena slot is named by the slot: a dense index for
/// side tables ([`KTree::slot_bound`]). A leaf planted inline in its parent
/// is named by the child-table entry that holds it, `parent slot · K +
/// part`, tagged with the top bit ([`Self::leaf_entry`]); the handle of a
/// leaf that grows or is cut loose changes with it. Handles order by their
/// number, for grouping and look-up; no result may depend on that order —
/// every order a result sees is the tree's preorder ([`KTree::preorder`]),
/// which no allocation policy changes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct KtNodeId(pub u32);

impl KtNodeId {
    /// The child-table entry — `parent slot · K + part` — that holds this
    /// leaf, or `None` for a node that holds an arena slot.
    #[inline]
    pub fn leaf_entry(self) -> Option<usize> {
        (self.0 & LEAF != 0).then_some((self.0 & !LEAF) as usize)
    }
}

/// "No node" in the parent column and the child table. Arena handles stop
/// short of it ([`KTree::alloc`]).
const NONE: u32 = u32::MAX;
/// The tag of a leaf held inline: in the child table, `LEAF | vs` is a
/// leaf planted in virtual server `vs` over that part; in a handle, `LEAF |
/// entry` names the leaf the child-table entry `entry` holds.
const LEAF: u32 = 1 << 31;
/// What the depth column holds for a free slot. A child's region is a
/// proper part of its parent's, so live depths stay far below it (at most
/// 32 at `k = 2`); growing and re-attaching assert it.
const FREE: u8 = u8::MAX;

fn handle(raw: u32) -> Option<KtNodeId> {
    (raw != NONE).then_some(KtNodeId(raw))
}

fn raw(id: Option<KtNodeId>) -> u32 {
    id.map_or(NONE, |id| id.0)
}

/// Whether a child-table value is a leaf held inline.
fn is_inline(child: u32) -> bool {
    child != NONE && child & LEAF != 0
}

/// The child-table value of a leaf planted in `host`.
fn inline_leaf(host: VsId) -> u32 {
    assert!(host.0 < LEAF - 1, "virtual server id outgrew the leaf tag");
    LEAF | host.0
}

/// The handle of the child the child-table value `child` at `entry` names.
#[inline]
fn child_at(entry: usize, child: u32) -> Option<KtNodeId> {
    match child {
        NONE => None,
        _ if child & LEAF != 0 => Some(KtNodeId(LEAF | entry as u32)),
        slot => Some(KtNodeId(slot)),
    }
}

fn depth_byte(depth: u32) -> u8 {
    let fits = u8::try_from(depth).ok().filter(|&d| d != FREE);
    fits.expect("KT node depth outgrew the u8 depth column")
}

/// The fixed part of an arena slot, 16 bytes. The region is held as start
/// and length − 1: a part is given a child only if it holds a position, so
/// a KT node's region is never empty and the lengths `1..=2³²` — the root's
/// full ring included — fit the `u32` that an [`Arc`]'s length does not.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Record {
    start: u32,
    len_m1: u32,
    /// The [`VsId`] the node is planted in.
    host: u32,
    /// Parent handle, [`NONE`] for the root.
    parent: u32,
}

impl Record {
    fn new(region: &Arc, host: VsId, parent: Option<KtNodeId>) -> Self {
        assert!(!region.is_empty(), "a KT node's region is never empty");
        Record {
            start: region.start().raw(),
            len_m1: (region.len() - 1) as u32,
            host: host.0,
            parent: raw(parent),
        }
    }

    fn region(&self) -> Arc {
        Arc::new(Id::new(self.start), u64::from(self.len_m1) + 1)
    }
}

/// One node of the K-nary tree as [`KTree::node`] hands it out: its fixed
/// fields, and a borrow of its row of the child table (empty for a leaf
/// held inline).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KtNode<'a> {
    /// The node's record; a leaf held inline reads its parent's, with its
    /// own host and parent.
    rec: Record,
    /// The part of `rec`'s region a leaf held inline covers; [`NONE`] for
    /// a node in a slot.
    part: u32,
    depth: u8,
    kids: &'a [u32],
    /// The slot whose row `kids` is.
    slot: u32,
    k: u32,
}

impl<'a> KtNode<'a> {
    /// The contiguous arc of the identifier space this KT node covers.
    pub fn region(&self) -> Arc {
        let region = self.rec.region();
        match self.part {
            NONE => region,
            i => region.child(i as usize, self.k as usize),
        }
    }

    /// The virtual server this KT node is planted in.
    #[inline]
    pub fn host(&self) -> VsId {
        VsId(self.rec.host)
    }

    /// Parent (`None` for the root).
    pub fn parent(&self) -> Option<KtNodeId> {
        handle(self.rec.parent)
    }

    /// Distance from the root.
    pub fn depth(&self) -> u32 {
        u32::from(self.depth)
    }

    /// The `K` children, in the order of the K equal parts of `region`
    /// they cover. `None` where the part needs no subtree (it holds at most
    /// one virtual-server position that the node itself already represents,
    /// or none at all).
    pub fn children(
        &self,
    ) -> impl DoubleEndedIterator<Item = Option<KtNodeId>> + ExactSizeIterator + 'a {
        let (kids, k) = (self.kids, self.k as usize);
        let first = self.slot as usize * k;
        (0..k).map(move |i| child_at(first + i, *kids.get(i)?))
    }

    /// The view of the leaf this node holds inline on part `i`.
    #[inline]
    pub(crate) fn leaf(&self, i: usize) -> KtNode<'a> {
        let rec = Record {
            host: self.kids[i] & !LEAF,
            parent: self.slot,
            ..self.rec
        };
        KtNode {
            rec,
            part: i as u32,
            depth: self.depth + 1,
            kids: &[],
            slot: 0,
            k: self.k,
        }
    }

    /// True iff the node has no children.
    pub fn is_leaf(&self) -> bool {
        self.kids.iter().all(|&child| child == NONE)
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

/// What [`KTree::repair`] did to one orphaned subtree, named by the region
/// of its root — the identity that lets observers (traces, retention
/// gates) follow a subtree across repairs, whatever arena slot holds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairAction {
    /// The region of the orphan subtree's root.
    pub region: Arc,
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
/// Every round leaves the tree in the shape a sweep over every node would.
///
/// # Preorder
///
/// Every order a result sees is the tree's **preorder** — ascending region
/// start, a parent before the child that shares its start — which is also
/// children in part order: the fold of [`Self::aggregate`], the nodes of
/// each of [`Self::levels`], the repair log, and what `proxbal-sim` walks.
/// Arena slots are an allocation detail: a slot freed in a maintenance
/// round is reused from the next round on, in no promised order, and no
/// result depends on which slot a node holds.
///
/// # Derived data
///
/// Nothing derived from the arena is stored. A balancing round learns what
/// it needs of the tree's shape — message depths, the largest of them, the
/// edges between peers — from the one walk that folds its LBIs
/// ([`Self::aggregate`]), and the VSA sweep visits only the root paths of
/// its entry nodes. [`Self::levels`], [`Self::message_depth`] and
/// [`Self::max_message_depth`] answer the same questions on demand, for
/// tests and benchmarks.
///
/// # Storage
///
/// One layout for every `K`, no allocation per node: a 16-byte record, `K`
/// child entries and a byte of depth per arena slot, in three flat columns
/// — `17 + 4K` bytes a slot (DESIGN.md §6b). A leaf takes no slot: its
/// parent's child entry holds it as `LEAF | vs`, and region, depth and
/// parent follow from where that entry sits. A leaf moves into a slot only
/// where it cannot stay inline: when maintenance grows it (its region came
/// to hold two positions), when a stale link cuts it loose, or when a
/// repair re-attaches an orphan under it.
#[derive(Clone, Debug)]
pub struct KTree {
    k: usize,
    nodes: Arena,
    /// Leaves held inline in the child table of live slots.
    leaves: usize,
    /// Slots [`Self::alloc`] may reuse.
    free: Vec<u32>,
    /// Slots pruned since the last round began: reusable from the next
    /// round on, so no handle a round listed comes to name a node it grew.
    retired: Vec<u32>,
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
}

/// The arena's columns, one entry (`k` in the child table) per slot.
#[derive(Clone, Debug, Default)]
struct Arena {
    /// Region, host and parent; a free slot keeps its last.
    recs: Vec<Record>,
    /// The child of slot `s` on part `i` is `kids[s * k + i]`: [`NONE`]
    /// where the part has no subtree, `LEAF | vs` for a leaf held inline,
    /// else the child's slot.
    kids: Vec<u32>,
    /// Distance from the root; [`FREE`] marks a free slot.
    depths: Vec<u8>,
}

impl Arena {
    /// The view of `slot` in a child table of stride `k`.
    #[inline]
    fn node(&self, slot: usize, k: usize) -> KtNode<'_> {
        KtNode {
            rec: self.recs[slot],
            part: NONE,
            depth: self.depths[slot],
            kids: &self.kids[slot * k..][..k],
            slot: slot as u32,
            k: k as u32,
        }
    }
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

/// The ring as the builders read it: its two columns, every position
/// clockwise from 0 beside the virtual server planted there. The root's
/// region is the whole ring anchored at 0, so a region's contents are one
/// index range and what a builder asks of the ring is arithmetic on it.
struct Columns<'a> {
    positions: &'a [u32],
    vss: &'a [VsId],
}

impl Columns<'_> {
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
    ///     assert_eq!(tree.node(tree.report_target(&net, vs)).host(), vs);
    /// }
    /// ```
    pub fn build(net: &ChordNetwork, k: usize) -> Self {
        assert!(k >= 2, "tree degree must be at least 2");
        assert!(
            net.alive_vs_count() > 0,
            "cannot build a tree over an empty DHT"
        );
        let _prof = proxbal_profile::phase("tree");
        let (positions, vss) = net.ring().columns();
        let columns = Columns { positions, vss };

        let everything = 0..vss.len();
        let mut tree = Self::empty(net, k, Self::arena_estimate(everything.len()));
        let ring = Arc::full(Id::ZERO);
        let host = columns.host_for(&ring, everything.clone());
        tree.root = tree.alloc(&ring, host, None, 0);
        let _sub = proxbal_profile::phase("tree/grow");
        tree.grow(&columns, tree.root, everything);
        tree
    }

    /// Grows the whole subtree under `id`, whose region holds the ring
    /// entries `inside`, depth first with children in part order.
    ///
    /// Every rule of the tree is index arithmetic on the sorted ring: a
    /// region is a leaf iff it holds at most one entry, a part needs a child
    /// iff it holds at least one, and the parts' entry ranges are found by
    /// binary search inside the parent's. A part that holds one entry is a
    /// leaf planted in that entry's virtual server, held inline.
    fn grow(&mut self, columns: &Columns, id: KtNodeId, inside: Range<usize>) {
        if inside.len() <= 1 {
            return;
        }
        let node = self.node(id);
        let depth = node.depth() + 1;
        // All regions descend from the root's, which starts at 0 and does
        // not wrap: a part's bounds are plain sums.
        let (k, len) = (self.k as u64, node.region().len());
        let (base, rem) = (len / k, len % k);
        let mut start = u64::from(node.region().start().raw());
        let mut lo = inside.start;
        for i in 0..self.k {
            let part_len = base + u64::from((i as u64) < rem);
            let end = start + part_len;
            let hi = if i + 1 == self.k {
                inside.end
            } else {
                lo + columns.positions[lo..inside.end].partition_point(|&p| u64::from(p) < end)
            };
            if hi - lo == 1 {
                self.nodes.kids[id.0 as usize * self.k + i] = inline_leaf(columns.vss[lo]);
                self.leaves += 1;
            } else if lo < hi {
                let part = Arc::new(Id::new(start as u32), part_len);
                let host = columns.host_for(&part, lo..hi);
                let child = self.alloc(&part, host, Some(id), depth);
                self.set_child(id, i, Some(child));
                self.grow(columns, child, lo..hi);
            }
            (start, lo) = (end, hi);
        }
    }

    /// An arena with no nodes yet, stamped with the current state of `net`'s
    /// ring — what the builders grow their nodes against.
    fn empty(net: &ChordNetwork, k: usize, reserve: usize) -> Self {
        KTree {
            k,
            nodes: Arena {
                recs: Vec::with_capacity(reserve),
                kids: Vec::with_capacity(reserve * k),
                depths: Vec::with_capacity(reserve),
            },
            leaves: 0,
            free: Vec::new(),
            retired: Vec::new(),
            root: KtNodeId(0),
            checked: net.ring().stamp(),
            flags: Vec::new(),
            flagged: 0,
            detached: 0,
        }
    }

    /// Expected arena slots for a tree over `positions` ring positions:
    /// its inner nodes, ≈ positions/ln 2 in the binary case (leaves take
    /// none), plus headroom — reserving up front avoids the transient
    /// doubling reallocation that would briefly hold two multi-hundred-MB
    /// arenas at million-peer scale.
    fn arena_estimate(positions: usize) -> usize {
        positions * 3 / 2 + 16
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
        net.ring().count_in(region) <= 1
    }

    /// Tree degree `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The root handle.
    pub fn root(&self) -> KtNodeId {
        self.root
    }

    /// Number of live KT nodes, inline leaves included.
    pub fn len(&self) -> usize {
        self.slot_bound() - self.free.len() - self.retired.len() + self.leaves
    }

    /// Exclusive upper bound on the slots of live handles — the arena
    /// length, used to size flat per-slot vectors (protocol scratch
    /// tables). A leaf's entry is below `slot_bound · K`.
    pub fn slot_bound(&self) -> usize {
        self.nodes.depths.len()
    }

    /// True iff the tree is empty (never the case after `build`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True iff `id` names a live node (slots are recycled after pruning).
    #[inline]
    pub fn contains(&self, id: KtNodeId) -> bool {
        let live = |slot: usize| self.nodes.depths.get(slot).is_some_and(|&d| d != FREE);
        match id.leaf_entry() {
            None => live(id.0 as usize),
            Some(entry) => live(entry / self.k) && is_inline(self.nodes.kids[entry]),
        }
    }

    /// The slot of a live node that holds one. Panics on a stale handle and
    /// on a leaf held inline.
    fn live(&self, id: KtNodeId) -> usize {
        assert!(self.contains(id), "stale KT node handle");
        assert!(id.leaf_entry().is_none(), "a leaf held inline has no slot");
        id.0 as usize
    }

    /// Access a node. Panics on a stale handle.
    #[inline]
    pub fn node(&self, id: KtNodeId) -> KtNode<'_> {
        assert!(self.contains(id), "stale KT node handle");
        match id.leaf_entry() {
            None => self.nodes.node(id.0 as usize, self.k),
            Some(entry) => self.nodes.node(entry / self.k, self.k).leaf(entry % self.k),
        }
    }

    /// The child of `id` on part `i`; `None` below a leaf held inline.
    fn child(&self, id: KtNodeId, i: usize) -> Option<KtNodeId> {
        if id.leaf_entry().is_some() {
            return None;
        }
        let entry = id.0 as usize * self.k + i;
        child_at(entry, self.nodes.kids[entry])
    }

    // The writers of a live node.

    fn set_host(&mut self, id: KtNodeId, host: VsId) {
        let slot = self.live(id);
        self.nodes.recs[slot].host = host.0;
    }

    fn set_parent(&mut self, id: KtNodeId, parent: Option<KtNodeId>) {
        let slot = self.live(id);
        self.nodes.recs[slot].parent = raw(parent);
    }

    fn set_child(&mut self, id: KtNodeId, i: usize, child: Option<KtNodeId>) {
        let slot = self.live(id);
        self.nodes.kids[slot * self.k + i] = raw(child);
    }

    fn set_depth(&mut self, id: KtNodeId, depth: u32) {
        let slot = self.live(id);
        self.nodes.depths[slot] = depth_byte(depth);
    }

    /// Height of the tree: number of levels (a lone root has height 1).
    pub fn height(&self) -> u32 {
        let Arena { kids, depths, .. } = &self.nodes;
        let rows = depths.iter().zip(kids.chunks_exact(self.k));
        let levels = rows
            .filter(|&(&d, _)| d != FREE)
            .map(|(&d, row)| u32::from(d) + 1 + u32::from(row.iter().any(|&c| is_inline(c))));
        levels.max().unwrap_or(0)
    }

    /// The nodes the root reaches, in preorder: a parent before its
    /// children, children in part order — so ascending region start, a
    /// parent before the child that shares its start. One walk per call.
    pub fn preorder(&self) -> impl Iterator<Item = KtNodeId> + '_ {
        let mut stack = vec![self.root];
        std::iter::from_fn(move || {
            let id = stack.pop()?;
            stack.extend(self.node(id).children().rev().flatten());
            Some(id)
        })
    }

    /// The nodes the root reaches grouped by depth, the root's level first;
    /// each level in preorder, i.e. by ascending region start.
    pub fn levels(&self) -> Vec<Vec<KtNodeId>> {
        let mut levels: Vec<Vec<KtNodeId>> = Vec::new();
        for id in self.preorder() {
            let depth = self.node(id).depth() as usize;
            if levels.len() <= depth {
                levels.resize_with(depth + 1, Vec::new);
            }
            levels[depth].push(id);
        }
        levels
    }

    /// The *report target* of a virtual server: the deepest KT node on the
    /// descent path of the VS's ring position. On a stable tree this is the
    /// unique leaf whose region contains (only) the VS's position, and it
    /// is planted in the VS itself — so "each virtual server reports its LBI
    /// through a KT node planted in it" (§3.2) always holds.
    pub fn report_target(&self, net: &ChordNetwork, vs: VsId) -> KtNodeId {
        let pos = net.vs(vs).position;
        let mut at = (self.root, self.node(self.root).region());
        while let Some(below) = self.child_towards(at, pos) {
            at = below;
        }
        at.0
    }

    /// One step of the descent towards `pos` from a node whose region the
    /// caller carried down from the root: the child planted on the part
    /// that holds `pos`, if that part has a subtree, and the part. A listed
    /// child covers exactly its part of the parent's region, so the step
    /// reads the child table and nothing else.
    #[inline]
    fn child_towards(&self, (id, region): (KtNodeId, Arc), pos: Id) -> Option<(KtNodeId, Arc)> {
        let (i, part) = region.child_towards(pos, self.k);
        Some((self.child(id, i)?, part))
    }

    /// [`Self::report_target`] of every virtual server of `vss`, answered
    /// in input order; any order and repeats are accepted.
    ///
    /// The descents run in ring-position order (the call sorts the
    /// positions first), each starting from the deepest node of the
    /// previous one whose region still holds the position instead of from
    /// the root: a listed child covers exactly its part of the parent's
    /// region and parts are disjoint, so a node on the previous path whose
    /// region contains the position is on this position's path too. Ring
    /// neighbours then cost a few nodes each instead of the tree's height.
    pub fn report_targets(
        &self,
        net: &ChordNetwork,
        vss: impl IntoIterator<Item = VsId>,
    ) -> Vec<KtNodeId> {
        let mut order: Vec<(u32, u32)> = vss
            .into_iter()
            .enumerate()
            .map(|(i, vs)| (net.vs(vs).position.raw(), i as u32))
            .collect();
        // Equal positions are one virtual server, so their order is moot;
        // an input already in ring order is one run and sorts in one pass.
        order.sort_unstable_by_key(|&(pos, _)| pos);
        let mut targets = vec![self.root; order.len()];
        let mut path = vec![(self.root, self.node(self.root).region())];
        for (pos, i) in order {
            let pos = Id::new(pos);
            while path.len() > 1 && !path[path.len() - 1].1.contains(pos) {
                path.pop();
            }
            while let Some(below) = self.child_towards(path[path.len() - 1], pos) {
                path.push(below);
            }
            targets[i as usize] = path[path.len() - 1].0;
        }
        targets
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
    /// the arena. The reachable ones are found by a descent from the root
    /// that enters only the children whose region meets an arc — a child's
    /// region lies inside its parent's — so a round costs the changes' root
    /// paths, not the arena. When the journal cannot say what changed (the
    /// tree is further behind than it retains, or `net` is not a
    /// continuation of the history the tree was last checked on) every node
    /// is checked; while a cut-off subtree awaits [`Self::repair`], the
    /// root does not reach it, and every live slot is tested instead.
    ///
    /// The round checks the suspects it listed at its start, ancestors
    /// first, skipping those an ancestor's check pruned — so a node grown
    /// in the round is first checked in the next, and the count of
    /// mutations is a function of the tree's shape. A leaf held inline is
    /// checked within its parent's check, and only if it was there when the
    /// round began; its region lies inside its parent's, so a change that
    /// can reach it reaches the parent, and growing a leaf flags the parent
    /// instead. A slot pruned in the round is reused only from the next one
    /// on.
    ///
    /// Returns the number of mutations (replants + prunes + grows); `0`
    /// means the tree is stable for the current network.
    pub fn maintain_round(&mut self, net: &ChordNetwork) -> usize {
        self.free.append(&mut self.retired);
        let ring = net.ring();
        let suspects = match ring.changes_since(self.checked) {
            Some(changed) if changed.is_empty() && self.flagged == 0 => return 0,
            Some(changed) if self.detached == 0 => self.worklist(&DirtyArcs::new(ring, &changed)),
            changed => self.sweep(changed.map(|c| DirtyArcs::new(ring, &c)).as_ref()),
        };
        let mut mutations = 0;
        for id in suspects {
            if self.contains(id) {
                self.unflag(id);
                mutations += self.check_node(net, id);
            }
        }
        self.checked = ring.stamp();
        mutations
    }

    /// The suspects of a round in which the root reaches every live slot,
    /// ordered by (depth, slot): the flagged slots, read from the set bits
    /// of `flags`, and the slots whose region touches `dirty`, found by a
    /// descent that enters a slot child only if its region touches — a
    /// child's region lies inside its parent's, so the descent finds every
    /// slot a test of each would. Inline leaves are checked in their
    /// parent's check.
    fn worklist(&self, dirty: &DirtyArcs) -> Vec<KtNodeId> {
        let mut suspects = Vec::with_capacity(self.flagged);
        for (word, &bits) in self.flags.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                suspects.push(KtNodeId(word as u32 * 64 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        let (mut stack, mut visits) = (vec![self.root.0], 0);
        while let Some(slot) = stack.pop() {
            visits += 1;
            let at = slot as usize;
            if !dirty.touches(&self.nodes.recs[at].region()) {
                continue;
            }
            if !self.is_flagged(KtNodeId(slot)) {
                suspects.push(KtNodeId(slot));
            }
            let kids = &self.nodes.kids[at * self.k..][..self.k];
            stack.extend(kids.iter().filter(|&&c| c != NONE && !is_inline(c)));
        }
        count_visits(visits);
        suspects.sort_unstable_by_key(|id| (self.nodes.depths[id.0 as usize], id.0));
        suspects
    }

    /// The suspects of a round as a test of every live slot finds them,
    /// ordered by (depth, slot): the flagged ones, and those whose region
    /// touches `dirty` — every one when the journal could not say (`None`).
    fn sweep(&self, dirty: Option<&DirtyArcs>) -> Vec<KtNodeId> {
        count_visits(self.slot_bound());
        let mut suspects: Vec<KtNodeId> = (0..self.slot_bound())
            .filter(|&slot| self.nodes.depths[slot] != FREE)
            .map(|slot| KtNodeId(slot as u32))
            .filter(|&id| {
                self.is_flagged(id)
                    || dirty.is_none_or(|d| d.touches(&self.nodes.recs[id.0 as usize].region()))
            })
            .collect();
        suspects.sort_by_key(|id| self.nodes.depths[id.0 as usize]);
        suspects
    }

    /// One periodic check of the KT node in a slot, and of the leaves it
    /// holds inline; returns the number of mutations.
    fn check_node(&mut self, net: &ChordNetwork, id: KtNodeId) -> usize {
        let node = self.node(id);
        let (region, planted) = (node.region(), node.host());
        let host = Self::host_for(net, &region);
        if planted != host {
            self.set_host(id, host);
        }
        usize::from(planted != host) + self.check_parts(net, id, &region)
    }

    /// The part-by-part half of the check of `id`, whose region is
    /// `region`: prunes the children whose part no longer needs a subtree,
    /// grows a leaf on each part that needs one, and checks the leaves it
    /// already held.
    fn check_parts(&mut self, net: &ChordNetwork, id: KtNodeId, region: &Arc) -> usize {
        let mut mutations = 0;
        let leaf = Self::is_leaf_region(net, region);
        for i in 0..self.k {
            let part = region.child(i, self.k);
            // A leaf prunes any children.
            let needed = !leaf && !part.is_empty() && net.ring().count_in(&part) >= 1;
            let entry = id.0 as usize * self.k + i;
            match (needed, self.child(id, i)) {
                (false, Some(_)) => {
                    self.cut(entry);
                    mutations += 1;
                }
                (true, None) => {
                    self.nodes.kids[entry] = inline_leaf(Self::host_for(net, &part));
                    self.leaves += 1;
                    // One level per round: the leaf's own check is due, and
                    // runs in this node's.
                    self.flag(id);
                    mutations += 1;
                }
                (true, Some(child)) if child.leaf_entry().is_some() => {
                    mutations += self.check_leaf(net, child, &part);
                }
                _ => {}
            }
        }
        mutations
    }

    /// One periodic check of the leaf `id`, held inline over `region`:
    /// re-plants it, and if its region came to hold two positions moves it
    /// into a slot and grows its children.
    fn check_leaf(&mut self, net: &ChordNetwork, id: KtNodeId, region: &Arc) -> usize {
        let entry = id.leaf_entry().expect("a leaf held inline");
        let host = inline_leaf(Self::host_for(net, region));
        let replanted = self.nodes.kids[entry] != host;
        self.nodes.kids[entry] = host;
        if Self::is_leaf_region(net, region) {
            return usize::from(replanted);
        }
        let grown = self.in_slot(id);
        usize::from(replanted) + self.check_parts(net, grown, region)
    }

    /// Runs [`Self::maintain_round`] until stable, returning the number of
    /// rounds needed (0 if already stable), and records a `kt/maintain` span
    /// (one virtual-time unit per round) starting at `ts`. Panics after
    /// `limit` rounds.
    pub fn maintain_until_stable(
        &mut self,
        net: &ChordNetwork,
        limit: usize,
        ts: proxbal_trace::VirtualTime,
        trace: &mut proxbal_trace::Trace,
    ) -> usize {
        let stable_after = {
            let _prof = proxbal_profile::phase("kt/maintain");
            (0..limit).find(|_| self.maintain_round(net) == 0)
        };
        let Some(rounds) = stable_after else {
            panic!("K-nary tree failed to stabilize within {limit} rounds");
        };
        trace.span_args(
            "kt/maintain",
            ts,
            rounds as u64,
            &[("rounds", (rounds as u64).into())],
        );
        rounds
    }

    /// Checks structural invariants of a **stable** tree: every live node
    /// is reached from the root and is what the rules of the tree make of
    /// its region. Used by tests.
    pub fn check_invariants(&self, net: &ChordNetwork) -> Result<(), String> {
        let mut reached = 0;
        for id in self.preorder() {
            reached += 1;
            let node = self.node(id);
            let region = node.region();
            let at = || format!("node over {region:?} at depth {}", node.depth());
            let host = Self::host_for(net, &region);
            if node.host() != host {
                return Err(format!(
                    "{} hosted by {:?}, should be {host:?}",
                    at(),
                    node.host()
                ));
            }
            if Self::is_leaf_region(net, &region) {
                if !node.is_leaf() {
                    return Err(format!("{} should be a leaf", at()));
                }
                continue;
            }
            for (i, child) in node.children().enumerate() {
                let part = region.child(i, self.k);
                let needed = !part.is_empty() && net.ring().count_in(&part) >= 1;
                match child {
                    Some(child) => {
                        if !needed {
                            return Err(format!("{}: child {i} should be pruned", at()));
                        }
                        let c = self.node(child);
                        if c.region() != part
                            || c.parent() != Some(id)
                            || c.depth() != node.depth() + 1
                        {
                            return Err(format!("{}: child {i} metadata wrong", at()));
                        }
                    }
                    None => {
                        if needed {
                            return Err(format!("{}: child {i} missing", at()));
                        }
                    }
                }
            }
        }
        if reached != self.len() {
            return Err(format!("{} live nodes detached", self.len() - reached));
        }
        Ok(())
    }

    /// Simulates a *stale parent pointer*: detaches `child` from its real
    /// parent (which forgets it, as a pruned-and-rebuilt parent would) and
    /// leaves `child.parent` dangling at `stale` — a node that does not list
    /// it as a child. The whole subtree under `child` becomes unreachable
    /// from the root until [`Self::repair`] runs; a leaf held inline moves
    /// into a slot first, and its handle changes. Panics on the root.
    pub fn inject_stale_parent(&mut self, child: KtNodeId, stale: KtNodeId) {
        assert!(child != self.root, "cannot orphan the root");
        let child = self.in_slot(child);
        let real = self.node(child).parent().expect("non-root has a parent");
        let listed = self.node(real).children().position(|c| c == Some(child));
        if let Some(i) = listed {
            self.set_child(real, i, None);
        }
        self.set_parent(child, Some(stale));
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
    /// [`RepairAction`] per orphan root, in preorder of the orphans.
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
        stats.rounds =
            self.maintain_until_stable(net, limit, 0, &mut proxbal_trace::Trace::disabled());
        (stats, actions)
    }

    /// The fault-specific part of a repair: finds every orphaned subtree
    /// and re-attaches it where its region belongs, or prunes it.
    fn reattach_orphans(&mut self, net: &ChordNetwork) -> (RepairStats, Vec<RepairAction>) {
        count_visits(self.slot_bound());
        // Phase 1: mark every slot reachable from the root; a leaf held
        // inline is reachable iff its parent is.
        let mut reachable = vec![false; self.slot_bound()];
        let mut queue = std::collections::VecDeque::new();
        reachable[self.root.0 as usize] = true;
        queue.push_back(self.root);
        while let Some(id) = queue.pop_front() {
            for child in self.node(id).children().flatten() {
                if child.leaf_entry().is_none()
                    && !std::mem::replace(&mut reachable[child.0 as usize], true)
                {
                    queue.push_back(child);
                }
            }
        }

        // Phase 2: orphan roots — unreachable nodes nobody claims as a
        // child (their descendants are claimed, by them) — in preorder, so
        // an orphan that lands inside another lands after it. Two orphans
        // over one region at one depth (a subtree detached, regrown and
        // detached again between repairs) are told apart by their shapes.
        // A cut-off leaf moved into a slot, so every orphan root holds one.
        let mut orphan_roots: Vec<KtNodeId> = (0..self.slot_bound())
            .map(|slot| KtNodeId(slot as u32))
            .filter(|&id| {
                self.contains(id)
                    && !reachable[id.0 as usize]
                    && self.node(id).parent().is_none_or(|p| {
                        // The parent slot itself may be gone.
                        !self.contains(p) || self.node(p).children().all(|c| c != Some(id))
                    })
            })
            .collect();
        let place = |id: &KtNodeId| (self.node(*id).region().start(), self.node(*id).depth());
        orphan_roots.sort_by(|a, b| {
            let shape = |id| self.subtree_shape(id);
            place(a)
                .cmp(&place(b))
                .then_with(|| shape(*a).cmp(&shape(*b)))
        });

        // Phase 3: re-attach each orphan where its region belongs, or prune.
        let mut stats = RepairStats::default();
        let mut actions = Vec::with_capacity(orphan_roots.len());
        for orphan in orphan_roots {
            let region = self.node(orphan).region();
            let slot = self.lookup_parent_slot(&region).filter(|&(p, i)| {
                let above = p.leaf_entry().map_or(p.0 as usize, |entry| entry / self.k);
                reachable[above]
                    && self.child(p, i).is_none()
                    && !Self::is_leaf_region(net, &self.node(p).region())
            });
            match slot {
                Some((p, i)) => {
                    // A leaf that is to take a child moves into a slot.
                    let p = self.in_slot(p);
                    reachable.resize(reachable.len().max(self.slot_bound()), false);
                    reachable[p.0 as usize] = true;
                    self.set_child(p, i, Some(orphan));
                    self.set_parent(orphan, Some(p));
                    // The part may have emptied while the subtree was
                    // orphaned; the new parent's next check decides.
                    self.flag(p);
                    // Fix depths and extend reachability over the subtree's
                    // slots; its inline leaves follow their parents.
                    let base = self.node(p).depth() + 1;
                    let mut fix = std::collections::VecDeque::new();
                    fix.push_back((orphan, base));
                    while let Some((id, depth)) = fix.pop_front() {
                        self.set_depth(id, depth);
                        reachable[id.0 as usize] = true;
                        let below = self.node(id).children().flatten();
                        let slots = below.filter(|child| child.leaf_entry().is_none());
                        fix.extend(slots.map(|child| (child, depth + 1)));
                    }
                    stats.reattached += 1;
                    actions.push(RepairAction {
                        region,
                        reattached: true,
                    });
                }
                None => {
                    stats.pruned += self.subtree_len(orphan);
                    self.prune(orphan);
                    actions.push(RepairAction {
                        region,
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
    /// additionally records a `kt/repair/orphan` instant carrying its
    /// region (`start`, `len`) and outcome, so a trace consumer can follow
    /// an individual subtree across the run (e.g. a retention gate checking
    /// that a repaired subtree stays attached).
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
                    ("start", u64::from(a.region.start().raw()).into()),
                    ("len", a.region.len().into()),
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
    /// region). `None` if the current tree shape has no such slot. Parts
    /// are disjoint, so only the one holding `region`'s center can be it.
    fn lookup_parent_slot(&self, region: &Arc) -> Option<(KtNodeId, usize)> {
        let pos = region.center();
        let (mut id, mut within) = (self.root, self.node(self.root).region());
        loop {
            let (i, part) = within.child_towards(pos, self.k);
            if part == *region {
                return Some((id, i));
            }
            (id, within) = (self.child(id, i)?, part);
        }
    }

    /// Number of nodes in the subtree rooted at `id`.
    pub(crate) fn subtree_len(&self, id: KtNodeId) -> usize {
        let below = self.node(id).children().flatten();
        1 + below.map(|c| self.subtree_len(c)).sum::<usize>()
    }

    /// The subtree rooted at `id` in preorder, as (region start, depth,
    /// host) per node: what tells two subtrees over one region apart.
    fn subtree_shape(&self, id: KtNodeId) -> Vec<(Id, u32, VsId)> {
        let node = self.node(id);
        let mut shape = vec![(node.region().start(), node.depth(), node.host())];
        for child in node.children().flatten() {
            shape.extend(self.subtree_shape(child));
        }
        shape
    }

    /// Number of **inter-virtual-server messages** needed to reach the KT
    /// node `id` from the root along tree edges: an edge between KT nodes
    /// planted in the *same* virtual server is free (intra-process). This is
    /// the metric behind the paper's `O(log_K N)` bounds. `None` for a node
    /// the root cannot reach (a subtree detached by a fault, until repair)
    /// and for a handle that names no live node. One climb to the root per
    /// call, each step checking that the parent lists the node.
    pub fn message_depth(&self, id: KtNodeId) -> Option<u32> {
        if !self.contains(id) {
            return None;
        }
        let (mut at, mut node, mut depth) = (id, self.node(id), 0);
        while let Some(parent) = node.parent() {
            let above = self.contains(parent).then(|| self.node(parent))?;
            if !above.children().any(|c| c == Some(at)) {
                return None;
            }
            depth += u32::from(node.host() != above.host());
            (at, node) = (parent, above);
        }
        (at == self.root).then_some(depth)
    }

    /// The largest message depth in the tree (`O(log_K N)` in expectation).
    /// One depth-first walk from the root per call; a balancing round reads
    /// it from [`Self::aggregate`] instead.
    pub fn max_message_depth(&self) -> u32 {
        let mut max = 0;
        let mut stack = vec![(self.root, 0u32)];
        while let Some((id, depth)) = stack.pop() {
            max = max.max(depth);
            let node = self.node(id);
            for child in node.children().flatten() {
                let hop = u32::from(self.node(child).host() != node.host());
                stack.push((child, depth + hop));
            }
        }
        max
    }

    /// The handle of `id` in a slot: a leaf held inline moves out of its
    /// parent's child entry into a slot of its own first, as a childless
    /// node. A flagged parent may owe the leaf its check, so the slot is
    /// flagged too.
    fn in_slot(&mut self, id: KtNodeId) -> KtNodeId {
        let Some(entry) = id.leaf_entry() else {
            return id;
        };
        let node = self.node(id);
        let (region, host, parent, depth) =
            (node.region(), node.host(), node.parent(), node.depth());
        let slot = self.alloc(&region, host, parent, depth);
        self.nodes.kids[entry] = slot.0;
        self.leaves -= 1;
        if parent.is_some_and(|p| self.is_flagged(p)) {
            self.flag(slot);
        }
        slot
    }

    /// A new childless node in a recycled slot, or in a fresh one at the
    /// arena's end. Panics when the arena has used up its handles: a slot
    /// and, tagged, each of its child entries.
    fn alloc(
        &mut self,
        region: &Arc,
        host: VsId,
        parent: Option<KtNodeId>,
        depth: u32,
    ) -> KtNodeId {
        let (rec, depth, k) = (Record::new(region, host, parent), depth_byte(depth), self.k);
        let Arena { recs, kids, depths } = &mut self.nodes;
        if let Some(slot) = self.free.pop() {
            let at = slot as usize;
            (recs[at], depths[at]) = (rec, depth);
            kids[at * k..][..k].fill(NONE);
            return KtNodeId(slot);
        }
        let fresh = recs.len().checked_add(1).and_then(|n| n.checked_mul(k));
        let fits = fresh.is_some_and(|entries| entries < LEAF as usize);
        assert!(fits, "KT arena is out of handles (the top bit tags a leaf)");
        let slot = recs.len() as u32;
        recs.push(rec);
        depths.push(depth);
        kids.extend(std::iter::repeat_n(NONE, k));
        KtNodeId(slot)
    }

    /// Removes the node in slot `id` and its whole subtree.
    fn prune(&mut self, id: KtNodeId) {
        let slot = self.live(id);
        for entry in slot * self.k..(slot + 1) * self.k {
            self.cut(entry);
        }
        self.nodes.depths[slot] = FREE;
        self.retired.push(id.0);
        self.unflag(id);
    }

    /// Empties the child entry `entry`, removing the subtree it held.
    fn cut(&mut self, entry: usize) {
        match std::mem::replace(&mut self.nodes.kids[entry], NONE) {
            NONE => {}
            child if is_inline(child) => self.leaves -= 1,
            slot => self.prune(KtNodeId(slot)),
        }
    }

    /// `region` through the arena's 8-byte form and back.
    #[cfg(test)]
    pub(crate) fn packed_region(region: &Arc) -> Arc {
        Record::new(region, VsId(0), None).region()
    }

    /// What one arena slot costs across the three columns.
    #[cfg(test)]
    pub(crate) fn bytes_per_slot(&self) -> usize {
        use std::mem::size_of_val;
        let Arena { recs, kids, depths } = &self.nodes;
        size_of_val(&recs[0]) + size_of_val(&kids[..self.k]) + size_of_val(&depths[0])
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
