use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::Zip;
use std::ops::Range;
use std::slice;
use std::sync::Arc;

/// Index of a physical node in a [`Graph`].
pub type NodeId = u32;

/// Distance value reported for unreachable nodes.
pub const INFINITE_DISTANCE: u32 = u32::MAX;

/// Largest maximum edge weight for which [`Graph::dijkstra_into`] uses the
/// bucket queue (Dial's algorithm). Above this the circular bucket array —
/// `max_weight + 1` slots, swept one distance value per step — stops paying
/// for itself and the binary heap takes over.
const MAX_BUCKET_WEIGHT: u32 = 4096;

/// Most `u64` words the frontier ring of [`Graph::distance_table`] may
/// hold (256 KiB): the batch of sources narrows so that `max_weight + 1`
/// levels of one word row per node fit, and never below 64 sources.
const SWEEP_WORDS: usize = 1 << 15;

/// Words per node in a batch of [`Graph::distance_table`]'s sweep over `n`
/// nodes: every source's bit when the ring fits [`SWEEP_WORDS`], fewer
/// (at least one) when it would not.
fn sweep_words(n: usize, max_weight: u32) -> usize {
    let levels = max_weight as usize + 1;
    (SWEEP_WORDS / (levels * n).max(1)).clamp(1, n.div_ceil(64).max(1))
}

/// Most members a block may have for its arcs to be stored as one-byte
/// offsets from its first member.
const MAX_BLOCK: usize = 256;

/// The weights of a local run when a graph stores none: every local arc
/// weighs 1, and a run has fewer than [`MAX_BLOCK`] arcs.
static UNIT_WEIGHTS: [u8; MAX_BLOCK] = [1; MAX_BLOCK];

/// Undirected weighted graph as one flat, immutable adjacency (CSR) and
/// weight columns beside it.
///
/// The nodes may be cut into **blocks** — disjoint runs of consecutive ids,
/// such as the domains of a transit-stub topology. Node `u`'s arcs come in
/// two runs: its *local* run, the arcs to other members of its block, each
/// stored as a one-byte offset from the block's first member; then its
/// *remote* run, every other arc, each stored as a full `u32` target. A
/// node in no block, or in a block of more than 256 members, has only a
/// remote run. Every undirected edge appears as two arcs, both local or
/// both remote. A graph is built once, from an edge list
/// ([`Graph::from_edges`]), and shared behind an `Arc` rather than copied.
/// The adjacency sits behind an `Arc` of its own: a graph over the same
/// arcs in another metric (`Graph::reweighted`) adds only its weights.
///
/// Edge weights are positive and fit 16 bits, 8 bits on a local arc (1 for
/// intradomain hops, 3 for interdomain hops in the paper's cost model;
/// planar lengths for latency); distances are `u32`.
#[derive(Debug)]
pub struct Graph {
    adjacency: Arc<Adjacency>,
    /// One weight per local arc, parallel to `adjacency.local`; empty when
    /// every local arc weighs 1.
    local_weights: Vec<u8>,
    /// One weight per remote arc, parallel to `adjacency.remote`.
    remote_weights: Vec<u16>,
    /// Largest edge weight present (0 while edgeless). Decides between the
    /// bucket-queue and binary-heap Dijkstra variants.
    max_weight: u32,
}

/// The weightless half of a [`Graph`].
#[derive(Debug)]
struct Adjacency {
    /// `n + 1` entries: where each node's local run starts in `local`.
    local_offsets: Vec<u32>,
    /// `n + 1` entries: where each node's remote run starts in `remote`.
    remote_offsets: Vec<u32>,
    /// Per node: the first member of its block, which local offsets count
    /// from.
    base: Vec<NodeId>,
    /// Local arc targets as offsets from the source's `base`, each node's
    /// run in first-insertion order.
    local: Vec<u8>,
    /// Remote arc targets, each node's run in first-insertion order.
    remote: Vec<NodeId>,
}

impl Adjacency {
    fn local_run(&self, u: NodeId) -> Range<usize> {
        self.local_offsets[u as usize] as usize..self.local_offsets[u as usize + 1] as usize
    }

    fn remote_run(&self, u: NodeId) -> Range<usize> {
        self.remote_offsets[u as usize] as usize..self.remote_offsets[u as usize + 1] as usize
    }
}

/// The iterator [`Graph::neighbors`] returns: the local run, then the
/// remote run.
struct Neighbors<'a> {
    base: NodeId,
    local: Zip<slice::Iter<'a, u8>, slice::Iter<'a, u8>>,
    remote: Zip<slice::Iter<'a, NodeId>, slice::Iter<'a, u16>>,
}

impl Iterator for Neighbors<'_> {
    type Item = (NodeId, u32);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match self.local.next() {
            Some((&offset, &w)) => Some((self.base + u32::from(offset), u32::from(w))),
            None => self.remote.next().map(|(&v, &w)| (v, u32::from(w))),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.local.len() + self.remote.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Reusable working memory for [`Graph::dijkstra_into`].
///
/// Holds the distance array, the touched-node list used to reset it in
/// O(|reached|), and both priority-queue variants (circular buckets for
/// small integer weights, binary heap otherwise). Reusing one scratch
/// across calls makes repeated single-source runs allocation-free; the
/// scratch adapts automatically when used against graphs of different
/// sizes.
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<u32>,
    touched: Vec<NodeId>,
    buckets: Vec<Vec<NodeId>>,
    heap: BinaryHeap<Reverse<(u32, NodeId)>>,
}

impl DijkstraScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        DijkstraScratch::default()
    }
}

/// `w` as a remote arc's weight: positive and at most `u16::MAX`.
fn arc_weight(w: u32) -> u16 {
    assert!(w > 0, "edge weights must be positive");
    u16::try_from(w).expect("edge weights must fit 16 bits")
}

/// `w` as a local arc's weight: positive and at most `u8::MAX`.
fn local_weight(w: u32) -> u8 {
    assert!(w > 0, "edge weights must be positive");
    u8::try_from(w).expect("intra-block edge weights must fit 8 bits")
}

/// Keeps, in each node's run of `targets` (delimited by `offsets`), only
/// the first arc to each node and its weight; `weights` is parallel to
/// `targets` or empty. `node(u, t)` is the node the stored target `t` of
/// `u` stands for. `seen[v] == u` marks `v` as already a neighbour of `u`.
fn keep_first<T: Copy, W: Copy>(
    offsets: &mut [u32],
    targets: &mut Vec<T>,
    weights: &mut Vec<W>,
    seen: &mut [NodeId],
    node: impl Fn(usize, T) -> NodeId,
) {
    let n = offsets.len() - 1;
    let mut kept = 0;
    for u in 0..n {
        let run = offsets[u] as usize..offsets[u + 1] as usize;
        offsets[u] = kept as u32;
        for i in run {
            let v = node(u, targets[i]) as usize;
            if seen[v] != u as NodeId {
                seen[v] = u as NodeId;
                targets[kept] = targets[i];
                if !weights.is_empty() {
                    weights[kept] = weights[i];
                }
                kept += 1;
            }
        }
    }
    offsets[n] = kept as u32;
    targets.truncate(kept);
    targets.shrink_to_fit();
    weights.truncate(kept);
    weights.shrink_to_fit();
}

impl Graph {
    /// The graph on `n` nodes with the undirected edges `(u, v, weight)`,
    /// its arcs stored by the disjoint node ranges `blocks` (see the type
    /// docs; `&[]` stores every arc full-width). Weights must be positive
    /// and at most `u16::MAX` — at most `u8::MAX` between two members of
    /// one block of at most 256 members — and endpoints below `n`.
    /// Self-loops are dropped; of parallel edges the first one, with its
    /// weight, is kept. Each node's neighbours come as its local run, then
    /// its remote run, each in the order its first edges appear.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, u32)], blocks: &[Range<NodeId>]) -> Self {
        assert!(
            edges.len() <= u32::MAX as usize / 2,
            "too many edges for 32-bit offsets"
        );
        // Per node: its block's first member and size. A node outside every
        // block of at most `MAX_BLOCK` members is an empty block at itself.
        let mut base: Vec<NodeId> = (0..n as NodeId).collect();
        let mut size = vec![0u16; n];
        for block in blocks {
            assert!(
                block.start <= block.end && block.end as usize <= n,
                "block out of range"
            );
            if block.len() <= MAX_BLOCK {
                for u in block.clone() {
                    assert_eq!(size[u as usize], 0, "blocks must be disjoint");
                    base[u as usize] = block.start;
                    size[u as usize] = block.len() as u16;
                }
            }
        }
        // `v`'s offset in `u`'s block, if `v` is a member of it.
        let offset = |u: NodeId, v: NodeId| {
            let offset = v.wrapping_sub(base[u as usize]);
            (offset < u32::from(size[u as usize])).then_some(offset as u8)
        };

        // Counting sort of the arcs by source, in edge order, into the two
        // runs. Both halves of an edge fall in the same kind of run.
        let mut local_offsets = vec![0u32; n + 1];
        let mut remote_offsets = vec![0u32; n + 1];
        let mut unit = true;
        for &(u, v, w) in edges {
            arc_weight(w);
            assert!(
                (u as usize) < n && (v as usize) < n,
                "endpoint out of range"
            );
            if u != v {
                let counts = if offset(u, v).is_some() {
                    unit &= local_weight(w) == 1;
                    &mut local_offsets
                } else {
                    &mut remote_offsets
                };
                counts[u as usize + 1] += 1;
                counts[v as usize + 1] += 1;
            }
        }
        for i in 1..=n {
            local_offsets[i] += local_offsets[i - 1];
            remote_offsets[i] += remote_offsets[i - 1];
        }
        let (locals, remotes) = (local_offsets[n] as usize, remote_offsets[n] as usize);
        let mut local = vec![0u8; locals];
        let mut local_weights = vec![0u8; if unit { 0 } else { locals }];
        let (mut remote, mut remote_weights) = (vec![0; remotes], vec![0u16; remotes]);
        let (mut next_local, mut next_remote) = (local_offsets.clone(), remote_offsets.clone());
        for &(u, v, w) in edges {
            if u != v {
                for (from, to) in [(u, v), (v, u)] {
                    if let Some(o) = offset(from, to) {
                        let at = &mut next_local[from as usize];
                        local[*at as usize] = o;
                        if !unit {
                            local_weights[*at as usize] = w as u8;
                        }
                        *at += 1;
                    } else {
                        let at = &mut next_remote[from as usize];
                        remote[*at as usize] = to;
                        remote_weights[*at as usize] = w as u16;
                        *at += 1;
                    }
                }
            }
        }
        drop((next_local, next_remote, size));

        // Keep each target's first arc: the first edge of every parallel
        // bundle, seen from either end. A target is in one run only.
        let mut seen = vec![NodeId::MAX; n];
        keep_first(
            &mut local_offsets,
            &mut local,
            &mut local_weights,
            &mut seen,
            |u, o| base[u] + NodeId::from(o),
        );
        keep_first(
            &mut remote_offsets,
            &mut remote,
            &mut remote_weights,
            &mut seen,
            |_, v| v,
        );
        let adjacency = Adjacency {
            local_offsets,
            remote_offsets,
            base,
            local,
            remote,
        };
        Graph::with_weights(Arc::new(adjacency), local_weights, remote_weights)
    }

    /// The graph over `adjacency` with these weight columns; a local column
    /// of ones is dropped.
    fn with_weights(
        adjacency: Arc<Adjacency>,
        mut local_weights: Vec<u8>,
        remote_weights: Vec<u16>,
    ) -> Self {
        if local_weights.iter().all(|&w| w == 1) {
            local_weights = Vec::new();
        }
        let local_max = match local_weights.iter().max() {
            Some(&w) => w,
            None => u8::from(!adjacency.local.is_empty()),
        };
        let remote_max = remote_weights.iter().max().copied().unwrap_or(0);
        Graph {
            adjacency,
            local_weights,
            remote_weights,
            max_weight: u32::from(local_max).max(u32::from(remote_max)),
        }
    }

    /// The same nodes and arcs — one adjacency, shared — with each arc
    /// `u → v` weighted `weight(u, v)`. `weight` must be positive, at most
    /// `u16::MAX` (`u8::MAX` on a local arc) and symmetric.
    pub(crate) fn reweighted(&self, weight: impl Fn(NodeId, NodeId) -> u32) -> Self {
        let adjacency = &*self.adjacency;
        let mut local_weights = Vec::with_capacity(adjacency.local.len());
        let mut remote_weights = Vec::with_capacity(adjacency.remote.len());
        for u in 0..self.node_count() as NodeId {
            let base = adjacency.base[u as usize];
            for &o in &adjacency.local[adjacency.local_run(u)] {
                local_weights.push(local_weight(weight(u, base + NodeId::from(o))));
            }
            for &v in &adjacency.remote[adjacency.remote_run(u)] {
                remote_weights.push(arc_weight(weight(u, v)));
            }
        }
        Graph::with_weights(Arc::clone(&self.adjacency), local_weights, remote_weights)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.base.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        (self.adjacency.local.len() + self.adjacency.remote.len()) / 2
    }

    /// Largest edge weight in the graph (0 while edgeless).
    pub fn max_weight(&self) -> u32 {
        self.max_weight
    }

    /// Neighbors of `u` with edge weights, as `(target, weight)` pairs: the
    /// local run, then the remote run.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> impl ExactSizeIterator<Item = (NodeId, u32)> + '_ {
        let adjacency = &*self.adjacency;
        let (local, remote) = (adjacency.local_run(u), adjacency.remote_run(u));
        let local_weights = if self.local_weights.is_empty() {
            &UNIT_WEIGHTS[..local.len()]
        } else {
            &self.local_weights[local.clone()]
        };
        Neighbors {
            base: adjacency.base[u as usize],
            local: adjacency.local[local].iter().zip(local_weights),
            remote: adjacency.remote[remote.clone()]
                .iter()
                .zip(&self.remote_weights[remote]),
        }
    }

    /// Heap plus inline bytes: this graph's weight columns and its share of
    /// the adjacency — `1/k` of it while `k` graphs hold it — so the graphs
    /// over one adjacency sum to its bytes once.
    #[cfg(test)]
    pub(crate) fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        let Adjacency {
            local_offsets,
            remote_offsets,
            base,
            local,
            remote,
        } = &*self.adjacency;
        // The `Arc` allocation: its two counts, then the adjacency.
        let adjacency = 2 * size_of::<usize>()
            + size_of::<Adjacency>()
            + (local_offsets.capacity() + remote_offsets.capacity()) * size_of::<u32>()
            + base.capacity() * size_of::<NodeId>()
            + local.capacity() * size_of::<u8>()
            + remote.capacity() * size_of::<NodeId>();
        size_of::<Self>()
            + self.local_weights.capacity() * size_of::<u8>()
            + self.remote_weights.capacity() * size_of::<u16>()
            + adjacency / Arc::strong_count(&self.adjacency)
    }

    /// True iff `self` and `other` hold one adjacency between them.
    #[cfg(test)]
    pub(crate) fn shares_adjacency(&self, other: &Graph) -> bool {
        Arc::ptr_eq(&self.adjacency, &other.adjacency)
    }

    /// Single-source shortest path distances from `src`.
    /// Unreachable nodes get [`INFINITE_DISTANCE`].
    pub fn dijkstra(&self, src: NodeId) -> Vec<u32> {
        let mut scratch = DijkstraScratch::new();
        self.dijkstra_into(src, &mut scratch);
        scratch.dist
    }

    /// Single-source shortest path distances from `src`, written into
    /// `scratch` and returned as a slice (valid until the scratch is next
    /// used). With a reused scratch the call allocates nothing once the
    /// buffers have grown to the graph's size.
    ///
    /// Small integer edge weights (the paper's 1-intradomain /
    /// 3-interdomain cost model, and the bounded Euclidean latency model)
    /// route to a circular bucket queue — O(E + D) for maximum distance D —
    /// instead of the O(E log V) binary heap, which remains as the fallback
    /// for large weights.
    pub fn dijkstra_into<'a>(&self, src: NodeId, scratch: &'a mut DijkstraScratch) -> &'a [u32] {
        let n = self.node_count();
        assert!((src as usize) < n, "source out of range");
        if scratch.dist.len() != n {
            scratch.dist.clear();
            scratch.dist.resize(n, INFINITE_DISTANCE);
        } else {
            for &u in &scratch.touched {
                scratch.dist[u as usize] = INFINITE_DISTANCE;
            }
        }
        scratch.touched.clear();
        if self.max_weight > 0 && self.max_weight <= MAX_BUCKET_WEIGHT {
            self.dijkstra_buckets(src, scratch);
        } else {
            self.dijkstra_heap(src, scratch);
        }
        &scratch.dist
    }

    /// Dial's algorithm: a circular array of `max_weight + 1` buckets
    /// indexed by distance modulo the ring size. Every tentative distance
    /// in flight lies within `max_weight` of the current sweep distance,
    /// so the ring never aliases two live distance values to one slot.
    fn dijkstra_buckets(&self, src: NodeId, scratch: &mut DijkstraScratch) {
        let ring = self.max_weight as usize + 1;
        if scratch.buckets.len() < ring {
            scratch.buckets.resize_with(ring, Vec::new);
        }
        let dist = &mut scratch.dist;
        dist[src as usize] = 0;
        scratch.touched.push(src);
        scratch.buckets[0].push(src);
        let mut pending = 1usize;
        let mut d = 0u32;
        while pending > 0 {
            let slot = d as usize % ring;
            while let Some(u) = scratch.buckets[slot].pop() {
                pending -= 1;
                if dist[u as usize] != d {
                    continue; // superseded entry
                }
                for (v, w) in self.neighbors(u) {
                    let nd = d + w;
                    let dv = &mut dist[v as usize];
                    if nd < *dv {
                        if *dv == INFINITE_DISTANCE {
                            scratch.touched.push(v);
                        }
                        *dv = nd;
                        scratch.buckets[nd as usize % ring].push(v);
                        pending += 1;
                    }
                }
            }
            d += 1;
        }
    }

    /// Binary-heap Dijkstra over the scratch buffers (fallback for graphs
    /// whose weights are too large for the bucket ring).
    fn dijkstra_heap(&self, src: NodeId, scratch: &mut DijkstraScratch) {
        let dist = &mut scratch.dist;
        scratch.heap.clear();
        dist[src as usize] = 0;
        scratch.touched.push(src);
        scratch.heap.push(Reverse((0u32, src)));
        while let Some(Reverse((d, u))) = scratch.heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (v, w) in self.neighbors(u) {
                let nd = d + w;
                let dv = &mut dist[v as usize];
                if nd < *dv {
                    if *dv == INFINITE_DISTANCE {
                        scratch.touched.push(v);
                    }
                    *dv = nd;
                    scratch.heap.push(Reverse((nd, v)));
                }
            }
        }
    }

    /// Reference binary-heap Dijkstra with per-call allocation — the
    /// pre-optimization kernel, kept as the correctness baseline for
    /// property tests.
    #[cfg(test)]
    pub(crate) fn dijkstra_reference(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![INFINITE_DISTANCE; self.node_count()];
        let mut heap = BinaryHeap::new();
        dist[src as usize] = 0;
        heap.push(Reverse((0u32, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (v, w) in self.neighbors(u) {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    /// True iff every node is reachable from node 0 (or the graph is empty).
    pub fn is_connected(&self) -> bool {
        if self.node_count() == 0 {
            return true;
        }
        let dist = self.dijkstra(0);
        dist.iter().all(|&d| d != INFINITE_DISTANCE)
    }

    /// Every pair's shortest-path distance, row-major: entry `s · n + v`
    /// is [`Graph::dijkstra`]`(s)[v]`.
    ///
    /// One level-synchronous sweep that carries a batch of sources at once,
    /// one bit each. The *frontier* of a node at level `d` holds the
    /// sources whose distance to it is exactly `d`: at level `d` each node
    /// ORs its neighbours' frontiers from level `d − w` (`w` the arc's
    /// weight) and keeps the bits it has not seen yet. Only the last
    /// `max_weight + 1` levels are kept, and the sweep ends once
    /// `max_weight` levels in a row are empty. A node that has seen every
    /// source of the batch is skipped. The batch is every source, narrowed
    /// only where the frontier ring would pass [`SWEEP_WORDS`].
    pub(crate) fn distance_table(&self) -> Vec<u32> {
        let n = self.node_count();
        let mut table = vec![INFINITE_DISTANCE; n * n];
        let levels = self.max_weight as usize + 1;
        let words = sweep_words(n, self.max_weight);
        let mut ring: Vec<Vec<u64>> = vec![vec![0; n * words]; levels];
        let mut seen = vec![0u64; n * words];
        let mut full = vec![0u64; words];
        for first in (0..n).step_by(64 * words) {
            let batch = (n - first).min(64 * words);
            for (k, mask) in full.iter_mut().enumerate() {
                *mask = match batch.saturating_sub(64 * k) {
                    0 => 0,
                    b @ 1..=63 => (1 << b) - 1,
                    _ => u64::MAX,
                };
            }
            seen.fill(0);
            for level in &mut ring {
                level.fill(0);
            }
            for b in 0..batch {
                let (s, bit) = (first + b, 1 << (b % 64));
                ring[0][s * words + b / 64] = bit;
                seen[s * words + b / 64] = bit;
                table[s * n + s] = 0;
            }
            let mut last = 0; // the last level with a frontier
            for d in 1.. {
                if d - last > self.max_weight as usize {
                    break; // every level a frontier can come from is empty
                }
                let mut frontier = std::mem::take(&mut ring[d % levels]);
                frontier.fill(0);
                for v in 0..n {
                    let at = v * words;
                    if seen[at..at + words] == full[..] {
                        continue;
                    }
                    let fresh = &mut frontier[at..at + words];
                    for (u, w) in self.neighbors(v as NodeId) {
                        if let Some(from) = d.checked_sub(w as usize) {
                            let from = &ring[from % levels][u as usize * words..][..words];
                            for (f, &x) in fresh.iter_mut().zip(from) {
                                *f |= x;
                            }
                        }
                    }
                    for (k, (f, s)) in fresh.iter_mut().zip(&mut seen[at..at + words]).enumerate() {
                        *f &= !*s;
                        *s |= *f;
                        let mut bits = *f;
                        while bits != 0 {
                            let src = first + 64 * k + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            table[src * n + v] = d as u32;
                            last = d;
                        }
                    }
                }
                ring[d % levels] = frontier;
            }
        }
        table
    }

    /// All-pairs shortest paths via repeated single-source runs sharing one
    /// scratch: the reference [`Graph::distance_table`] is tested against.
    #[cfg(test)]
    pub(crate) fn all_pairs(&self) -> Vec<Vec<u32>> {
        let mut scratch = DijkstraScratch::new();
        (0..self.node_count() as NodeId)
            .map(|u| self.dijkstra_into(u, &mut scratch).to_vec())
            .collect()
    }
}

/// The adjacency-list builder [`Graph::from_edges`] replaced: one `Vec` per
/// node and a scanning `add_edge`. The reference its semantics are tested
/// against.
#[cfg(test)]
struct ReferenceGraph {
    adj: Vec<Vec<(NodeId, u32)>>,
    edge_count: usize,
    max_weight: u32,
}

#[cfg(test)]
impl ReferenceGraph {
    fn new(n: usize) -> Self {
        ReferenceGraph {
            adj: vec![Vec::new(); n],
            edge_count: 0,
            max_weight: 0,
        }
    }

    /// Adds the undirected edge `{u, v}` with weight `w`. Duplicate edges are
    /// ignored (first weight wins); self-loops are rejected.
    fn add_edge(&mut self, u: NodeId, v: NodeId, w: u32) -> bool {
        assert!(w > 0, "edge weights must be positive");
        if u == v {
            return false;
        }
        let (u_us, v_us) = (u as usize, v as usize);
        assert!(u_us < self.adj.len() && v_us < self.adj.len());
        if self.adj[u_us].iter().any(|&(x, _)| x == v) {
            return false;
        }
        self.adj[u_us].push((v, w));
        self.adj[v_us].push((u, w));
        self.edge_count += 1;
        self.max_weight = self.max_weight.max(w);
        true
    }

    /// Binary-heap Dijkstra over the lists.
    fn dijkstra(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![INFINITE_DISTANCE; self.adj.len()];
        let mut heap = BinaryHeap::new();
        dist[src as usize] = 0;
        heap.push(Reverse((0u32, src)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for &(v, w) in &self.adj[u as usize] {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_graph(seed: u64, n: usize, edges: usize, max_w: u32) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges: Vec<_> = (0..edges)
            .map(|_| {
                let u = rng.gen_range(0..n as NodeId);
                let v = rng.gen_range(0..n as NodeId);
                (u, v, rng.gen_range(1..=max_w))
            })
            .collect();
        Graph::from_edges(n, &edges, &[])
    }

    /// Up to `4n` random edges over `n` nodes, weights 1–9. A quarter of
    /// them repeat an earlier pair, reversed and reweighted; self-loops and
    /// untouched nodes come up on their own at these sizes.
    fn edge_sequence(n: usize, seed: u64) -> Vec<(NodeId, NodeId, u32)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(NodeId, NodeId, u32)> = Vec::new();
        for _ in 0..rng.gen_range(0..=4 * n) {
            let w = rng.gen_range(1..=9);
            if !edges.is_empty() && rng.gen_range(0..4) == 0 {
                let (u, v, _) = edges[rng.gen_range(0..edges.len())];
                edges.push((v, u, w));
            } else {
                edges.push((
                    rng.gen_range(0..n as NodeId),
                    rng.gen_range(0..n as NodeId),
                    w,
                ));
            }
        }
        edges
    }

    proptest! {
        #[test]
        fn from_edges_matches_the_scanning_builder(n in 1usize..=64, seed: u64) {
            let edges = edge_sequence(n, seed);
            let graph = Graph::from_edges(n, &edges, &[]);
            let mut reference = ReferenceGraph::new(n);
            for &(u, v, w) in &edges {
                reference.add_edge(u, v, w);
            }
            prop_assert_eq!(graph.node_count(), n);
            prop_assert_eq!(graph.edge_count(), reference.edge_count);
            prop_assert_eq!(graph.max_weight(), reference.max_weight);
            let mut scratch = DijkstraScratch::new();
            for u in 0..n as NodeId {
                prop_assert_eq!(graph.neighbors(u).collect::<Vec<_>>(), reference.adj[u as usize].clone());
                prop_assert_eq!(graph.dijkstra_into(u, &mut scratch), &reference.dijkstra(u)[..]);
            }
        }
    }

    proptest! {
        #[test]
        fn distance_table_matches_all_pairs(
            n in 1usize..=150, // up to three 64-source batches
            density in 0usize..=3,
            max_w in 0usize..4,
            seed: u64,
        ) {
            // Sparse graphs are disconnected; weights up to 300 wrap the
            // ring often, and past 108 nodes narrow the batch to 64
            // sources.
            let max_w = [1, 3, 12, 300][max_w];
            let g = random_graph(seed, n, density * n, max_w);
            prop_assert_eq!(g.distance_table(), g.all_pairs().concat());
        }
    }

    #[test]
    fn distance_table_sweeps_in_both_batch_widths() {
        // Every source in one batch while the ring fits `SWEEP_WORDS`, and
        // batches narrowed to fit it — down to one word, and to several —
        // when it would not.
        for (n, max_w, words) in [(150, 3, 3), (150, 300, 1), (1000, 8, 3), (40, 1000, 1)] {
            let g = random_graph(n as u64, n, 3 * n, max_w);
            assert_eq!(sweep_words(n, g.max_weight()), words, "n {n} max_w {max_w}");
            assert_eq!(
                g.distance_table(),
                g.all_pairs().concat(),
                "n {n} max_w {max_w}"
            );
        }
    }

    /// `n` nodes cut into runs of 1 or 2–40 members, each a block or, one
    /// time in five, in no block; when `big` members fit, one block of that
    /// many at a random place among them.
    fn random_blocks(n: usize, big: usize, rng: &mut StdRng) -> Vec<Range<NodeId>> {
        let big_at = (big > 0 && big <= n).then(|| rng.gen_range(0..=n - big));
        let (mut blocks, mut at) = (Vec::new(), 0);
        while at < n {
            let is_big = big_at == Some(at);
            let size = if is_big {
                big
            } else {
                let size = if rng.gen_range(0..4) == 0 {
                    1
                } else {
                    rng.gen_range(2..=40)
                };
                let until = big_at.filter(|&b| b > at).unwrap_or(n);
                size.min(until - at)
            };
            if is_big || rng.gen_range(0..5) != 0 {
                blocks.push(at as NodeId..(at + size) as NodeId);
            }
            at += size;
        }
        blocks
    }

    /// True iff `u` and `v` are members of one block of at most 256.
    fn same_small_block(blocks: &[Range<NodeId>], u: NodeId, v: NodeId) -> bool {
        blocks
            .iter()
            .any(|b| b.len() <= 256 && b.contains(&u) && b.contains(&v))
    }

    /// Up to `4n` edges, half of them drawn inside one block. A quarter
    /// repeat an earlier pair, reversed and reweighted; self-loops come up
    /// on their own. Weights are 1 between members of one small block when
    /// `unit`, else up to 255 there and up to `max_w` elsewhere (the
    /// 257-member block included).
    fn blocked_edge_sequence(
        n: usize,
        blocks: &[Range<NodeId>],
        unit: bool,
        max_w: u32,
        rng: &mut StdRng,
    ) -> Vec<(NodeId, NodeId, u32)> {
        let mut edges: Vec<(NodeId, NodeId, u32)> = Vec::new();
        for _ in 0..rng.gen_range(0..=4 * n) {
            let (u, v) = if !edges.is_empty() && rng.gen_range(0..4) == 0 {
                let (u, v, _) = edges[rng.gen_range(0..edges.len())];
                (v, u)
            } else if !blocks.is_empty() && rng.gen() {
                let b = blocks[rng.gen_range(0..blocks.len())].clone();
                (rng.gen_range(b.clone()), rng.gen_range(b))
            } else {
                (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId))
            };
            let w = match same_small_block(blocks, u, v) {
                true if unit => 1,
                true => rng.gen_range(1..=255),
                false => rng.gen_range(1..=max_w),
            };
            edges.push((u, v, w));
        }
        edges
    }

    proptest! {
        #[test]
        fn blocked_graph_matches_the_scanning_builder(
            n in 1usize..=300,
            big in 0usize..3,
            max_w in 0usize..3,
            unit: bool,
            local_first: bool,
            seed: u64,
        ) {
            // Blocks of 256 are stored local; 257 stays full-width. Remote
            // weights above 4,096 take the heap Dijkstra.
            let mut rng = StdRng::seed_from_u64(seed);
            let blocks = random_blocks(n, [0, 256, 257][big], &mut rng);
            let local = |u, v| same_small_block(&blocks, u, v);
            let mut edges = blocked_edge_sequence(n, &blocks, unit, [9, 1000, 5000][max_w], &mut rng);
            if local_first {
                edges.sort_by_key(|&(u, v, _)| !local(u, v));
            }
            // Whether each node's intra-block edges come before its others.
            let mut remote_seen = vec![false; n];
            let mut ordered = true;
            for &(u, v, _) in edges.iter().filter(|&&(u, v, _)| u != v) {
                for x in [u, v] {
                    ordered &= !(local(u, v) && remote_seen[x as usize]);
                    remote_seen[x as usize] |= !local(u, v);
                }
            }
            let graph = Graph::from_edges(n, &edges, &blocks);
            let mut reference = ReferenceGraph::new(n);
            for &(u, v, w) in &edges {
                reference.add_edge(u, v, w);
            }
            prop_assert_eq!(graph.node_count(), n);
            prop_assert_eq!(graph.edge_count(), reference.edge_count);
            prop_assert_eq!(graph.max_weight(), reference.max_weight);
            let weight = |u: NodeId, v: NodeId| 1 + (u ^ v) % 250;
            let latency = graph.reweighted(weight);
            prop_assert!(latency.shares_adjacency(&graph));
            let mut scratch = DijkstraScratch::new();
            for u in 0..n as NodeId {
                let arcs: Vec<_> = graph.neighbors(u).collect();
                prop_assert_eq!(graph.neighbors(u).len(), arcs.len());
                // The local run, then the remote run, each in first-insertion
                // order: the reference's own order when intra-block edges
                // come first, the same multiset otherwise.
                let inserted = &reference.adj[u as usize];
                let (mut runs, remote): (Vec<_>, Vec<_>) =
                    inserted.iter().partition(|&&(v, _)| local(u, v));
                runs.extend(remote);
                prop_assert_eq!(&arcs, &runs);
                if ordered {
                    prop_assert_eq!(&arcs, inserted);
                }
                prop_assert_eq!(graph.dijkstra_into(u, &mut scratch), &reference.dijkstra(u)[..]);
                let reweighted: Vec<_> = arcs.iter().map(|&(v, _)| (v, weight(u, v))).collect();
                prop_assert_eq!(latency.neighbors(u).collect::<Vec<_>>(), reweighted);
            }
            let max_latency = (0..n as NodeId)
                .flat_map(|u| latency.neighbors(u).map(|(_, w)| w))
                .max();
            prop_assert_eq!(latency.max_weight(), max_latency.unwrap_or(0));
        }
    }

    #[test]
    #[should_panic(expected = "intra-block edge weights must fit 8 bits")]
    fn from_edges_rejects_an_intra_block_weight_above_8_bits() {
        Graph::from_edges(3, &[(1, 2, 3), (0, 1, 256)], &[0..2, 2..3]);
    }

    #[test]
    #[should_panic(expected = "intra-block edge weights must fit 8 bits")]
    fn reweighted_rejects_an_intra_block_weight_above_8_bits() {
        let graph = Graph::from_edges(3, &[(0, 1, 1), (1, 2, 3)], &[0..2, 2..3]);
        graph.reweighted(|u, v| if u.max(v) == 2 { 3 } else { 256 });
    }

    #[test]
    #[should_panic(expected = "edge weights must fit 16 bits")]
    fn from_edges_rejects_a_weight_above_16_bits() {
        Graph::from_edges(2, &[(0, 1, u32::from(u16::MAX) + 1)], &[]);
    }

    #[test]
    fn bucket_queue_matches_reference_heap() {
        for seed in 0..8 {
            // Small weights → bucket path; include disconnected graphs.
            let g = random_graph(seed, 60, 90, 3);
            assert!(g.max_weight() <= MAX_BUCKET_WEIGHT);
            for src in [0, 17, 59] {
                assert_eq!(
                    g.dijkstra(src),
                    g.dijkstra_reference(src),
                    "seed {seed} src {src}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_across_sources_and_graphs() {
        let g1 = random_graph(1, 40, 80, 3);
        let g2 = random_graph(2, 70, 100, 5);
        let mut scratch = DijkstraScratch::new();
        for src in 0..40 {
            assert_eq!(
                g1.dijkstra_into(src, &mut scratch),
                &g1.dijkstra_reference(src)[..]
            );
        }
        // Same scratch against a different-sized graph.
        for src in [0u32, 33, 69] {
            assert_eq!(
                g2.dijkstra_into(src, &mut scratch),
                &g2.dijkstra_reference(src)[..]
            );
        }
        // And back again.
        assert_eq!(
            g1.dijkstra_into(5, &mut scratch),
            &g1.dijkstra_reference(5)[..]
        );
    }

    #[test]
    fn heap_fallback_matches_reference() {
        // Weights above the bucket threshold force the heap variant.
        let g = random_graph(3, 50, 80, MAX_BUCKET_WEIGHT * 4);
        assert!(g.max_weight() > MAX_BUCKET_WEIGHT);
        let mut scratch = DijkstraScratch::new();
        for src in [0u32, 25, 49] {
            assert_eq!(
                g.dijkstra_into(src, &mut scratch),
                &g.dijkstra_reference(src)[..]
            );
        }
    }
}
