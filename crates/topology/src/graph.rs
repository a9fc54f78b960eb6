use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// Undirected weighted graph as one flat, immutable adjacency (CSR) and a
/// weight column beside it.
///
/// Node `u`'s neighbours are `targets[offsets[u]..offsets[u + 1]]`, each
/// arc weighted by the `weights` entry at the same index; every undirected
/// edge appears as two arcs. A graph is built once, from an edge list
/// ([`Graph::from_edges`]), and shared behind an `Arc` rather than copied.
/// The adjacency sits behind an `Arc` of its own: a graph over the same
/// arcs in another metric (`Graph::reweighted`) adds only its weights.
///
/// Edge weights are positive and fit 16 bits (1 for intradomain hops, 3 for
/// interdomain hops in the paper's cost model; planar lengths for latency);
/// distances are `u32`.
#[derive(Debug)]
pub struct Graph {
    adjacency: Arc<Adjacency>,
    /// One weight per arc, parallel to `adjacency.targets`.
    weights: Vec<u16>,
    /// Largest edge weight present (0 while edgeless). Decides between the
    /// bucket-queue and binary-heap Dijkstra variants.
    max_weight: u32,
}

/// The weightless half of a [`Graph`].
#[derive(Debug)]
struct Adjacency {
    /// `n + 1` entries: where each node's run of arcs starts in `targets`.
    offsets: Vec<u32>,
    /// Arc targets, each node's run in first-insertion order.
    targets: Vec<NodeId>,
}

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

/// `w` as an arc weight: positive and at most `u16::MAX`.
fn arc_weight(w: u32) -> u16 {
    assert!(w > 0, "edge weights must be positive");
    u16::try_from(w).expect("edge weights must fit 16 bits")
}

impl Graph {
    /// The graph on `n` nodes with the undirected edges `(u, v, weight)`.
    /// Weights must be positive and at most `u16::MAX`, endpoints below
    /// `n`. Self-loops are dropped; of parallel edges the first one, with
    /// its weight, is kept. Each node's neighbours come in the order their
    /// first edge appears.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId, u32)]) -> Self {
        assert!(
            edges.len() <= u32::MAX as usize / 2,
            "too many edges for 32-bit offsets"
        );
        // Counting sort of the arcs by source, in edge order.
        let mut offsets = vec![0u32; n + 1];
        for &(u, v, w) in edges {
            arc_weight(w);
            assert!(
                (u as usize) < n && (v as usize) < n,
                "endpoint out of range"
            );
            if u != v {
                offsets[u as usize + 1] += 1;
                offsets[v as usize + 1] += 1;
            }
        }
        for i in 1..=n {
            offsets[i] += offsets[i - 1];
        }
        let arcs = offsets[n] as usize;
        let (mut targets, mut weights) = (vec![0; arcs], vec![0u16; arcs]);
        let mut next = offsets.clone();
        for &(u, v, w) in edges {
            if u != v {
                for (from, to) in [(u, v), (v, u)] {
                    let at = &mut next[from as usize];
                    targets[*at as usize] = to;
                    weights[*at as usize] = w as u16;
                    *at += 1;
                }
            }
        }

        // Keep each target's first arc: the first edge of every parallel
        // bundle, seen from either end. `seen[v] == u` marks `v` as
        // already a neighbour of `u`.
        let mut seen = vec![NodeId::MAX; n];
        let (mut kept, mut max_weight) = (0, 0);
        for u in 0..n {
            let run = offsets[u] as usize..offsets[u + 1] as usize;
            offsets[u] = kept as u32;
            for i in run {
                let v = targets[i];
                if seen[v as usize] != u as NodeId {
                    seen[v as usize] = u as NodeId;
                    targets[kept] = v;
                    weights[kept] = weights[i];
                    kept += 1;
                    max_weight = max_weight.max(u32::from(weights[i]));
                }
            }
        }
        offsets[n] = kept as u32;
        targets.truncate(kept);
        targets.shrink_to_fit();
        weights.truncate(kept);
        weights.shrink_to_fit();
        Graph {
            adjacency: Arc::new(Adjacency { offsets, targets }),
            weights,
            max_weight,
        }
    }

    /// The same nodes and arcs — one adjacency, shared — with each arc
    /// `u → v` weighted `weight(u, v)`. `weight` must be positive, at most
    /// `u16::MAX` and symmetric.
    pub(crate) fn reweighted(&self, weight: impl Fn(NodeId, NodeId) -> u32) -> Self {
        let mut weights = Vec::with_capacity(self.weights.len());
        let mut max_weight = 0;
        for u in 0..self.node_count() as NodeId {
            for (v, _) in self.neighbors(u) {
                let w = arc_weight(weight(u, v));
                weights.push(w);
                max_weight = max_weight.max(u32::from(w));
            }
        }
        Graph {
            adjacency: Arc::clone(&self.adjacency),
            weights,
            max_weight,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.weights.len() / 2
    }

    /// Largest edge weight in the graph (0 while edgeless).
    pub fn max_weight(&self) -> u32 {
        self.max_weight
    }

    /// Neighbors of `u` with edge weights, as `(target, weight)` pairs.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> impl ExactSizeIterator<Item = (NodeId, u32)> + '_ {
        let Adjacency { offsets, targets } = &*self.adjacency;
        let run = offsets[u as usize] as usize..offsets[u as usize + 1] as usize;
        let weights = self.weights[run.clone()].iter().map(|&w| u32::from(w));
        targets[run].iter().copied().zip(weights)
    }

    /// Heap plus inline bytes: this graph's weight column and its share of
    /// the adjacency — `1/k` of it while `k` graphs hold it — so the graphs
    /// over one adjacency sum to its bytes once.
    #[cfg(test)]
    pub(crate) fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        let Adjacency { offsets, targets } = &*self.adjacency;
        // The `Arc` allocation: its two counts, then the adjacency.
        let adjacency = 2 * size_of::<usize>()
            + size_of::<Adjacency>()
            + offsets.capacity() * size_of::<u32>()
            + targets.capacity() * size_of::<NodeId>();
        size_of::<Self>()
            + self.weights.capacity() * size_of::<u16>()
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
    /// One multi-source Dial sweep per 64 sources, one source per bit of a
    /// `u64`: a ring of `max_weight + 1` levels holds `(node, sources)`
    /// entries, and the entries of level `d` settle, for each node, the
    /// sources that had not reached it yet at distance `d` — then push
    /// them on along its arcs. A node is expanded once per level it
    /// settles sources at, not once per source, so on a sparse graph with
    /// small weights the sweep costs a fraction of `n` Dijkstra runs.
    pub(crate) fn distance_table(&self) -> Vec<u32> {
        let n = self.node_count();
        let mut table = vec![INFINITE_DISTANCE; n * n];
        let ring_len = self.max_weight as usize + 1;
        let mut ring: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); ring_len];
        // Per node: the batch's sources that settled it, and those that
        // settle it at the current level.
        let (mut reached, mut fresh) = (vec![0u64; n], vec![0u64; n]);
        let mut settling: Vec<NodeId> = Vec::new();
        for first in (0..n).step_by(64) {
            reached.fill(0);
            for s in first..n.min(first + 64) {
                ring[0].push((s as NodeId, 1 << (s - first)));
            }
            let mut pending = ring[0].len();
            let mut d = 0u32;
            while pending > 0 {
                let level = &mut ring[d as usize % ring_len];
                pending -= level.len();
                for (v, sources) in level.drain(..) {
                    let new = sources & !reached[v as usize];
                    if new != 0 {
                        if fresh[v as usize] == 0 {
                            settling.push(v);
                        }
                        fresh[v as usize] |= new;
                    }
                }
                // Arcs weigh at least 1 and at most `max_weight`, so every
                // push lands on a later level and never wraps onto this one.
                for &v in &settling {
                    let sources = std::mem::take(&mut fresh[v as usize]);
                    reached[v as usize] |= sources;
                    let mut bits = sources;
                    while bits != 0 {
                        let s = first + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        table[s * n + v as usize] = d;
                    }
                    for (t, w) in self.neighbors(v) {
                        let unreached = sources & !reached[t as usize];
                        if unreached != 0 {
                            ring[(d + w) as usize % ring_len].push((t, unreached));
                            pending += 1;
                        }
                    }
                }
                settling.clear();
                d += 1;
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
        Graph::from_edges(n, &edges)
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
            let graph = Graph::from_edges(n, &edges);
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
            // ring often.
            let max_w = [1, 3, 12, 300][max_w];
            let g = random_graph(seed, n, density * n, max_w);
            prop_assert_eq!(g.distance_table(), g.all_pairs().concat());
        }
    }

    #[test]
    #[should_panic(expected = "edge weights must fit 16 bits")]
    fn from_edges_rejects_a_weight_above_16_bits() {
        Graph::from_edges(2, &[(0, 1, u32::from(u16::MAX) + 1)]);
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
