use crate::decomposition::TransitRows;
use crate::graph::{DijkstraScratch, Graph, NodeId};
use crate::stub_index::StubIndex;
use crate::transit_stub::{DomainKind, TransitStubTopology};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard};

/// Entries per [`CompactRow`] block. Each block stores its minimum and a
/// fixed byte width for the deltas, so runs of equal or nearby distances
/// (the common case: whole stub domains share a distance to the source)
/// cost 0–1 bytes per entry instead of 4.
const BLOCK: usize = 256;

/// A losslessly compressed distance row.
///
/// The row is cut into 256-entry blocks; each block stores its
/// minimum plus per-entry deltas quantized to the narrowest of
/// {0, 1, 2, 4} bytes that holds the block's largest delta. Decoding is a
/// two-array lookup and an add, so point queries stay O(1). Compression is
/// exact — `get` returns precisely the `u32` that went in — which is what
/// lets the bounded oracle keep its bit-identical-results contract while
/// holding several times more rows per byte of residency.
#[derive(Clone, Debug)]
pub struct CompactRow {
    len: usize,
    /// Per-block minimum value.
    mins: Vec<u32>,
    /// Per-block payload byte offset; `widths` is recoverable from the
    /// offset deltas but kept separate for branch-free decoding.
    offsets: Vec<u32>,
    /// Per-block delta width in bytes (0, 1, 2 or 4).
    widths: Vec<u8>,
    /// Delta payload, little-endian, `widths[b]` bytes per entry.
    payload: Vec<u8>,
}

impl CompactRow {
    /// Compresses `values` (lossless).
    pub fn compress(values: &[u32]) -> Self {
        let blocks = values.len().div_ceil(BLOCK);
        let mut mins = Vec::with_capacity(blocks);
        let mut offsets = Vec::with_capacity(blocks);
        let mut widths = Vec::with_capacity(blocks);
        let mut payload = Vec::new();
        for chunk in values.chunks(BLOCK) {
            let min = chunk.iter().copied().min().unwrap_or(0);
            let spread = chunk.iter().copied().max().unwrap_or(0) - min;
            let width: u8 = match spread {
                0 => 0,
                1..=0xFF => 1,
                0x100..=0xFFFF => 2,
                _ => 4,
            };
            mins.push(min);
            offsets.push(payload.len() as u32);
            widths.push(width);
            match width {
                0 => {}
                1 => payload.extend(chunk.iter().map(|&v| (v - min) as u8)),
                2 => {
                    for &v in chunk {
                        payload.extend_from_slice(&((v - min) as u16).to_le_bytes());
                    }
                }
                _ => {
                    for &v in chunk {
                        payload.extend_from_slice(&(v - min).to_le_bytes());
                    }
                }
            }
        }
        payload.shrink_to_fit();
        CompactRow {
            len: values.len(),
            mins,
            offsets,
            widths,
            payload,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the row has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry at `i` (exactly the value passed to `compress`).
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.len);
        let b = i / BLOCK;
        let r = i % BLOCK;
        let min = self.mins[b];
        match self.widths[b] {
            0 => min,
            1 => min + u32::from(self.payload[self.offsets[b] as usize + r]),
            2 => {
                let at = self.offsets[b] as usize + 2 * r;
                min + u32::from(u16::from_le_bytes([self.payload[at], self.payload[at + 1]]))
            }
            _ => {
                let at = self.offsets[b] as usize + 4 * r;
                min + u32::from_le_bytes([
                    self.payload[at],
                    self.payload[at + 1],
                    self.payload[at + 2],
                    self.payload[at + 3],
                ])
            }
        }
    }

    /// Decompresses the full row.
    pub fn to_vec(&self) -> Vec<u32> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    /// Heap + inline bytes this row occupies (the measured-residency
    /// figure the cache accounts with).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.mins.capacity() * 4
            + self.offsets.capacity() * 4
            + self.widths.capacity()
            + self.payload.capacity()
    }
}

thread_local! {
    /// Per-thread Dijkstra working memory: row fills from any oracle on
    /// this thread reuse one scratch, so steady-state row computation
    /// allocates only the row itself.
    static SCRATCH: RefCell<DijkstraScratch> = RefCell::new(DijkstraScratch::new());
}

/// Caching shortest-path oracle.
///
/// Landmark vectors need distances *from* a few landmarks; transfer-cost
/// accounting (Figures 7 and 8) needs distances between arbitrary pairs of
/// overlay attach points. Rather than a full all-pairs matrix, the oracle
/// runs Dijkstra per distinct source on demand and memoizes the row. Rows
/// can also be bulk-precomputed in parallel with
/// [`DistanceOracle::precompute`]. Point queries exploit symmetry: the
/// graph is undirected, so [`DistanceOracle::distance`] answers from
/// whichever endpoint's row is already stored before computing a new one.
///
/// # Point queries on transit-stub graphs
///
/// An oracle made with [`DistanceOracle::for_topology`] knows the domain
/// structure of its graph and answers [`DistanceOracle::distance`] from a
/// structural index (per-stub tables plus one transit-core table) in O(1)
/// without filling any row. The index is built on the first point query —
/// breadth-first search on bit rows per stub, one level-synchronous sweep
/// over the transit core — and is exact. It is skipped, and rows answer as
/// before, when the graph has an edge between two different stub domains,
/// an intra-stub edge whose weight is not 1, or an intra-stub distance
/// above 254; uplink and transit-core weights may be anything.
///
/// # Rows from transit sources
///
/// The same oracle fills the rows [`DistanceOracle::precompute`] asks for
/// from transit sources (the landmarks, in every preset) through the
/// graph's domain decomposition instead of a Dijkstra over the whole
/// graph: one Dijkstra per stub gateway restricted to its stub, any
/// positive weights, then per row one Dijkstra over the transit skeleton
/// and a pass over the nodes. The structure is built per batch and dropped
/// after. Stub sources, a lone [`DistanceOracle::row`], oracles without
/// domain metadata, and graphs with an edge between two stub domains keep
/// the Dijkstra fill; the rows are the same either way.
///
/// # Bounded memory
///
/// At 50k-node scale a raw row is ~200 KB. Rows are therefore stored as
/// [`CompactRow`] blocks (lossless, typically ~1 byte per entry for the
/// hop metric), and [`DistanceOracle::with_capacity`] bounds how many are
/// stored: rows are stored until the memo is full, a row computed after
/// that is returned without being stored, and a stored row stays until
/// the oracle drops. Filling the rows that back repeated queries first —
/// `prepare` fills the landmark rows — keeps them stored at any capacity
/// at least the landmark count. The memo only ever holds pure functions of
/// the graph, so query results are bit-identical for any capacity,
/// including unbounded.
pub struct DistanceOracle {
    graph: Arc<Graph>,
    /// Stored rows by source. Dijkstra runs outside the lock.
    rows: RwLock<HashMap<NodeId, Arc<CompactRow>>>,
    /// Maximum stored rows; `0` means unbounded.
    capacity: usize,
    /// Lifetime cache accounting (relaxed counters; see [`CacheStats`]).
    hits: AtomicU64,
    computes: AtomicU64,
    /// Domain membership of every node, when the graph is a transit-stub
    /// topology: what the structural index and a batch's transit rows are
    /// built from.
    kinds: Option<Arc<[DomainKind]>>,
    /// The structural point-query index, built on the first
    /// [`DistanceOracle::distance`]; `Some(None)` once the graph turned out
    /// not to satisfy its precondition.
    index: OnceLock<Option<StubIndex>>,
}

/// Snapshot of an oracle's cache accounting.
///
/// `hits` counts queries answered from a stored row; `computes` counts
/// row fills, by Dijkstra or through the domain decomposition (see
/// [`DistanceOracle`]). `evictions` is always 0: a stored row is never
/// evicted. The field stays so that sums built field by field keep their
/// shape. With an **unbounded** cache the totals are a pure function of
/// the query sequence. With a bounded cache, which rows fill the memo —
/// and therefore the hit and compute totals — can depend on thread
/// interleaving, so these numbers belong in diagnostics output, never in
/// deterministic trace files.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub computes: u64,
    pub evictions: u64,
}

impl CacheStats {
    /// Component-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            computes: self.computes - earlier.computes,
            evictions: self.evictions - earlier.evictions,
        }
    }
}

impl DistanceOracle {
    /// Creates an oracle over `graph` with an empty, **unbounded** cache.
    pub fn new(graph: Arc<Graph>) -> Self {
        Self::with_capacity(graph, 0)
    }

    /// Creates an oracle that stores at most `capacity` rows (`0` =
    /// unbounded); rows computed once the memo is full are not stored.
    pub fn with_capacity(graph: Arc<Graph>, capacity: usize) -> Self {
        Self::with_kinds(graph, capacity, None)
    }

    /// Creates an oracle over `graph`, one of `topo`'s two graphs (the hop
    /// graph `topo.graph` or `topo.latency_graph`), that knows `topo`'s
    /// domain structure: point queries go through the structural index and
    /// batches of rows from transit sources through the decomposition (see
    /// the type docs). It stores at most `capacity` rows (`0` = unbounded).
    pub fn for_topology(topo: &TransitStubTopology, graph: &Arc<Graph>, capacity: usize) -> Self {
        Self::with_kinds(Arc::clone(graph), capacity, Some(Arc::clone(&topo.kinds)))
    }

    fn with_kinds(graph: Arc<Graph>, capacity: usize, kinds: Option<Arc<[DomainKind]>>) -> Self {
        DistanceOracle {
            graph,
            rows: RwLock::default(),
            capacity,
            hits: AtomicU64::new(0),
            computes: AtomicU64::new(0),
            kinds,
            index: OnceLock::new(),
        }
    }

    /// The structural index, built on first use; `None` when this oracle
    /// has no domain metadata or the graph fails the index's precondition.
    fn index(&self) -> Option<&StubIndex> {
        let kinds = self.kinds.as_deref()?;
        self.index
            .get_or_init(|| {
                let _prof = proxbal_profile::phase("oracle/index_build");
                StubIndex::build(&self.graph, kinds)
            })
            .as_ref()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The stored rows. A panic never leaves the map half-written (every
    /// write is one insert), so a poisoned lock is read as is.
    fn stored(&self) -> RwLockReadGuard<'_, HashMap<NodeId, Arc<CompactRow>>> {
        self.rows.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of stored rows.
    #[cfg(test)]
    pub(crate) fn stored_rows(&self) -> usize {
        self.stored().len()
    }

    /// The stored row from `src`, if one exists.
    fn cached(&self, src: NodeId) -> Option<Arc<CompactRow>> {
        let row = self.stored().get(&src).cloned();
        if row.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        row
    }

    /// Shortest-path distance row from `src`, computed and stored if
    /// needed (stored only while the memo has room). Rows are stored
    /// block-compressed; point lookups go through [`CompactRow::get`].
    pub fn row(&self, src: NodeId) -> Arc<CompactRow> {
        self.fill(src, None, &mut Vec::new())
    }

    /// [`DistanceOracle::row`], computed through `transit` when it is
    /// given and `src` is a transit node, with `values` as the buffer the
    /// row is written into before it is compressed.
    fn fill(
        &self,
        src: NodeId,
        transit: Option<&TransitRows>,
        values: &mut Vec<u32>,
    ) -> Arc<CompactRow> {
        if let Some(row) = self.cached(src) {
            return row;
        }
        let computed = SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let row = match transit {
                Some(transit) if transit.row(src, &mut scratch, values) => &values[..],
                _ => self.graph.dijkstra_into(src, &mut scratch),
            };
            Arc::new(CompactRow::compress(row))
        });
        self.computes.fetch_add(1, Ordering::Relaxed);
        let mut rows = self.rows.write().unwrap_or_else(PoisonError::into_inner);
        if self.capacity == 0 || rows.len() < self.capacity {
            // Another thread may have raced us; keep whichever is present.
            return Arc::clone(rows.entry(src).or_insert(computed));
        }
        computed
    }

    /// Shortest-path distance between `u` and `v` in latency units.
    ///
    /// With a structural index ([`DistanceOracle::for_topology`]) this is a
    /// handful of table lookups. Otherwise the graph is undirected, so
    /// `d(u, v) = d(v, u)`: if either endpoint's row is stored the answer
    /// is a lookup, and only when neither is does this compute (and store)
    /// the row from `u`.
    pub fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        if u == v {
            return 0;
        }
        if let Some(index) = self.index() {
            return index.distance(u, v);
        }
        if let Some(row) = self.cached(u) {
            return row.get(v as usize);
        }
        if let Some(row) = self.cached(v) {
            return row.get(u as usize);
        }
        self.row(u).get(v as usize)
    }

    /// Landmark vector of `node`: distances to each of `landmarks`, in order.
    pub fn landmark_vector(&self, node: NodeId, landmarks: &[NodeId]) -> Vec<u32> {
        // Dijkstra from each landmark (few sources) rather than from every
        // node (many sources): the memo makes repeated calls cheap.
        landmarks
            .iter()
            .map(|&l| self.row(l).get(node as usize))
            .collect()
    }

    /// Precomputes rows for `sources` in parallel using scoped threads.
    /// Rows from transit sources go through the domain decomposition, built
    /// once for the batch (see the type docs); each worker fills rows
    /// through its own thread-local scratch and one row buffer, so the
    /// batch allocates little beyond the decomposition and the rows.
    /// Already-stored sources are skipped without spawning work for them.
    ///
    /// Work is claimed through a shared atomic cursor rather than a static
    /// split: Dijkstra cost varies per source (stub vs transit, weight
    /// regime), so pre-chunked partitions leave tail threads idle while one
    /// worker drains an expensive chunk.
    pub fn precompute(&self, sources: &[NodeId], threads: usize) {
        let missing: Vec<NodeId> = {
            let rows = self.stored();
            sources
                .iter()
                .copied()
                .filter(|src| !rows.contains_key(src))
                .collect()
        };
        if missing.is_empty() {
            return;
        }
        let transit = self.transit_rows(&missing);
        let transit = transit.as_ref();
        let threads = threads.max(1).min(missing.len());
        if threads == 1 {
            // Inline on the caller's thread: no spawn overhead, and the
            // caller's thread-local scratch and one row buffer serve every
            // row of the batch.
            let mut values = Vec::new();
            for &src in &missing {
                let _ = self.fill(src, transit, &mut values);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let mut values = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&src) = missing.get(i) else {
                            break;
                        };
                        let _ = self.fill(src, transit, &mut values);
                    }
                });
            }
        });
    }

    /// The decomposition a batch of `sources` fills its transit sources'
    /// rows through: `None` when no source is a transit node, this oracle
    /// has no domain metadata, or the graph fails the precondition. It is
    /// built per batch and dropped after, so no oracle holds it; a lone
    /// [`DistanceOracle::row`] keeps Dijkstra, which costs less than
    /// building it.
    fn transit_rows(&self, sources: &[NodeId]) -> Option<TransitRows> {
        let kinds = self.kinds.as_deref()?;
        let transit =
            |&s: &NodeId| matches!(kinds.get(s as usize), Some(DomainKind::Transit { .. }));
        if !sources.iter().any(transit) {
            return None;
        }
        TransitRows::build(&self.graph, kinds)
    }

    /// Measured bytes of all stored rows, plus the structural index once it
    /// is built. This is what "sized by measured residency" means for
    /// capacity planning: a row budget is picked against this number, not
    /// against a `rows × 4 bytes × n` estimate that compression makes
    /// obsolete.
    pub fn resident_bytes(&self) -> usize {
        let rows: usize = self.stored().values().map(|row| row.size_bytes()).sum();
        let index = self.index.get().and_then(Option::as_ref);
        rows + index.map_or(0, StubIndex::size_bytes)
    }

    /// Snapshot of the lifetime cache accounting. See [`CacheStats`] for
    /// the determinism caveat on bounded caches.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            computes: self.computes.load(Ordering::Relaxed),
            evictions: 0,
        }
    }
}
