use crate::graph::{DijkstraScratch, Graph, NodeId};
use crate::stub_index::StubIndex;
use crate::transit_stub::{DomainKind, TransitStubTopology};
use parking_lot::{Mutex, RwLock};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

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

/// Row metadata bit: the row was touched since its last second chance.
const REF_BIT: u8 = 1;
/// Row metadata bit: the row is pinned and must never be evicted.
const PIN_BIT: u8 = 2;

/// Caching shortest-path oracle.
///
/// Landmark vectors need distances *from* 15 landmarks; transfer-cost
/// accounting (Figures 7 and 8) needs distances between arbitrary pairs of
/// overlay attach points. Rather than a full 5,000×5,000 all-pairs matrix,
/// the oracle runs Dijkstra per distinct source on demand and memoizes the
/// row. Rows can also be bulk-precomputed in parallel with
/// [`DistanceOracle::precompute`]. Point queries exploit symmetry: the
/// graph is undirected, so [`DistanceOracle::distance`] answers from
/// whichever endpoint's row is already cached before computing a new one.
///
/// # Point queries on transit-stub graphs
///
/// An oracle made with [`DistanceOracle::for_topology`] knows the domain
/// structure of its graph and answers [`DistanceOracle::distance`] from a
/// structural index (per-stub tables plus one transit-core table) in O(1)
/// without filling any row. The index is built on the first point query —
/// breadth-first search on bit rows per stub, Dijkstra over the transit
/// core — and is exact. It is skipped, and rows answer as before, when the
/// graph has an edge between two different stub domains, an intra-stub
/// edge whose weight is not 1, or an intra-stub distance above 254;
/// uplink and transit-core weights may be anything. Whole rows ([`row`],
/// landmark vectors) never go through it.
///
/// [`row`]: DistanceOracle::row
///
/// # Bounded memory
///
/// At 50k-node scale a raw row is ~200 KB, so an unbounded cache can grow
/// to gigabytes. Rows are therefore stored as [`CompactRow`] blocks
/// (lossless, typically ~1 byte per entry for the hop metric) and
/// [`DistanceOracle::with_capacity`] bounds the number of resident
/// *unpinned* rows: once the bound is reached, inserting a new
/// row evicts an old one by second-chance (clock) replacement. Rows that
/// back repeated queries — the landmark rows — can be
/// [pinned](DistanceOracle::pin) so they never leave the cache and never
/// count against the bound. Eviction only ever discards memoized pure
/// functions of the graph, so query results are bit-identical for any
/// capacity, including unbounded.
pub struct DistanceOracle {
    graph: Arc<Graph>,
    /// One row slot per node, allocated on the first [`DistanceOracle::row`]
    /// or [`DistanceOracle::pin`]: an oracle that only answers point queries
    /// from its index never holds them.
    slots: OnceLock<RowSlots>,
    /// Maximum resident unpinned rows; `0` means unbounded.
    capacity: usize,
    /// Number of resident unpinned rows.
    resident: AtomicUsize,
    /// Measured bytes of all resident rows (pinned included).
    resident_bytes: AtomicUsize,
    /// Second-chance queue of resident unpinned row ids, oldest first.
    clock: Mutex<VecDeque<NodeId>>,
    /// Lifetime cache accounting (relaxed counters; see [`CacheStats`]).
    hits: AtomicU64,
    computes: AtomicU64,
    evictions: AtomicU64,
    /// Domain membership of every node, when the graph is a transit-stub
    /// topology: what the structural index is built from.
    kinds: Option<Arc<[DomainKind]>>,
    /// The structural point-query index, built on the first
    /// [`DistanceOracle::distance`]; `Some(None)` once the graph turned out
    /// not to satisfy its precondition.
    index: OnceLock<Option<StubIndex>>,
}

/// The row cache's per-node state, addressed by source id.
struct RowSlots {
    rows: Vec<RwLock<Option<Arc<CompactRow>>>>,
    /// Per-row `REF_BIT`/`PIN_BIT` flags.
    meta: Vec<AtomicU8>,
}

/// Snapshot of an oracle's cache accounting.
///
/// `hits` counts queries answered from a resident row; `computes` counts
/// Dijkstra row fills; `evictions` counts rows discarded by the
/// second-chance sweep. With an **unbounded** cache the totals are a pure
/// function of the query sequence. With a bounded cache, eviction order —
/// and therefore hit/eviction totals — depends on thread interleaving, so
/// these numbers belong in diagnostics output, never in deterministic trace
/// files.
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

    /// Creates an oracle whose cache holds at most `capacity` unpinned
    /// rows (`0` = unbounded). Pinned rows live outside the bound.
    pub fn with_capacity(graph: Arc<Graph>, capacity: usize) -> Self {
        Self::with_kinds(graph, capacity, None)
    }

    /// Creates an oracle over the hop-cost graph of `topo` that answers
    /// point queries from the structural index (see the type docs), with a
    /// row cache of `capacity` unpinned rows (`0` = unbounded) for whole-row
    /// consumers.
    pub fn for_topology(topo: &TransitStubTopology, capacity: usize) -> Self {
        Self::with_kinds(
            Arc::clone(&topo.graph),
            capacity,
            Some(Arc::clone(&topo.kinds)),
        )
    }

    fn with_kinds(graph: Arc<Graph>, capacity: usize, kinds: Option<Arc<[DomainKind]>>) -> Self {
        DistanceOracle {
            graph,
            slots: OnceLock::new(),
            capacity,
            resident: AtomicUsize::new(0),
            resident_bytes: AtomicUsize::new(0),
            clock: Mutex::new(VecDeque::new()),
            hits: AtomicU64::new(0),
            computes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
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

    /// The row-cache capacity (`0` = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The row slots, allocated on first use.
    fn slots(&self) -> &RowSlots {
        self.slots.get_or_init(|| {
            let n = self.graph.node_count();
            RowSlots {
                rows: (0..n).map(|_| RwLock::new(None)).collect(),
                meta: (0..n).map(|_| AtomicU8::new(0)).collect(),
            }
        })
    }

    /// The cached row from `src`, if one exists.
    fn cached(&self, src: NodeId) -> Option<Arc<CompactRow>> {
        let slots = self.slots.get()?;
        let row = slots.rows[src as usize].read().clone();
        if row.is_some() {
            // Second chance: a touched row survives one clock pass.
            slots.meta[src as usize].fetch_or(REF_BIT, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        row
    }

    /// True iff the row from `src` is currently resident.
    pub fn is_cached(&self, src: NodeId) -> bool {
        self.slots
            .get()
            .is_some_and(|slots| slots.rows[src as usize].read().is_some())
    }

    /// Shortest-path distance row from `src` (computing and caching it if
    /// needed). Rows are stored block-compressed; point lookups go through
    /// [`CompactRow::get`].
    pub fn row(&self, src: NodeId) -> Arc<CompactRow> {
        if let Some(row) = self.cached(src) {
            return row;
        }
        let computed = SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            Arc::new(CompactRow::compress(
                self.graph.dijkstra_into(src, &mut scratch),
            ))
        });
        self.computes.fetch_add(1, Ordering::Relaxed);
        let RowSlots { rows, meta } = self.slots();
        {
            let mut slot = rows[src as usize].write();
            // Another thread may have raced us; keep whichever is present.
            if let Some(existing) = slot.clone() {
                return existing;
            }
            self.resident_bytes
                .fetch_add(computed.size_bytes(), Ordering::Relaxed);
            *slot = Some(computed.clone());
            meta[src as usize].fetch_or(REF_BIT, Ordering::Relaxed);
        }
        if meta[src as usize].load(Ordering::Relaxed) & PIN_BIT == 0 {
            self.resident.fetch_add(1, Ordering::Relaxed);
            self.clock.lock().push_back(src);
            if self.capacity > 0 {
                while self.resident.load(Ordering::Relaxed) > self.capacity {
                    if !self.evict_one() {
                        break; // nothing evictable (all pinned / in flight)
                    }
                }
            }
        }
        computed
    }

    /// Evicts one unpinned resident row by second-chance replacement.
    /// Returns `false` when the queue drains without finding a victim.
    fn evict_one(&self) -> bool {
        let RowSlots { rows, meta } = self.slots();
        let mut clock = self.clock.lock();
        // Each entry is inspected at most twice per call (once to clear its
        // reference bit, once to evict), so the sweep terminates.
        let mut budget = 2 * clock.len();
        while budget > 0 {
            budget -= 1;
            let Some(src) = clock.pop_front() else {
                return false;
            };
            let meta = &meta[src as usize];
            let flags = meta.load(Ordering::Relaxed);
            if flags & PIN_BIT != 0 {
                // Pinned after insertion: leave resident, drop from the
                // clock, and stop counting it against the bound.
                self.resident.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            if flags & REF_BIT != 0 {
                meta.fetch_and(!REF_BIT, Ordering::Relaxed);
                clock.push_back(src);
                continue;
            }
            let mut slot = rows[src as usize].write();
            // Re-check under the slot lock: a concurrent `pin` sets the
            // bit before ensuring residency, so this is the last word.
            if meta.load(Ordering::Relaxed) & PIN_BIT != 0 {
                self.resident.fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            if let Some(evicted) = slot.take() {
                self.resident.fetch_sub(1, Ordering::Relaxed);
                self.resident_bytes
                    .fetch_sub(evicted.size_bytes(), Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Pins the row from `src`: it is computed if absent and will never be
    /// evicted (nor count against the capacity bound).
    pub fn pin(&self, src: NodeId) {
        // Order matters: set the bit first so a concurrent eviction that
        // already popped this row re-checks and leaves it resident. If the
        // row was already resident (and counted), the clock sweep corrects
        // the resident count when it reaches the now-stale queue entry.
        self.slots().meta[src as usize].fetch_or(PIN_BIT, Ordering::Relaxed);
        let _ = self.row(src);
    }

    /// Shortest-path distance between `u` and `v` in latency units.
    ///
    /// With a structural index ([`DistanceOracle::for_topology`]) this is a
    /// handful of table lookups. Otherwise the graph is undirected, so
    /// `d(u, v) = d(v, u)`: if either endpoint's row is cached the answer
    /// is a lookup, and only when neither is does this compute (and cache)
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
        // node (many sources): the cache makes repeated calls cheap.
        landmarks
            .iter()
            .map(|&l| self.row(l).get(node as usize))
            .collect()
    }

    /// Precomputes rows for `sources` in parallel using scoped threads.
    /// Each worker thread fills rows through its own thread-local scratch,
    /// so the batch allocates nothing beyond the rows themselves.
    /// Already-cached sources are skipped without spawning work for them.
    ///
    /// Work is claimed through a shared atomic cursor rather than a static
    /// split: Dijkstra cost varies per source (stub vs transit, weight
    /// regime), so pre-chunked partitions leave tail threads idle while one
    /// worker drains an expensive chunk.
    pub fn precompute(&self, sources: &[NodeId], threads: usize) {
        let missing: Vec<NodeId> = sources
            .iter()
            .copied()
            .filter(|&src| !self.is_cached(src))
            .collect();
        if missing.is_empty() {
            return;
        }
        let threads = threads.max(1).min(missing.len());
        if threads == 1 {
            // Inline on the caller's thread: no spawn overhead, and the
            // caller's thread-local scratch keeps the batch allocation-free.
            for &src in &missing {
                let _ = self.row(src);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&src) = missing.get(i) else {
                        break;
                    };
                    let _ = self.row(src);
                });
            }
        });
    }

    /// Number of cached rows (for tests / diagnostics).
    pub fn cached_rows(&self) -> usize {
        self.slots.get().map_or(0, |slots| {
            slots.rows.iter().filter(|r| r.read().is_some()).count()
        })
    }

    /// Measured bytes of all resident rows, pinned included, plus the
    /// structural index once it is built. This is what "sized by measured
    /// residency" means for capacity planning: the `xl2` preset picks its
    /// row budget against this number, not against a `rows × 4 bytes × n`
    /// estimate that compression makes obsolete.
    pub fn resident_bytes(&self) -> usize {
        let index = self.index.get().and_then(Option::as_ref);
        self.resident_bytes.load(Ordering::Relaxed) + index.map_or(0, StubIndex::size_bytes)
    }

    /// Snapshot of the lifetime cache accounting. See [`CacheStats`] for
    /// the determinism caveat on bounded caches.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            computes: self.computes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}
