//! Exact O(1) point distances on transit-stub graphs.
//!
//! A stub domain touches the rest of the graph only through its uplinks
//! (stub–transit edges), so a shortest path between nodes of different
//! domains leaves the first domain once, crosses the transit core, and
//! enters the second domain once:
//!
//! ```text
//! d(u, v) = min over uplinks a of u's domain, b of v's domain:
//!           d_in(u, g_a) + w_a + core[t_a][t_b] + w_b + d_in(g_b, v)
//! ```
//!
//! where `d_in` is the shortest path *restricted to the domain's own
//! nodes* and `core` is the all-pairs table over transit nodes. For two
//! nodes of one domain the answer is the minimum of `d_in(u, v)` and the
//! same exit-and-re-enter expression (which wins in sparse, tree-shaped
//! stubs with two uplinks).
//!
//! `core` must be exact in the *full* graph, where a multi-homed stub is a
//! through-route between its transit nodes. It is therefore computed on the
//! **skeleton** of the graph's [`Decomposition`]: the transit–transit
//! edges plus one virtual edge per pair of a stub's uplinks to different
//! transit nodes.
//!
//! Every edge inside a stub has weight 1 (the generator's
//! `INTRA_DOMAIN_WEIGHT`), so a domain's `d_in` table is filled by
//! breadth-first search on bit rows: the domain's adjacency is
//! `⌈size/64⌉` `u64` words per member, and each BFS level is the OR of the
//! frontier members' rows minus the members already seen. Entries are one
//! byte, 255 meaning "no path inside the domain".
//!
//! `core` is filled by [`Graph::distance_table`], one level-synchronous
//! sweep over the skeleton that carries every transit node's bit at once.
//!
//! The structural precondition is therefore three clauses: no edge joins
//! two different stub domains, every intra-stub edge has weight 1, and
//! every intra-stub distance is at most 254 (beside the decomposition's
//! own: stub domain ids below the node count). [`StubIndex::build`] checks
//! them all and returns `None` otherwise. Uplinks, their weights and their
//! number — and the transit core's weights — are read off the graph, never
//! assumed.

use crate::decomposition::{Decomposition, Uplink};
use crate::graph::{Graph, NodeId, INFINITE_DISTANCE};
use crate::transit_stub::DomainKind;

/// Intra-domain table entry for "no path inside the domain"; every
/// distance the tables hold is below it.
const UNREACHABLE: u8 = u8::MAX;

/// A slot of the decomposition: a stub domain, or a transit node, which is
/// indexed as a one-node domain with a single zero-weight uplink to itself
/// so that queries need no case split on the endpoint kind.
struct Domain {
    size: u32,
    /// Offset of this domain's `size × size` table in `intra`.
    table: usize,
    /// This domain's slice of `uplinks`.
    uplinks: std::ops::Range<usize>,
}

/// The structural distance index (see the module docs).
pub(crate) struct StubIndex {
    /// Per node: its domain and its index within that domain.
    place: Vec<(u32, u32)>,
    domains: Vec<Domain>,
    uplinks: Vec<Uplink>,
    /// Every domain's all-pairs table of domain-restricted distances.
    intra: Vec<u8>,
    /// `transit_count × transit_count` distances between transit nodes.
    core: Vec<u32>,
    transit_count: usize,
}

/// Breadth-first search on one unit-weight domain, one bit per member.
/// Its buffers are reused across every domain of a build.
#[derive(Default)]
struct BitBfs {
    /// `u64` words per bit row: `⌈size/64⌉`.
    words: usize,
    /// `size` adjacency bit rows, `words` words each.
    adj: Vec<u64>,
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

impl BitBfs {
    /// Clears the adjacency for a domain of `size` members.
    fn reset(&mut self, size: usize) {
        self.words = size.div_ceil(64);
        self.adj.clear();
        self.adj.resize(size * self.words, 0);
        for buf in [&mut self.seen, &mut self.frontier, &mut self.next] {
            buf.clear();
            buf.resize(self.words, 0);
        }
    }

    /// Records the arc `i → j` (both halves of an edge are recorded).
    fn link(&mut self, i: u32, j: u32) {
        let j = j as usize;
        self.adj[i as usize * self.words + j / 64] |= 1 << (j % 64);
    }

    /// Writes the hop distance from `src` to every member into `row`, which
    /// arrives filled with [`UNREACHABLE`] and keeps it where no path is.
    /// Returns false, the row left part-written, when a member is
    /// [`UNREACHABLE`] or more hops away: the table cannot hold it.
    fn fill(&mut self, src: usize, row: &mut [u8]) -> bool {
        let BitBfs {
            words,
            adj,
            seen,
            frontier,
            next,
        } = self;
        let words = *words;
        seen.fill(0);
        frontier.fill(0);
        seen[src / 64] = 1 << (src % 64);
        frontier[src / 64] = 1 << (src % 64);
        row[src] = 0;
        let mut d = 0;
        let mut reached = 1;
        // Stopping once every member is reached skips expanding the last
        // level, which in a dense stub is most of the members.
        while reached < row.len() {
            next.fill(0);
            for (k, &word) in frontier.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let m = k * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    for (n, &a) in next.iter_mut().zip(&adj[m * words..][..words]) {
                        *n |= a;
                    }
                }
            }
            d += 1;
            let before = reached;
            for k in 0..words {
                let fresh = next[k] & !seen[k];
                seen[k] |= fresh;
                frontier[k] = fresh;
                reached += fresh.count_ones() as usize;
                let mut bits = fresh;
                while bits != 0 {
                    row[k * 64 + bits.trailing_zeros() as usize] = d;
                    bits &= bits - 1;
                }
            }
            if reached == before {
                break; // the rest of the domain is unreachable from `src`
            }
            if d == UNREACHABLE {
                return false; // members 255 hops away
            }
        }
        true
    }
}

impl StubIndex {
    /// Builds the index for `graph` with the domain membership `kinds`.
    ///
    /// Returns `None` — the caller then answers from Dijkstra rows — when
    /// `kinds` does not cover the graph, when a stub domain id is not below
    /// the node count, when an edge joins two different stub domains, when
    /// an intra-stub edge does not weigh 1, when an
    /// intra-stub distance does not fit the 8-bit tables (is above 254), or
    /// when a skeleton edge would weigh more than a graph's 16 bits hold.
    pub(crate) fn build(graph: &Graph, kinds: &[DomainKind]) -> Option<Self> {
        let (mut index, skeleton) = Self::domains(graph, kinds)?;
        index.core = skeleton.distance_table();
        Some(index)
    }

    /// Everything but the transit core: the index with `core` empty, and
    /// the skeleton graph `core` is the all-pairs table of.
    fn domains(graph: &Graph, kinds: &[DomainKind]) -> Option<(Self, Graph)> {
        let mut dec = Decomposition::new(graph, kinds)?;
        // One pass per slot: scan its arcs into the BFS adjacency, fill its
        // all-pairs table, and add the virtual skeleton edges it carries as
        // a through-route.
        let mut bfs = BitBfs::default();
        let mut domains = Vec::with_capacity(dec.slots());
        let cells = (0..dec.slots()).map(|s| dec.members(s).len().pow(2)).sum();
        let mut intra: Vec<u8> = Vec::with_capacity(cells);
        for slot in 0..dec.slots() {
            let size = dec.members(slot).len();
            bfs.reset(size);
            let unit = |i, j, w| {
                bfs.link(i, j);
                w == 1
            };
            if !dec.scan(graph, slot, unit) {
                return None;
            }
            let table = intra.len();
            intra.resize(table + size * size, UNREACHABLE);
            for (src, row) in intra[table..].chunks_mut(size.max(1)).enumerate() {
                if !bfs.fill(src, row) {
                    return None;
                }
            }
            let through = |_, i: u32, j: u32| {
                let d = intra[table + i as usize * size + j as usize];
                (d != UNREACHABLE).then_some(u32::from(d))
            };
            if !dec.through(slot, through) {
                return None;
            }
            domains.push(Domain {
                size: size as u32,
                table,
                uplinks: dec.uplink_runs[slot].clone(),
            });
        }
        let skeleton = dec.skeleton();
        let index = StubIndex {
            place: dec.place,
            domains,
            uplinks: dec.uplinks,
            intra,
            core: Vec::new(),
            transit_count: dec.transit_count,
        };
        Some((index, skeleton))
    }

    /// Distance between members `i` and `j` of `domain` along paths that
    /// stay inside it; `None` when there is no such path.
    #[inline]
    fn inside(&self, domain: &Domain, i: u32, j: u32) -> Option<u64> {
        let d = self.intra[domain.table + i as usize * domain.size as usize + j as usize];
        (d != UNREACHABLE).then_some(u64::from(d))
    }

    /// Cost of reaching the transit end of `up` from member `at` of
    /// `domain` without leaving the domain on the way.
    #[inline]
    fn leg(&self, domain: &Domain, at: u32, up: &Uplink) -> Option<u64> {
        Some(self.inside(domain, at, up.gateway)? + u64::from(up.weight))
    }

    /// Exact shortest-path distance between `u` and `v`
    /// ([`INFINITE_DISTANCE`] when disconnected).
    pub(crate) fn distance(&self, u: NodeId, v: NodeId) -> u32 {
        let (du, lu) = self.place[u as usize];
        let (dv, lv) = self.place[v as usize];
        let (from, to) = (&self.domains[du as usize], &self.domains[dv as usize]);
        let mut best = u64::from(INFINITE_DISTANCE);
        if du == dv {
            best = self.inside(from, lu, lv).unwrap_or(best);
        }
        for a in &self.uplinks[from.uplinks.clone()] {
            let Some(out) = self.leg(from, lu, a) else {
                continue;
            };
            for b in &self.uplinks[to.uplinks.clone()] {
                let across =
                    self.core[a.transit as usize * self.transit_count + b.transit as usize];
                if across == INFINITE_DISTANCE {
                    continue;
                }
                if let Some(back) = self.leg(to, lv, b) {
                    best = best.min(out + u64::from(across) + back);
                }
            }
        }
        // `best` started at INFINITE_DISTANCE and only went down.
        best as u32
    }

    /// Heap + inline bytes the index occupies.
    pub(crate) fn size_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.place.capacity() * size_of::<(u32, u32)>()
            + self.domains.capacity() * size_of::<Domain>()
            + self.uplinks.capacity() * size_of::<Uplink>()
            + self.intra.capacity() * size_of::<u8>()
            + self.core.capacity() * size_of::<u32>()
    }
}

#[cfg(test)]
impl StubIndex {
    /// Every domain's all-pairs table, in `build`'s slot order.
    pub(crate) fn intra(&self) -> &[u8] {
        &self.intra
    }

    /// The transit-to-transit table, row-major.
    pub(crate) fn core(&self) -> &[u32] {
        &self.core
    }

    /// The skeleton graph `build` computes the transit core on; `None`
    /// when `build` declines.
    pub(crate) fn skeleton(graph: &Graph, kinds: &[DomainKind]) -> Option<Graph> {
        Self::domains(graph, kinds).map(|(_, skeleton)| skeleton)
    }

    /// The reference for [`StubIndex::intra`]: one Dijkstra per member over
    /// each domain's own subgraph, any weights. `None` when an edge joins
    /// two different stub domains or a distance does not fit the table
    /// (is above 254).
    pub(crate) fn reference_intra(graph: &Graph, kinds: &[DomainKind]) -> Option<Vec<u8>> {
        use crate::graph::DijkstraScratch;
        let dec = Decomposition::new(graph, kinds)?;
        let mut scratch = DijkstraScratch::new();
        let mut intra = Vec::new();
        for slot in 0..dec.slots() {
            let nodes = dec.members(slot);
            let mut edges = Vec::new();
            let is_stub = slot >= dec.transit_count;
            for &u in nodes {
                for (v, w) in graph.neighbors(u) {
                    let (sv, lv) = dec.place[v as usize];
                    if is_stub && sv as usize >= dec.transit_count {
                        if sv as usize != slot {
                            return None;
                        }
                        if u < v {
                            edges.push((dec.place[u as usize].1, lv, w));
                        }
                    }
                }
            }
            let inside = Graph::from_edges(nodes.len(), &edges, &[]);
            for src in 0..nodes.len() as NodeId {
                for &d in inside.dijkstra_into(src, &mut scratch) {
                    intra.push(match d {
                        INFINITE_DISTANCE => UNREACHABLE,
                        d => u8::try_from(d).ok().filter(|&d| d != UNREACHABLE)?,
                    });
                }
            }
        }
        Some(intra)
    }
}
