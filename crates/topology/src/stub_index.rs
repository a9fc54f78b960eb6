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
//! **skeleton**: the transit–transit edges plus one virtual edge
//! `t_a – t_b` of weight `w_a + d_in(g_a, g_b) + w_b` for every pair of
//! uplinks of one stub that reach different transit nodes.
//!
//! Every edge inside a stub has weight 1 (the generator's
//! `INTRA_DOMAIN_WEIGHT`), so a domain's `d_in` table is filled by
//! breadth-first search on bit rows: the domain's adjacency is
//! `⌈size/64⌉` `u64` words per member, and each BFS level is the OR of the
//! frontier members' rows minus the members already seen. Entries are one
//! byte, 255 meaning "no path inside the domain".
//!
//! `core` is filled by [`Graph::distance_table`], one word-parallel Dial
//! sweep over the skeleton for every 64 transit nodes.
//!
//! The structural precondition is therefore three clauses: no edge joins
//! two different stub domains, every intra-stub edge has weight 1, and
//! every intra-stub distance is at most 254. [`StubIndex::build`] checks
//! all three and returns `None` otherwise. Uplinks, their weights and their
//! number — and the transit core's weights — are read off the graph, never
//! assumed.

use crate::graph::{Graph, NodeId, INFINITE_DISTANCE};
use crate::transit_stub::DomainKind;
use std::collections::BTreeMap;

/// Intra-domain table entry for "no path inside the domain"; every
/// distance the tables hold is below it.
const UNREACHABLE: u8 = u8::MAX;

/// One stub–transit edge, seen from the stub.
struct Uplink {
    /// The stub-side endpoint, as an index within its domain.
    gateway: u32,
    /// The transit-side endpoint, as a transit index (row of `core`).
    transit: u32,
    weight: u32,
}

/// A stub domain — or a transit node, which is indexed as a one-node
/// domain with a single zero-weight uplink to itself so that queries need
/// no case split on the endpoint kind.
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

/// Domain slots: one per transit node (slot = transit index), then the stub
/// domains in order of first appearance.
struct Membership {
    /// Per node: its slot and its index within that slot.
    place: Vec<(u32, u32)>,
    /// Per slot: its member nodes, in node order.
    members: Vec<Vec<NodeId>>,
    transit_count: usize,
}

impl Membership {
    fn of(kinds: &[DomainKind]) -> Self {
        let transit_count = kinds
            .iter()
            .filter(|k| matches!(k, DomainKind::Transit { .. }))
            .count();
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); transit_count];
        let mut stub_slot: BTreeMap<u32, usize> = BTreeMap::new();
        let mut place = Vec::with_capacity(kinds.len());
        let mut transit_seen = 0;
        for (node, kind) in kinds.iter().enumerate() {
            let slot = match *kind {
                DomainKind::Transit { .. } => {
                    transit_seen += 1;
                    transit_seen - 1
                }
                DomainKind::Stub { domain } => *stub_slot.entry(domain).or_insert_with(|| {
                    members.push(Vec::new());
                    members.len() - 1
                }),
            };
            place.push((slot as u32, members[slot].len() as u32));
            members[slot].push(node as NodeId);
        }
        Membership {
            place,
            members,
            transit_count,
        }
    }
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
    /// `kinds` does not cover the graph, when an edge joins two different
    /// stub domains, when an intra-stub edge does not weigh 1, when an
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
        if kinds.len() != graph.node_count() {
            return None;
        }
        let Membership {
            place,
            members,
            transit_count,
        } = Membership::of(kinds);

        // One pass per domain: sort its edges into skeleton, uplink and
        // intra-domain, fill its all-pairs table, and add the virtual
        // skeleton edges it carries as a through-route.
        let mut bfs = BitBfs::default();
        let mut skeleton: Vec<(u32, u32, u32)> = Vec::new();
        let mut domains = Vec::with_capacity(members.len());
        let mut uplinks = Vec::new();
        let mut intra: Vec<u8> = Vec::with_capacity(members.iter().map(|m| m.len().pow(2)).sum());
        for (slot, nodes) in members.iter().enumerate() {
            let is_transit = slot < transit_count;
            let size = nodes.len();
            bfs.reset(size);
            let first_uplink = uplinks.len();
            if is_transit {
                uplinks.push(Uplink {
                    gateway: 0,
                    transit: slot as u32,
                    weight: 0,
                });
            }
            for &u in nodes {
                let lu = place[u as usize].1;
                for (v, w) in graph.neighbors(u) {
                    let (dv, lv) = place[v as usize];
                    let v_transit = (dv as usize) < transit_count;
                    match (is_transit, v_transit) {
                        (true, true) if u < v => skeleton.push((slot as u32, dv, w)),
                        (false, true) => uplinks.push(Uplink {
                            gateway: lu,
                            transit: dv,
                            weight: w,
                        }),
                        (false, false) if dv as usize != slot || w != 1 => return None,
                        (false, false) => bfs.link(lu, lv),
                        _ => {} // the other half of an edge handled elsewhere
                    }
                }
            }

            let table = intra.len();
            intra.resize(table + size * size, UNREACHABLE);
            for (src, row) in intra[table..].chunks_exact_mut(size).enumerate() {
                if !bfs.fill(src, row) {
                    return None;
                }
            }

            let ups = &uplinks[first_uplink..];
            for (i, a) in ups.iter().enumerate() {
                for b in &ups[i + 1..] {
                    let through = intra[table + a.gateway as usize * size + b.gateway as usize];
                    if a.transit != b.transit && through != UNREACHABLE {
                        // Each term is at most `u16::MAX`: no overflow.
                        let w = a.weight + u32::from(through) + b.weight;
                        if w > u32::from(u16::MAX) {
                            return None;
                        }
                        skeleton.push((a.transit.min(b.transit), a.transit.max(b.transit), w));
                    }
                }
            }
            domains.push(Domain {
                size: size as u32,
                table,
                uplinks: first_uplink..uplinks.len(),
            });
        }

        // `Graph::from_edges` keeps the first of two parallel edges, so the
        // cheapest of each bundle has to come first.
        skeleton.sort_unstable();
        let index = StubIndex {
            place,
            domains,
            uplinks,
            intra,
            core: Vec::new(),
            transit_count,
        };
        Some((index, Graph::from_edges(transit_count, &skeleton, &[])))
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
        let Membership {
            place,
            members,
            transit_count,
        } = Membership::of(kinds);
        let mut scratch = DijkstraScratch::new();
        let mut intra = Vec::new();
        for (slot, nodes) in members.iter().enumerate() {
            let mut edges = Vec::new();
            let is_stub = slot >= transit_count;
            for &u in nodes {
                for (v, w) in graph.neighbors(u) {
                    let (dv, lv) = place[v as usize];
                    if is_stub && dv as usize >= transit_count {
                        if dv as usize != slot {
                            return None;
                        }
                        if u < v {
                            edges.push((place[u as usize].1, lv, w));
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
