//! The domain structure of a transit-stub graph, read in one pass.
//!
//! A stub domain touches the rest of the graph only through its uplinks
//! (stub–transit edges). [`Decomposition`] cuts the nodes into *slots* —
//! one per transit node (slot = transit index, in node order), then one per
//! stub domain (slot = transit count + domain id) — and, one slot at a
//! time, lists each slot's uplinks and the edges of the **skeleton**: the
//! transit–transit edges plus one virtual edge `t_a – t_b` of weight
//! `w_a + d_in(g_a, g_b) + w_b` for every pair of uplinks of one stub that
//! reach different transit nodes, where `d_in` is the distance along paths
//! inside the stub. A multi-homed stub is a through-route between its
//! transit nodes, and the virtual edges carry it: distances between
//! transit nodes on the skeleton are their distances in the full graph.
//!
//! Two structures are built on it, and differ only in how they fill
//! `d_in`: the point-query index ([`crate::stub_index`]) fills every
//! stub's all-pairs table by breadth-first search, and [`TransitRows`]
//! fills one row per gateway by Dijkstra inside the stub.
//!
//! [`TransitRows`] answers the whole distance row from a transit source
//! `s`. A shortest path to a node `v` of stub `S` enters `S` for the last
//! time through one of its uplinks `b` and stays inside after, so
//!
//! ```text
//! row[t] = D(s, t)                                            t transit
//! row[v] = min over uplinks b of S:  D(s, t_b) + w_b + d_in(g_b, v)
//! ```
//!
//! with `D` the skeleton distance: one Dijkstra over the transit core per
//! row, then a pass over the nodes, instead of a Dijkstra over the whole
//! graph.
//!
//! The precondition is that no edge joins two different stub domains and
//! that every stub domain id is below the node count (the per-domain index
//! is dense). Intra-stub and uplink weights may be anything positive.

use crate::graph::{DijkstraScratch, Graph, NodeId, INFINITE_DISTANCE};
use crate::transit_stub::DomainKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// One stub–transit edge, seen from the stub. A transit node's slot has a
/// single zero-weight uplink to itself (gateway 0), so that every slot
/// reaches the core through its uplinks.
pub(crate) struct Uplink {
    /// The stub-side endpoint, as an index within its slot.
    pub(crate) gateway: u32,
    /// The transit-side endpoint, as a transit index.
    pub(crate) transit: u32,
    pub(crate) weight: u32,
}

/// The slots, members, uplinks and skeleton edges of a transit-stub graph
/// (see the module docs).
pub(crate) struct Decomposition {
    /// Per node: its slot and its index within that slot.
    pub(crate) place: Vec<(u32, u32)>,
    /// Every slot's members in node order: slot `s` holds
    /// `members[starts[s]..starts[s + 1]]`. The transit nodes come first,
    /// one per slot.
    members: Vec<NodeId>,
    starts: Vec<u32>,
    pub(crate) uplinks: Vec<Uplink>,
    /// Per scanned slot: its run of `uplinks`.
    pub(crate) uplink_runs: Vec<Range<usize>>,
    /// The skeleton's edges found so far, by transit index.
    edges: Vec<(u32, u32, u32)>,
    pub(crate) transit_count: usize,
}

impl Decomposition {
    /// The slots of `graph`'s nodes under `kinds`, no arc read yet. `None`
    /// when `kinds` does not cover the graph or a stub domain id is not
    /// below the node count.
    pub(crate) fn new(graph: &Graph, kinds: &[DomainKind]) -> Option<Self> {
        let n = graph.node_count();
        if kinds.len() != n {
            return None;
        }
        let transit_count = kinds
            .iter()
            .filter(|k| matches!(k, DomainKind::Transit { .. }))
            .count();
        let mut sizes = vec![0u32; transit_count];
        let mut place = Vec::with_capacity(n);
        let mut transit_seen = 0;
        for kind in kinds {
            let slot = match *kind {
                DomainKind::Transit { .. } => {
                    transit_seen += 1;
                    transit_seen - 1
                }
                DomainKind::Stub { domain } if (domain as usize) < n => {
                    transit_count + domain as usize
                }
                DomainKind::Stub { .. } => return None,
            };
            if slot >= sizes.len() {
                sizes.resize(slot + 1, 0);
            }
            place.push((slot as u32, sizes[slot]));
            sizes[slot] += 1;
        }
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        starts.push(0);
        for size in sizes {
            starts.push(starts[starts.len() - 1] + size);
        }
        let mut members = vec![0; n];
        for (node, &(slot, i)) in place.iter().enumerate() {
            members[(starts[slot as usize] + i) as usize] = node as NodeId;
        }
        Some(Decomposition {
            place,
            members,
            starts,
            uplinks: Vec::new(),
            uplink_runs: Vec::new(),
            edges: Vec::new(),
            transit_count,
        })
    }

    /// Number of slots.
    pub(crate) fn slots(&self) -> usize {
        self.starts.len() - 1
    }

    /// The members of `slot`, in node order.
    pub(crate) fn members(&self, slot: usize) -> &[NodeId] {
        &self.members[self.starts[slot] as usize..self.starts[slot + 1] as usize]
    }

    /// Reads the arcs of `slot`'s members — every slot once, in order:
    /// records the slot's uplinks, a transit node's edges to later transit
    /// nodes as skeleton edges, and hands each arc inside a stub to
    /// `intra(i, j, weight)` by member index (both halves of an edge come
    /// by). Returns false when an arc joins two different stub domains or
    /// `intra` rejects one.
    pub(crate) fn scan(
        &mut self,
        graph: &Graph,
        slot: usize,
        mut intra: impl FnMut(u32, u32, u32) -> bool,
    ) -> bool {
        debug_assert_eq!(slot, self.uplink_runs.len(), "slots are scanned in order");
        let transit_count = self.transit_count;
        let is_transit = slot < transit_count;
        let first = self.uplinks.len();
        if is_transit {
            self.uplinks.push(Uplink {
                gateway: 0,
                transit: slot as u32,
                weight: 0,
            });
        }
        let run = self.starts[slot] as usize..self.starts[slot + 1] as usize;
        for &u in &self.members[run] {
            let lu = self.place[u as usize].1;
            for (v, w) in graph.neighbors(u) {
                let (sv, lv) = self.place[v as usize];
                match (is_transit, (sv as usize) < transit_count) {
                    (true, true) if u < v => self.edges.push((slot as u32, sv, w)),
                    (false, true) => self.uplinks.push(Uplink {
                        gateway: lu,
                        transit: sv,
                        weight: w,
                    }),
                    (false, false) if sv as usize != slot || !intra(lu, lv, w) => return false,
                    _ => {} // the other half of an edge handled elsewhere
                }
            }
        }
        self.uplink_runs.push(first..self.uplinks.len());
        true
    }

    /// Adds the virtual skeleton edges the scanned stub `slot` carries as a
    /// through-route. `inside(a, i, j)` is the distance inside the stub
    /// from member `i`, the gateway of `uplinks[a]`, to member `j`; `None`
    /// when no path stays inside. Returns false when an edge would weigh
    /// more than a graph's 16 bits hold.
    pub(crate) fn through(
        &mut self,
        slot: usize,
        inside: impl Fn(usize, u32, u32) -> Option<u32>,
    ) -> bool {
        let run = self.uplink_runs[slot].clone();
        for a in run.clone() {
            for b in a + 1..run.end {
                let (ua, ub) = (&self.uplinks[a], &self.uplinks[b]);
                if ua.transit == ub.transit {
                    continue;
                }
                let Some(d) = inside(a, ua.gateway, ub.gateway) else {
                    continue;
                };
                let w = u64::from(ua.weight) + u64::from(d) + u64::from(ub.weight);
                if w > u64::from(u16::MAX) {
                    return false;
                }
                let (lo, hi) = (ua.transit.min(ub.transit), ua.transit.max(ub.transit));
                self.edges.push((lo, hi, w as u32));
            }
        }
        true
    }

    /// The skeleton graph over the transit indices, once every slot is
    /// scanned and through-routed.
    pub(crate) fn skeleton(&mut self) -> Graph {
        let mut edges = std::mem::take(&mut self.edges);
        // `Graph::from_edges` keeps the first of two parallel edges, so the
        // cheapest of each bundle has to come first.
        edges.sort_unstable();
        Graph::from_edges(self.transit_count, &edges, &[])
    }
}

/// Whole distance rows from transit sources (see the module docs): the
/// decomposition, one row per gateway inside its stub, and the skeleton.
pub(crate) struct TransitRows {
    dec: Decomposition,
    /// Per uplink: the offset in `inside` of its gateway's row.
    rows_at: Vec<u32>,
    /// Gateway rows: a stub gateway's distance to each member of its stub
    /// along paths inside it, [`INFINITE_DISTANCE`] where there is none.
    inside: Vec<u32>,
    skeleton: Graph,
}

impl TransitRows {
    /// Builds the rows' structure for `graph` with the domain membership
    /// `kinds`; `None` when the graph fails the precondition (see the
    /// module docs).
    pub(crate) fn build(graph: &Graph, kinds: &[DomainKind]) -> Option<Self> {
        let mut dec = Decomposition::new(graph, kinds)?;
        let mut rows_at: Vec<u32> = Vec::new();
        let mut inside: Vec<u32> = Vec::new();
        let mut heap = BinaryHeap::new();
        for slot in 0..dec.slots() {
            if !dec.scan(graph, slot, |_, _, _| true) {
                return None;
            }
            let run = dec.uplink_runs[slot].clone();
            if slot < dec.transit_count {
                rows_at.push(0); // a transit node is its own gateway
                continue;
            }
            let members = dec.members(slot);
            for a in run.clone() {
                let gateway = dec.uplinks[a].gateway;
                // Uplinks on one gateway share its row.
                let at = match (run.start..a).find(|&b| dec.uplinks[b].gateway == gateway) {
                    Some(b) => rows_at[b],
                    None => {
                        let at = inside.len();
                        inside.resize(at + members.len(), INFINITE_DISTANCE);
                        let row = &mut inside[at..];
                        dijkstra_inside(graph, &dec.place, slot, members, gateway, row, &mut heap);
                        u32::try_from(at).ok()?
                    }
                };
                rows_at.push(at);
            }
            let through = |a: usize, _, j: u32| {
                let d = inside[rows_at[a] as usize + j as usize];
                (d != INFINITE_DISTANCE).then_some(d)
            };
            if !dec.through(slot, through) {
                return None;
            }
        }
        let skeleton = dec.skeleton();
        Some(TransitRows {
            dec,
            rows_at,
            inside,
            skeleton,
        })
    }

    /// Writes the distance row from `src` into `row` and returns true, or
    /// returns false, `row` untouched, when `src` is not a transit node.
    /// The skeleton's Dijkstra runs in `scratch`.
    pub(crate) fn row(
        &self,
        src: NodeId,
        scratch: &mut DijkstraScratch,
        row: &mut Vec<u32>,
    ) -> bool {
        let dec = &self.dec;
        let transit = &dec.members[..dec.transit_count];
        let Ok(s) = transit.binary_search(&src) else {
            return false;
        };
        let core = self.skeleton.dijkstra_into(s as NodeId, scratch);
        row.clear();
        row.resize(dec.members.len(), INFINITE_DISTANCE);
        for (&t, &d) in transit.iter().zip(core) {
            row[t as usize] = d;
        }
        for slot in dec.transit_count..dec.slots() {
            let run = dec.uplink_runs[slot].clone();
            for (up, &at) in dec.uplinks[run.clone()].iter().zip(&self.rows_at[run]) {
                let reach = core[up.transit as usize];
                if reach == INFINITE_DISTANCE {
                    continue;
                }
                let reach = reach + up.weight;
                let inside = &self.inside[at as usize..];
                for (&v, &d) in dec.members(slot).iter().zip(inside) {
                    if d != INFINITE_DISTANCE {
                        let best = &mut row[v as usize];
                        *best = (*best).min(reach + d);
                    }
                }
            }
        }
        true
    }
}

/// Dijkstra from member `src` of stub `slot` along paths that stay inside
/// it: writes each member's distance into `out`, which arrives filled with
/// [`INFINITE_DISTANCE`] and keeps it where no such path is.
fn dijkstra_inside(
    graph: &Graph,
    place: &[(u32, u32)],
    slot: usize,
    members: &[NodeId],
    src: u32,
    out: &mut [u32],
    heap: &mut BinaryHeap<Reverse<(u32, u32)>>,
) {
    out[src as usize] = 0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, i))) = heap.pop() {
        if d > out[i as usize] {
            continue;
        }
        for (v, w) in graph.neighbors(members[i as usize]) {
            let (sv, j) = place[v as usize];
            let nd = d + w;
            if sv as usize == slot && nd < out[j as usize] {
                out[j as usize] = nd;
                heap.push(Reverse((nd, j)));
            }
        }
    }
}
