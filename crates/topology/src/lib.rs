//! Synthetic Internet topologies and distance oracles.
//!
//! The paper evaluates on two GT-ITM transit-stub topologies of ~5,000 nodes
//! ("ts5k-large" and "ts5k-small") where **interdomain hops cost 3 latency
//! units and intradomain hops cost 1**. GT-ITM itself is not available
//! offline, so this crate implements a from-scratch transit-stub generator
//! with the same shape parameters (see `DESIGN.md` §2) — the paper's results
//! depend only on the transit-stub *structure* and the 3:1 cost ratio.
//!
//! * [`Graph`] — undirected weighted graph as one flat, immutable adjacency
//!   with weight columns beside it, built once by [`Graph::from_edges`]
//!   (self-loops dropped, the first of parallel edges kept), with Dijkstra
//!   shortest paths. Arcs inside a *block* of at most 256 consecutive nodes
//!   (a transit or stub domain) are stored as one-byte offsets with
//!   one-byte weights, every other arc as a `u32` target with a `u16`
//!   weight. [`TransitStubTopology`] holds its hop and latency graphs
//!   behind `Arc`s that the distance oracles share instead of copying; the
//!   two graphs share one adjacency and differ only in their weight
//!   columns (the hop graph stores no intradomain weights: all are 1).
//! * [`TransitStubConfig`] / [`TransitStubTopology`] — the generator. The two
//!   paper presets are [`TransitStubConfig::ts5k_large`] and
//!   [`TransitStubConfig::ts5k_small`].
//! * [`select_landmarks`] — spread landmark nodes across transit domains
//!   (the paper uses 15 landmarks).
//! * [`DistanceOracle`] — caching multi-source shortest-path oracle used to
//!   derive landmark vectors and per-transfer hop costs. Rows are stored
//!   block-compressed ([`CompactRow`], about a quarter of the raw bytes for
//!   the latency landmark rows) in one map, filled once and never evicted.
//!   Over a transit-stub topology ([`DistanceOracle::for_topology`], either
//!   metric) point queries skip rows entirely: an exact structural index
//!   answers them in O(1). Batches of rows from transit sources (the
//!   landmarks) go through the domain decomposition: one Dijkstra per stub
//!   gateway inside its stub, then one over the transit skeleton per row.
//! * [`LandmarkOracle`] — the hierarchical approximate tier: O(m) triangle-
//!   inequality distance bounds from precomputed landmark vectors.

mod decomposition;
mod graph;
mod landmark_oracle;
mod landmarks;
mod oracle;
mod stub_index;
mod transit_stub;

pub use graph::{DijkstraScratch, Graph, NodeId, INFINITE_DISTANCE};
pub use landmark_oracle::LandmarkOracle;
pub use landmarks::select_landmarks;
pub use oracle::{CacheStats, CompactRow, DistanceOracle};
pub use transit_stub::{DomainKind, TransitStubConfig, TransitStubTopology};

#[cfg(test)]
mod stub_index_tests;
#[cfg(test)]
mod tests;
