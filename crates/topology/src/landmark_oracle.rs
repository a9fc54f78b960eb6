//! Hierarchical (landmark-approximate) distance oracle.
//!
//! The exact [`DistanceOracle`](crate::DistanceOracle) answers point
//! queries from full Dijkstra rows — exact, but one row per distinct
//! source is the scale ceiling at millions of virtual servers. The
//! [`LandmarkOracle`] trades exactness for O(m) queries over *m*
//! precomputed landmark vectors: by the triangle inequality, for any
//! landmark ℓ,
//!
//! ```text
//!   |d(a, ℓ) − d(b, ℓ)|  ≤  d(a, b)  ≤  d(a, ℓ) + d(ℓ, b)
//! ```
//!
//! so the maximum of the left-hand sides over all landmarks is a lower
//! bound and the minimum of the right-hand sides an upper bound. When the
//! two meet the distance is known exactly without any per-pair Dijkstra;
//! when they don't, the caller decides whether the gap matters (the
//! transfer path refines the highest-traffic sources exactly and keeps the
//! upper bound for the tail — see `proxbal_core`'s filter-then-refine).

use crate::graph::{NodeId, INFINITE_DISTANCE};
use crate::oracle::DistanceOracle;

/// Precomputed landmark vectors for every node of a graph, answering
/// approximate distance queries in O(landmarks) time and `4·m` bytes per
/// node of storage.
///
/// Built once per scenario from `m` exact Dijkstra rows (one per
/// landmark); queries never touch the graph again. The oracle is a pure
/// function of `(graph, landmarks)`, so results are bit-identical at any
/// thread count.
#[derive(Clone, Debug)]
pub struct LandmarkOracle {
    landmarks: Vec<NodeId>,
    /// Node-major distance matrix: `vectors[node · m + j] = d(node, landmarks[j])`.
    vectors: Vec<u32>,
    nodes: usize,
}

impl LandmarkOracle {
    /// Builds the oracle by filling (or reusing) the exact oracle's rows
    /// for `landmarks` — `threads` workers — and transposing them into
    /// node-major vectors.
    pub fn build(oracle: &DistanceOracle, landmarks: &[NodeId], threads: usize) -> Self {
        assert!(!landmarks.is_empty(), "need at least one landmark");
        oracle.precompute(landmarks, threads);
        let nodes = oracle.graph().node_count();
        let m = landmarks.len();
        let mut vectors = vec![0u32; nodes * m];
        for (j, &l) in landmarks.iter().enumerate() {
            let row = oracle.row(l);
            for node in 0..nodes {
                vectors[node * m + j] = row.get(node);
            }
        }
        LandmarkOracle {
            landmarks: landmarks.to_vec(),
            vectors,
            nodes,
        }
    }

    /// Number of nodes covered.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The landmark vector of `node`.
    #[inline]
    pub fn vector(&self, node: NodeId) -> &[u32] {
        let m = self.landmarks.len();
        let at = node as usize * m;
        &self.vectors[at..at + m]
    }

    /// Triangle-inequality `(lower, upper)` bounds on `d(a, b)`.
    ///
    /// Landmarks that cannot reach one of the endpoints contribute no
    /// upper bound; if no landmark reaches both, the upper bound is
    /// [`INFINITE_DISTANCE`] (and so is the lower if either endpoint is
    /// globally unreachable — matching what exact Dijkstra reports).
    pub fn bounds(&self, a: NodeId, b: NodeId) -> (u32, u32) {
        if a == b {
            return (0, 0);
        }
        let va = self.vector(a);
        let vb = self.vector(b);
        let mut lower = 0u32;
        let mut upper = INFINITE_DISTANCE;
        for (&da, &db) in va.iter().zip(vb) {
            match (da == INFINITE_DISTANCE, db == INFINITE_DISTANCE) {
                (false, false) => {
                    lower = lower.max(da.abs_diff(db));
                    upper = upper.min(da + db);
                }
                // One endpoint reachable from ℓ, the other not: they lie
                // in different components, so the true distance is ∞.
                (false, true) | (true, false) => return (INFINITE_DISTANCE, INFINITE_DISTANCE),
                (true, true) => {}
            }
        }
        (lower, upper)
    }

    /// The upper-bound estimate `min_ℓ d(a, ℓ) + d(ℓ, b)` — the value the
    /// approximate oracle reports where no exact refinement happened.
    #[inline]
    pub fn estimate(&self, a: NodeId, b: NodeId) -> u32 {
        self.bounds(a, b).1
    }

    /// Bytes of vector storage (the whole oracle is resident by design).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.vectors.capacity() * 4 + self.landmarks.capacity() * 4
    }
}
