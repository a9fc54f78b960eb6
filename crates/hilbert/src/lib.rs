//! m-dimensional Hilbert space-filling curve and the landmark-vector →
//! DHT-key mapping of §4.2.1 of the paper.
//!
//! The paper maps each node's *landmark vector* (distances to 15 landmark
//! nodes) to a 1-dimensional **Hilbert number** used as a DHT key, so that
//! physically close nodes publish their load-balancing records at nearby
//! points of the identifier space. "Space filling curves such as the Hilbert
//! curve are a class of 'proximity preserving' mappings from an
//! m-dimensional space to a 1-dimensional space."
//!
//! * [`LandmarkMapper`] — quantizes raw landmark vectors into the `2^{m·b}`
//!   grid and produces a 32-bit ring [`Id`](proxbal_id::Id) through the
//!   crate's Hilbert curve, for any dimension `m ≥ 1` and order `b ≥ 1`
//!   with `m·b ≤ 128` (Skilling's transpose algorithm), or through a Morton
//!   curve, the ablation baseline.

mod curve;
mod mapper;
mod morton;

pub(crate) use curve::HilbertCurve;
pub use mapper::{CurveKind, LandmarkMapper};
pub(crate) use morton::MortonCurve;

#[cfg(test)]
mod tests;
