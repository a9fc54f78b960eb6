//! Z-order (Morton) curve — the classic bit-interleaving space-filling
//! curve, included as an ablation baseline for the Hilbert curve.
//!
//! Morton order is cheaper to compute but has strictly worse locality:
//! consecutive indices can jump across the whole space at power-of-two
//! boundaries, whereas consecutive Hilbert indices are always grid
//! neighbours. The `ablation_curves` experiment quantifies what that costs
//! the proximity-aware balancer.

use serde::{Deserialize, Serialize};

/// An m-dimensional Morton (Z-order) curve of order `b`: coordinates'
/// bits are interleaved most-significant first. Same interface shape as
/// [`crate::HilbertCurve`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct MortonCurve {
    dims: u32,
    order: u32,
}

impl MortonCurve {
    /// Creates a curve over `dims` dimensions with `order` bits per
    /// dimension (`dims · order ≤ 128`).
    pub(crate) fn new(dims: u32, order: u32) -> Self {
        assert!(dims >= 1);
        assert!((1..=32).contains(&order));
        assert!(
            dims.checked_mul(order).is_some_and(|bits| bits <= 128),
            "total index bits dims*order must be <= 128"
        );
        MortonCurve { dims, order }
    }

    /// Number of dimensions.
    pub(crate) fn dims(&self) -> u32 {
        self.dims
    }

    /// Bits per dimension.
    pub(crate) fn order(&self) -> u32 {
        self.order
    }

    /// Total index bits.
    pub(crate) fn index_bits(&self) -> u32 {
        self.dims * self.order
    }

    /// Largest valid coordinate (`2^order − 1`).
    pub(crate) fn max_coord(&self) -> u32 {
        if self.order == 32 {
            u32::MAX
        } else {
            (1u32 << self.order) - 1
        }
    }

    /// Interleaves coordinate bits into a Morton index.
    pub(crate) fn encode(&self, point: &[u32]) -> u128 {
        assert_eq!(point.len(), self.dims as usize, "dimension mismatch");
        let max = self.max_coord();
        assert!(point.iter().all(|&c| c <= max), "coordinate out of range");
        let mut out = 0u128;
        for j in (0..self.order).rev() {
            for &c in point {
                out = (out << 1) | u128::from((c >> j) & 1);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{steps, walk};
    use crate::HilbertCurve;

    fn morton_walk(dims: u32, order: u32) -> Vec<Vec<u32>> {
        let c = MortonCurve::new(dims, order);
        walk(dims, order, |p| c.encode(p))
    }

    #[test]
    fn morton_2d_order1_is_z_pattern() {
        let cells = [[0, 0], [0, 1], [1, 0], [1, 1]].map(Vec::from);
        assert_eq!(morton_walk(2, 1), cells);
        // And a bijection on bigger grids too.
        morton_walk(3, 4);
    }

    #[test]
    fn morton_has_worse_step_locality_than_hilbert() {
        // Sum of the L1 steps between consecutive curve points: exactly one
        // a step for Hilbert, clearly more for Morton (jumps at block edges).
        let hilbert = HilbertCurve::new(2, 5);
        let h: u32 = steps(&walk(2, 5, |p| hilbert.encode(p))).iter().sum();
        let m: u32 = steps(&morton_walk(2, 5)).iter().sum();
        assert_eq!(h, (1 << 10) - 1, "Hilbert steps are unit moves");
        assert!(
            m > h * 3 / 2,
            "Morton steps should be clearly longer: {m} vs {h}"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn morton_encode_rejects_wrong_dims() {
        MortonCurve::new(3, 2).encode(&[0, 1]);
    }
}
