use serde::{Deserialize, Serialize};

/// An m-dimensional Hilbert curve of order `b`: a bijection between the grid
/// `{0, …, 2^b − 1}^m` and the index range `{0, …, 2^{m·b} − 1}` in which
/// consecutive indices are always grid neighbours (L1 distance 1).
///
/// Implementation: John Skilling, "Programming the Hilbert curve", *AIP
/// Conference Proceedings* 707 (2004) — the classic in-place transpose
/// formulation, generalized to any dimension. The index is carried as `u128`,
/// so `m·b ≤ 128` (ample for the paper's 15-dimensional landmark space at 2–8
/// bits per dimension).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct HilbertCurve {
    dims: u32,
    order: u32,
}

impl HilbertCurve {
    /// Creates a curve over `dims` dimensions with `order` bits per
    /// dimension. Panics unless `1 ≤ dims`, `1 ≤ order ≤ 32` and
    /// `dims · order ≤ 128`.
    pub(crate) fn new(dims: u32, order: u32) -> Self {
        assert!(dims >= 1, "need at least one dimension");
        assert!((1..=32).contains(&order), "order must be in 1..=32");
        assert!(
            dims.checked_mul(order).is_some_and(|bits| bits <= 128),
            "total index bits dims*order must be <= 128"
        );
        HilbertCurve { dims, order }
    }

    /// Number of dimensions `m`.
    pub(crate) fn dims(&self) -> u32 {
        self.dims
    }

    /// Bits per dimension `b`.
    pub(crate) fn order(&self) -> u32 {
        self.order
    }

    /// Total bits in a curve index (`m·b`).
    pub(crate) fn index_bits(&self) -> u32 {
        self.dims * self.order
    }

    /// Largest valid coordinate value (`2^b − 1`).
    pub(crate) fn max_coord(&self) -> u32 {
        if self.order == 32 {
            u32::MAX
        } else {
            (1u32 << self.order) - 1
        }
    }

    /// Maps grid coordinates to the Hilbert index.
    ///
    /// Panics if `point.len() != dims` or any coordinate exceeds
    /// [`Self::max_coord`].
    pub(crate) fn encode(&self, point: &[u32]) -> u128 {
        assert_eq!(point.len(), self.dims as usize, "dimension mismatch");
        let max = self.max_coord();
        assert!(
            point.iter().all(|&c| c <= max),
            "coordinate exceeds 2^order - 1"
        );
        // `dims · order ≤ 128` and `order ≥ 1`: at most 128 coordinates.
        let mut buf = [0; 128];
        let x = &mut buf[..point.len()];
        x.copy_from_slice(point);
        self.axes_to_transpose(x);
        self.interleave(x)
    }

    /// Skilling's AxesToTranspose: converts coordinates in place into the
    /// "transpose" representation of the Hilbert index.
    fn axes_to_transpose(&self, x: &mut [u32]) {
        let n = x.len();
        let m = 1u32 << (self.order - 1);

        // Inverse undo.
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p; // invert
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t; // exchange
                }
            }
            q >>= 1;
        }

        // Gray encode.
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0u32;
        let mut q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for v in x.iter_mut() {
            *v ^= t;
        }
    }

    /// Packs the transpose form into a single index: bit plane `j` (from most
    /// significant) contributes bits of `x[0], x[1], …` in order.
    fn interleave(&self, x: &[u32]) -> u128 {
        let mut out = 0u128;
        for j in (0..self.order).rev() {
            for &xi in x {
                out = (out << 1) | u128::from((xi >> j) & 1);
            }
        }
        out
    }
}
