use crate::{Id, RING_SIZE};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open contiguous region `[start, start + len)` of the identifier
/// ring. `len` ranges over `0 ..= 2^32`, so the empty region and the full ring
/// are distinct values.
///
/// Arcs are the "responsible regions" of the paper: every virtual server owns
/// an arc of the ring, and every K-nary tree node is responsible for an arc
/// that it recursively splits into `K` equal children.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Arc {
    start: Id,
    len: u64,
}

impl Arc {
    /// Creates `[start, start + len)`. Panics if `len > 2^32`.
    #[inline]
    pub fn new(start: Id, len: u64) -> Self {
        assert!(len <= RING_SIZE, "arc length {len} exceeds ring size");
        Arc { start, len }
    }

    /// The empty region anchored at `start` (contains nothing).
    #[inline]
    pub const fn empty(start: Id) -> Self {
        Arc { start, len: 0 }
    }

    /// The entire ring, anchored at `start`.
    #[inline]
    pub const fn full(start: Id) -> Self {
        Arc {
            start,
            len: RING_SIZE,
        }
    }

    /// Region from `start` (inclusive) clockwise to `end` (exclusive).
    /// `start == end` yields the **empty** region — use [`Arc::full`] for the
    /// whole ring.
    #[inline]
    pub fn from_bounds(start: Id, end: Id) -> Self {
        Arc {
            start,
            len: start.distance_to(end),
        }
    }

    /// First identifier in the region.
    #[inline]
    pub const fn start(&self) -> Id {
        self.start
    }

    /// One past the last identifier (wraps; equals `start` for empty and full
    /// arcs — disambiguate with [`Arc::len`]).
    #[inline]
    pub const fn end(&self) -> Id {
        self.start.wrapping_add(self.len)
    }

    /// Number of identifiers in the region, in `0 ..= 2^32`.
    #[inline]
    pub const fn len(&self) -> u64 {
        self.len
    }

    /// True iff the region contains no identifier.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True iff the region is the whole ring.
    #[inline]
    pub const fn is_full(&self) -> bool {
        self.len == RING_SIZE
    }

    /// Fraction of the identifier space covered, in `[0, 1]`.
    #[inline]
    pub fn fraction(&self) -> f64 {
        self.len as f64 / RING_SIZE as f64
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: Id) -> bool {
        self.start.distance_to(id) < self.len
    }

    /// True iff every identifier of `other` is in `self`.
    /// The empty region is covered by everything.
    pub fn covers(&self, other: &Arc) -> bool {
        if other.is_empty() || self.is_full() {
            return true;
        }
        if other.len > self.len {
            return false;
        }
        let offset = self.start.distance_to(other.start);
        offset <= self.len - other.len
    }

    /// True iff the two regions share at least one identifier.
    pub fn overlaps(&self, other: &Arc) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        if self.is_full() || other.is_full() {
            return true;
        }
        self.start.distance_to(other.start) < self.len
            || other.start.distance_to(self.start) < other.len
    }

    /// The midpoint of the region: `start + len/2`. This is the "center point"
    /// the paper uses as the DHT key at which a K-nary tree node is planted.
    /// Panics on an empty arc (an empty region has no center).
    #[inline]
    pub fn center(&self) -> Id {
        assert!(!self.is_empty(), "empty arc has no center");
        self.start.wrapping_add(self.len / 2)
    }

    /// Splits the region into `k` consecutive child arcs of (near-)equal
    /// length, in clockwise order. Children partition the parent exactly:
    /// lengths differ by at most 1, earlier children take the remainder.
    ///
    /// This is the K-nary tree partition rule from §3.1 of the paper: "each
    /// KT node's responsible region is partitioned into K equal parts, each
    /// of which is taken by its K children".
    pub fn split(&self, k: usize) -> Vec<Arc> {
        assert!(k >= 1, "cannot split into zero parts");
        let base = self.len / k as u64;
        let rem = self.len % k as u64;
        let mut out = Vec::with_capacity(k);
        let mut cursor = self.start;
        for i in 0..k as u64 {
            let part = base + u64::from(i < rem);
            out.push(Arc::new(cursor, part));
            cursor = cursor.wrapping_add(part);
        }
        out
    }

    /// The `i`-th of `k` children (see [`Arc::split`]) without materializing
    /// the whole vector.
    pub fn child(&self, i: usize, k: usize) -> Arc {
        assert!(k >= 1 && i < k, "child index {i} out of range for k={k}");
        let (base, rem) = self.part_len(k);
        let i = i as u64;
        let start_off = base * i + i.min(rem);
        let part = base + u64::from(i < rem);
        Arc::new(self.start.wrapping_add(start_off), part)
    }

    /// The inverse of [`Arc::child`]: which of the `k` children holds `id`,
    /// and that child — what one step of a descent by key asks. `id` must
    /// lie inside. One split of the length, then a subtraction per child
    /// passed: descents run millions of times over small `k`.
    #[inline]
    pub fn child_towards(&self, id: Id, k: usize) -> (usize, Arc) {
        let mut off = self.start.distance_to(id);
        assert!(off < self.len, "{id:?} lies outside {self:?}");
        let (base, rem) = self.part_len(k);
        let (mut i, mut start) = (0, self.start);
        loop {
            let len = base + u64::from((i as u64) < rem);
            if off < len {
                return (i, Arc { start, len });
            }
            (i, off, start) = (i + 1, off - len, start.wrapping_add(len));
        }
    }

    /// `(len / k, len % k)`: the length of the shortest of `k` parts and
    /// how many parts are one longer. A shift and a mask when `k` is a
    /// power of two — every shipped degree is — else a division.
    #[inline]
    fn part_len(&self, k: usize) -> (u64, u64) {
        let k = k as u64;
        if k.is_power_of_two() {
            (self.len >> k.trailing_zeros(), self.len & (k - 1))
        } else {
            (self.len / k, self.len % k)
        }
    }
}

impl fmt::Debug for Arc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Arc[{:#010x}, {:#010x}; len={}]",
            self.start.raw(),
            self.end().raw(),
            self.len
        )
    }
}

impl fmt::Display for Arc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}
