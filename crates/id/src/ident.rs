use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of the identifier space: 2³² points (the paper uses a 32-bit ring).
pub const RING_SIZE: u64 = 1 << 32;

/// A point on the 32-bit identifier ring.
///
/// `Id` is ordered by its raw value; *ring* comparisons (is `b` on the
/// clockwise path from `a` to `c`?) go through [`Arc`](crate::Arc) instead,
/// because ring order is only meaningful relative to a region.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Id(u32);

impl Id {
    /// The zero identifier.
    pub const ZERO: Id = Id(0);
    /// The largest identifier on the ring.
    pub const MAX: Id = Id(u32::MAX);

    /// Wraps a raw 32-bit value as a ring identifier.
    #[inline]
    pub const fn new(v: u32) -> Self {
        Id(v)
    }

    /// Raw 32-bit value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Clockwise (additive) movement along the ring, wrapping modulo 2³².
    #[inline]
    pub const fn wrapping_add(self, delta: u64) -> Self {
        Id(self.0.wrapping_add(delta as u32))
    }

    /// Counter-clockwise movement along the ring.
    #[inline]
    pub const fn wrapping_sub(self, delta: u64) -> Self {
        Id(self.0.wrapping_sub(delta as u32))
    }

    /// Clockwise distance from `self` to `other`: the number of steps needed
    /// to reach `other` travelling in increasing-id direction. Zero iff equal.
    #[inline]
    pub const fn distance_to(self, other: Id) -> u64 {
        other.0.wrapping_sub(self.0) as u64
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Id({:#010x})", self.0)
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl From<u32> for Id {
    fn from(v: u32) -> Self {
        Id(v)
    }
}

impl From<Id> for u32 {
    fn from(v: Id) -> Self {
        v.0
    }
}
