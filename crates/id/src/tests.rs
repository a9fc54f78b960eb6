use crate::{Arc, Id, RING_SIZE};
use proptest::prelude::*;

#[test]
fn distance_wraps() {
    let a = Id::new(u32::MAX);
    let b = Id::new(2);
    assert_eq!(a.distance_to(b), 3);
    assert_eq!(b.distance_to(a), RING_SIZE - 3);
    assert_eq!(a.distance_to(a), 0);
}

#[test]
fn add_sub_roundtrip() {
    let a = Id::new(0xDEAD_BEEF);
    assert_eq!(a.wrapping_add(17).wrapping_sub(17), a);
    assert_eq!(a.wrapping_add(RING_SIZE), a);
}

#[test]
fn empty_and_full_are_distinct() {
    let e = Arc::empty(Id::new(5));
    let f = Arc::full(Id::new(5));
    assert!(e.is_empty() && !e.is_full());
    assert!(f.is_full() && !f.is_empty());
    assert_eq!(e.start(), f.start());
    assert_eq!(e.end(), f.end()); // same representation boundary…
    assert_ne!(e.len(), f.len()); // …but lengths disambiguate
    assert!(!e.contains(Id::new(5)));
    assert!(f.contains(Id::new(5)));
}

#[test]
fn from_bounds_half_open() {
    let r = Arc::from_bounds(Id::new(10), Id::new(20));
    assert_eq!(r.len(), 10);
    assert!(r.contains(Id::new(10)));
    assert!(r.contains(Id::new(19)));
    assert!(!r.contains(Id::new(20)));
    // start == end → empty
    assert!(Arc::from_bounds(Id::new(7), Id::new(7)).is_empty());
}

#[test]
fn contains_across_wrap() {
    let r = Arc::from_bounds(Id::new(0xFFFF_FFF0), Id::new(0x10));
    assert!(r.contains(Id::new(0xFFFF_FFF0)));
    assert!(r.contains(Id::new(0xFFFF_FFFF)));
    assert!(r.contains(Id::new(0)));
    assert!(r.contains(Id::new(0xF)));
    assert!(!r.contains(Id::new(0x10)));
    assert!(!r.contains(Id::new(0x8000_0000)));
}

#[test]
fn covers_basics() {
    let outer = Arc::from_bounds(Id::new(100), Id::new(200));
    let inner = Arc::from_bounds(Id::new(120), Id::new(180));
    assert!(outer.covers(&inner));
    assert!(!inner.covers(&outer));
    assert!(outer.covers(&outer));
    assert!(outer.covers(&Arc::empty(Id::new(0)))); // empty covered by all
    assert!(Arc::full(Id::ZERO).covers(&outer));
    assert!(!outer.covers(&Arc::full(Id::ZERO)));
}

#[test]
fn covers_wraparound() {
    let outer = Arc::from_bounds(Id::new(0xF000_0000), Id::new(0x1000_0000));
    let inner = Arc::from_bounds(Id::new(0xFF00_0000), Id::new(0x0100_0000));
    assert!(outer.covers(&inner));
    // inner straddling outer's end boundary is not covered
    let straddle = Arc::from_bounds(Id::new(0x0F00_0000), Id::new(0x1100_0000));
    assert!(!outer.covers(&straddle));
}

#[test]
fn overlaps_cases() {
    let a = Arc::from_bounds(Id::new(0), Id::new(100));
    let b = Arc::from_bounds(Id::new(50), Id::new(150));
    let c = Arc::from_bounds(Id::new(100), Id::new(200));
    assert!(a.overlaps(&b));
    assert!(b.overlaps(&a));
    assert!(!a.overlaps(&c)); // half-open: touch at 100 is no overlap
    assert!(!a.overlaps(&Arc::empty(Id::new(10))));
    assert!(a.overlaps(&Arc::full(Id::ZERO)));
}

#[test]
fn center_of_regions() {
    assert_eq!(
        Arc::from_bounds(Id::new(3), Id::new(5)).center(),
        Id::new(4)
    );
    // wrapping center
    let r = Arc::from_bounds(Id::new(0xFFFF_FFFE), Id::new(2));
    assert_eq!(r.center(), Id::new(0));
    assert_eq!(Arc::full(Id::ZERO).center(), Id::new(1 << 31));
}

#[test]
#[should_panic(expected = "empty arc has no center")]
fn center_of_empty_panics() {
    let _ = Arc::empty(Id::ZERO).center();
}

#[test]
fn split_partitions_exactly() {
    let r = Arc::from_bounds(Id::new(0), Id::new(10));
    let parts = r.split(3); // 4, 3, 3
    assert_eq!(parts.len(), 3);
    assert_eq!(parts[0].len(), 4);
    assert_eq!(parts[1].len(), 3);
    assert_eq!(parts[2].len(), 3);
    assert_eq!(parts[0].start(), Id::new(0));
    assert_eq!(parts[1].start(), Id::new(4));
    assert_eq!(parts[2].start(), Id::new(7));
    assert_eq!(parts[2].end(), Id::new(10));
}

#[test]
fn split_full_ring() {
    let parts = Arc::full(Id::ZERO).split(2);
    assert_eq!(parts[0].len(), RING_SIZE / 2);
    assert_eq!(parts[1].len(), RING_SIZE / 2);
    assert_eq!(parts[1].start(), Id::new(1 << 31));
}

#[test]
fn child_matches_split() {
    let r = Arc::from_bounds(Id::new(123), Id::new(1001));
    for k in 1..=9 {
        let parts = r.split(k);
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(r.child(i, k), *p, "k={k} i={i}");
        }
    }
}

proptest! {
    #[test]
    fn prop_distance_antisymmetric(a: u32, b: u32) {
        let (a, b) = (Id::new(a), Id::new(b));
        if a != b {
            prop_assert_eq!(a.distance_to(b) + b.distance_to(a), RING_SIZE);
        } else {
            prop_assert_eq!(a.distance_to(b), 0);
        }
    }

    #[test]
    fn prop_contains_iff_offset_lt_len(start: u32, len in 0u64..=RING_SIZE, p: u32) {
        let arc = Arc::new(Id::new(start), len);
        let inside = Id::new(start).distance_to(Id::new(p)) < len;
        prop_assert_eq!(arc.contains(Id::new(p)), inside);
    }

    #[test]
    fn prop_split_covers_and_is_disjoint(start: u32, len in 1u64..=RING_SIZE, k in 1usize..10, p: u32) {
        let arc = Arc::new(Id::new(start), len);
        let parts = arc.split(k);
        // total length preserved
        prop_assert_eq!(parts.iter().map(Arc::len).sum::<u64>(), len);
        // membership: p is in the parent iff it is in exactly one child
        let count = parts.iter().filter(|c| c.contains(Id::new(p))).count();
        prop_assert_eq!(count, usize::from(arc.contains(Id::new(p))));
        // children are consecutive
        for w in parts.windows(2) {
            prop_assert_eq!(w[0].end(), w[1].start());
        }
        // lengths near-equal
        let min = parts.iter().map(Arc::len).min().unwrap();
        let max = parts.iter().map(Arc::len).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn prop_child_towards_inverts_child(start: u32, len in 1u64..=RING_SIZE, k in 1usize..10, p: u32) {
        // Short arcs leave some of the k children empty; `p` lands anywhere
        // inside, the first and the last identifier included.
        for len in [len, 1 + len % 12, RING_SIZE] {
            let arc = Arc::new(Id::new(start), len);
            for off in [u64::from(p) % len, 0, len - 1] {
                let id = arc.start().wrapping_add(off);
                let (i, child) = arc.child_towards(id, k);
                prop_assert_eq!(child, arc.child(i, k));
                prop_assert!(child.contains(id));
            }
        }
    }

    #[test]
    fn prop_children_split_by_division(start: u32, len in 1u64..=RING_SIZE, k in 1usize..=16) {
        // The reference: `len / k` and `len % k`, written out here, against
        // the shift and mask the power-of-two degrees take. Short arcs
        // leave some parts empty.
        for len in [len, 1 + len % 40, RING_SIZE] {
            let arc = Arc::new(Id::new(start), len);
            let (base, rem) = (len / k as u64, len % k as u64);
            let mut at = 0u64;
            for i in 0..k {
                let part = base + u64::from((i as u64) < rem);
                let want = Arc::new(Id::new(start).wrapping_add(at), part);
                prop_assert_eq!(arc.child(i, k), want);
                if part > 0 {
                    for off in [at, at + part / 2, at + part - 1] {
                        let id = Id::new(start).wrapping_add(off);
                        prop_assert_eq!(arc.child_towards(id, k), (i, want));
                    }
                }
                at += part;
            }
            prop_assert_eq!(at, len);
        }
    }

    #[test]
    fn prop_covers_implies_membership_subset(
        s1: u32, l1 in 0u64..=RING_SIZE, s2: u32, l2 in 0u64..=RING_SIZE, probe: u32
    ) {
        let a = Arc::new(Id::new(s1), l1);
        let b = Arc::new(Id::new(s2), l2);
        if a.covers(&b) && b.contains(Id::new(probe)) {
            prop_assert!(a.contains(Id::new(probe)));
        }
    }

    #[test]
    fn prop_overlap_symmetric(s1: u32, l1 in 0u64..=RING_SIZE, s2: u32, l2 in 0u64..=RING_SIZE) {
        let a = Arc::new(Id::new(s1), l1);
        let b = Arc::new(Id::new(s2), l2);
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn prop_center_is_member(start: u32, len in 1u64..=RING_SIZE) {
        let arc = Arc::new(Id::new(start), len);
        prop_assert!(arc.contains(arc.center()));
    }
}
