use crate::network::VsId;
use proxbal_id::{Arc, Id};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How many of the most recent membership changes a [`Ring`] remembers.
/// Soft state derived from the ring (the K-nary tree) catches up from this
/// window; a reader that fell further behind re-derives from scratch.
pub(crate) const JOURNAL_CAPACITY: usize = 4096;

/// One point in a ring's mutation history: how many changes it has seen and
/// a fingerprint of exactly which ones, in order. Two rings agree on a stamp
/// only if they went through the same sequence of inserts and removes — a
/// clone that diverged, or an unrelated ring that happens to have seen as
/// many changes, does not.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RingStamp {
    version: u64,
    fingerprint: u64,
}

/// One journalled change: the position inserted or removed, and the ring's
/// fingerprint just before it.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct Change {
    pos: u32,
    before: u64,
}

/// The sorted ring of live virtual-server positions.
///
/// Chord's ownership rule: a key `k` belongs to its **successor** — the
/// first virtual server at or after `k` in clockwise order. Consequently a
/// virtual server at position `p` with predecessor at position `q` owns the
/// arc `(q, p]`, represented here half-open as `[q+1, p+1)`.
///
/// Every successful [`Ring::insert`] / [`Ring::remove`] bumps a version
/// counter and is recorded in a bounded journal, so state computed from an
/// earlier ring can ask [`Ring::changes_since`] which positions moved
/// instead of re-reading the whole ring.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Ring {
    /// Ring position → virtual server planted there. Positions are unique.
    by_pos: BTreeMap<u32, VsId>,
    /// Number of successful mutations so far.
    version: u64,
    /// Rolling hash of the mutation sequence (see [`RingStamp`]).
    fingerprint: u64,
    /// The last [`JOURNAL_CAPACITY`] changes; change number `v` (the one
    /// that took the ring from version `v` to `v + 1`) lives at index
    /// `v % JOURNAL_CAPACITY`.
    journal: Vec<Change>,
}

impl Ring {
    /// An empty ring.
    pub fn new() -> Self {
        Ring::default()
    }

    /// Number of virtual servers on the ring.
    pub fn len(&self) -> usize {
        self.by_pos.len()
    }

    /// True iff the ring has no virtual servers.
    pub fn is_empty(&self) -> bool {
        self.by_pos.is_empty()
    }

    /// Inserts a virtual server at `pos`. Returns `false` (and does nothing)
    /// if the position is already taken — callers resample a fresh random id.
    pub fn insert(&mut self, pos: Id, vs: VsId) -> bool {
        use std::collections::btree_map::Entry;
        match self.by_pos.entry(pos.raw()) {
            Entry::Occupied(_) => false,
            Entry::Vacant(e) => {
                e.insert(vs);
                self.record(pos.raw(), vs, false);
                true
            }
        }
    }

    /// Removes the virtual server at `pos`, returning it if present.
    pub fn remove(&mut self, pos: Id) -> Option<VsId> {
        let vs = self.by_pos.remove(&pos.raw())?;
        self.record(pos.raw(), vs, true);
        Some(vs)
    }

    /// The ring that inserting `joined` one by one into an empty ring leaves
    /// behind — contents, stamp and journal — given the same entries once
    /// more as `sorted`, strictly ascending by position. The map is built
    /// bottom-up from the sorted run instead of by one search per entry.
    pub(crate) fn bulk_load(
        sorted: Vec<(u32, VsId)>,
        joined: impl Iterator<Item = (u32, VsId)>,
    ) -> Ring {
        debug_assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
        let mut ring = Ring::new();
        for (pos, vs) in joined {
            ring.record(pos, vs, false);
        }
        assert_eq!(ring.version, sorted.len() as u64);
        ring.by_pos = BTreeMap::from_iter(sorted);
        ring
    }

    /// Journals one successful mutation: `vs` inserted at, or removed from,
    /// `pos`.
    fn record(&mut self, pos: u32, vs: VsId, removed: bool) {
        let change = Change {
            pos,
            before: self.fingerprint,
        };
        let at = (self.version % JOURNAL_CAPACITY as u64) as usize;
        if at == self.journal.len() {
            self.journal.push(change);
        } else {
            self.journal[at] = change;
        }
        self.version += 1;
        // splitmix64 step keyed by (position, virtual server, direction).
        let key = u64::from(pos) << 32 | u64::from(vs.0);
        let mut z = (self.fingerprint ^ key)
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(removed));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.fingerprint = z ^ (z >> 31);
    }

    /// The ring's current point in its mutation history.
    pub fn stamp(&self) -> RingStamp {
        RingStamp {
            version: self.version,
            fingerprint: self.fingerprint,
        }
    }

    /// Number of successful inserts and removes so far.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The positions inserted or removed since `stamp` was taken, oldest
    /// first (a position changed twice appears twice). `None` when the
    /// journal cannot answer: the stamp is older than the retained window,
    /// or it was not taken on this ring's history (another ring, or a clone
    /// that has since seen different changes) — the caller must then treat
    /// every position as possibly changed.
    pub fn changes_since(&self, stamp: RingStamp) -> Option<Vec<Id>> {
        let behind = self.version.checked_sub(stamp.version)?;
        if behind == 0 {
            return (stamp.fingerprint == self.fingerprint).then(Vec::new);
        }
        if behind > JOURNAL_CAPACITY as u64 {
            return None;
        }
        let entry = |v: u64| self.journal[(v % JOURNAL_CAPACITY as u64) as usize];
        if entry(stamp.version).before != stamp.fingerprint {
            return None;
        }
        Some(
            (stamp.version..self.version)
                .map(|v| Id::new(entry(v).pos))
                .collect(),
        )
    }

    /// The virtual server registered exactly at `pos`, if any.
    pub fn at(&self, pos: Id) -> Option<VsId> {
        self.by_pos.get(&pos.raw()).copied()
    }

    /// The successor of `key`: the first virtual server at a position `≥ key`
    /// in clockwise (wrapping) order. This is the **owner** of `key`.
    pub fn owner(&self, key: Id) -> Option<VsId> {
        self.by_pos
            .range(key.raw()..)
            .next()
            .or_else(|| self.by_pos.iter().next())
            .map(|(_, &vs)| vs)
    }

    /// The virtual server strictly before `pos` in clockwise order (the
    /// predecessor of a VS planted at `pos`).
    pub fn predecessor(&self, pos: Id) -> Option<(Id, VsId)> {
        self.by_pos
            .range(..pos.raw())
            .next_back()
            .or_else(|| self.by_pos.iter().next_back())
            .map(|(&p, &vs)| (Id::new(p), vs))
    }

    /// The virtual server strictly after `pos` in clockwise order.
    pub fn successor_after(&self, pos: Id) -> Option<(Id, VsId)> {
        self.by_pos
            .range(pos.raw().wrapping_add(1)..)
            .next()
            .or_else(|| self.by_pos.iter().next())
            .map(|(&p, &vs)| (Id::new(p), vs))
    }

    /// The ownership region of the virtual server at `pos`: `(pred, pos]`.
    /// With a single VS on the ring the region is the full ring.
    pub fn region(&self, pos: Id) -> Arc {
        match self.predecessor(pos) {
            Some((pred, _)) if pred != pos => {
                Arc::from_bounds(pred.wrapping_add(1), pos.wrapping_add(1))
            }
            _ => Arc::full(pos.wrapping_add(1)),
        }
    }

    /// Number of virtual-server positions inside `region`, counting at most
    /// `cap` — an early-exit variant for callers that only need to
    /// distinguish "empty / one / more" (the K-nary tree's split rule asks
    /// exactly that for every candidate region, so a full range scan per
    /// node would make tree construction quadratic at 50k+ scale).
    pub fn count_in_at_most(&self, region: &Arc, cap: usize) -> usize {
        self.iter_in(region).take(cap).count()
    }

    /// Iterates the virtual servers whose positions lie inside `region`,
    /// clockwise, without materializing them.
    pub fn iter_in<'a>(&'a self, region: &Arc) -> impl Iterator<Item = (Id, VsId)> + 'a {
        use std::ops::Bound::{Excluded, Included, Unbounded};
        let none = (Included(0u32), Excluded(0u32));
        let (first, second) = if region.is_empty() {
            (none, none)
        } else if region.is_full() {
            ((Unbounded, Unbounded), none)
        } else {
            let start = region.start().raw();
            let end = region.end().raw(); // exclusive
            if start < end {
                ((Included(start), Excluded(end)), none)
            } else {
                // Wraps past 0: [start, 2^32) ∪ [0, end).
                ((Included(start), Unbounded), (Unbounded, Excluded(end)))
            }
        };
        self.by_pos
            .range(first)
            .chain(self.by_pos.range(second))
            .map(|(&p, &vs)| (Id::new(p), vs))
    }

    /// Iterates `(position, vs)` in clockwise order starting from 0.
    pub fn iter(&self) -> impl Iterator<Item = (Id, VsId)> + '_ {
        self.by_pos.iter().map(|(&p, &vs)| (Id::new(p), vs))
    }
}
