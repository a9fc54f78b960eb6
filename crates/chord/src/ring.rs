use crate::network::VsId;
use proxbal_id::{Arc, Id};
use std::ops::Range;

/// How many of the most recent membership changes a [`Ring`] remembers.
/// Soft state derived from the ring (the K-nary tree) catches up from this
/// window; a reader that fell further behind re-derives from scratch.
pub(crate) const JOURNAL_CAPACITY: usize = 4096;

/// One point in a ring's mutation history: how many changes it has seen and
/// a fingerprint of exactly which ones, in order. Two rings agree on a stamp
/// only if they went through the same sequence of inserts and removes — a
/// clone that diverged, or an unrelated ring that happens to have seen as
/// many changes, does not.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RingStamp {
    version: u64,
    fingerprint: u64,
}

/// One journalled change: the position inserted or removed, and the ring's
/// fingerprint just before it.
#[derive(Clone, Copy, Debug)]
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
/// The ring is a range partition of the key space, held as two sorted
/// columns: every query is a `partition_point`, a region's contents are at
/// most two index ranges, and an insert or remove is a binary search plus
/// one shift of each column.
///
/// Every successful [`Ring::insert`] / [`Ring::remove`] bumps a version
/// counter and is recorded in a bounded journal, so state computed from an
/// earlier ring can ask [`Ring::changes_since`] which positions moved
/// instead of re-reading the whole ring.
#[derive(Clone, Debug, Default)]
pub struct Ring {
    /// Ring positions, strictly ascending.
    positions: Vec<u32>,
    /// The virtual server planted at each position, index for index.
    servers: Vec<VsId>,
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
        self.positions.len()
    }

    /// True iff the ring has no virtual servers.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Index of the first position `≥ pos`.
    fn first_at_or_after(&self, pos: u32) -> usize {
        self.positions.partition_point(|&p| p < pos)
    }

    /// Inserts a virtual server at `pos`. Returns `false` (and does nothing)
    /// if the position is already taken — callers resample a fresh random id.
    pub fn insert(&mut self, pos: Id, vs: VsId) -> bool {
        let Err(i) = self.positions.binary_search(&pos.raw()) else {
            return false;
        };
        self.positions.insert(i, pos.raw());
        self.servers.insert(i, vs);
        self.record(pos.raw(), vs, false);
        true
    }

    /// Removes the virtual server at `pos`, returning it if present.
    pub fn remove(&mut self, pos: Id) -> Option<VsId> {
        let i = self.positions.binary_search(&pos.raw()).ok()?;
        self.positions.remove(i);
        let vs = self.servers.remove(i);
        self.record(pos.raw(), vs, true);
        Some(vs)
    }

    /// The ring that inserting `joined` one by one into an empty ring leaves
    /// behind — contents, stamp and journal — given the same entries once
    /// more as the two columns, strictly ascending by position.
    pub(crate) fn bulk_load(
        positions: Vec<u32>,
        servers: Vec<VsId>,
        joined: impl Iterator<Item = (u32, VsId)>,
    ) -> Ring {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(positions.len(), servers.len());
        let mut ring = Ring::new();
        ring.journal
            .reserve_exact(positions.len().min(JOURNAL_CAPACITY));
        for (pos, vs) in joined {
            ring.record(pos, vs, false);
        }
        assert_eq!(ring.version, positions.len() as u64);
        (ring.positions, ring.servers) = (positions, servers);
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
        let i = self.positions.binary_search(&pos.raw()).ok()?;
        Some(self.servers[i])
    }

    /// The entry at index `i`, wrapping past the last one to the first.
    fn entry(&self, i: usize) -> Option<(Id, VsId)> {
        let i = if i < self.len() { i } else { 0 };
        let pos = *self.positions.get(i)?;
        Some((Id::new(pos), self.servers[i]))
    }

    /// The successor of `key`: the first virtual server at a position `≥ key`
    /// in clockwise (wrapping) order. This is the **owner** of `key`.
    pub fn owner(&self, key: Id) -> Option<VsId> {
        self.entry(self.first_at_or_after(key.raw()))
            .map(|(_, vs)| vs)
    }

    /// The virtual server strictly before `pos` in clockwise order (the
    /// predecessor of a VS planted at `pos`).
    pub fn predecessor(&self, pos: Id) -> Option<(Id, VsId)> {
        let i = self.first_at_or_after(pos.raw());
        self.entry(if i > 0 {
            i - 1
        } else {
            self.len().checked_sub(1)?
        })
    }

    /// The virtual server strictly after `pos` in clockwise order.
    pub fn successor_after(&self, pos: Id) -> Option<(Id, VsId)> {
        self.entry(self.positions.partition_point(|&p| p <= pos.raw()))
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

    /// The index ranges of the positions inside `region`, clockwise: one
    /// range, or two when the region wraps past 0.
    fn ranges_in(&self, region: &Arc) -> [Range<usize>; 2] {
        let none = 0..0;
        if region.is_empty() {
            return [none.clone(), none];
        }
        if region.is_full() {
            return [0..self.len(), none];
        }
        let lo = self.first_at_or_after(region.start().raw());
        let hi = self.first_at_or_after(region.end().raw()); // exclusive end
        if region.start() < region.end() {
            [lo..hi, none]
        } else {
            // Wraps past 0: [start, 2^32) ∪ [0, end).
            [lo..self.len(), 0..hi]
        }
    }

    /// Number of virtual-server positions inside `region`, in two binary
    /// searches.
    pub fn count_in(&self, region: &Arc) -> usize {
        self.ranges_in(region)
            .iter()
            .map(ExactSizeIterator::len)
            .sum()
    }

    /// Iterates the virtual servers whose positions lie inside `region`,
    /// clockwise, without materializing them.
    pub fn iter_in<'a>(&'a self, region: &Arc) -> impl Iterator<Item = (Id, VsId)> + 'a {
        let [first, second] = self.ranges_in(region);
        first
            .chain(second)
            .map(|i| (Id::new(self.positions[i]), self.servers[i]))
    }

    /// Iterates `(position, vs)` in clockwise order starting from 0.
    pub fn iter(&self) -> impl Iterator<Item = (Id, VsId)> + '_ {
        let positions = self.positions.iter().map(|&p| Id::new(p));
        positions.zip(self.servers.iter().copied())
    }

    /// The ring as its two columns: every position clockwise from 0, and
    /// the virtual server planted at each.
    pub fn columns(&self) -> (&[u32], &[VsId]) {
        (&self.positions, &self.servers)
    }
}
