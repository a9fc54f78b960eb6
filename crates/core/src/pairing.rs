use proxbal_chord::{PeerId, VsId};
use proxbal_trace::Trace;
use serde::{Deserialize, Serialize};

/// A virtual server a heavy node wants to shed:
/// `<L_{i,k}, v_{i,k}, ip_addr(i)>` of §3.4.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShedCandidate {
    /// The virtual server's load `L_{i,k}`.
    pub load: f64,
    /// The virtual server `v_{i,k}`.
    pub vs: VsId,
    /// The heavy node shedding it (`ip_addr(i)` in the paper).
    pub from: PeerId,
}

/// A light node's spare room: `<ΔL_j = T_j − L_j, ip_addr(j)>` of §3.4.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LightSlot {
    /// Remaining room `ΔL_j`.
    pub spare: f64,
    /// The light node (`ip_addr(j)`).
    pub peer: PeerId,
}

/// One virtual-server assignment produced by a rendezvous point: transfer
/// `vs` (with load `load`) from `from` to `to`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// The assigned virtual server.
    pub vs: VsId,
    /// Its load.
    pub load: f64,
    /// Shedding (heavy) node.
    pub from: PeerId,
    /// Receiving (light) node.
    pub to: PeerId,
}

/// The two sorted lists a KT node maintains during the VSA sweep (§3.4):
/// light-node slots sorted by spare room, and shed candidates sorted by
/// load.
///
/// The sweep keeps every node's lists on one pair of these used as stacks:
/// a node's lists are the records above its marks (the two stack lengths
/// when it was entered), and the sweep pairs, orders and merges them there.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RendezvousLists {
    /// `<ΔL_j, addr(j)>`, kept sorted ascending by `spare`.
    light: Vec<LightSlot>,
    /// `<L_{i,k}, v_{i,k}, addr(i)>`, kept sorted ascending by `load`
    /// (the pairing pops the heaviest from the back).
    shed: Vec<ShedCandidate>,
}

impl RendezvousLists {
    /// Empty lists.
    pub fn new() -> Self {
        RendezvousLists::default()
    }

    /// Number of entries across both lists (compared against the rendezvous
    /// threshold, "e.g., 30").
    pub fn len(&self) -> usize {
        self.light.len() + self.shed.len()
    }

    /// True iff both lists are empty.
    pub fn is_empty(&self) -> bool {
        self.light.is_empty() && self.shed.is_empty()
    }

    /// The light slots, ascending by spare room.
    pub fn light(&self) -> &[LightSlot] {
        &self.light
    }

    /// The shed candidates, ascending by load.
    pub fn shed(&self) -> &[ShedCandidate] {
        &self.shed
    }

    /// Inserts a light slot, keeping order: after every light slot with
    /// less spare room, before every one with as much.
    #[cfg(test)]
    pub(crate) fn push_light(&mut self, slot: LightSlot) {
        debug_assert!(slot.spare.is_finite() && slot.spare > 0.0);
        let idx = self
            .light
            .partition_point(|s| s.spare.total_cmp(&slot.spare).is_lt());
        self.light.insert(idx, slot);
    }

    /// Inserts a shed candidate, keeping order: after every candidate with
    /// a lighter load, before every one with as heavy a load.
    pub(crate) fn push_shed(&mut self, cand: ShedCandidate) {
        debug_assert!(cand.load.is_finite() && cand.load >= 0.0);
        let idx = self
            .shed
            .partition_point(|s| s.load.total_cmp(&cand.load).is_lt());
        self.shed.insert(idx, cand);
    }

    /// The VSA pairing loop of §3.4, run at a rendezvous point:
    ///
    /// 1. Take the heaviest shed candidate `v_{i,k}`.
    /// 2. Pick the light node `j` minimizing `ΔL_j` subject to
    ///    `ΔL_j ≥ L_{i,k}` (best fit — wastes the least room).
    /// 3. Emit the assignment; if the residual `ΔL_j − L_{i,k} ≥ l_min`,
    ///    re-insert node `j` with the residual.
    /// 4. Repeat until no candidate fits any light node.
    ///
    /// Unpaired entries stay in the lists (they propagate to the parent KT
    /// node).
    pub fn pair(&mut self, l_min: f64) -> Vec<Assignment> {
        let mut out = Vec::new();
        self.pair_into(l_min, &mut out, &mut Trace::disabled());
        out
    }

    /// [`RendezvousLists::pair`] writing into a caller-provided buffer
    /// (appended, not cleared) — the VSA sweep reuses one buffer across
    /// every rendezvous point instead of allocating per node — and
    /// recording pairing-churn counters into `trace`: `vsa_pair_misfits`
    /// (candidates that fit no light slot here and propagate to the parent
    /// rendezvous) and `vsa_residual_reinserts` (light slots re-offered
    /// with their residual room).
    pub fn pair_into(&mut self, l_min: f64, out: &mut Vec<Assignment>, trace: &mut Trace) {
        self.pair_above((0, 0), l_min, out, trace);
    }

    /// [`RendezvousLists::pair_into`] on the lists above `marks`, the
    /// records below them untouched.
    pub(crate) fn pair_above(
        &mut self,
        (shed_from, light_from): Marks,
        l_min: f64,
        out: &mut Vec<Assignment>,
        trace: &mut Trace,
    ) {
        // Heaviest-first over shed candidates; lighter ones may still fit
        // where a heavier one did not. Candidates `[0, i)` are still to be
        // visited; the misfits kept so far sit, in order, at
        // `[keep, len)` — each one written once, however many candidates
        // below it pair and leave.
        let mut misfits = 0u64;
        let mut reinserts = 0u64;
        let shed = &mut self.shed[shed_from..];
        let len = shed.len();
        let (mut i, mut keep) = (len, len);
        // Whether every candidate of `[0, i)` fits the roomiest slot; it
        // stays so until the roomiest slot is the one taken.
        let mut all_fit = false;
        while i > 0 {
            let light = &mut self.light[light_from..];
            // The roomiest slot only shrinks as pairing goes on, so every
            // candidate heavier than it fits nowhere, here or below: all
            // of them are skipped at once.
            if !all_fit {
                let fits = match light.last() {
                    Some(top) => {
                        shed[..i].partition_point(|c| c.load.total_cmp(&top.spare).is_le())
                    }
                    None => 0,
                };
                let skipped = i - fits;
                misfits += skipped as u64;
                shed.copy_within(fits..i, keep - skipped);
                (i, keep) = (fits, keep - skipped);
                if i == 0 {
                    break;
                }
            }
            i -= 1;
            let cand = shed[i];
            // Best fit: first light slot with spare >= load; one exists,
            // since the roomiest has room.
            let idx = light.partition_point(|s| s.spare.total_cmp(&cand.load).is_lt());
            let slot = light[idx];
            all_fit = idx + 1 < light.len();
            out.push(Assignment {
                vs: cand.vs,
                load: cand.load,
                from: cand.from,
                to: slot.peer,
            });
            let residual = slot.spare - cand.load;
            if residual >= l_min && residual > 0.0 {
                reinserts += 1;
                // The residual sorts at or before the slot it replaces:
                // shift the slots between one step up, not the whole tail
                // down and back.
                let at = light[..idx].partition_point(|s| s.spare.total_cmp(&residual).is_lt());
                light[at..=idx].rotate_right(1);
                light[at] = LightSlot {
                    spare: residual,
                    peer: slot.peer,
                };
            } else {
                self.light.remove(light_from + idx);
            }
        }
        self.shed.drain(shed_from..shed_from + keep);
        trace.count("vsa_pair_misfits", misfits);
        trace.count("vsa_residual_reinserts", reinserts);
    }

    /// The stacks' lengths: the marks of the lists pushed next.
    pub(crate) fn marks(&self) -> Marks {
        (self.shed.len(), self.light.len())
    }

    /// Number of entries above `marks`.
    pub(crate) fn len_above(&self, (shed, light): Marks) -> usize {
        self.shed.len() - shed + self.light.len() - light
    }

    /// Pushes records as they come, unordered until
    /// [`Self::settle_above`].
    pub(crate) fn push_unsorted(&mut self, shed: &[ShedCandidate], light: &[LightSlot]) {
        debug_assert!(shed.iter().all(|c| c.load.is_finite() && c.load >= 0.0));
        debug_assert!(light.iter().all(|s| s.spare.is_finite() && s.spare > 0.0));
        self.shed.extend_from_slice(shed);
        self.light.extend_from_slice(light);
    }

    /// Orders the records pushed above `marks` the way one sorted insert
    /// per record, in push order, leaves them ([`Self::push_shed`]):
    /// ascending, the latest pushed first among equal keys. Light slots are
    /// one per peer, pushed by ascending peer, so spare room, then peer
    /// descending, orders them fully. Shed candidates are pushed in runs,
    /// one per peer by ascending peer — each a run of `published`, the flat
    /// [`crate::reports::shed_candidates`] — so load, then peer descending,
    /// leaves only one peer's equal loads, which take their run's order
    /// reversed. Both sorts are in place.
    pub(crate) fn settle_above(&mut self, (shed, light): Marks, published: &[ShedCandidate]) {
        let light = &mut self.light[light..];
        light.sort_unstable_by(|a, b| a.spare.total_cmp(&b.spare).then(b.peer.cmp(&a.peer)));
        let shed = &mut self.shed[shed..];
        shed.sort_unstable_by(|a, b| a.load.total_cmp(&b.load).then(b.from.cmp(&a.from)));
        let same = |a: &ShedCandidate, b: &ShedCandidate| {
            a.load.to_bits() == b.load.to_bits() && a.from == b.from
        };
        for ties in shed.chunk_by_mut(same).filter(|ties| ties.len() > 1) {
            let from = ties[0].from;
            let run = &published[published.partition_point(|c| c.from < from)..];
            let at = |c: &ShedCandidate| run.iter().position(|r| r.vs == c.vs);
            ties.sort_unstable_by_key(|c| std::cmp::Reverse(at(c)));
        }
    }

    /// Merges the lists above `inner` into those between `outer` and
    /// `inner`, through `scratch`'s buffers: one list each above `outer`,
    /// sorted, the lower one's entries first among equal keys.
    pub(crate) fn merge_above(
        &mut self,
        outer: Marks,
        inner: Marks,
        scratch: &mut RendezvousLists,
    ) {
        let shed = &mut self.shed[outer.0..];
        merge_runs(shed, inner.0 - outer.0, &mut scratch.shed, |c| c.load);
        let light = &mut self.light[outer.1..];
        merge_runs(light, inner.1 - outer.1, &mut scratch.light, |s| s.spare);
    }

    /// Removes and returns the heaviest shed candidate, the last in the
    /// list, if any.
    pub(crate) fn pop_shed(&mut self) -> Option<ShedCandidate> {
        self.shed.pop()
    }

    /// Checks the sortedness invariants (used by tests).
    pub fn check_sorted(&self) -> bool {
        self.light.windows(2).all(|w| w[0].spare <= w[1].spare)
            && self.shed.windows(2).all(|w| w[0].load <= w[1].load)
    }
}

/// Where a KT node's lists start on the sweep's stacks: the shed and light
/// stack lengths below them.
pub(crate) type Marks = (usize, usize);

/// Merges the sorted runs `v[..mid]` and `v[mid..]` in place, stably (the
/// first run's entries lead among equal keys). Runs already in order are
/// left alone; otherwise the second is copied to `buf` and merged in from
/// the back, so entries of the first that sort below all of it never move.
fn merge_runs<T: Copy>(v: &mut [T], mid: usize, buf: &mut Vec<T>, key: impl Fn(&T) -> f64) {
    let gt = |a: &T, b: &T| key(a).total_cmp(&key(b)).is_gt();
    if mid == 0 || mid == v.len() || !gt(&v[mid - 1], &v[mid]) {
        return;
    }
    buf.clear();
    buf.extend_from_slice(&v[mid..]);
    let (mut i, mut w) = (mid, v.len());
    while let Some(&last) = buf.last() {
        w -= 1;
        if i > 0 && gt(&v[i - 1], &last) {
            v[w] = v[i - 1];
            i -= 1;
        } else {
            v[w] = last;
            buf.pop();
        }
    }
}
