use proxbal_chord::{PeerId, VsId};
#[cfg(test)]
use proxbal_ktree::KtNodeMap;
use proxbal_ktree::{KtNodeId, Merge};
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
/// ```
/// use proxbal_chord::{PeerId, VsId};
/// use proxbal_core::{LightSlot, RendezvousLists, ShedCandidate};
///
/// let mut lists = RendezvousLists::new();
/// lists.push_shed(ShedCandidate { load: 8.0, vs: VsId(0), from: PeerId(0) });
/// lists.push_light(LightSlot { spare: 10.0, peer: PeerId(1) });
/// let assignments = lists.pair(1.0);
/// assert_eq!(assignments.len(), 1);
/// assert_eq!(assignments[0].to, PeerId(1));
/// // The 2.0 residual (≥ L_min = 1.0) is re-offered as a light slot.
/// assert_eq!(lists.light().len(), 1);
/// ```
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
    pub fn push_light(&mut self, slot: LightSlot) {
        debug_assert!(slot.spare.is_finite() && slot.spare > 0.0);
        let idx = self
            .light
            .partition_point(|s| s.spare.total_cmp(&slot.spare).is_lt());
        self.light.insert(idx, slot);
    }

    /// Inserts a shed candidate, keeping order: after every candidate with
    /// a lighter load, before every one with as heavy a load.
    pub fn push_shed(&mut self, cand: ShedCandidate) {
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
        // Heaviest-first over shed candidates; lighter ones may still fit
        // where a heavier one did not. Candidates `[0, i)` are still to be
        // visited; the misfits kept so far sit, in order, at
        // `[keep, len)` — each one written once, however many candidates
        // below it pair and leave.
        let mut misfits = 0u64;
        let mut reinserts = 0u64;
        let len = self.shed.len();
        let (mut i, mut keep) = (len, len);
        while i > 0 {
            // The roomiest slot only shrinks as pairing goes on, so every
            // candidate heavier than it fits nowhere, here or below: all
            // of them are skipped at once.
            let fits = match self.light.last() {
                Some(top) => {
                    self.shed[..i].partition_point(|c| c.load.total_cmp(&top.spare).is_le())
                }
                None => 0,
            };
            if fits < i {
                let skipped = i - fits;
                misfits += skipped as u64;
                self.shed.copy_within(fits..i, keep - skipped);
                (i, keep) = (fits, keep - skipped);
                continue;
            }
            i -= 1;
            let cand = self.shed[i];
            // Best fit: first light slot with spare >= load; one exists,
            // since the roomiest has room.
            let idx = self
                .light
                .partition_point(|s| s.spare.total_cmp(&cand.load).is_lt());
            let slot = self.light[idx];
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
                let at =
                    self.light[..idx].partition_point(|s| s.spare.total_cmp(&residual).is_lt());
                self.light[at..=idx].rotate_right(1);
                self.light[at] = LightSlot {
                    spare: residual,
                    peer: slot.peer,
                };
            } else {
                self.light.remove(idx);
            }
        }
        self.shed.drain(..keep);
        trace.count("vsa_pair_misfits", misfits);
        trace.count("vsa_residual_reinserts", reinserts);
    }

    /// [`Self::pair_into`] as it was before it skipped misfits in runs and
    /// compacted the survivors: one visit and one `Vec::remove` per
    /// candidate, kept as its reference.
    #[cfg(test)]
    pub(crate) fn reference_pair_into(
        &mut self,
        l_min: f64,
        out: &mut Vec<Assignment>,
        trace: &mut Trace,
    ) {
        let mut misfits = 0u64;
        let mut reinserts = 0u64;
        let mut i = self.shed.len();
        while i > 0 {
            i -= 1;
            let cand = self.shed[i];
            // Best fit: first light slot with spare >= load.
            let idx = self
                .light
                .partition_point(|s| s.spare.total_cmp(&cand.load).is_lt());
            if idx == self.light.len() {
                misfits += 1;
                continue; // fits nowhere; stays in the list
            }
            self.shed.remove(i);
            let slot = self.light.remove(idx);
            out.push(Assignment {
                vs: cand.vs,
                load: cand.load,
                from: cand.from,
                to: slot.peer,
            });
            let residual = slot.spare - cand.load;
            if residual >= l_min && residual > 0.0 {
                reinserts += 1;
                let at = self
                    .light
                    .partition_point(|s| s.spare.total_cmp(&residual).is_lt());
                self.light.insert(
                    at,
                    LightSlot {
                        spare: residual,
                        peer: slot.peer,
                    },
                );
            }
        }
        trace.count("vsa_pair_misfits", misfits);
        trace.count("vsa_residual_reinserts", reinserts);
    }

    /// Removes the shed candidate for `vs`, if present. Returns whether a
    /// candidate was removed.
    pub fn remove_shed(&mut self, vs: VsId) -> bool {
        if let Some(idx) = self.shed.iter().position(|c| c.vs == vs) {
            self.shed.remove(idx);
            true
        } else {
            false
        }
    }

    /// Checks the sortedness invariants (used by tests).
    pub fn check_sorted(&self) -> bool {
        self.light.windows(2).all(|w| w[0].spare <= w[1].spare)
            && self.shed.windows(2).all(|w| w[0].load <= w[1].load)
    }
}

impl Merge for RendezvousLists {
    fn merge(&mut self, other: Self) {
        // Merge the sorted runs in place: each list grows within its own
        // buffer instead of being rebuilt into a fresh allocation on every
        // KT-node absorb.
        merge_sorted_into(&mut self.light, &other.light, |a, b| {
            a.spare.total_cmp(&b.spare).is_le()
        });
        merge_sorted_into(&mut self.shed, &other.shed, |a, b| {
            a.load.total_cmp(&b.load).is_le()
        });
    }
}

/// The VSA sweep inputs: every participant's records published at its
/// entry node, one entry per node, ascending by slot. `targets` holds one
/// entry node per participant — the shedding peers of `shed` (one run of
/// candidates each, [`crate::reports::shed_candidates`]), then the peers
/// of `light`, each ascending: the publication order. Every entry node's
/// lists come out exactly as one [`RendezvousLists::push_shed`] /
/// [`RendezvousLists::push_light`] per record in that order leaves them:
/// ascending by `total_cmp`, and among equal keys the latest published
/// first. Participants are grouped by entry node with one sort, each list
/// is sized first and allocated once, records are appended, and each list
/// is sorted once — `O(n log n)` per entry node where one sorted insert per
/// record costs `O(n²)`.
pub(crate) fn publish(
    shed: &[ShedCandidate],
    light: &[LightSlot],
    targets: &[KtNodeId],
) -> Vec<(KtNodeId, RendezvousLists)> {
    let cands: Vec<&[ShedCandidate]> = crate::reports::shed_sets(shed).collect();
    debug_assert_eq!(targets.len(), cands.len() + light.len());
    let order = crate::reports::sorted_by_node(targets);
    let mut inputs: Vec<(KtNodeId, RendezvousLists)> = Vec::new();
    for run in order.chunk_by(|a, b| a.0 == b.0) {
        let participants = || run.iter().map(|&(_, i)| i as usize);
        let (mut n_shed, mut n_light) = (0, 0);
        for i in participants() {
            match cands.get(i) {
                Some(c) => n_shed += c.len(),
                None => n_light += 1,
            }
        }
        let mut lists = RendezvousLists {
            shed: Vec::with_capacity(n_shed),
            light: Vec::with_capacity(n_light),
        };
        for i in participants() {
            match cands.get(i) {
                Some(c) => {
                    debug_assert!(c.iter().all(|c| c.load.is_finite() && c.load >= 0.0));
                    lists.shed.extend_from_slice(c);
                }
                None => {
                    let slot = light[i - cands.len()];
                    debug_assert!(slot.spare.is_finite() && slot.spare > 0.0);
                    lists.light.push(slot);
                }
            }
        }
        settle(&mut lists.shed, |c| c.load);
        settle(&mut lists.light, |s| s.spare);
        inputs.push((run[0].0, lists));
    }
    inputs
}

/// Orders records appended in push order the way one sorted insert per
/// record would: reversed, so the latest pushed leads among equal keys,
/// then stably sorted ascending (no scratch allocation up to a few hundred
/// records).
fn settle<T>(records: &mut [T], key: impl Fn(&T) -> f64) {
    records.reverse();
    records.sort_by(|a, b| key(a).total_cmp(&key(b)));
}

/// [`publish`] as one sorted insert per record, kept as its reference.
#[cfg(test)]
pub(crate) fn reference_publish(
    shed: &[ShedCandidate],
    light: &[LightSlot],
    targets: &[KtNodeId],
) -> Vec<(KtNodeId, RendezvousLists)> {
    let mut inputs: KtNodeMap<RendezvousLists> = KtNodeMap::new();
    let mut targets = targets.iter();
    for cands in crate::reports::shed_sets(shed) {
        let lists = inputs.or_default(*targets.next().expect("a target per participant"));
        for c in cands {
            lists.push_shed(*c);
        }
    }
    for (&id, &slot) in targets.zip(light) {
        inputs.or_default(id).push_light(slot);
    }
    inputs
        .iter()
        .map(|(id, lists)| (id, lists.clone()))
        .collect()
}

/// Merges sorted `src` into sorted `dst`, keeping `dst` sorted and stable
/// (`dst` elements win ties). Runs backward over `dst`'s own buffer — one
/// `resize` for capacity, then each element is written exactly once; no
/// scratch allocation.
fn merge_sorted_into<T: Copy>(dst: &mut Vec<T>, src: &[T], le: impl Fn(&T, &T) -> bool) {
    if src.is_empty() {
        return;
    }
    let a = dst.len();
    let b = src.len();
    // Grow to final size; the filler value is overwritten below.
    dst.resize(a + b, src[0]);
    let (mut i, mut j, mut w) = (a, b, a + b);
    // Take the larger tail element first. Writes trail reads (`w > i`
    // whenever `j > 0`), so no unread `dst` element is clobbered.
    while j > 0 {
        if i > 0 && !le(&dst[i - 1], &src[j - 1]) {
            dst[w - 1] = dst[i - 1];
            i -= 1;
        } else {
            dst[w - 1] = src[j - 1];
            j -= 1;
        }
        w -= 1;
    }
}
