//! Comparator schemes from the related-work discussion (§1.1, §6).

use crate::classify::{ClassifyParams, NodeClass};
use crate::lbi::LoadState;
use crate::pairing::Assignment;
use crate::reports::Classification;
use crate::selection::choose_shed_set;
use proxbal_chord::{ChordNetwork, VsId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Outcome of the CFS-style shedding baseline.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CfsOutcome {
    /// Virtual servers removed from the ring, per round.
    pub dropped_per_round: Vec<usize>,
    /// Peers that became heavy *because* they absorbed dropped regions —
    /// the "load thrashing" CFS suffers from ("removing some virtual
    /// servers from an overloaded node could make another node become
    /// overloaded", §1.1).
    pub thrash_events: usize,
    /// True iff the system converged to no heavy nodes within the round
    /// budget.
    pub converged: bool,
}

/// CFS-style load shedding (§1.1): an overloaded node simply *removes* some
/// of its virtual servers; the dropped regions (and their loads) are
/// absorbed by the ring successors, which may in turn overload — the
/// thrashing this paper criticizes. Runs up to `max_rounds` rounds of
/// simultaneous shedding.
pub fn cfs_shed(
    net: &mut ChordNetwork,
    loads: &mut LoadState,
    params: &ClassifyParams,
    max_rounds: usize,
) -> CfsOutcome {
    let mut outcome = CfsOutcome::default();
    for _ in 0..max_rounds {
        let system = loads.totals(net);
        let classification = Classification::compute(net, loads, params, system, 1);
        let heavy = classification.peers_of(NodeClass::Heavy);
        if heavy.is_empty() {
            outcome.converged = true;
            return outcome;
        }
        // Record who was heavy before this round (to detect fresh overloads).
        let was_heavy: std::collections::HashSet<_> = heavy.iter().copied().collect();

        let mut dropped = 0usize;
        for p in heavy {
            let node = loads.node_lbi(net, p);
            let excess = params.excess(&node, &system);
            let vss: Vec<(VsId, f64)> = net
                .vss_of(p)
                .iter()
                .map(|&v| (v, loads.vs_load(v)))
                .collect();
            // Never drop the last virtual server (the node would leave the
            // overlay entirely).
            if vss.len() <= 1 {
                continue;
            }
            let mut to_drop = Vec::new();
            choose_shed_set(&vss, excess, &mut to_drop);
            if to_drop.len() >= vss.len() {
                to_drop.truncate(vss.len() - 1);
            }
            for v in to_drop {
                let load = loads.vs_load(v);
                let pos = net.vs(v).position;
                net.drop_vs(v);
                loads.set_vs_load(v, 0.0);
                // The region is absorbed by the new owner of the position.
                if let Some(absorber) = net.ring().owner(pos) {
                    loads.add_vs_load(absorber, load);
                }
                dropped += 1;
            }
        }
        outcome.dropped_per_round.push(dropped);

        // Thrash: nodes heavy now that were not heavy before the round.
        let system2 = loads.totals(net);
        let after = Classification::compute(net, loads, params, system2, 1);
        outcome.thrash_events += after
            .peers_of(NodeClass::Heavy)
            .iter()
            .filter(|p| !was_heavy.contains(p))
            .count();
        if dropped == 0 {
            break; // nothing sheddable left
        }
    }
    let system = loads.totals(net);
    let final_cls = Classification::compute(net, loads, params, system, 1);
    outcome.converged = final_cls.count_of(NodeClass::Heavy) == 0;
    outcome
}

/// Random matching in the style of Rao et al.'s directory-based schemes
/// *without* any proximity information: heavy nodes compute their shed sets
/// exactly as our scheme does, then each candidate is assigned to a
/// uniformly random light node with enough spare room. Used as the
/// transfer-cost comparator: it matches our scheme's balance quality but
/// pays wide-area transfer distances.
pub fn random_matching<R: Rng>(
    net: &ChordNetwork,
    loads: &LoadState,
    params: &ClassifyParams,
    rng: &mut R,
) -> Vec<Assignment> {
    let system = loads.totals(net);
    let classification = Classification::compute(net, loads, params, system, 1);
    let shed = crate::reports::shed_candidates(net, loads, params, &classification, 1);
    let light = crate::reports::light_slots(net, loads, params, &classification, 1);

    let mut spare: Vec<(proxbal_chord::PeerId, f64)> =
        light.values().map(|s| (s.peer, s.spare)).collect();
    spare.shuffle(rng);

    let mut candidates: Vec<_> = shed.values().flatten().copied().collect();
    candidates.shuffle(rng);
    // Heaviest first maximizes placement success, like the tree scheme.
    candidates.sort_by(|a, b| b.load.total_cmp(&a.load));

    let mut out = Vec::new();
    for cand in candidates {
        // Random fitting slot.
        let fits: Vec<usize> = spare
            .iter()
            .enumerate()
            .filter(|(_, &(_, room))| room >= cand.load)
            .map(|(i, _)| i)
            .collect();
        let Some(&slot_idx) = fits.as_slice().choose(rng) else {
            continue;
        };
        let (peer, room) = spare[slot_idx];
        out.push(Assignment {
            vs: cand.vs,
            load: cand.load,
            from: cand.from,
            to: peer,
        });
        let residual = room - cand.load;
        if residual >= system.min_vs_load {
            spare[slot_idx].1 = residual;
        } else {
            spare.swap_remove(slot_idx);
        }
    }
    out
}
