//! Virtual-server splitting — the classic extension (from the Rao et al.
//! line of work the paper builds on) for shed candidates too loaded to fit
//! *any* light node: halve the virtual server and place the halves
//! separately. Off by default ([`crate::BalancerConfig::max_splits`] = 0)
//! to stay faithful to the paper; the ε = 0 ablation shows where it helps.

use crate::lbi::LoadState;
use crate::pairing::{Assignment, RendezvousLists, ShedCandidate};
use proxbal_chord::ChordNetwork;

/// Repeatedly pairs the leftover rendezvous lists, splitting the heaviest
/// unplaceable shed candidate in two (a [`ChordNetwork::split_vs`] at the
/// region midpoint, load divided proportionally to the sub-regions) until
/// everything is placed, no light capacity remains, or `max_splits` splits
/// have been spent. Returns the extra assignments produced.
pub fn split_and_place(
    net: &mut ChordNetwork,
    loads: &mut LoadState,
    unassigned: &mut RendezvousLists,
    l_min: f64,
    max_splits: usize,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    let mut splits = 0;
    let mut unsplittable: Vec<ShedCandidate> = Vec::new();

    loop {
        out.extend(unassigned.pair(l_min));
        if splits >= max_splits || unassigned.light().is_empty() {
            break;
        }
        // Heaviest remaining candidate (pair() left only misfits).
        let Some(&cand) = unassigned.shed().last() else {
            break;
        };
        // Can any slot even hold half of it? If not, splitting once more
        // cannot help this round either — but a deeper split might; only
        // bail when the largest slot couldn't hold a further-halved load
        // within the split budget. Simple conservative check: largest slot
        // must exceed load / 2^(remaining splits).
        let largest_slot = unassigned.light().last().map(|s| s.spare).unwrap_or(0.0);
        let remaining = (max_splits - splits) as i32;
        if largest_slot < cand.load / 2f64.powi(remaining.min(40)) {
            break;
        }

        // Pop it and split.
        unassigned.pop_shed();
        let region = net.region_of(cand.vs);
        if region.len() < 2 {
            unsplittable.push(cand);
            continue;
        }
        let new_vs = net.split_vs(cand.vs);
        splits += 1;
        let new_len = net.region_of(new_vs).len();
        let frac = new_len as f64 / region.len() as f64;
        let new_load = cand.load * frac;
        let rest_load = cand.load - new_load;
        loads.set_vs_load(new_vs, new_load);
        loads.set_vs_load(cand.vs, rest_load);
        unassigned.push_shed(ShedCandidate {
            load: new_load,
            vs: new_vs,
            from: cand.from,
        });
        unassigned.push_shed(ShedCandidate {
            load: rest_load,
            vs: cand.vs,
            from: cand.from,
        });
    }

    for cand in unsplittable {
        unassigned.push_shed(cand);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairing::LightSlot;
    use proxbal_chord::PeerId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_peer_net() -> (ChordNetwork, LoadState) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = ChordNetwork::new();
        net.join_peer(2, &mut rng);
        net.join_peer(2, &mut rng);
        let mut loads = LoadState::new();
        for (_, vs) in net.ring().iter() {
            loads.set_vs_load(vs, 10.0);
        }
        for p in net.alive_peers() {
            loads.set_capacity(p, 100.0);
        }
        (net, loads)
    }

    #[test]
    fn splits_oversized_candidate_into_placeable_halves() {
        let (mut net, mut loads) = two_peer_net();
        let heavy_vs = net.vss_of(PeerId(0))[0];
        loads.set_vs_load(heavy_vs, 100.0);

        let mut lists = RendezvousLists::new();
        lists.push_shed(ShedCandidate {
            load: 100.0,
            vs: heavy_vs,
            from: PeerId(0),
        });
        // Two slots of 60 each: the whole VS fits neither, halves fit both.
        lists.push_light(LightSlot {
            spare: 60.0,
            peer: PeerId(1),
        });
        lists.push_light(LightSlot {
            spare: 60.0,
            peer: PeerId(1),
        });

        let total_before: f64 = net.ring().iter().map(|(_, v)| loads.vs_load(v)).sum();
        let placed = split_and_place(&mut net, &mut loads, &mut lists, 1.0, 4);
        assert_eq!(placed.len(), 2, "both halves placed");
        assert!(lists.shed().is_empty());
        net.check_invariants().unwrap();
        let total_after: f64 = net.ring().iter().map(|(_, v)| loads.vs_load(v)).sum();
        assert!((total_before - total_after).abs() < 1e-9, "load conserved");
        // Loads of the halves are proportional to their sub-regions.
        let placed_load: f64 = placed.iter().map(|a| a.load).sum();
        assert!((placed_load - 100.0).abs() < 1e-9);
    }

    #[test]
    fn respects_split_budget() {
        let (mut net, mut loads) = two_peer_net();
        let heavy_vs = net.vss_of(PeerId(0))[0];
        loads.set_vs_load(heavy_vs, 100.0);
        let mut lists = RendezvousLists::new();
        lists.push_shed(ShedCandidate {
            load: 100.0,
            vs: heavy_vs,
            from: PeerId(0),
        });
        // Slot only fits a quarter: needs 2 splits, budget allows 0.
        lists.push_light(LightSlot {
            spare: 26.0,
            peer: PeerId(1),
        });
        let placed = split_and_place(&mut net, &mut loads, &mut lists, 1.0, 0);
        assert!(placed.is_empty());
        assert_eq!(lists.shed().len(), 1, "candidate untouched at budget 0");
    }

    #[test]
    fn gives_up_when_no_light_capacity() {
        let (mut net, mut loads) = two_peer_net();
        let heavy_vs = net.vss_of(PeerId(0))[0];
        loads.set_vs_load(heavy_vs, 100.0);
        let mut lists = RendezvousLists::new();
        lists.push_shed(ShedCandidate {
            load: 100.0,
            vs: heavy_vs,
            from: PeerId(0),
        });
        let before = net.alive_vs_count();
        let placed = split_and_place(&mut net, &mut loads, &mut lists, 1.0, 8);
        assert!(placed.is_empty());
        assert_eq!(net.alive_vs_count(), before, "no pointless splits");
    }
}
