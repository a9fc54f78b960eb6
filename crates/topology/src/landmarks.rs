use crate::transit_stub::TransitStubTopology;
use crate::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Selects `count` landmark nodes spread across transit domains.
///
/// The paper uses 15 landmark nodes for landmark clustering (§4.1) and notes
/// that "a sufficient number of landmark nodes need to be used to reduce the
/// probability of false clustering". Spreading landmarks over distinct
/// transit domains maximizes the information in each landmark-vector
/// coordinate: two nodes in the same stub domain then agree on *every*
/// coordinate, while nodes in different regions disagree on most.
///
/// Landmarks are drawn round-robin over transit domains (one random transit
/// node per domain per round) until `count` are chosen; if the topology has
/// fewer transit nodes than `count`, stub nodes are drawn to fill up.
/// `count == 0` selects nothing (and draws nothing from `rng`).
pub fn select_landmarks<R: Rng>(
    topo: &TransitStubTopology,
    count: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    if count == 0 {
        return Vec::new();
    }
    let mut chosen = Vec::with_capacity(count);
    let mut pools: Vec<Vec<NodeId>> = topo
        .transit_by_domain
        .iter()
        .map(|d| {
            let mut v = d.clone();
            v.shuffle(rng);
            v
        })
        .collect();

    'outer: loop {
        let mut progressed = false;
        for pool in pools.iter_mut() {
            if let Some(n) = pool.pop() {
                chosen.push(n);
                progressed = true;
                if chosen.len() == count {
                    break 'outer;
                }
            }
        }
        if !progressed {
            break;
        }
    }

    if chosen.len() < count {
        let mut stubs = topo.stub_nodes();
        stubs.shuffle(rng);
        for n in stubs {
            if chosen.len() == count {
                break;
            }
            if !chosen.contains(&n) {
                chosen.push(n);
            }
        }
    }

    chosen
}
