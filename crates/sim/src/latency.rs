//! Protocol latency estimation over the physical topology: how long the
//! tree phases take in *latency units* (interdomain hop = 3, intradomain
//! hop = 1), complementing the round counts with real message delays.

use proxbal_chord::ChordNetwork;
use proxbal_ktree::{KTree, KtNodeId, KtNodeMap};
use proxbal_topology::DistanceOracle;

/// Physical latency of the tree edge from `child` to its parent: the
/// shortest-path distance between the peers hosting the two KT nodes
/// (0 when both are planted in virtual servers of the same peer).
pub fn edge_latency(
    net: &ChordNetwork,
    oracle: &DistanceOracle,
    tree: &KTree,
    child: KtNodeId,
) -> u32 {
    let node = tree.node(child);
    let Some(parent) = node.parent() else {
        return 0;
    };
    let child_peer = net.vs(node.host()).host;
    let parent_peer = net.vs(tree.node(parent).host()).host;
    if child_peer == parent_peer {
        return 0;
    }
    let a = net.peer(child_peer).underlay;
    let b = net.peer(parent_peer).underlay;
    assert!(
        a != u32::MAX && b != u32::MAX,
        "latency estimation requires underlay attachments"
    );
    oracle.distance(a, b)
}

/// Accumulated latency from every KT node up to the root (sum of edge
/// latencies along the path).
pub fn root_path_latencies(
    net: &ChordNetwork,
    oracle: &DistanceOracle,
    tree: &KTree,
) -> KtNodeMap<u64> {
    let mut out = KtNodeMap::for_tree(tree);
    let mut queue = std::collections::VecDeque::new();
    out.insert(tree.root(), 0u64);
    queue.push_back(tree.root());
    while let Some(id) = queue.pop_front() {
        let base = out[id];
        for child in tree.node(id).children().flatten() {
            let l = u64::from(edge_latency(net, oracle, tree, child));
            out.insert(child, base + l);
            queue.push_back(child);
        }
    }
    out
}

/// The completion latency of a bottom-up aggregation (or equivalently a
/// top-down dissemination): the largest root-path latency in the tree.
/// The paper's claim that balancing is "fast" rests on this growing
/// logarithmically with the overlay size.
pub fn aggregation_latency(net: &ChordNetwork, oracle: &DistanceOracle, tree: &KTree) -> u64 {
    root_path_latencies(net, oracle, tree)
        .values()
        .copied()
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scenario, TopologyKind};

    #[test]
    fn latencies_monotone_down_the_tree() {
        let mut scenario = Scenario::builder().small().seed(5).build();
        scenario.topology = TopologyKind::Tiny;
        let prepared = scenario.prepare();
        let tree = KTree::build(&prepared.net, 2);
        let oracle = prepared.oracle.as_ref().unwrap();
        let lat = root_path_latencies(&prepared.net, oracle, &tree);
        assert_eq!(lat.len(), tree.len());
        for id in tree.preorder() {
            if let Some(parent) = tree.node(id).parent() {
                assert!(lat[&id] >= lat[&parent]);
            }
        }
        assert_eq!(lat[&tree.root()], 0);
        let total = aggregation_latency(&prepared.net, oracle, &tree);
        assert_eq!(total, *lat.values().max().unwrap());
        assert!(total > 0, "some tree edge must cross peers");
    }
}
