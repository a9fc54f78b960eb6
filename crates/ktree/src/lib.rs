//! The self-organized, fully distributed K-nary tree of paper §3.1.
//!
//! Each tree node (*KT node*) is responsible for a contiguous arc of the
//! DHT's identifier space; the root is responsible for the whole ring. A KT
//! node is *planted* in the virtual server that owns the **center point** of
//! its responsible region. A KT node whose region is completely covered by
//! its hosting virtual server's region is a leaf; otherwise its region is
//! split into `K` equal parts and a child is grown for every part **not**
//! covered by the hosting virtual server.
//!
//! The tree is soft state: [`KTree::maintain_round`] is one period of every
//! KT node's self-check against the current DHT (re-plant, prune, grow — one
//! level of growth per round), which is how the tree self-repairs in
//! `O(log_K N)` rounds after churn, matching the paper's claim. A check
//! reads only the ring positions inside the node's region and the owner of
//! its center, so the round runs it only on nodes that a journalled ring
//! change ([`proxbal_chord::Ring::changes_since`]) or a tree-side mutation
//! can have affected, found along the changes' root paths — with the tree
//! left in the shape a sweep over every node would leave it (DESIGN.md
//! §6a); an unchanged ring costs nothing.
//! Every order a result sees is the tree's preorder, never an arena slot
//! order; the `#[cfg(test)]` module `spec` writes the tree and its
//! maintenance from these rules alone, and the tests compare by shape.
//!
//! Aggregation ([`KTree::aggregate`]) is generic over the value type;
//! `proxbal-core` folds load-balancing information (LBI) to the root with
//! it. The same depth-first walk answers what the round needs to know of
//! the tree's shape: the aggregation's rounds and messages, and those of
//! the dissemination that hands every node the same value back down
//! (DESIGN.md §6c). The bottom-up virtual-server-assignment sweep, whose
//! intermediate lists matter, is `proxbal-core`'s own pass over the root
//! paths of its entry nodes. The arena itself is three flat columns,
//! `17 + 4K` bytes an inner node; a leaf is held inline in its parent's
//! child entry and takes no slot (DESIGN.md §6b).

mod aggregate;
mod tree;

pub use aggregate::{AggregateInput, AggregateOutcome, Merge};
pub use tree::{KTree, KtNode, KtNodeId, RepairAction, RepairStats};

/// The test binary counts allocations (inert until a test enables it): the
/// layout test asserts that building a tree allocates per tree, not per node.
#[cfg(test)]
#[global_allocator]
static ALLOC: proxbal_profile::CountingAlloc = proxbal_profile::CountingAlloc;

#[cfg(test)]
mod differential;
#[cfg(test)]
mod spec;
#[cfg(test)]
mod tests;
