use crate::node_map::KtNodeMap;
use crate::tree::{KTree, KtNodeId};

/// A commutative, associative combine operation — the shape of every
/// bottom-up aggregation the tree performs (LBI sums/minima, VSA list
/// unions, …).
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// Boxed values merge by delegating to the inner value. Large per-node
/// aggregates (VSA rendezvous lists, million-node LBI maps) are boxed so
/// the dense [`KtNodeMap`] slots stay one pointer wide.
impl<T: Merge> Merge for Box<T> {
    fn merge(&mut self, other: Self) {
        (**self).merge(*other);
    }
}

/// Result of a bottom-up aggregation.
#[derive(Clone, Debug)]
pub struct AggregateOutcome<A> {
    /// The value accumulated at the root (`None` if no inputs were offered).
    pub root_value: Option<A>,
    /// Number of upward **message** rounds: the largest
    /// [`message depth`](KTree::message_depths) among contributing KT nodes
    /// (tree edges between nodes planted in the same virtual server cost no
    /// messages). This is the `O(log_K N)` bound the paper states for LBI
    /// aggregation (§3.2).
    pub rounds: u32,
    /// Number of in-tree [`Merge::merge`] operations performed by the sweep
    /// — the aggregation *work* (as opposed to `rounds`, its latency).
    pub merges: usize,
}

/// Subtree roots are farmed out to workers once the frontier at the chosen
/// depth is at least this many times the worker count — below that the
/// spawn overhead outweighs the subtrees.
const MIN_SUBTREES_PER_WORKER: usize = 2;

impl KTree {
    /// Bottom-up aggregation: `inputs` maps KT nodes (typically report
    /// targets of virtual servers) to locally contributed values; parents
    /// merge children until the root. Only the root's value is kept — an
    /// input is moved into the fold, merged once, and gone. Inputs under
    /// handles the root does not reach (stale, or in a detached subtree)
    /// contribute nothing.
    ///
    /// # Determinism
    ///
    /// Every node's value is the fold of its own input followed by its
    /// contributing children **in ascending arena-slot order** — the exact
    /// association the original level-by-level sweep produced, so outputs
    /// (including floating-point sums) are byte-identical to it. The fold
    /// of a subtree depends only on the subtree, which is what lets
    /// [`KTree::aggregate_with`] evaluate disjoint subtrees on worker
    /// threads and still merge bit-identically.
    pub fn aggregate<A: Merge>(&self, inputs: impl Into<KtNodeMap<A>>) -> AggregateOutcome<A> {
        let mut inputs: KtNodeMap<A> = inputs.into();
        let rounds = self.aggregate_rounds(&inputs);
        let _prof = proxbal_profile::phase("round/aggregate/fold");
        let mut merges = 0usize;
        let root_value = self.fold_subtree(
            self.root(),
            &mut |id| inputs.remove(id),
            &mut [],
            &mut merges,
        );
        AggregateOutcome {
            root_value,
            rounds,
            merges,
        }
    }

    /// [`KTree::aggregate`] with an explicit worker-thread count: disjoint
    /// subtrees hanging below a frontier depth are folded in parallel and
    /// their values merged above the frontier in deterministic child-slot
    /// order. The outcome — root value, merge count, rounds — is
    /// bit-identical at any `threads`. Workers share the inputs read-only
    /// and clone the ones in their subtree; the top of the tree is folded
    /// by the caller, which moves.
    pub fn aggregate_with<A: Merge + Clone + Send + Sync>(
        &self,
        inputs: impl Into<KtNodeMap<A>>,
        threads: usize,
    ) -> AggregateOutcome<A> {
        let mut inputs: KtNodeMap<A> = inputs.into();
        let frontier = self.parallel_frontier(threads);
        if frontier.is_empty() {
            return self.aggregate(inputs);
        }
        let rounds = self.aggregate_rounds(&inputs);
        let _prof = proxbal_profile::phase("round/aggregate/fold");

        // Evaluate each frontier subtree on a worker: pure function of the
        // (read-only) inputs and the subtree, results slotted in frontier
        // order.
        let results = proxbal_parallel::map_items(&frontier, threads, |_, &sub| {
            let mut merges = 0usize;
            let value =
                self.fold_subtree(sub, &mut |id| inputs.get(id).cloned(), &mut [], &mut merges);
            (value, merges)
        });
        let mut merges = 0usize;
        let mut folded: Vec<(KtNodeId, Option<A>)> = frontier
            .iter()
            .zip(results)
            .map(|(&sub, (value, sub_merges))| {
                merges += sub_merges;
                (sub, value)
            })
            .collect();
        // Finish the top of the tree serially, treating frontier nodes as
        // precomputed leaves.
        let root_value = self.fold_subtree(
            self.root(),
            &mut |id| inputs.remove(id),
            &mut folded,
            &mut merges,
        );
        AggregateOutcome {
            root_value,
            rounds,
            merges,
        }
    }

    /// Message rounds: deepest contributing node by inter-VS hop count.
    fn aggregate_rounds<A>(&self, inputs: &KtNodeMap<A>) -> u32 {
        let _prof = proxbal_profile::phase("round/aggregate/rounds");
        let depths = self.message_depths();
        inputs
            .keys()
            .map(|id| depths.get(id).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
    }

    /// The subtree roots handed to workers: the shallowest level whose
    /// width can keep `threads` workers busy. Empty (= run serially) for a
    /// single worker or a tree too flat to split.
    fn parallel_frontier(&self, threads: usize) -> Vec<KtNodeId> {
        if threads <= 1 {
            return Vec::new();
        }
        let want = threads * MIN_SUBTREES_PER_WORKER;
        let mut level: Vec<KtNodeId> = vec![self.root()];
        for _ in 0..16 {
            let next: Vec<KtNodeId> = level
                .iter()
                .flat_map(|&id| self.sorted_children(id))
                .collect();
            if next.is_empty() {
                return Vec::new(); // tree exhausted before it got wide
            }
            if next.len() >= want {
                return next;
            }
            level = next;
        }
        level
    }

    /// A node's children in ascending arena-slot order — the merge order
    /// the level-by-level sweep established (within a level, nodes are
    /// visited in slot order), kept as the canonical association.
    fn sorted_children(&self, id: KtNodeId) -> Vec<KtNodeId> {
        let mut kids: Vec<KtNodeId> = self.node(id).children.iter().flatten().copied().collect();
        kids.sort_unstable();
        kids
    }

    /// Folds the subtree at `id`: value = own input (whatever `own` hands
    /// over for the node), then contributing children in ascending slot
    /// order; `merges` counts the merge operations. A node listed in
    /// `folded` is a precomputed leaf — its subtree was folded by a worker —
    /// and gives up the value recorded there.
    fn fold_subtree<A: Merge>(
        &self,
        id: KtNodeId,
        own: &mut impl FnMut(KtNodeId) -> Option<A>,
        folded: &mut [(KtNodeId, Option<A>)],
        merges: &mut usize,
    ) -> Option<A> {
        if let Some((_, value)) = folded.iter_mut().find(|(sub, _)| *sub == id) {
            return value.take();
        }
        let mut acc: Option<A> = own(id);
        // Children in ascending slot order; binary nodes (the only degree
        // used at scale) order their two slots with one compare instead of
        // a per-node sort allocation.
        let children: &[Option<KtNodeId>] = &self.node(id).children;
        let pair;
        let heap;
        let ordered: &[Option<KtNodeId>] = if let [a, b] = *children {
            pair = match (a, b) {
                (Some(x), Some(y)) if y < x => [Some(y), Some(x)],
                _ => [a, b],
            };
            &pair
        } else {
            heap = self
                .sorted_children(id)
                .into_iter()
                .map(Some)
                .collect::<Vec<_>>();
            heap.as_slice()
        };
        for child in ordered.iter().flatten().copied() {
            if let Some(value) = self.fold_subtree(child, own, folded, merges) {
                match acc.as_mut() {
                    Some(a) => {
                        a.merge(value);
                        *merges += 1;
                    }
                    None => acc = Some(value),
                }
            }
        }
        acc
    }

    /// Top-down dissemination of a value from the root to every node;
    /// returns the per-node copies and the number of downward message
    /// rounds (the tree's maximum message depth).
    pub fn disseminate<A: Clone>(&self, value: A) -> (KtNodeMap<A>, u32) {
        let mut out = KtNodeMap::with_slot_bound(self.slot_bound());
        for id in self.iter_ids() {
            out.insert(id, value.clone());
        }
        (out, self.max_message_depth())
    }
}
