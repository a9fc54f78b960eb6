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
    /// [`message depth`](KTree::message_depth) among contributing KT nodes
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
        inputs
            .keys()
            .map(|id| self.message_depth(id).unwrap_or(0))
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
                .flat_map(|&id| self.children_by_slot(id))
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
    /// visited in slot order), kept as the canonical association. Each is
    /// picked as the smallest handle above the last out of the node's `K`
    /// child slots, so no degree needs a buffer to sort in.
    fn children_by_slot(&self, id: KtNodeId) -> impl Iterator<Item = KtNodeId> + '_ {
        let node = self.node(id);
        let mut floor = 0;
        std::iter::from_fn(move || {
            let next = node.children().flatten().filter(|c| c.0 >= floor).min()?;
            floor = next.0 + 1;
            Some(next)
        })
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
        for child in self.children_by_slot(id) {
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
}
