use crate::tree::{KTree, KtNode, KtNodeId};
use proxbal_chord::{ChordNetwork, PeerId, VsId};

/// A commutative, associative combine operation — the shape of every
/// bottom-up aggregation the tree performs (LBI sums/minima, VSA list
/// unions, …).
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// One value entering [`KTree::aggregate`] at a KT node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggregateInput<A> {
    /// The KT node the value enters at (typically the report target of a
    /// virtual server).
    pub at: KtNodeId,
    /// The value.
    pub value: A,
    /// Whether the value is sent up the tree this round. A value that is
    /// not (a peer's report cached from an earlier round, §3.2's periodic
    /// economy) still folds into the root, but costs no message.
    pub sent: bool,
}

/// Result of a bottom-up aggregation, and of the whole-tree questions the
/// same walk answers.
#[derive(Clone, Debug)]
pub struct AggregateOutcome<A> {
    /// The value accumulated at the root (`None` if no inputs were offered).
    pub root_value: Option<A>,
    /// Number of upward **message** rounds: the largest
    /// [`message depth`](KTree::message_depth) among KT nodes holding an
    /// input (tree edges between nodes planted in the same virtual server
    /// cost no messages). This is the `O(log_K N)` bound the paper states
    /// for LBI aggregation (§3.2).
    pub rounds: u32,
    /// Number of in-tree [`Merge::merge`] operations performed by the walk
    /// — the aggregation *work* (as opposed to `rounds`, its latency).
    pub merges: usize,
    /// Tree edges between KT nodes on different peers that lie on the root
    /// path of a sent input, each counted once however many sent inputs
    /// share it: the messages the sent values cost on their way up.
    pub sent_messages: usize,
    /// Every tree edge between KT nodes on different peers: what handing one
    /// value from the root to every node costs (dissemination, §3.3).
    pub tree_messages: usize,
    /// The largest message depth in the tree: the rounds of that
    /// dissemination.
    pub max_message_depth: u32,
}

/// Subtree roots are farmed out to workers once the frontier at the chosen
/// depth is at least this many times the worker count — below that the
/// spawn overhead outweighs the subtrees.
const MIN_SUBTREES_PER_WORKER: usize = 2;

/// Which arena slots (or which child entries, for leaves held inline) hold
/// an input, and where in the ascending inputs: one bit per slot and the
/// number of inputs before each 64-slot word, so finding a node's input is
/// a load, a mask and a popcount — 1.5 bits a slot, where a slot-indexed
/// map of handles costs 32.
struct SlotIndex {
    bits: Vec<u64>,
    before: Vec<u32>,
}

impl SlotIndex {
    /// Indexes the ascending `slots`; those at or past `bound` name no node
    /// and are left out.
    fn new(slots: impl Iterator<Item = usize>, bound: usize) -> Self {
        let mut bits = vec![0u64; bound.div_ceil(64)];
        for slot in slots.take_while(|&slot| slot < bound) {
            bits[slot / 64] |= 1 << (slot % 64);
        }
        let mut before = Vec::with_capacity(bits.len());
        let mut count = 0u32;
        for word in &bits {
            before.push(count);
            count += word.count_ones();
        }
        SlotIndex { bits, before }
    }

    /// The position of `slot`'s input, if it has one.
    #[inline]
    fn get(&self, slot: usize) -> Option<usize> {
        let (word, bit) = (*self.bits.get(slot / 64)?, slot % 64);
        let below = (word & ((1u64 << bit) - 1)).count_ones() as usize;
        (word >> bit & 1 == 1).then(|| self.before[slot / 64] as usize + below)
    }
}

/// What every step of the walk reads: the inputs at slots, then those at
/// leaves held inline (their handles order after every slot's).
struct Walk<'a, A> {
    net: &'a ChordNetwork,
    at_slots: &'a [AggregateInput<A>],
    slots: SlotIndex,
    at_leaves: &'a [AggregateInput<A>],
    leaves: SlotIndex,
}

impl<A> Walk<'_, A> {
    fn input(&self, id: KtNodeId) -> Option<&AggregateInput<A>> {
        match id.leaf_entry() {
            None => self.slots.get(id.0 as usize).map(|i| &self.at_slots[i]),
            Some(entry) => self.leaves.get(entry).map(|i| &self.at_leaves[i]),
        }
    }
}

/// What the walk counts besides the fold: sums and maxima, so subtrees
/// walked apart add up to the same totals in any order.
#[derive(Default)]
struct Tally {
    merges: usize,
    rounds: u32,
    sent_messages: usize,
    tree_messages: usize,
    max_message_depth: u32,
}

impl Tally {
    fn add(&mut self, other: &Tally) {
        self.merges += other.merges;
        self.rounds = self.rounds.max(other.rounds);
        self.sent_messages += other.sent_messages;
        self.tree_messages += other.tree_messages;
        self.max_message_depth = self.max_message_depth.max(other.max_message_depth);
    }
}

/// One node as the walk arrives at it: its host, its message depth and the
/// peer its host runs on.
#[derive(Clone, Copy)]
struct Step {
    id: KtNodeId,
    host: VsId,
    depth: u32,
    peer: PeerId,
}

/// A subtree's folded value, and whether a sent input lies in it.
type Subtree<A> = (Option<A>, bool);

impl KTree {
    /// Bottom-up aggregation: `inputs` — ascending by handle, at most one
    /// per KT node — are folded to the root, and the same depth-first walk of
    /// the arena answers every whole-tree question of the LBI phase: the
    /// aggregation's rounds and its messages, and the messages and rounds
    /// of disseminating a value back down ([`AggregateOutcome`]). `net`
    /// says which peer hosts each virtual server; a node's message depth is
    /// carried down the walk, a subtree's "holds a sent input" flag up.
    ///
    /// Everything is counted over what the root reaches: inputs under
    /// handles it does not (stale, or in a subtree a fault detached)
    /// contribute nothing, and a detached subtree's edges are no part of
    /// `tree_messages` or `max_message_depth` — the repair that must run
    /// before a round re-attaches it.
    ///
    /// # Determinism
    ///
    /// Every node's value is the fold of its own input followed by its
    /// contributing children **in part order** — the tree's preorder, so
    /// the association of every floating-point sum is a function of the
    /// tree's shape, not of the arena slots its nodes hold. The fold of a
    /// subtree depends only on the subtree, so with `threads > 1` the
    /// disjoint subtrees below a frontier depth are walked on workers and
    /// their values merged above the frontier in the same order; the
    /// counts are sums and maxima. The outcome is bit-identical at any
    /// `threads`. Values are cloned out of `inputs` where they are first
    /// folded.
    pub fn aggregate<A: Merge + Clone + Send + Sync>(
        &self,
        net: &ChordNetwork,
        inputs: &[AggregateInput<A>],
        threads: usize,
    ) -> AggregateOutcome<A> {
        assert!(
            inputs.windows(2).all(|w| w[0].at < w[1].at),
            "aggregate inputs must ascend by handle, one per node"
        );
        let _prof = proxbal_profile::phase("round/aggregate/walk");
        let split = inputs.partition_point(|input| input.at.leaf_entry().is_none());
        let (at_slots, at_leaves) = inputs.split_at(split);
        let bound = self.slot_bound();
        let slots = at_slots.iter().map(|input| input.at.0 as usize);
        let leaves = at_leaves.iter().filter_map(|input| input.at.leaf_entry());
        let walk = Walk {
            net,
            at_slots,
            slots: SlotIndex::new(slots, bound),
            at_leaves,
            leaves: SlotIndex::new(leaves, bound * self.k()),
        };
        let step = |id: KtNodeId, depth: u32| {
            let host = self.node(id).host();
            let peer = net.vs(host).host;
            Step {
                id,
                host,
                depth,
                peer,
            }
        };
        let frontier = self.parallel_frontier(threads);
        let walked = proxbal_parallel::map_items(&frontier, threads, |_, &sub| {
            let depth = self.message_depth(sub).expect("the frontier is reachable");
            let mut tally = Tally::default();
            let folded = self.walk(&walk, self.node(sub), step(sub, depth), &mut tally, &mut []);
            (folded, tally)
        });
        let mut tally = Tally::default();
        let mut folded: Vec<(KtNodeId, Option<Subtree<A>>)> = Vec::with_capacity(frontier.len());
        for (&sub, (value, sub_tally)) in frontier.iter().zip(walked) {
            tally.add(&sub_tally);
            folded.push((sub, Some(value)));
        }
        let root = self.root();
        let at = step(root, 0);
        let (root_value, _) = self.walk(&walk, self.node(root), at, &mut tally, &mut folded);
        AggregateOutcome {
            root_value,
            rounds: tally.rounds,
            merges: tally.merges,
            sent_messages: tally.sent_messages,
            tree_messages: tally.tree_messages,
            max_message_depth: tally.max_message_depth,
        }
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
                .flat_map(|&id| self.node(id).children().flatten())
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

    /// Walks the subtree under `at` (whose view is `node`): its value is
    /// the node's own input, then its contributing children's in part
    /// order; the counts go to `tally`. A node listed in `folded` is a
    /// precomputed leaf — a worker walked its subtree — and gives up what
    /// is recorded there.
    fn walk<A: Merge + Clone>(
        &self,
        walk: &Walk<'_, A>,
        node: KtNode<'_>,
        at: Step,
        tally: &mut Tally,
        folded: &mut [(KtNodeId, Option<Subtree<A>>)],
    ) -> Subtree<A> {
        if let Some((_, done)) = folded.iter_mut().find(|(sub, _)| *sub == at.id) {
            return done.take().expect("a frontier subtree is folded in once");
        }
        let own = walk.input(at.id);
        let mut value = own.map(|input| input.value.clone());
        let mut sent = own.is_some_and(|input| input.sent);
        if own.is_some() {
            tally.rounds = tally.rounds.max(at.depth);
        }
        tally.max_message_depth = tally.max_message_depth.max(at.depth);
        for (i, child) in node.children().enumerate() {
            let Some(child) = child else { continue };
            // A leaf held inline is read off this node's view.
            let view = match child.leaf_entry() {
                Some(_) => node.leaf(i),
                None => self.node(child),
            };
            // An edge inside one virtual server is neither a message nor a
            // change of peer.
            let host = view.host();
            let below = if host == at.host {
                Step { id: child, ..at }
            } else {
                Step {
                    id: child,
                    host,
                    depth: at.depth + 1,
                    peer: walk.net.vs(host).host,
                }
            };
            let crossing = usize::from(below.peer != at.peer);
            let (sub, sub_sent) = self.walk(walk, view, below, tally, folded);
            tally.tree_messages += crossing;
            if sub_sent {
                tally.sent_messages += crossing;
                sent = true;
            }
            if let Some(sub) = sub {
                match value.as_mut() {
                    Some(acc) => {
                        acc.merge(sub);
                        tally.merges += 1;
                    }
                    None => value = Some(sub),
                }
            }
        }
        (value, sent)
    }
}
