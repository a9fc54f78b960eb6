use crate::tree::{KTree, KtNodeId};

/// A dense map from [`KtNodeId`] to `A`, backed by two flat vectors: one
/// indexed by arena slot, one by the child entry of a leaf held inline.
///
/// A `Vec<Option<A>>` indexed by slot or entry replaces `HashMap<KtNodeId,
/// A>` everywhere a per-node value travels with a tree: O(1) access with no
/// hashing and one allocation per vector for the whole map. It offers
/// look-ups and [`Self::values`] for order-free reductions, and no
/// iteration by key: slots are no order.
#[derive(Clone, Debug, Default)]
pub struct KtNodeMap<A> {
    slots: Vec<Option<A>>,
    leaves: Vec<Option<A>>,
    len: usize,
}

impl<A> KtNodeMap<A> {
    /// An empty map with room for every node of `tree` without
    /// reallocating.
    pub fn for_tree(tree: &KTree) -> Self {
        let none = |n: usize| std::iter::repeat_with(|| None).take(n).collect();
        KtNodeMap {
            slots: none(tree.slot_bound()),
            leaves: none(tree.slot_bound() * tree.k()),
            len: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` at `id`, returning the previous value if any.
    pub fn insert(&mut self, id: KtNodeId, value: A) -> Option<A> {
        let (column, i) = match id.leaf_entry() {
            None => (&mut self.slots, id.0 as usize),
            Some(entry) => (&mut self.leaves, entry),
        };
        if i >= column.len() {
            column.resize_with(i + 1, || None);
        }
        let old = column[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `id`, if present.
    fn get(&self, id: KtNodeId) -> Option<&A> {
        let (column, i) = match id.leaf_entry() {
            None => (&self.slots, id.0 as usize),
            Some(entry) => (&self.leaves, entry),
        };
        column.get(i).and_then(Option::as_ref)
    }

    /// The values, in no promised order.
    pub fn values(&self) -> impl Iterator<Item = &A> {
        let all = self.slots.iter().chain(&self.leaves);
        all.filter_map(Option::as_ref)
    }
}

impl<A> std::ops::Index<KtNodeId> for KtNodeMap<A> {
    type Output = A;
    fn index(&self, id: KtNodeId) -> &A {
        self.get(id).expect("no value for KT node")
    }
}

impl<A> std::ops::Index<&KtNodeId> for KtNodeMap<A> {
    type Output = A;
    fn index(&self, id: &KtNodeId) -> &A {
        self.get(*id).expect("no value for KT node")
    }
}
