use crate::tree::KtNodeId;

/// A dense map from [`KtNodeId`] to `A`, backed by a flat slot vector.
///
/// KT node handles are arena slot indices, so a `Vec<Option<A>>` indexed by
/// the raw slot replaces `HashMap<KtNodeId, A>` everywhere a per-node value
/// travels with a tree: O(1) access with no hashing and one allocation for
/// the whole map. It offers look-ups and [`Self::values`] for order-free
/// reductions, and no iteration by key: slots are no order.
#[derive(Clone, Debug, Default)]
pub struct KtNodeMap<A> {
    slots: Vec<Option<A>>,
    len: usize,
}

impl<A> KtNodeMap<A> {
    /// An empty map with room for slots `0..bound` without reallocating
    /// (use [`KTree::slot_bound`](crate::KTree::slot_bound)).
    pub fn with_slot_bound(bound: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(bound, || None);
        KtNodeMap { slots, len: 0 }
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
        let i = id.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        let old = self.slots[i].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `id`, if present.
    pub fn get(&self, id: KtNodeId) -> Option<&A> {
        self.slots.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// The values, in no promised order.
    pub fn values(&self) -> impl Iterator<Item = &A> {
        self.slots.iter().filter_map(Option::as_ref)
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
