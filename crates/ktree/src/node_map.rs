use crate::tree::KtNodeId;

/// A dense map from [`KtNodeId`] to `A`, backed by a flat slot vector.
///
/// KT node handles are arena slot indices, so a `Vec<Option<A>>` indexed by
/// the raw slot replaces `HashMap<KtNodeId, A>` everywhere a per-node value
/// travels with a tree: O(1) access with no hashing, one allocation for the
/// whole map, and — load-bearing for reproducibility — **iteration in
/// ascending slot order**, the same deterministic order
/// [`KTree::levels`](crate::KTree::levels) walks, regardless of insertion
/// history.
#[derive(Clone, Debug, Default)]
pub struct KtNodeMap<A> {
    slots: Vec<Option<A>>,
    len: usize,
}

impl<A> KtNodeMap<A> {
    /// An empty map.
    pub fn new() -> Self {
        KtNodeMap {
            slots: Vec::new(),
            len: 0,
        }
    }

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

    fn slot(&mut self, id: KtNodeId) -> &mut Option<A> {
        let i = id.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    /// Inserts `value` at `id`, returning the previous value if any.
    pub fn insert(&mut self, id: KtNodeId, value: A) -> Option<A> {
        let slot = self.slot(id);
        let old = slot.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// The value at `id`, if present.
    pub fn get(&self, id: KtNodeId) -> Option<&A> {
        self.slots.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Mutable access to the value at `id`, if present.
    pub fn get_mut(&mut self, id: KtNodeId) -> Option<&mut A> {
        self.slots.get_mut(id.0 as usize).and_then(Option::as_mut)
    }

    /// Removes and returns the value at `id`.
    pub fn remove(&mut self, id: KtNodeId) -> Option<A> {
        let old = self.slots.get_mut(id.0 as usize).and_then(Option::take);
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// True iff `id` has a value.
    pub fn contains(&self, id: KtNodeId) -> bool {
        self.get(id).is_some()
    }

    /// The value at `id`, inserting `A::default()` first if absent
    /// (the `entry(..).or_default()` idiom).
    pub fn or_default(&mut self, id: KtNodeId) -> &mut A
    where
        A: Default,
    {
        if self.get(id).is_none() {
            self.insert(id, A::default());
        }
        self.get_mut(id).expect("just filled")
    }

    /// Keys in ascending slot order.
    pub fn keys(&self) -> impl Iterator<Item = KtNodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|_| KtNodeId(i as u32)))
    }

    /// Values in ascending key (slot) order.
    pub fn values(&self) -> impl Iterator<Item = &A> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// `(key, value)` pairs in ascending key (slot) order.
    pub fn iter(&self) -> impl Iterator<Item = (KtNodeId, &A)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (KtNodeId(i as u32), v)))
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

impl<A> FromIterator<(KtNodeId, A)> for KtNodeMap<A> {
    fn from_iter<T: IntoIterator<Item = (KtNodeId, A)>>(iter: T) -> Self {
        let mut map = KtNodeMap::new();
        for (id, v) in iter {
            map.insert(id, v);
        }
        map
    }
}

impl<A> From<std::collections::HashMap<KtNodeId, A>> for KtNodeMap<A> {
    fn from(map: std::collections::HashMap<KtNodeId, A>) -> Self {
        map.into_iter().collect()
    }
}
