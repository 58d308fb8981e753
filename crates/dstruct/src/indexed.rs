//! Indexed max-heap: an ordered gain store with *eager* deletion.
//!
//! A lazy-deletion heap makes repositioning a node cheap by leaving the
//! superseded entry behind as garbage — a good trade as long as every
//! query path is a pop that happens to sweep the garbage out. It breaks
//! down the moment a hot query wants to *read* the top of the order
//! without popping (PROP's §3.4 top-k refresh runs per move): dead
//! entries then pile up exactly where the read happens, and either the
//! read wades through them or the caller pays `2k` full-depth sifts per
//! move to pop-and-restore (DESIGN.md §10).
//!
//! This heap removes the garbage instead of skipping it. A position map
//! (`id → slot`) makes every entry addressable, so supersession is a
//! single in-place key change followed by one sift, and removal is a
//! swap-with-last plus one sift. Every entry is live by construction,
//! which is what makes [`descend`] — a read-only best-first walk over
//! the array — cheap enough to serve both the top-k refresh and the
//! balance-feasibility probe of move selection.
//!
//! An entry is the key alone: keys carry their own id ([`HeapKey`]), so
//! no `(key, id)` pair — and no padding after it — is stored.
//!
//! ```
//! use prop_dstruct::{HeapKey, IndexedMaxHeap};
//!
//! #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
//! struct Key {
//!     gain: i32,
//!     id: u32,
//! }
//! impl HeapKey for Key {
//!     fn id(&self) -> usize {
//!         self.id as usize
//!     }
//! }
//!
//! let key = |gain, id| Key { gain, id };
//! let mut h = IndexedMaxHeap::with_ids(3);
//! h.insert(key(5, 0));
//! h.insert(key(9, 1));
//! h.update(key(7, 1)); // one sift, no garbage left behind
//! assert_eq!(h.peek(), Some(key(7, 1)));
//! assert_eq!(h.remove(1), Some(key(7, 1)));
//! assert_eq!(h.peek(), Some(key(5, 0)));
//! ```
//!
//! [`descend`]: IndexedMaxHeap::descend

const NONE: u32 = u32::MAX;

/// A heap key that names the dense id it is stored under.
pub trait HeapKey: Copy + Ord {
    /// The key's id, below the heap's [`IndexedMaxHeap::with_ids`] bound.
    fn id(&self) -> usize;
}

/// A binary max-heap over [`HeapKey`]s, addressable by their dense id,
/// with eager removal. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct IndexedMaxHeap<K> {
    /// Keys in heap order.
    entries: Vec<K>,
    /// `id → index into entries`, or [`NONE`].
    pos: Vec<u32>,
    /// Reusable index frontier for [`IndexedMaxHeap::descend`].
    frontier: Vec<usize>,
}

impl<K: HeapKey> IndexedMaxHeap<K> {
    /// Creates an empty heap addressable by ids `0..n`.
    pub fn with_ids(n: usize) -> Self {
        IndexedMaxHeap {
            entries: Vec::with_capacity(n),
            pos: vec![NONE; n],
            frontier: Vec::new(),
        }
    }

    /// Number of stored entries (all of them live).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Removes every entry, retaining the allocations.
    pub fn clear(&mut self) {
        for key in &self.entries {
            self.pos[key.id()] = NONE;
        }
        self.entries.clear();
    }

    /// Returns `true` when `id` currently has an entry.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.pos.get(id).is_some_and(|&p| p != NONE)
    }

    /// The stored key of `id`, if present.
    pub fn key_of(&self, id: usize) -> Option<K> {
        match self.pos.get(id) {
            Some(&p) if p != NONE => Some(self.entries[p as usize]),
            _ => None,
        }
    }

    /// Inserts `key` under its id. The id must not already be present
    /// (debug-asserted) and must be below the `with_ids` bound.
    pub fn insert(&mut self, key: K) {
        debug_assert!(!self.contains(key.id()), "insert of an id already present");
        let i = self.entries.len();
        self.entries.push(key);
        self.pos[key.id()] = i as u32;
        self.sift_up(i);
    }

    /// Replaces the key stored under `key`'s id (present, debug-asserted)
    /// and restores heap order with a single sift in whichever direction
    /// the key moved.
    pub fn update(&mut self, key: K) {
        let id = key.id();
        debug_assert!(self.pos[id] != NONE, "update of an id not present");
        let i = self.pos[id] as usize;
        let old = std::mem::replace(&mut self.entries[i], key);
        if key > old {
            self.sift_up(i);
        } else if key < old {
            self.sift_down(i);
        }
    }

    /// Removes `id`'s entry and returns its key; `None` when absent.
    pub fn remove(&mut self, id: usize) -> Option<K> {
        let p = *self.pos.get(id)?;
        if p == NONE {
            return None;
        }
        let i = p as usize;
        self.pos[id] = NONE;
        let key = self.entries.swap_remove(i);
        if i < self.entries.len() {
            self.pos[self.entries[i].id()] = i as u32;
            self.sift_up(i);
            self.sift_down(i);
        }
        Some(key)
    }

    /// The maximum key, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<K> {
        self.entries.first().copied()
    }

    /// Visits keys in exact descending order, read-only, for as long as
    /// `visit` returns `true`. Works a max-first frontier of array indices
    /// down from the root: when an index surfaces, its key is the largest
    /// among everything not yet visited (children are never larger than
    /// parents), so no sorting or mutation is needed. Visiting `k` keys
    /// costs O(k²) frontier scans over at most `k + 1` candidates — for
    /// the small `k` of a top-k refresh or a feasibility probe this is far
    /// cheaper than popping and restoring.
    pub fn descend(&mut self, mut visit: impl FnMut(K) -> bool) {
        self.frontier.clear();
        if self.entries.is_empty() {
            return;
        }
        self.frontier.push(0);
        while !self.frontier.is_empty() {
            let mut best = 0;
            for i in 1..self.frontier.len() {
                if self.entries[self.frontier[i]] > self.entries[self.frontier[best]] {
                    best = i;
                }
            }
            let idx = self.frontier.swap_remove(best);
            if !visit(self.entries[idx]) {
                return;
            }
            for child in [2 * idx + 1, 2 * idx + 2] {
                if child < self.entries.len() {
                    self.frontier.push(child);
                }
            }
        }
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[i] <= self.entries[parent] {
                break;
            }
            self.swap_slots(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.entries.len();
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < len && self.entries[l] > self.entries[largest] {
                largest = l;
            }
            if r < len && self.entries[r] > self.entries[largest] {
                largest = r;
            }
            if largest == i {
                return;
            }
            self.swap_slots(i, largest);
            i = largest;
        }
    }

    #[inline]
    fn swap_slots(&mut self, a: usize, b: usize) {
        self.entries.swap(a, b);
        self.pos[self.entries[a].id()] = a as u32;
        self.pos[self.entries[b].id()] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// A test key carrying its id after the ordered part, as PROP's
    /// selection key does.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    struct Key(u64, u32);

    impl HeapKey for Key {
        fn id(&self) -> usize {
            self.1 as usize
        }
    }

    fn heap_of(n: usize, entries: &[(u32, u64)]) -> IndexedMaxHeap<Key> {
        let mut h = IndexedMaxHeap::with_ids(n);
        for &(id, k) in entries {
            h.insert(Key(k, id));
        }
        h
    }

    #[test]
    fn insert_peek_remove_roundtrip() {
        let mut h = heap_of(8, &[(0, 3), (1, 9), (2, 1), (3, 7)]);
        assert_eq!(h.len(), 4);
        assert!(h.contains(1));
        assert_eq!(h.key_of(1), Some(Key(9, 1)));
        assert_eq!(h.peek(), Some(Key(9, 1)));
        assert_eq!(h.remove(1), Some(Key(9, 1)));
        assert_eq!(h.peek(), Some(Key(7, 3)));
        assert_eq!(h.remove(1), None);
        assert!(!h.contains(1));
        assert_eq!(h.key_of(1), None);
        // Removing the last slot needs no sift.
        let last = h.entries[h.len() - 1];
        assert_eq!(h.remove(last.id()), Some(last));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn update_moves_both_directions() {
        let mut h = heap_of(4, &[(0, 10), (1, 20), (2, 30), (3, 40)]);
        h.update(Key(5, 3)); // shrink the max: sifts down
        assert_eq!(h.peek(), Some(Key(30, 2)));
        h.update(Key(99, 0)); // grow a leaf: sifts up
        assert_eq!(h.peek(), Some(Key(99, 0)));
        assert_eq!(h.key_of(3), Some(Key(5, 3)));
    }

    #[test]
    fn descend_yields_exact_descending_order() {
        let mut h = heap_of(16, &[(0, 3), (1, 9), (2, 1), (3, 7), (4, 5), (5, 8)]);
        let mut out = Vec::new();
        h.descend(|k| {
            out.push(k.0);
            true
        });
        assert_eq!(out, vec![9, 8, 7, 5, 3, 1]);
        // Early exit after two entries.
        out.clear();
        h.descend(|k| {
            out.push(k.0);
            out.len() < 2
        });
        assert_eq!(out, vec![9, 8]);
        // Read-only: nothing changed.
        assert_eq!(h.len(), 6);
        assert_eq!(h.peek(), Some(Key(9, 1)));
    }

    #[test]
    fn clear_resets_positions() {
        let mut h = heap_of(4, &[(0, 1), (1, 2)]);
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(0));
        h.insert(Key(5, 0)); // reusable after clear
        assert_eq!(h.peek(), Some(Key(5, 0)));
    }

    /// The PROP usage pattern — interleaved inserts, repositions, and
    /// removals — must agree with an ordered-set model at every step.
    #[test]
    fn randomized_ops_match_ordered_model() {
        let mut rng = StdRng::seed_from_u64(4096);
        let mut h: IndexedMaxHeap<Key> = IndexedMaxHeap::with_ids(64);
        let mut current: Vec<Option<u64>> = vec![None; 64];
        let mut stamp = 0u64;
        for round in 0..5_000 {
            let id = rng.gen_range(0..64usize);
            stamp += 1;
            if rng.gen_bool(0.7) {
                let key = Key(stamp, id as u32);
                if current[id].is_some() {
                    h.update(key);
                } else {
                    h.insert(key);
                }
                current[id] = Some(stamp);
            } else {
                assert_eq!(
                    h.remove(id),
                    current[id].map(|s| Key(s, id as u32)),
                    "remove disagrees with model"
                );
                current[id] = None;
            }
            if round % 100 == 0 {
                let model: BTreeSet<Key> = current
                    .iter()
                    .enumerate()
                    .filter_map(|(v, s)| s.map(|s| Key(s, v as u32)))
                    .collect();
                assert_eq!(h.peek(), model.iter().next_back().copied());
                assert_eq!(h.len(), model.len());
                // Full descending walk equals the model ordering.
                let mut out = Vec::new();
                h.descend(|k| {
                    out.push(k);
                    true
                });
                let expect: Vec<Key> = model.iter().rev().copied().collect();
                assert_eq!(out, expect);
            }
        }
    }
}
