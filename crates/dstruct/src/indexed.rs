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
//! ```
//! use prop_dstruct::IndexedMaxHeap;
//!
//! let mut h = IndexedMaxHeap::with_ids(3);
//! h.insert(0, 5);
//! h.insert(1, 9);
//! h.update(1, 7); // one sift, no garbage left behind
//! assert_eq!(h.peek(), Some((7, 1)));
//! assert_eq!(h.remove(1), Some(7));
//! assert_eq!(h.peek(), Some((5, 0)));
//! ```
//!
//! [`descend`]: IndexedMaxHeap::descend

const NONE: u32 = u32::MAX;

/// A binary max-heap over `Copy + Ord` keys, addressable by a dense
/// `usize` id, with eager removal. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct IndexedMaxHeap<K> {
    /// `(key, id)` pairs in heap order.
    entries: Vec<(K, u32)>,
    /// `id → index into entries`, or [`NONE`].
    pos: Vec<u32>,
    /// Reusable index frontier for [`IndexedMaxHeap::descend`].
    frontier: Vec<usize>,
}

impl<K: Copy + Ord> IndexedMaxHeap<K> {
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
        for &(_, id) in &self.entries {
            self.pos[id as usize] = NONE;
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
            Some(&p) if p != NONE => Some(self.entries[p as usize].0),
            _ => None,
        }
    }

    /// Inserts a new entry for `id`. The id must not already be present
    /// (debug-asserted) and must be below the `with_ids` bound.
    pub fn insert(&mut self, id: usize, key: K) {
        debug_assert!(!self.contains(id), "insert of an id already present");
        let i = self.entries.len();
        self.entries.push((key, id as u32));
        self.pos[id] = i as u32;
        self.sift_up(i);
    }

    /// Replaces the key of a present `id` (debug-asserted) and restores
    /// heap order with a single sift in whichever direction the new key
    /// moved.
    pub fn update(&mut self, id: usize, key: K) {
        let i = self.pos[id] as usize;
        debug_assert!(self.pos[id] != NONE, "update of an id not present");
        let old = self.entries[i].0;
        self.entries[i].0 = key;
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
        let key = self.entries[i].0;
        self.pos[id] = NONE;
        let last = self.entries.len() - 1;
        if i != last {
            self.entries.swap(i, last);
            self.pos[self.entries[i].1 as usize] = i as u32;
        }
        self.entries.pop();
        if i < self.entries.len() {
            self.sift_up(i);
            self.sift_down(i);
        }
        Some(key)
    }

    /// The maximum entry as `(key, id)`, without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(K, usize)> {
        self.entries.first().map(|&(k, id)| (k, id as usize))
    }

    /// Visits entries in exact descending key order, read-only, for as
    /// long as `visit` returns `true`. Works a max-first frontier of
    /// array indices down from the root: when an index surfaces, its key
    /// is the largest among everything not yet visited (children are
    /// never larger than parents), so no sorting or mutation is needed.
    /// Visiting `k` entries costs O(k²) frontier scans over at most
    /// `k + 1` candidates — for the small `k` of a top-k refresh or a
    /// feasibility probe this is far cheaper than popping and restoring.
    pub fn descend(&mut self, mut visit: impl FnMut(K, usize) -> bool) {
        self.frontier.clear();
        if self.entries.is_empty() {
            return;
        }
        self.frontier.push(0);
        while !self.frontier.is_empty() {
            let mut best = 0;
            for i in 1..self.frontier.len() {
                if self.entries[self.frontier[i]].0 > self.entries[self.frontier[best]].0 {
                    best = i;
                }
            }
            let idx = self.frontier.swap_remove(best);
            let (key, id) = self.entries[idx];
            if !visit(key, id as usize) {
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
            if self.entries[i].0 <= self.entries[parent].0 {
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
            if l < len && self.entries[l].0 > self.entries[largest].0 {
                largest = l;
            }
            if r < len && self.entries[r].0 > self.entries[largest].0 {
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
        self.pos[self.entries[a].1 as usize] = a as u32;
        self.pos[self.entries[b].1 as usize] = b as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    #[test]
    fn insert_peek_remove_roundtrip() {
        let mut h = IndexedMaxHeap::with_ids(8);
        for (id, k) in [(0, 3), (1, 9), (2, 1), (3, 7)] {
            h.insert(id, k);
        }
        assert_eq!(h.len(), 4);
        assert!(h.contains(1));
        assert_eq!(h.key_of(1), Some(9));
        assert_eq!(h.peek(), Some((9, 1)));
        assert_eq!(h.remove(1), Some(9));
        assert_eq!(h.peek(), Some((7, 3)));
        assert_eq!(h.remove(1), None);
        assert!(!h.contains(1));
        assert_eq!(h.key_of(1), None);
    }

    #[test]
    fn update_moves_both_directions() {
        let mut h = IndexedMaxHeap::with_ids(4);
        for (id, k) in [(0, 10), (1, 20), (2, 30), (3, 40)] {
            h.insert(id, k);
        }
        h.update(3, 5); // shrink the max: sifts down
        assert_eq!(h.peek(), Some((30, 2)));
        h.update(0, 99); // grow a leaf: sifts up
        assert_eq!(h.peek(), Some((99, 0)));
    }

    #[test]
    fn descend_yields_exact_descending_order() {
        let mut h = IndexedMaxHeap::with_ids(16);
        for (id, k) in [(0, 3), (1, 9), (2, 1), (3, 7), (4, 5), (5, 8)] {
            h.insert(id, k);
        }
        let mut out = Vec::new();
        h.descend(|k, _| {
            out.push(k);
            true
        });
        assert_eq!(out, vec![9, 8, 7, 5, 3, 1]);
        // Early exit after two entries.
        out.clear();
        h.descend(|k, _| {
            out.push(k);
            out.len() < 2
        });
        assert_eq!(out, vec![9, 8]);
        // Read-only: nothing changed.
        assert_eq!(h.len(), 6);
        assert_eq!(h.peek(), Some((9, 1)));
    }

    #[test]
    fn clear_resets_positions() {
        let mut h = IndexedMaxHeap::with_ids(4);
        h.insert(0, 1);
        h.insert(1, 2);
        h.clear();
        assert!(h.is_empty());
        assert!(!h.contains(0));
        h.insert(0, 5); // reusable after clear
        assert_eq!(h.peek(), Some((5, 0)));
    }

    /// The PROP usage pattern — interleaved inserts, repositions, and
    /// removals — must agree with an ordered-set model at every step.
    #[test]
    fn randomized_ops_match_ordered_model() {
        let mut rng = StdRng::seed_from_u64(4096);
        let mut h: IndexedMaxHeap<(u64, u32)> = IndexedMaxHeap::with_ids(64);
        let mut current: Vec<Option<u64>> = vec![None; 64];
        let mut stamp = 0u64;
        for round in 0..5_000 {
            let id = rng.gen_range(0..64usize);
            stamp += 1;
            if rng.gen_bool(0.7) {
                let key = (stamp, id as u32);
                if current[id].is_some() {
                    h.update(id, key);
                } else {
                    h.insert(id, key);
                }
                current[id] = Some(stamp);
            } else {
                assert_eq!(
                    h.remove(id),
                    current[id].map(|s| (s, id as u32)),
                    "remove disagrees with model"
                );
                current[id] = None;
            }
            if round % 100 == 0 {
                let model: BTreeSet<(u64, u32)> = current
                    .iter()
                    .enumerate()
                    .filter_map(|(v, s)| s.map(|s| (s, v as u32)))
                    .collect();
                assert_eq!(h.peek(), model.iter().next_back().map(|&k| (k, k.1 as usize)));
                assert_eq!(h.len(), model.len());
                // Full descending walk equals the model ordering.
                let mut out = Vec::new();
                h.descend(|k, _| {
                    out.push(k);
                    true
                });
                let expect: Vec<(u64, u32)> = model.iter().rev().copied().collect();
                assert_eq!(out, expect);
            }
        }
    }
}
