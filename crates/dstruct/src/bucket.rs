//! The Fiduccia–Mattheyses gain bucket structure.

const NIL: u32 = u32::MAX;

/// A gain bucket array over items `0..capacity` with integral gains in
/// `[-max_abs_gain, +max_abs_gain]`.
///
/// Each bucket is an intrusive doubly-linked list, so insert, remove, and
/// gain update are O(1); finding the maximum non-empty bucket is amortised
/// O(1) over a pass because the max pointer only moves down between
/// insertions (the standard FM argument). Items within a bucket are served
/// LIFO, which is the tie-breaking rule of the original FM implementation.
///
/// ```
/// use prop_dstruct::BucketList;
///
/// let mut b = BucketList::new(4, 10);
/// b.insert(0, 3);
/// b.insert(1, -2);
/// b.insert(2, 3);
/// assert_eq!(b.max_gain(), Some(3));
/// assert_eq!(b.peek_max(), Some(2)); // LIFO within the gain-3 bucket
/// b.remove(2);
/// assert_eq!(b.peek_max(), Some(0));
/// ```
#[derive(Clone, Debug)]
pub struct BucketList {
    max_abs_gain: i64,
    /// Head item of each bucket; index = gain + max_abs_gain.
    heads: Vec<u32>,
    prev: Vec<u32>,
    next: Vec<u32>,
    gain: Vec<i64>,
    present: Vec<bool>,
    /// Upper bound on the highest non-empty bucket index.
    max_bucket: usize,
    len: usize,
}

impl BucketList {
    /// Creates an empty bucket list for items `0..capacity` and gains with
    /// absolute value at most `max_abs_gain`.
    ///
    /// # Panics
    ///
    /// Panics if `max_abs_gain < 0`.
    pub fn new(capacity: usize, max_abs_gain: i64) -> Self {
        assert!(max_abs_gain >= 0, "max_abs_gain must be non-negative");
        let buckets = 2 * max_abs_gain as usize + 1;
        BucketList {
            max_abs_gain,
            heads: vec![NIL; buckets],
            prev: vec![NIL; capacity],
            next: vec![NIL; capacity],
            gain: vec![0; capacity],
            present: vec![false; capacity],
            max_bucket: 0,
            len: 0,
        }
    }

    /// Number of items currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no items are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every item, keeping the allocations: the observable state
    /// equals that of a fresh [`BucketList::new`] with the same capacity
    /// and bound. Links and gains of absent items are never read, so only
    /// the bucket heads and presence flags are reset — O(capacity +
    /// buckets), with no second copy of the arrays alive.
    pub fn clear(&mut self) {
        self.heads.fill(NIL);
        self.present.fill(false);
        self.max_bucket = 0;
        self.len = 0;
    }

    /// Returns `true` if `item` is currently stored.
    #[inline]
    pub fn contains(&self, item: usize) -> bool {
        self.present[item]
    }

    /// The current gain of `item`, if stored.
    #[inline]
    pub fn gain_of(&self, item: usize) -> Option<i64> {
        self.present[item].then(|| self.gain[item])
    }

    #[inline]
    fn bucket_of(&self, gain: i64) -> usize {
        debug_assert!(gain.abs() <= self.max_abs_gain);
        (gain + self.max_abs_gain) as usize
    }

    /// Inserts `item` with the given gain.
    ///
    /// # Panics
    ///
    /// Panics if the item is already present, out of range, or the gain's
    /// magnitude exceeds `max_abs_gain`.
    pub fn insert(&mut self, item: usize, gain: i64) {
        assert!(!self.present[item], "item {item} already in bucket list");
        assert!(
            gain.abs() <= self.max_abs_gain,
            "gain {gain} exceeds bound {}",
            self.max_abs_gain
        );
        let b = self.bucket_of(gain);
        let head = self.heads[b];
        self.next[item] = head;
        self.prev[item] = NIL;
        if head != NIL {
            self.prev[head as usize] = item as u32;
        }
        self.heads[b] = item as u32;
        self.gain[item] = gain;
        self.present[item] = true;
        self.len += 1;
        if b > self.max_bucket {
            self.max_bucket = b;
        }
    }

    /// Removes `item`. Returns `true` if it was present.
    pub fn remove(&mut self, item: usize) -> bool {
        if !self.present[item] {
            return false;
        }
        let b = self.bucket_of(self.gain[item]);
        let (p, nx) = (self.prev[item], self.next[item]);
        if p != NIL {
            self.next[p as usize] = nx;
        } else {
            self.heads[b] = nx;
        }
        if nx != NIL {
            self.prev[nx as usize] = p;
        }
        self.present[item] = false;
        self.len -= 1;
        true
    }

    /// Moves `item` to a new gain bucket (it must be present).
    ///
    /// # Panics
    ///
    /// Panics if `item` is not present or the gain is out of range.
    pub fn update(&mut self, item: usize, gain: i64) {
        assert!(self.present[item], "item {item} not in bucket list");
        self.remove(item);
        self.insert(item, gain);
    }

    /// The highest gain of any stored item.
    pub fn max_gain(&mut self) -> Option<i64> {
        if self.len == 0 {
            return None;
        }
        while self.heads[self.max_bucket] == NIL {
            debug_assert!(self.max_bucket > 0, "len > 0 guarantees a non-empty bucket");
            self.max_bucket -= 1;
        }
        Some(self.max_bucket as i64 - self.max_abs_gain)
    }

    /// The item at the head of the highest non-empty bucket (LIFO order).
    pub fn peek_max(&mut self) -> Option<usize> {
        self.max_gain()?;
        Some(self.heads[self.max_bucket] as usize)
    }

    /// Iterates stored `(item, gain)` pairs in non-increasing gain order
    /// (LIFO within each bucket). Used for feasibility scans: the first
    /// item satisfying the balance constraint is the one to move.
    pub fn iter_desc(&self) -> IterDesc<'_> {
        IterDesc {
            list: self,
            bucket: self.heads.len(),
            cursor: NIL,
        }
    }
}

/// Descending-gain iterator over a [`BucketList`].
///
/// Created by [`BucketList::iter_desc`].
#[derive(Debug)]
pub struct IterDesc<'a> {
    list: &'a BucketList,
    /// One past the current bucket (counts down).
    bucket: usize,
    cursor: u32,
}

impl<'a> Iterator for IterDesc<'a> {
    type Item = (usize, i64);

    fn next(&mut self) -> Option<(usize, i64)> {
        loop {
            if self.cursor != NIL {
                let item = self.cursor as usize;
                self.cursor = self.list.next[item];
                return Some((item, self.list.gain[item]));
            }
            if self.bucket == 0 {
                return None;
            }
            self.bucket -= 1;
            self.cursor = self.list.heads[self.bucket];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn insert_remove_basics() {
        let mut b = BucketList::new(3, 5);
        assert!(b.is_empty());
        b.insert(0, 2);
        b.insert(1, -5);
        b.insert(2, 5);
        assert_eq!(b.len(), 3);
        assert_eq!(b.max_gain(), Some(5));
        assert_eq!(b.gain_of(1), Some(-5));
        assert!(b.remove(2));
        assert!(!b.remove(2));
        assert_eq!(b.max_gain(), Some(2));
        assert_eq!(b.gain_of(2), None);
    }

    #[test]
    fn lifo_within_bucket() {
        let mut b = BucketList::new(4, 3);
        b.insert(0, 1);
        b.insert(1, 1);
        b.insert(2, 1);
        assert_eq!(b.peek_max(), Some(2));
        b.remove(2);
        assert_eq!(b.peek_max(), Some(1));
        // Re-inserting puts the node back at the head.
        b.insert(3, 1);
        assert_eq!(b.peek_max(), Some(3));
    }

    #[test]
    fn update_moves_buckets() {
        let mut b = BucketList::new(2, 4);
        b.insert(0, 4);
        b.insert(1, 0);
        b.update(0, -4);
        assert_eq!(b.max_gain(), Some(0));
        b.update(1, 3);
        assert_eq!(b.max_gain(), Some(3));
        assert_eq!(b.peek_max(), Some(1));
    }

    #[test]
    fn iter_desc_order() {
        let mut b = BucketList::new(6, 10);
        b.insert(0, -1);
        b.insert(1, 7);
        b.insert(2, 0);
        b.insert(3, 7);
        b.insert(4, -10);
        let seq: Vec<(usize, i64)> = b.iter_desc().collect();
        let gains: Vec<i64> = seq.iter().map(|&(_, g)| g).collect();
        assert_eq!(gains, vec![7, 7, 0, -1, -10]);
        // LIFO: item 3 inserted after item 1 comes first.
        assert_eq!(seq[0].0, 3);
        assert_eq!(seq[1].0, 1);
    }

    #[test]
    #[should_panic(expected = "already in bucket list")]
    fn double_insert_panics() {
        let mut b = BucketList::new(1, 1);
        b.insert(0, 0);
        b.insert(0, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds bound")]
    fn out_of_range_gain_panics() {
        let mut b = BucketList::new(1, 1);
        b.insert(0, 2);
    }

    #[test]
    fn clear_matches_a_fresh_list() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut reused = BucketList::new(16, 6);
        for round in 0..4 {
            let mut fresh = BucketList::new(16, 6);
            for _ in 0..40 {
                let item = rng.gen_range(0..16);
                let g = rng.gen_range(-6..=6);
                for b in [&mut reused, &mut fresh] {
                    if b.contains(item) {
                        b.update(item, g);
                    } else {
                        b.insert(item, g);
                    }
                }
                if rng.gen_bool(0.2) {
                    assert!(reused.remove(item));
                    assert!(fresh.remove(item));
                }
            }
            let order = |b: &BucketList| b.iter_desc().collect::<Vec<_>>();
            assert_eq!(order(&reused), order(&fresh), "round {round}");
            assert_eq!(reused.len(), fresh.len());
            assert_eq!(reused.max_gain(), fresh.max_gain());
            reused.clear();
            assert!(reused.is_empty());
            assert_eq!(reused.max_gain(), None);
            assert_eq!(reused.iter_desc().count(), 0);
            assert!((0..16).all(|i| !reused.contains(i)));
        }
    }

    #[test]
    fn empty_queries() {
        let mut b = BucketList::new(4, 2);
        assert_eq!(b.max_gain(), None);
        assert_eq!(b.peek_max(), None);
        assert_eq!(b.iter_desc().count(), 0);
    }

    #[test]
    fn randomized_against_naive_model() {
        let mut rng = StdRng::seed_from_u64(1234);
        let cap = 64usize;
        let bound = 20i64;
        let mut b = BucketList::new(cap, bound);
        let mut model: Vec<Option<i64>> = vec![None; cap];
        for _ in 0..5000 {
            let item = rng.gen_range(0..cap);
            match rng.gen_range(0..3) {
                0 => {
                    let g = rng.gen_range(-bound..=bound);
                    if model[item].is_none() {
                        b.insert(item, g);
                        model[item] = Some(g);
                    } else {
                        b.update(item, g);
                        model[item] = Some(g);
                    }
                }
                1 => {
                    let removed = b.remove(item);
                    assert_eq!(removed, model[item].take().is_some());
                }
                _ => {
                    let expect_max = model.iter().filter_map(|&g| g).max();
                    assert_eq!(b.max_gain(), expect_max);
                    let expect_len = model.iter().filter(|g| g.is_some()).count();
                    assert_eq!(b.len(), expect_len);
                }
            }
        }
        // Final full-order check.
        let seq: Vec<i64> = b.iter_desc().map(|(_, g)| g).collect();
        let mut expect: Vec<i64> = model.iter().filter_map(|&g| g).collect();
        expect.sort_unstable_by(|a, x| x.cmp(a));
        assert_eq!(seq, expect);
    }
}
