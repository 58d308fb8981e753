//! Property tests pitting the gain containers against naive models.

use proptest::prelude::*;
use prop_dstruct::{AvlTree, BucketList, PrefixTracker};
use std::collections::BTreeSet;

/// Operations on a keyed container.
#[derive(Clone, Debug)]
enum Op {
    Insert(u16),
    Remove(u16),
    CheckOrder,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u16..200).prop_map(Op::Insert),
            (0u16..200).prop_map(Op::Remove),
            Just(Op::CheckOrder),
        ],
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The AVL tree behaves exactly like a BTreeSet under any operation
    /// sequence, and stays height-balanced.
    #[test]
    fn avl_matches_btreeset(ops in arb_ops()) {
        let mut tree = AvlTree::new();
        let mut model = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(k) => prop_assert_eq!(tree.insert(k), model.insert(k)),
                Op::Remove(k) => prop_assert_eq!(tree.remove(&k), model.remove(&k)),
                Op::CheckOrder => {
                    prop_assert_eq!(tree.len(), model.len());
                    prop_assert_eq!(tree.max(), model.iter().next_back());
                    prop_assert_eq!(tree.min(), model.iter().next());
                    let a: Vec<u16> = tree.iter().copied().collect();
                    let b: Vec<u16> = model.iter().copied().collect();
                    prop_assert_eq!(a, b);
                    let d: Vec<u16> = tree.iter_desc().copied().collect();
                    let e: Vec<u16> = model.iter().rev().copied().collect();
                    prop_assert_eq!(d, e);
                }
            }
        }
        tree.validate();
    }

    /// The bucket list agrees with a per-item model for gains, max, and
    /// descending iteration order (gains only; within-gain order is LIFO
    /// and checked by unit tests).
    #[test]
    fn bucket_list_matches_model(
        ops in proptest::collection::vec((0usize..48, -12i64..=12, 0u8..3), 1..300)
    ) {
        let mut bucket = BucketList::new(48, 12);
        let mut model: Vec<Option<i64>> = vec![None; 48];
        for (item, gain, kind) in ops {
            match kind {
                0 => {
                    if model[item].is_none() {
                        bucket.insert(item, gain);
                        model[item] = Some(gain);
                    } else {
                        bucket.update(item, gain);
                        model[item] = Some(gain);
                    }
                }
                1 => {
                    prop_assert_eq!(bucket.remove(item), model[item].take().is_some());
                }
                _ => {
                    let expected_max = model.iter().filter_map(|&g| g).max();
                    prop_assert_eq!(bucket.max_gain(), expected_max);
                    prop_assert_eq!(bucket.len(), model.iter().flatten().count());
                    prop_assert_eq!(bucket.contains(item), model[item].is_some());
                    prop_assert_eq!(bucket.gain_of(item), model[item]);
                }
            }
        }
        let mut gains: Vec<i64> = bucket.iter_desc().map(|(_, g)| g).collect();
        let mut expect: Vec<i64> = model.iter().filter_map(|&g| g).collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        // iter_desc yields non-increasing gains equal to the sorted model.
        prop_assert!(gains.windows(2).all(|w| w[0] >= w[1]));
        gains.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(gains, expect);
    }

    /// The prefix tracker's answer equals a brute-force scan over all
    /// feasible prefixes.
    #[test]
    fn prefix_tracker_matches_brute_force(
        moves in proptest::collection::vec((-5.0f64..5.0, any::<bool>()), 0..60)
    ) {
        let mut tracker = PrefixTracker::new();
        for &(g, ok) in &moves {
            tracker.push(g, ok);
        }
        // Brute force: best strictly positive feasible prefix, shortest on
        // ties.
        let mut best: Option<(usize, f64)> = None;
        let mut sum = 0.0;
        for (i, &(g, ok)) in moves.iter().enumerate() {
            sum += g;
            if ok && sum > 0.0 && best.is_none_or(|(_, b)| sum > b) {
                best = Some((i + 1, sum));
            }
        }
        let got = tracker.best().map(|b| (b.moves, b.gain));
        prop_assert_eq!(got, best);
    }

    /// After every push, the incrementally tracked best prefix equals a
    /// naive scan of the moves so far, and `moves_since_best` counts the
    /// moves past it. Small half-integral gains make exact ties common.
    #[test]
    fn incremental_best_matches_a_scan_after_every_push(
        moves in proptest::collection::vec((-4i32..=4, any::<bool>()), 0..80)
    ) {
        let mut tracker = PrefixTracker::new();
        for (len, &(g, ok)) in moves.iter().enumerate() {
            tracker.push(f64::from(g) * 0.5, ok);
            let mut best: Option<(usize, f64)> = None;
            let mut sum = 0.0;
            for (i, &(g, ok)) in moves[..=len].iter().enumerate() {
                sum += f64::from(g) * 0.5;
                if ok && sum > 0.0 && best.is_none_or(|(_, b)| sum > b) {
                    best = Some((i + 1, sum));
                }
            }
            prop_assert_eq!(tracker.best().map(|b| (b.moves, b.gain)), best);
            prop_assert_eq!(tracker.moves_since_best(), len + 1 - best.map_or(0, |b| b.0));
        }
    }
}
