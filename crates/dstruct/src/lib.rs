//! Data structures for iterative-improvement partitioning.
//!
//! The DAC-96 PROP reproduction relies on these containers, all
//! implemented here from scratch:
//!
//! * [`BucketList`] — the classic Fiduccia–Mattheyses gain bucket array
//!   with intrusive doubly-linked lists, giving O(1) insert/remove/update
//!   for integral gains (unit net costs).
//! * [`AvlTree`] — a balanced AVL search tree used by FM-tree, FM-bucket's
//!   fractional-cost fallback and LA to order nodes by real-valued gain,
//!   giving O(log n) updates and descending-order traversal for
//!   feasibility scans. (The paper ranks PROP's nodes in one too.)
//! * [`IndexedMaxHeap`] — PROP's gain ranking: a flat array with a
//!   position map and eager removal (one sift per reposition, read-only
//!   descending traversal) over [`HeapKey`]s, keys that carry their own
//!   id. It orders like the tree at a smaller per-move constant. See its
//!   module docs.
//! * [`PrefixTracker`] — the pass bookkeeping shared by FM, LA, and PROP:
//!   records the immediate gain of every tentative move and finds the
//!   best balance-feasible prefix to commit.
//!
//! [`OrderedF64`] provides the total order over finite `f64` gains that the
//! tree keys require.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod avl;
mod bucket;
mod indexed;
mod ordered;
mod prefix;

pub use avl::AvlTree;
pub use bucket::BucketList;
pub use indexed::{HeapKey, IndexedMaxHeap};
pub use ordered::OrderedF64;
pub use prefix::{BestPrefix, PrefixTracker};
