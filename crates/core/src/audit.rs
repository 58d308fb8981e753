//! Engine auditing hook points.
//!
//! Iterative-improvement engines maintain aggressively incremental state —
//! per-net probability products, delta-updated gain containers, running
//! side weights, incremental cut costs. Every optimisation of those hot
//! paths risks silently drifting from the paper's Eqns. 2–6 semantics.
//! This module defines the *hook side* of the verification subsystem: an
//! [`Auditor`] trait with per-move, per-refinement, and per-pass
//! observation points, and a thread-local installation slot the engines
//! report into.
//!
//! The reference oracles that *check* these records against from-scratch
//! recomputation live in the `prop-verify` crate, which depends on this
//! one; only the trait and its record types live here so that the engines
//! can emit records without a dependency cycle.
//!
//! # Cost model
//!
//! All emission sites are compiled out unless the `debug-audit` cargo
//! feature is enabled, so release hot paths are untouched. With the
//! feature enabled but no auditor installed, each site costs one
//! thread-local `Option` check. Auditors are installed per thread
//! ([`install`]); worker threads spawned by the parallel multi-start
//! harness therefore run unaudited unless they install their own.

use crate::balance::BalanceConstraint;
use crate::cut::CutState;
use crate::partition::Bipartition;
use prop_netlist::{Hypergraph, NodeId};

/// State snapshot at the start of a pass, before any probability seeding
/// or tentative move.
pub struct PassBegin<'a> {
    /// Engine display name (`"PROP"`, `"FM-bucket"`, `"FM-tree"`, …).
    pub engine: &'static str,
    /// The hypergraph being partitioned.
    pub graph: &'a Hypergraph,
    /// The partition entering the pass.
    pub partition: &'a Bipartition,
    /// The engine's incremental cut state entering the pass.
    pub cut: &'a CutState,
    /// The balance constraint of the run.
    pub balance: BalanceConstraint,
}

/// State snapshot after the gain/probability refinement fixed point
/// (steps 3–4 of Fig. 2), before the move phase. PROP only.
pub struct RefinementRecord<'a> {
    /// Engine display name.
    pub engine: &'static str,
    /// The hypergraph being partitioned.
    pub graph: &'a Hypergraph,
    /// The current partition.
    pub partition: &'a Bipartition,
    /// The engine's incremental cut state.
    pub cut: &'a CutState,
    /// Per-node move probabilities after refinement.
    pub probabilities: &'a [f64],
    /// Per-node probabilistic gains after refinement. Every entry is
    /// expected to match a from-scratch Eqn. 3–4 evaluation.
    pub gains: &'a [f64],
    /// Per-node lock flags (all `false` at this point of a pass).
    pub locked: &'a [bool],
}

/// Borrowed view of an engine's per-net incremental hot state: for each
/// net, the packed [`NetHot`] record with both sides' effective stay
/// probability products (exactly 0 on a side holding a locked pin) and
/// occupancy flags (the Eqn. 2 bookkeeping plus the Eqn. 3–4 cut-ness
/// test).
///
/// [`NetHot`]: crate::prop::NetHot
pub type NetProductsView<'a> = &'a [crate::prop::NetHot];

/// State snapshot after one committed tentative move (steps 7–8).
pub struct MoveRecord<'a> {
    /// Engine display name.
    pub engine: &'static str,
    /// The hypergraph being partitioned.
    pub graph: &'a Hypergraph,
    /// The partition *after* the move.
    pub partition: &'a Bipartition,
    /// The engine's incremental cut state after the move.
    pub cut: &'a CutState,
    /// The balance constraint of the run.
    pub balance: BalanceConstraint,
    /// The node that moved (now locked).
    pub moved: NodeId,
    /// The exact immediate cut gain the engine recorded for the move.
    pub immediate_gain: f64,
    /// The engine's current per-node gain table.
    pub gains: &'a [f64],
    /// Per-node lock flags after the move.
    pub locked: &'a [bool],
    /// Per-node move probabilities (PROP only).
    pub probabilities: Option<&'a [f64]>,
    /// Per net and side, the engine's effective products and occupancy
    /// flags (PROP only). Unlike the gain table, these must
    /// always agree with a from-scratch rebuild from [`probabilities`]:
    /// the moved node's nets are recomputed exactly and probability
    /// refreshes use a drift-free ratio update.
    ///
    /// [`probabilities`]: MoveRecord::probabilities
    pub products: Option<NetProductsView<'a>>,
    /// Freshness marks: `Some((marks, epoch))` means unlocked nodes with
    /// `marks[v] == epoch` were refreshed during this move's §3.4
    /// neighbor + top-k sweep; `None` means every unlocked entry of
    /// [`gains`] is maintained exactly (FM's delta rules). Note that the
    /// sweep is sequential, so a node refreshed early may be stale again
    /// with respect to the *end-of-move* probabilities — per-move gain
    /// exactness is an FM invariant, not a PROP one.
    ///
    /// [`gains`]: MoveRecord::gains
    pub fresh: Option<(&'a [u32], u32)>,
    /// The engine's running per-side node weights after the move.
    pub side_weights: [f64; 2],
}

/// State snapshot after the best-prefix commit and rollback (steps 9–10).
pub struct PassRecord<'a> {
    /// Engine display name.
    pub engine: &'static str,
    /// The hypergraph being partitioned.
    pub graph: &'a Hypergraph,
    /// The partition after rollback to the committed prefix.
    pub partition: &'a Bipartition,
    /// The engine's incremental cut state after rollback.
    pub cut: &'a CutState,
    /// The balance constraint of the run.
    pub balance: BalanceConstraint,
    /// Every tentatively moved node, in move order.
    pub moves: &'a [NodeId],
    /// The exact immediate gain of each tentative move.
    pub immediate_gains: &'a [f64],
    /// Whether the partition was balance-feasible after each move.
    pub feasible: &'a [bool],
    /// Length of the committed prefix (0 when fully rolled back).
    pub committed_moves: usize,
    /// Total gain of the committed prefix.
    pub committed_gain: f64,
}

/// Observer of engine execution, called at the pass hook points.
///
/// All methods default to no-ops so auditors implement only the hooks
/// they care about. Implementations that check invariants should panic
/// with a descriptive message on violation — an audit failure is a bug in
/// the engine, never a recoverable condition.
pub trait Auditor {
    /// Called at the start of every pass.
    fn begin_pass(&mut self, record: &PassBegin<'_>) {
        let _ = record;
    }

    /// Called after the probability refinement fixed point (PROP only).
    fn after_refinement(&mut self, record: &RefinementRecord<'_>) {
        let _ = record;
    }

    /// Called after every committed tentative move.
    fn after_move(&mut self, record: &MoveRecord<'_>) {
        let _ = record;
    }

    /// Called after the best-prefix commit and rollback of every pass.
    fn after_pass(&mut self, record: &PassRecord<'_>) {
        let _ = record;
    }
}

#[cfg(feature = "debug-audit")]
mod slot {
    use super::Auditor;
    use std::cell::RefCell;

    thread_local! {
        static AUDITOR: RefCell<Option<Box<dyn Auditor>>> = const { RefCell::new(None) };
    }

    /// Installs `auditor` on the current thread, returning the previously
    /// installed auditor, if any. Engines on this thread report into it
    /// until [`uninstall`].
    pub fn install(auditor: Box<dyn Auditor>) -> Option<Box<dyn Auditor>> {
        AUDITOR.with(|slot| slot.borrow_mut().replace(auditor))
    }

    /// Removes and returns the current thread's auditor.
    pub fn uninstall() -> Option<Box<dyn Auditor>> {
        AUDITOR.with(|slot| slot.borrow_mut().take())
    }

    /// Whether an auditor is installed on the current thread.
    pub fn is_active() -> bool {
        AUDITOR.with(|slot| slot.borrow().is_some())
    }

    /// Runs `f` against the installed auditor, if any. Used by the engine
    /// emission sites; the record is only constructed when an auditor is
    /// present.
    ///
    /// # Panics
    ///
    /// Panics if called reentrantly — an auditor callback must not run an
    /// audited engine on the same thread.
    pub fn with_auditor<F: FnOnce(&mut dyn Auditor)>(f: F) {
        AUDITOR.with(|slot| {
            let mut guard = slot
                .try_borrow_mut()
                .expect("auditor callback re-entered an audited engine");
            if let Some(auditor) = guard.as_mut() {
                f(&mut **auditor);
            }
        });
    }
}

#[cfg(feature = "debug-audit")]
pub use slot::{install, is_active, uninstall, with_auditor};

/// An [`install`] guard: uninstalls the auditor when dropped, restoring
/// the previously installed one. Keeps audited test scopes exception-safe.
#[cfg(feature = "debug-audit")]
pub struct AuditScope {
    previous: Option<Box<dyn Auditor>>,
}

#[cfg(feature = "debug-audit")]
impl AuditScope {
    /// Installs `auditor` for the lifetime of the returned guard.
    pub fn new(auditor: Box<dyn Auditor>) -> Self {
        AuditScope {
            previous: install(auditor),
        }
    }
}

#[cfg(feature = "debug-audit")]
impl Drop for AuditScope {
    fn drop(&mut self) {
        match self.previous.take() {
            Some(previous) => {
                let _ = install(previous);
            }
            None => {
                let _ = uninstall();
            }
        }
    }
}

#[cfg(all(test, feature = "debug-audit"))]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    struct Counter(Rc<Cell<usize>>);

    impl Auditor for Counter {
        fn begin_pass(&mut self, _: &PassBegin<'_>) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn install_uninstall_roundtrip() {
        assert!(!is_active());
        let hits = Rc::new(Cell::new(0));
        let old = install(Box::new(Counter(hits.clone())));
        assert!(old.is_none());
        assert!(is_active());
        with_auditor(|a| {
            let g = prop_netlist::HypergraphBuilder::new(2).build().unwrap();
            let p = crate::partition::Bipartition::from_sides(vec![
                crate::partition::Side::A,
                crate::partition::Side::B,
            ]);
            let cut = CutState::new(&g, &p);
            a.begin_pass(&PassBegin {
                engine: "test",
                graph: &g,
                partition: &p,
                cut: &cut,
                balance: BalanceConstraint::bisection(2),
            });
        });
        assert_eq!(hits.get(), 1);
        assert!(uninstall().is_some());
        assert!(!is_active());
    }

    #[test]
    fn scope_restores_previous() {
        let outer_hits = Rc::new(Cell::new(0));
        let _outer = AuditScope::new(Box::new(Counter(outer_hits.clone())));
        {
            let inner_hits = Rc::new(Cell::new(0));
            let _inner = AuditScope::new(Box::new(Counter(inner_hits.clone())));
            assert!(is_active());
        }
        // The outer auditor is back.
        assert!(is_active());
        drop(_outer);
        assert!(!is_active());
    }
}
