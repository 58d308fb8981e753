//! Auditor implementations for the `prop_core::audit` hook points.
//!
//! [`OracleAuditor`] checks every record an engine emits against the
//! naive oracles of [`crate::oracle`] and panics with a descriptive
//! message on the first violation — gain tables that drifted from the
//! Eqns. 2–6 recomputation, a locked node that moved, a double move, an
//! incremental cut that disagrees with a recount, a prefix commit that a
//! naive scan would have chosen differently, or a rollback that failed to
//! restore the pre-pass state.
//!
//! [`RecordingAuditor`] makes no checks: it logs each pass's move
//! sequence, gain tables, and commit so differential tests can compare
//! two engines' executions bit-for-bit.
//!
//! Both are plain [`Auditor`] implementations and compile without any
//! feature; installing them into the engines' thread-local hook slot
//! requires the `debug-audit` feature (see `prop_core::audit::AuditScope`).

use crate::oracle;
use prop_core::audit::{Auditor, MoveRecord, PassBegin, PassRecord, RefinementRecord};
use prop_core::{probabilistic_gains, Side};
use std::cell::RefCell;
use std::rc::Rc;

/// Tolerance for comparisons against incrementally maintained floats
/// (cut costs, delta-updated FM gains, mid-pass probabilistic gains).
/// From-scratch quantities (refinement-end gain tables, prefix sums) are
/// compared exactly.
pub const AUDIT_TOLERANCE: f64 = 1e-9;

/// Counters of what an [`OracleAuditor`] actually observed, shared out
/// through [`OracleAuditor::new`] so tests can assert the hooks fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct AuditStats {
    /// Passes begun.
    pub passes: usize,
    /// Refinement records checked (PROP only).
    pub refinements: usize,
    /// Moves checked.
    pub moves: usize,
    /// Pass commits checked.
    pub commits: usize,
}

/// The invariant-checking auditor. See the module docs.
#[derive(Default)]
pub struct OracleAuditor {
    stats: Rc<RefCell<AuditStats>>,
    /// Side of every node when the current pass began.
    begin_sides: Vec<Side>,
    /// Naive cut when the current pass began.
    begin_cut: f64,
    /// Naive cut after the last audited move.
    prev_cut: f64,
    /// Nodes moved so far in the current pass.
    moved: Vec<bool>,
}

impl OracleAuditor {
    /// Creates an auditor plus a shared handle to its counters.
    pub fn new() -> (Self, Rc<RefCell<AuditStats>>) {
        let auditor = OracleAuditor::default();
        let stats = auditor.stats.clone();
        (auditor, stats)
    }
}

impl Auditor for OracleAuditor {
    fn begin_pass(&mut self, r: &PassBegin<'_>) {
        let n = r.graph.num_nodes();
        self.begin_sides = (0..n)
            .map(|v| r.partition.side(prop_netlist::NodeId::new(v)))
            .collect();
        self.begin_cut = oracle::naive_cut(r.graph, r.partition);
        self.prev_cut = self.begin_cut;
        self.moved = vec![false; n];
        assert!(
            (r.cut.cut_cost() - self.begin_cut).abs() <= AUDIT_TOLERANCE,
            "[{}] pass-start incremental cut {} != recount {}",
            r.engine,
            r.cut.cut_cost(),
            self.begin_cut
        );
        self.stats.borrow_mut().passes += 1;
    }

    fn after_refinement(&mut self, r: &RefinementRecord<'_>) {
        let n = r.graph.num_nodes();
        assert_eq!(r.gains.len(), n, "[{}] gain table length", r.engine);
        assert_eq!(r.probabilities.len(), n, "[{}] probability length", r.engine);
        assert!(
            r.locked.iter().all(|&l| !l),
            "[{}] nodes locked before the move phase",
            r.engine
        );
        for (v, &p) in r.probabilities.iter().enumerate() {
            assert!(
                p > 0.0 && p <= 1.0,
                "[{}] refinement probability of node {v} is {p}, outside (0, 1]",
                r.engine
            );
        }
        // The engine rebuilt its products from scratch just before this
        // point, so the engine-arithmetic oracle must agree bit-for-bit.
        let mirror =
            oracle::engine_prop_gains(r.graph, r.partition, r.probabilities, r.locked);
        for (v, (&engine, &expect)) in r.gains.iter().zip(&mirror).enumerate() {
            assert!(
                engine == expect,
                "[{}] refinement gain of node {v}: engine {engine} != from-scratch {expect} \
                 (bit-exact expected)",
                r.engine
            );
        }
        // And the independent Eqn. 3-4 formulation to tolerance.
        let independent = probabilistic_gains(r.graph, r.partition, r.probabilities, r.locked);
        for (v, (&engine, &expect)) in r.gains.iter().zip(&independent).enumerate() {
            assert!(
                (engine - expect).abs() <= AUDIT_TOLERANCE,
                "[{}] refinement gain of node {v}: engine {engine} vs independent oracle \
                 {expect}",
                r.engine
            );
        }
        self.stats.borrow_mut().refinements += 1;
    }

    fn after_move(&mut self, r: &MoveRecord<'_>) {
        let e = r.engine;
        let u = r.moved.index();
        assert!(!self.moved[u], "[{e}] node {u} moved twice in one pass");
        self.moved[u] = true;
        assert!(r.locked[u], "[{e}] moved node {u} not locked");
        assert_eq!(
            r.partition.side(r.moved),
            self.begin_sides[u].other(),
            "[{e}] node {u} is not on the opposite of its pass-start side"
        );
        // Locked set is exactly the moved set.
        for (v, &l) in r.locked.iter().enumerate() {
            assert_eq!(
                l, self.moved[v],
                "[{e}] lock flag of node {v} disagrees with the audited move set"
            );
        }
        // Incremental cut and immediate gain against a recount.
        let cut = oracle::naive_cut(r.graph, r.partition);
        assert!(
            (r.cut.cut_cost() - cut).abs() <= AUDIT_TOLERANCE,
            "[{e}] incremental cut {} != recount {cut} after moving {u}",
            r.cut.cut_cost()
        );
        assert!(
            (self.prev_cut - cut - r.immediate_gain).abs() <= AUDIT_TOLERANCE,
            "[{e}] immediate gain {} of node {u} != cut delta {}",
            r.immediate_gain,
            self.prev_cut - cut
        );
        self.prev_cut = cut;
        // Running side weights against a recount.
        let weights = oracle::naive_side_weights(r.graph, r.partition);
        for (s, (&w, &expect)) in r.side_weights.iter().zip(&weights).enumerate() {
            assert!(
                (w - expect).abs() <= AUDIT_TOLERANCE,
                "[{e}] side-{s} weight {w} != recount {expect}"
            );
        }
        // Probabilities: locked nodes carry 0, live ones stay in (0, 1].
        if let Some(p) = r.probabilities {
            for (v, &l) in r.locked.iter().enumerate() {
                if l {
                    assert_eq!(p[v], 0.0, "[{e}] locked node {v} has probability {}", p[v]);
                } else {
                    assert!(
                        p[v] > 0.0 && p[v] <= 1.0,
                        "[{e}] live node {v} has probability {}",
                        p[v]
                    );
                }
            }
        }
        // Gain-container contents. For PROP (`fresh` present), per-move
        // gain exactness is *not* an invariant — the §3.4 refresh sweep
        // is sequential, so nodes refreshed early can be stale again by
        // the end of the move. What must hold instead: the moved node was
        // part of the sweep, and the per-net products agree with a
        // from-scratch rebuild from the current probabilities (the moved
        // node's nets are recomputed exactly; refreshes use a drift-free
        // ratio update). Mid-pass gain exactness is what the bit-for-bit
        // `ReferenceProp` differential pins down.
        match (r.fresh, r.probabilities, r.products) {
            (Some((marks, epoch)), Some(p), Some(nets)) => {
                assert_eq!(
                    marks[u], epoch,
                    "[{e}] moved node {u} missing from its own refresh sweep"
                );
                // The engine packs each side into an occupancy flag and an
                // effective product that is exactly 0 once the side holds
                // a locked pin; both must agree with the oracle's counts.
                let rebuilt = oracle::net_products(r.graph, r.partition, p, r.locked);
                for (net, (hot, expect)) in nets.iter().zip(&rebuilt.prod).enumerate() {
                    let pins = oracle::naive_pins_on(
                        r.graph,
                        r.partition,
                        prop_netlist::NetId::new(net),
                    );
                    for s in 0..2 {
                        assert_eq!(
                            hot.occupied[s],
                            pins[s] > 0,
                            "[{e}] occupancy of net {net} side {s} after moving {u}"
                        );
                        let engine = hot.prod[s];
                        if rebuilt.locked[net][s] > 0 {
                            assert_eq!(
                                engine.to_bits(),
                                0,
                                "[{e}] effective product of net {net} side {s} with a locked \
                                 pin after moving {u}: {engine}"
                            );
                        } else {
                            let rebuild = expect[s];
                            assert!(
                                (engine - rebuild).abs() <= AUDIT_TOLERANCE,
                                "[{e}] product of net {net} side {s} after moving {u}: engine \
                                 {engine} vs rebuild {rebuild}"
                            );
                        }
                    }
                }
            }
            _ => {
                // FM semantics: every unlocked gain is delta-maintained
                // exactly; compare all of them to the Eqn.-1 recount.
                let fm = oracle::naive_fm_gains(r.graph, r.partition);
                for (v, (&engine, &expect)) in r.gains.iter().zip(&fm).enumerate() {
                    if r.locked[v] {
                        continue;
                    }
                    assert!(
                        (engine - expect).abs() <= AUDIT_TOLERANCE,
                        "[{e}] delta-maintained gain of node {v} after moving {u}: engine \
                         {engine} vs oracle {expect}"
                    );
                }
            }
        }
        self.stats.borrow_mut().moves += 1;
    }

    fn after_pass(&mut self, r: &PassRecord<'_>) {
        let e = r.engine;
        let n = r.graph.num_nodes();
        assert_eq!(r.moves.len(), r.immediate_gains.len(), "[{e}] ragged pass record");
        assert_eq!(r.moves.len(), r.feasible.len(), "[{e}] ragged pass record");
        // The commit must be exactly what a naive max-prefix scan selects.
        let best = oracle::best_prefix_naive(r.immediate_gains, r.feasible);
        let (moves, gain) = best.unwrap_or((0, 0.0));
        assert_eq!(
            r.committed_moves, moves,
            "[{e}] committed prefix length {} != naive scan {moves}",
            r.committed_moves
        );
        assert!(
            r.committed_gain == gain,
            "[{e}] committed gain {} != naive scan {gain} (bit-exact expected)",
            r.committed_gain
        );
        // Rollback restores exactly the pre-pass state plus the committed
        // prefix of moves.
        let mut expected = std::mem::take(&mut self.begin_sides);
        for &u in &r.moves[..r.committed_moves] {
            expected[u.index()] = expected[u.index()].other();
        }
        for (v, &want) in expected.iter().enumerate() {
            assert_eq!(
                r.partition.side(prop_netlist::NodeId::new(v)),
                want,
                "[{e}] node {v} on the wrong side after rollback \
                 (committed {} of {} moves)",
                r.committed_moves,
                r.moves.len()
            );
        }
        self.begin_sides = expected;
        // Post-commit cut consistency and total-gain accounting.
        let cut = oracle::naive_cut(r.graph, r.partition);
        assert!(
            (r.cut.cut_cost() - cut).abs() <= AUDIT_TOLERANCE,
            "[{e}] post-pass incremental cut {} != recount {cut}",
            r.cut.cut_cost()
        );
        assert!(
            (self.begin_cut - cut - r.committed_gain).abs() <= AUDIT_TOLERANCE,
            "[{e}] committed gain {} != pass cut delta {}",
            r.committed_gain,
            self.begin_cut - cut
        );
        // Balance invariant: a committed prefix ends feasible; an empty
        // commit restores the (feasible or not) pre-pass state exactly.
        if r.committed_moves > 0 {
            assert!(
                r.feasible[r.committed_moves - 1],
                "[{e}] committed an infeasible prefix"
            );
            assert!(
                oracle::naive_is_feasible(r.graph, r.partition, r.balance),
                "[{e}] post-commit partition violates the balance constraint"
            );
        }
        // No phantom moves: every recorded move is a distinct real node.
        let mut seen = vec![false; n];
        for &u in r.moves {
            assert!(!seen[u.index()], "[{e}] node {u} recorded twice");
            seen[u.index()] = true;
        }
        self.stats.borrow_mut().commits += 1;
    }
}

/// One engine pass as seen through the hooks, for cross-engine diffing.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PassLog {
    /// Engine display name.
    pub engine: String,
    /// Gain table at the end of refinement (PROP only).
    pub refinement_gains: Option<Vec<f64>>,
    /// Probabilities at the end of refinement (PROP only).
    pub refinement_probabilities: Option<Vec<f64>>,
    /// Tentatively moved nodes, in order.
    pub moves: Vec<usize>,
    /// Immediate gain of each tentative move.
    pub immediate_gains: Vec<f64>,
    /// Committed prefix length.
    pub committed_moves: usize,
    /// Committed prefix gain.
    pub committed_gain: f64,
    /// Incremental cut cost after the commit.
    pub end_cut: f64,
}

/// A check-free auditor that logs every pass into a shared vector.
#[derive(Default)]
pub struct RecordingAuditor {
    log: Rc<RefCell<Vec<PassLog>>>,
    current: PassLog,
}

impl RecordingAuditor {
    /// Creates a recorder plus the shared handle its passes append to.
    pub fn new() -> (Self, Rc<RefCell<Vec<PassLog>>>) {
        let recorder = RecordingAuditor::default();
        let log = recorder.log.clone();
        (recorder, log)
    }
}

impl Auditor for RecordingAuditor {
    fn begin_pass(&mut self, r: &PassBegin<'_>) {
        self.current = PassLog {
            engine: r.engine.to_string(),
            ..PassLog::default()
        };
    }

    fn after_refinement(&mut self, r: &RefinementRecord<'_>) {
        self.current.refinement_gains = Some(r.gains.to_vec());
        self.current.refinement_probabilities = Some(r.probabilities.to_vec());
    }

    fn after_move(&mut self, r: &MoveRecord<'_>) {
        self.current.moves.push(r.moved.index());
        self.current.immediate_gains.push(r.immediate_gain);
    }

    fn after_pass(&mut self, r: &PassRecord<'_>) {
        self.current.committed_moves = r.committed_moves;
        self.current.committed_gain = r.committed_gain;
        self.current.end_cut = r.cut.cut_cost();
        self.log.borrow_mut().push(std::mem::take(&mut self.current));
    }
}

/// Runs `f` with `auditor` installed in the engines' thread-local hook
/// slot, restoring the previous auditor afterwards (panic-safe).
#[cfg(feature = "debug-audit")]
pub fn audited<T>(auditor: Box<dyn Auditor>, f: impl FnOnce() -> T) -> T {
    let _scope = prop_core::audit::AuditScope::new(auditor);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_core::{BalanceConstraint, Bipartition, CutState};
    use prop_netlist::HypergraphBuilder;

    fn tiny() -> (prop_netlist::Hypergraph, Bipartition) {
        let mut b = HypergraphBuilder::new(4);
        b.add_net(1.0, [0, 1]).unwrap();
        b.add_net(1.0, [1, 2]).unwrap();
        b.add_net(1.0, [2, 3]).unwrap();
        let g = b.build().unwrap();
        let p = Bipartition::from_sides(vec![Side::A, Side::A, Side::B, Side::B]);
        (g, p)
    }

    #[test]
    fn oracle_auditor_counts_hooks() {
        let (g, p) = tiny();
        let cut = CutState::new(&g, &p);
        let (mut auditor, stats) = OracleAuditor::new();
        auditor.begin_pass(&PassBegin {
            engine: "test",
            graph: &g,
            partition: &p,
            cut: &cut,
            balance: BalanceConstraint::bisection(4),
        });
        assert_eq!(stats.borrow().passes, 1);
        assert_eq!(stats.borrow().moves, 0);
    }

    #[test]
    #[should_panic(expected = "incremental cut")]
    fn oracle_auditor_rejects_inconsistent_cut() {
        let (g, p) = tiny();
        // A cut state computed for a *different* partition.
        let wrong = Bipartition::from_sides(vec![Side::A, Side::B, Side::A, Side::B]);
        let cut = CutState::new(&g, &wrong);
        let (mut auditor, _) = OracleAuditor::new();
        auditor.begin_pass(&PassBegin {
            engine: "test",
            graph: &g,
            partition: &p,
            cut: &cut,
            balance: BalanceConstraint::bisection(4),
        });
    }

    #[test]
    fn recording_auditor_captures_a_pass() {
        let (g, p) = tiny();
        let cut = CutState::new(&g, &p);
        let (mut rec, log) = RecordingAuditor::new();
        rec.begin_pass(&PassBegin {
            engine: "test",
            graph: &g,
            partition: &p,
            cut: &cut,
            balance: BalanceConstraint::bisection(4),
        });
        rec.after_pass(&PassRecord {
            engine: "test",
            graph: &g,
            partition: &p,
            cut: &cut,
            balance: BalanceConstraint::bisection(4),
            moves: &[],
            immediate_gains: &[],
            feasible: &[],
            committed_moves: 0,
            committed_gain: 0.0,
        });
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].engine, "test");
        assert_eq!(log[0].committed_moves, 0);
        assert!(log[0].refinement_gains.is_none());
    }
}
