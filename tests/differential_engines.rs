//! Cross-engine differential equivalence.
//!
//! Three engine families are pinned against independent implementations:
//!
//! * **PROP vs PROP-oracle** — the incremental engine against
//!   `prop_verify::ReferenceProp`, a from-scratch mirror with no heaps,
//!   no incremental cut state, and no epoch bookkeeping. The two must
//!   agree *bit-for-bit*: identical final partitions, identical per-run
//!   cuts, identical pass traces — across seeds, thread counts, and both
//!   balance regimes (count-based and node-weighted).
//! * **FM-bucket vs FM-tree** — the two gain-container backends of the
//!   same FM pass. Their tie-breaking is LIFO-equivalent by construction
//!   (bucket head == max recency stamp), so on unit-cost circuits they
//!   must produce identical results; under `--features debug-audit` the
//!   recorded move sequences are compared move for move.
//! * **Everything vs the oracle auditor** — with `debug-audit` enabled,
//!   `OracleAuditor` rides inside full PROP/FM runs and re-derives every
//!   per-move invariant from scratch, panicking on the first drift.

use prop_suite::core::{
    cut_cost, BalanceConstraint, ParallelPolicy, Partitioner, Prop, PropConfig,
};
use prop_suite::fm::{FmBucket, FmTree};
use prop_suite::netlist::generate::{generate, GeneratorConfig};
use prop_suite::netlist::{Hypergraph, HypergraphBuilder};
use prop_suite::verify::ReferenceProp;

const SEEDS: [u64; 6] = [0, 1, 2, 17, 99, 12345];

fn circuit(seed: u64) -> Hypergraph {
    generate(&GeneratorConfig::new(72, 80, 270).with_seed(seed)).unwrap()
}

/// A clustered circuit with node weights spanning a factor of 8, for the
/// weighted-balance comparisons.
fn weighted_circuit(seed: u64) -> Hypergraph {
    let base = circuit(seed);
    let mut b = HypergraphBuilder::new(base.num_nodes());
    for net in base.nets() {
        b.add_net(1.0, base.pins_of(net).iter().map(|v| v.index()))
            .unwrap();
    }
    let weights: Vec<f64> = (0..base.num_nodes())
        .map(|v| [0.5, 1.0, 2.0, 4.0][(v * 7 + seed as usize) % 4])
        .collect();
    b.set_node_weights(weights).unwrap();
    b.build().unwrap()
}

#[test]
fn prop_matches_reference_across_seeds() {
    let balance = BalanceConstraint::bisection(72);
    let fast = Prop::new(PropConfig::default());
    let slow = ReferenceProp::new(PropConfig::default());
    for seed in SEEDS {
        let g = circuit(seed);
        let a = fast.run_seeded(&g, balance, seed).unwrap();
        let b = slow.run_seeded(&g, balance, seed).unwrap();
        assert_eq!(a, b, "seed {seed}: engine and reference diverged");
        assert_eq!(a.cut_cost, cut_cost(&g, &a.partition), "seed {seed}");
    }
}

#[test]
fn prop_matches_reference_with_calibrated_profile_and_ratio_balance() {
    let balance = BalanceConstraint::new(0.45, 0.55, 72).unwrap();
    let fast = Prop::new(PropConfig::calibrated());
    let slow = ReferenceProp::new(PropConfig::calibrated());
    for seed in SEEDS {
        let g = circuit(seed ^ 0xbeef);
        let a = fast.run_seeded(&g, balance, seed).unwrap();
        let b = slow.run_seeded(&g, balance, seed).unwrap();
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn prop_traces_match_reference_pass_for_pass() {
    let balance = BalanceConstraint::bisection(72);
    let fast = Prop::new(PropConfig::default());
    let slow = ReferenceProp::new(PropConfig::default());
    for seed in SEEDS.into_iter().take(4) {
        let g = circuit(seed);
        // Same seeded initial partition for both, via the shared harness.
        let mut pa = fast.run_seeded(&g, balance, seed).unwrap().partition;
        let mut pb = pa.clone();
        // Drive both from the *result* partition too (a local minimum):
        // traces must both be a single non-improving pass.
        let (sa, ta) = fast.improve_traced(&g, &mut pa, balance);
        let (sb, tb) = slow.improve_traced(&g, &mut pb, balance);
        assert_eq!(ta, tb, "seed {seed}: pass traces diverged");
        assert_eq!(sa.passes, sb.passes, "seed {seed}");
        assert_eq!(sa.cut_cost, sb.cut_cost, "seed {seed}");
        assert_eq!(pa, pb, "seed {seed}");
    }
}

#[test]
fn prop_matches_reference_across_thread_counts() {
    let balance = BalanceConstraint::bisection(72);
    let g = circuit(7);
    let fast = Prop::new(PropConfig::default());
    let slow = ReferenceProp::new(PropConfig::default());
    let sequential = slow.run_multi(&g, balance, 6, 3).unwrap();
    for threads in [1, 2, 3, 8] {
        let policy = ParallelPolicy::Threads(threads);
        let a = fast.run_multi_parallel(&g, balance, 6, 3, policy).unwrap();
        assert_eq!(
            a, sequential,
            "{threads}-thread engine vs sequential reference"
        );
        let b = slow.run_multi_parallel(&g, balance, 6, 3, policy).unwrap();
        assert_eq!(b, sequential, "{threads}-thread reference vs sequential");
    }
    let auto = fast
        .run_multi_parallel(&g, balance, 6, 3, ParallelPolicy::Auto)
        .unwrap();
    assert_eq!(auto, sequential);
}

/// The weighted-balance descending feasibility probe (each side's ranking
/// walked until a node fits) must match the reference's sorted scan. The
/// probe is unbounded: the depth knob that once capped it is gone, and
/// this is the arm of that comparison that remains.
#[test]
fn prop_matches_reference_under_probe_depth_knob() {
    for seed in SEEDS.into_iter().take(5) {
        let g = weighted_circuit(seed);
        let balance = BalanceConstraint::weighted(0.4, 0.6, &g).unwrap();
        let cfg = PropConfig::calibrated();
        let a = Prop::new(cfg.clone()).run_seeded(&g, balance, seed).unwrap();
        let b = ReferenceProp::new(cfg).run_seeded(&g, balance, seed).unwrap();
        assert_eq!(a, b, "seed {seed}");
        assert!(prop_suite::verify::oracle::naive_is_feasible(
            &g,
            &a.partition,
            balance
        ));
    }
}

/// PROP's one selection structure, the indexed heap, must produce the
/// identical `RunResult` to the container-free reference. Selection keys
/// are unique (gain, recency stamp, node id), so any ordered container
/// picks the same node every move; this pins that property end to end,
/// on both unit-weight (count-balance, peek-only) and weighted
/// (probe-scan) circuits.
#[test]
fn selection_backends_match_each_other_and_the_reference() {
    for seed in SEEDS.into_iter().take(4) {
        let g = circuit(seed);
        let balance = BalanceConstraint::bisection(72);
        let a = Prop::new(PropConfig::default()).run_seeded(&g, balance, seed).unwrap();
        let b = ReferenceProp::new(PropConfig::default())
            .run_seeded(&g, balance, seed)
            .unwrap();
        assert_eq!(a, b, "seed {seed}, unit weights");

        let g = weighted_circuit(seed);
        let balance = BalanceConstraint::weighted(0.4, 0.6, &g).unwrap();
        let a = Prop::new(PropConfig::calibrated()).run_seeded(&g, balance, seed).unwrap();
        let b = ReferenceProp::new(PropConfig::calibrated())
            .run_seeded(&g, balance, seed)
            .unwrap();
        assert_eq!(a, b, "seed {seed}, node weights");
    }
}

#[test]
fn fm_bucket_and_tree_agree_bit_for_bit_on_unit_costs() {
    let balance = BalanceConstraint::bisection(72);
    for seed in SEEDS {
        let g = circuit(seed);
        let rb = FmBucket::default().run_multi(&g, balance, 3, seed).unwrap();
        let rt = FmTree::default().run_multi(&g, balance, 3, seed).unwrap();
        assert_eq!(
            rb, rt,
            "seed {seed}: bucket and tree FM diverged on unit costs"
        );
        assert_eq!(rb.cut_cost, cut_cost(&g, &rb.partition));
    }
}

/// The audited differential tests: auditors hook into live engines, so
/// they exist only when the emission sites are compiled in.
#[cfg(feature = "debug-audit")]
mod audited {
    use super::*;
    use prop_suite::core::Bipartition;
    use prop_suite::verify::{audited, OracleAuditor, PassLog, RecordingAuditor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs `method.improve` from a seeded random partition with a
    /// recording auditor installed, returning the pass logs.
    fn record_run(method: &dyn Partitioner, g: &Hypergraph, seed: u64) -> Vec<PassLog> {
        let balance = BalanceConstraint::bisection(g.num_nodes());
        let (rec, log) = RecordingAuditor::new();
        audited(Box::new(rec), || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = Bipartition::random(g.num_nodes(), &mut rng);
            method.improve(g, &mut p, balance);
        });
        let passes = log.borrow().clone();
        passes
    }

    #[test]
    fn fm_bucket_and_tree_make_identical_move_sequences() {
        for seed in SEEDS {
            let g = circuit(seed);
            let bucket = record_run(&FmBucket::default(), &g, seed);
            let tree = record_run(&FmTree::default(), &g, seed);
            assert_eq!(bucket.len(), tree.len(), "seed {seed}: pass counts");
            for (pass, (pb, pt)) in bucket.iter().zip(&tree).enumerate() {
                assert_eq!(pb.engine, "FM-bucket");
                assert_eq!(pt.engine, "FM-tree");
                assert_eq!(
                    pb.moves, pt.moves,
                    "seed {seed}, pass {pass}: move sequences diverged"
                );
                assert_eq!(pb.immediate_gains, pt.immediate_gains, "seed {seed}, pass {pass}");
                assert_eq!(pb.committed_moves, pt.committed_moves, "seed {seed}, pass {pass}");
                assert_eq!(pb.end_cut, pt.end_cut, "seed {seed}, pass {pass}");
            }
        }
    }

    #[test]
    fn recorded_prop_passes_match_reference_records() {
        let balance = BalanceConstraint::bisection(72);
        for seed in SEEDS.into_iter().take(4) {
            let g = circuit(seed);
            let (rec, log) = RecordingAuditor::new();
            let engine_result = audited(Box::new(rec), || {
                Prop::new(PropConfig::default()).run_seeded(&g, balance, seed).unwrap()
            });
            let mut p = {
                // Reproduce the harness's seeded initial partition by
                // rerunning the reference through the same harness.
                let slow = ReferenceProp::new(PropConfig::default());
                let r = slow.run_seeded(&g, balance, seed).unwrap();
                assert_eq!(engine_result.partition, r.partition, "seed {seed}");
                r.partition
            };
            // Compare the audited engine log against the reference's own
            // recorded re-execution from the common local minimum.
            let slow = ReferenceProp::new(PropConfig::default());
            let (_, _, records) = slow.improve_recorded(&g, &mut p, balance);
            let engine_passes = log.borrow();
            // The audited engine log covers the full run (from the random
            // start); its final pass and the reference's only pass are both
            // non-improving passes from the same minimum.
            let last = engine_passes.last().expect("at least one pass");
            let ref_last = records.last().expect("at least one pass");
            assert_eq!(last.engine, "PROP");
            assert_eq!(last.committed_moves, 0, "seed {seed}: final pass must not improve");
            assert_eq!(ref_last.committed_moves, 0, "seed {seed}");
            assert_eq!(
                last.refinement_gains.as_deref(),
                Some(ref_last.refinement_gains.as_slice()),
                "seed {seed}: refinement gain tables diverged bit-for-bit"
            );
            assert_eq!(
                last.refinement_probabilities.as_deref(),
                Some(ref_last.refinement_probabilities.as_slice()),
                "seed {seed}"
            );
            assert_eq!(last.moves, ref_last.moves, "seed {seed}: tentative moves diverged");
            assert_eq!(last.immediate_gains, ref_last.immediate_gains, "seed {seed}");
        }
    }

    #[test]
    fn oracle_auditor_accepts_full_prop_runs() {
        for seed in SEEDS.into_iter().take(3) {
            let g = circuit(seed);
            let balance = BalanceConstraint::bisection(g.num_nodes());
            let (auditor, stats) = OracleAuditor::new();
            audited(Box::new(auditor), || {
                Prop::new(PropConfig::default()).run_seeded(&g, balance, seed).unwrap();
            });
            let s = *stats.borrow();
            assert!(s.passes >= 1, "seed {seed}: no passes audited");
            assert_eq!(s.passes, s.commits, "seed {seed}");
            assert_eq!(s.passes, s.refinements, "seed {seed}");
            assert!(s.moves > 0, "seed {seed}: no moves audited");
        }
    }

    #[test]
    fn oracle_auditor_accepts_full_fm_runs() {
        for seed in SEEDS.into_iter().take(3) {
            let g = circuit(seed);
            let balance = BalanceConstraint::bisection(g.num_nodes());
            for method in [
                Box::new(FmBucket::default()) as Box<dyn Partitioner>,
                Box::new(FmTree::default()),
            ] {
                let (auditor, stats) = OracleAuditor::new();
                audited(Box::new(auditor), || {
                    method.run_seeded(&g, balance, seed).unwrap();
                });
                let s = *stats.borrow();
                assert!(s.passes >= 1, "seed {seed} {}", method.name());
                assert_eq!(s.refinements, 0, "FM has no refinement phase");
                assert!(s.moves > 0, "seed {seed} {}", method.name());
            }
        }
    }

    #[test]
    fn oracle_auditor_accepts_weighted_probe_runs() {
        let g = weighted_circuit(5);
        let balance = BalanceConstraint::weighted(0.4, 0.6, &g).unwrap();
        let (auditor, stats) = OracleAuditor::new();
        audited(Box::new(auditor), || {
            Prop::new(PropConfig::calibrated()).run_seeded(&g, balance, 11).unwrap();
        });
        assert!(stats.borrow().moves > 0);
    }

    #[test]
    fn audited_parallel_runs_stay_deterministic() {
        // Workers run unaudited (the auditor is thread-local), but the
        // result must still be bit-identical to the audited sequential run.
        let g = circuit(21);
        let balance = BalanceConstraint::bisection(g.num_nodes());
        let prop = Prop::new(PropConfig::default());
        let (auditor, _) = OracleAuditor::new();
        let sequential = audited(Box::new(auditor), || {
            prop.run_multi(&g, balance, 4, 9).unwrap()
        });
        let parallel = prop
            .run_multi_parallel(&g, balance, 4, 9, ParallelPolicy::Threads(4))
            .unwrap();
        assert_eq!(sequential, parallel);
    }
}
