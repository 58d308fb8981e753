//! Property net over the full multilevel V-cycle engine.
//!
//! The single-level coarsening invariants live in
//! `crates/multilevel/tests/proptest_coarsen.rs`; this file exercises
//! whole coarsening *stacks* and the engine's public API. Three
//! invariants on arbitrary weighted hypergraphs:
//!
//! 1. **Multi-level projection is cut-exact**: a partition of the
//!    coarsest circuit projected down through every level reaches the
//!    finest circuit with exactly the same cut and side weights.
//! 2. **Weight conservation**: every level of a coarsening stack carries
//!    the same total node weight.
//! 3. **Determinism in the seed alone**: the engine's multi-start result
//!    is bit-identical under 1, 2, and 4 worker threads, and its
//!    reported cut is honest (the independent oracle recounts it) and
//!    balance-feasible.
//!
//! Plus a pin of the prefix-stable seeding contract: raising
//! `coarsest_starts` appends new initial-bisection draws without
//! perturbing any earlier start's.
//!
//! The fixed (non-property) tests at the bottom cover the intra-run
//! parallel engine: the same seed at `intra` worker counts 1, 2, and 4
//! must produce an identical cut, assignment hash, and coarsest-start
//! cut vector; and cancellation mid-V-cycle — including mid-round inside
//! the synchronous refiner — must leave a balance-feasible partial with
//! an oracle-exact reported cut.

use proptest::prelude::*;
use prop_suite::core::{
    BalanceConstraint, Bipartition, CancelToken, CutState, ParallelPolicy, Partitioner, RunStatus,
    Side,
};
use prop_suite::multilevel::coarsen::{coarsen, CoarseLevel};
use prop_suite::multilevel::{Multilevel, MultilevelConfig};
use prop_suite::netlist::{Hypergraph, HypergraphBuilder};
use prop_suite::verify::oracle;

/// Strategy: a random connected-ish hypergraph with 6..48 nodes, nets of
/// 2..5 pins, and small integer node weights.
fn arb_weighted_graph() -> impl Strategy<Value = Hypergraph> {
    (6usize..48).prop_flat_map(|n| {
        let nets = proptest::collection::vec(proptest::collection::vec(0..n, 2..5), 2..70);
        let weights = proptest::collection::vec(1u32..4, n);
        (nets, weights).prop_map(move |(nets, weights)| {
            let mut b = HypergraphBuilder::new(n);
            for pins in nets {
                b.add_net(1.0, pins).expect("valid pins");
            }
            b.set_node_weights(weights.into_iter().map(f64::from).collect())
                .expect("positive weights");
            b.build().expect("valid graph")
        })
    })
}

/// Same shape with unit node weights, so the bisection balance the
/// multi-start harness seeds under is always feasible.
fn arb_unit_graph() -> impl Strategy<Value = Hypergraph> {
    (8usize..48).prop_flat_map(|n| {
        let nets = proptest::collection::vec(proptest::collection::vec(0..n, 2..5), 2..70);
        nets.prop_map(move |nets| {
            let mut b = HypergraphBuilder::new(n);
            for pins in nets {
                b.add_net(1.0, pins).expect("valid pins");
            }
            b.build().expect("valid graph")
        })
    })
}

/// Coarsens until a stall or the floor, exactly like the engine does.
fn coarsen_stack(graph: &Hypergraph, seed: u64) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    for l in 0..8u64 {
        let fine = levels.last().map_or(graph, |lvl| &lvl.coarse);
        if fine.num_nodes() <= 4 {
            break;
        }
        let level = coarsen(fine, 8, seed.wrapping_add(l));
        if level.coarse.num_nodes() == fine.num_nodes() {
            break;
        }
        levels.push(level);
    }
    levels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariants 1 and 2: project a partition of the coarsest level all
    /// the way down; cut, per-side weight, and total weight survive
    /// every hop exactly.
    #[test]
    fn multi_level_projection_is_cut_and_weight_exact(
        g in arb_weighted_graph(),
        seed in any::<u64>(),
        mask in any::<u64>(),
    ) {
        let levels = coarsen_stack(&g, seed);
        for level in &levels {
            prop_assert!(
                (level.coarse.total_node_weight() - g.total_node_weight()).abs() < 1e-9
            );
        }
        let coarsest = levels.last().map_or(&g, |l| &l.coarse);
        let sides: Vec<Side> = (0..coarsest.num_nodes())
            .map(|i| if (mask >> (i % 64)) & 1 == 1 { Side::A } else { Side::B })
            .collect();
        let mut part = Bipartition::from_sides(sides);
        let cut = CutState::new(coarsest, &part).cut_cost();
        let weight_a: f64 = coarsest
            .nodes()
            .filter(|&v| part.side(v) == Side::A)
            .map(|v| coarsest.node_weight(v))
            .sum();
        for level in levels.iter().rev() {
            part = level.project(&part);
        }
        prop_assert_eq!(part.len(), g.num_nodes());
        let fine_cut = CutState::new(&g, &part).cut_cost();
        prop_assert!((fine_cut - cut).abs() < 1e-9, "cut drifted {cut} -> {fine_cut}");
        let fine_weight_a: f64 = g
            .nodes()
            .filter(|&v| part.side(v) == Side::A)
            .map(|v| g.node_weight(v))
            .sum();
        prop_assert!((fine_weight_a - weight_a).abs() < 1e-9);
    }

    /// Invariant 3: the engine result is a function of the seed alone —
    /// identical across 1/2/4 worker threads — and the reported winner
    /// is feasible with an oracle-exact cut.
    #[test]
    fn vcycle_result_is_seed_deterministic_across_threads(
        g in arb_unit_graph(),
        seed in 0u64..1000,
    ) {
        let balance = BalanceConstraint::bisection(g.num_nodes());
        let ml = Multilevel::standard(MultilevelConfig {
            coarsest_nodes: 8,
            coarsest_starts: 2,
            seed,
            ..MultilevelConfig::default()
        });
        let sequential = ml.run_multi(&g, balance, 3, seed).unwrap();
        prop_assert!(sequential.partition.is_balanced(balance));
        prop_assert_eq!(
            sequential.cut_cost,
            oracle::naive_cut(&g, &sequential.partition)
        );
        for threads in [1usize, 2, 4] {
            let fanned = ml
                .run_multi_parallel(&g, balance, 3, seed, ParallelPolicy::Threads(threads))
                .unwrap();
            prop_assert_eq!(&fanned, &sequential, "diverged at {} threads", threads);
        }
    }

    /// Prefix-stable seeding: the coarsest-start cut vector for `k`
    /// starts is a prefix of the vector for `k + extra` starts.
    #[test]
    fn coarsest_start_draws_are_prefix_stable(
        g in arb_unit_graph(),
        seed in any::<u64>(),
        extra in 1usize..6,
    ) {
        let balance = BalanceConstraint::bisection(g.num_nodes());
        let base = MultilevelConfig {
            coarsest_nodes: 8,
            coarsest_starts: 3,
            seed,
            ..MultilevelConfig::default()
        };
        let short = Multilevel::standard(base)
            .coarsest_start_cuts(&g, balance)
            .unwrap();
        let long = Multilevel::standard(MultilevelConfig {
            coarsest_starts: base.coarsest_starts + extra,
            ..base
        })
        .coarsest_start_cuts(&g, balance)
        .unwrap();
        prop_assert_eq!(short.len(), base.coarsest_starts);
        prop_assert_eq!(long.len(), base.coarsest_starts + extra);
        prop_assert_eq!(&short[..], &long[..short.len()]);
    }
}

/// FNV-1a over the assignment vector — the same digest `prop-serve`
/// reports for its jobs, so a divergence shows up as one number.
fn assignment_hash(partition: &Bipartition) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..partition.len() {
        let byte = match partition.side(prop_suite::netlist::NodeId::new(i)) {
            Side::A => b'A',
            Side::B => b'B',
        };
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A mid-size fixed circuit: large enough for a few coarsening levels
/// and several synchronous rounds, small enough for tier-1 wall-clock.
fn intra_circuit() -> Hypergraph {
    prop_suite::netlist::generate::generate(
        &prop_suite::netlist::generate::GeneratorConfig::new(600, 660, 2200).with_seed(42),
    )
    .expect("valid generator config")
}

fn intra_config(threads: usize, seed: u64) -> MultilevelConfig {
    MultilevelConfig {
        intra: ParallelPolicy::Threads(threads),
        seed,
        ..MultilevelConfig::default()
    }
}

/// The intra-parallel engine is a function of the seed alone: worker
/// counts 1, 2, and 4 agree on the cut, the exact assignment (witnessed
/// by its FNV hash), and the coarsest-start cut vector.
#[test]
fn intra_run_parallelism_is_worker_count_invariant() {
    let g = intra_circuit();
    let balance = BalanceConstraint::new(0.45, 0.55, g.num_nodes()).unwrap();
    for seed in [0u64, 9] {
        let base_engine = Multilevel::standard(intra_config(1, seed));
        let base = base_engine.run_multi(&g, balance, 2, seed).unwrap();
        assert!(base.partition.is_balanced(balance));
        assert_eq!(base.cut_cost, oracle::naive_cut(&g, &base.partition));
        let base_starts = base_engine.coarsest_start_cuts(&g, balance).unwrap();
        for threads in [2usize, 4] {
            let engine = Multilevel::standard(intra_config(threads, seed));
            let result = engine.run_multi(&g, balance, 2, seed).unwrap();
            assert_eq!(result.cut_cost, base.cut_cost, "cut diverged at {threads} workers");
            assert_eq!(
                assignment_hash(&result.partition),
                assignment_hash(&base.partition),
                "assignment diverged at {threads} workers"
            );
            assert_eq!(&result, &base, "full result diverged at {threads} workers");
            assert_eq!(
                engine.coarsest_start_cuts(&g, balance).unwrap(),
                base_starts,
                "coarsest starts diverged at {threads} workers"
            );
        }
    }
}

/// A pre-tripped token: the intra engine stops at the first synchronous
/// round boundary of the first run, and the partial it reports is still
/// balance-feasible with an oracle-exact cut.
#[test]
fn pre_tripped_cancellation_keeps_the_intra_partial_feasible() {
    let g = intra_circuit();
    let balance = BalanceConstraint::new(0.45, 0.55, g.num_nodes()).unwrap();
    let engine = Multilevel::standard(intra_config(2, 5));
    let token = CancelToken::new();
    token.cancel();
    let report = engine
        .run_multi_cancellable(&g, balance, 3, 5, ParallelPolicy::Sequential, &token)
        .unwrap();
    assert_eq!(report.status, RunStatus::Cancelled);
    assert!(report.result.partition.is_balanced(balance));
    assert_eq!(
        report.result.cut_cost,
        oracle::naive_cut(&g, &report.result.partition)
    );
}

/// A token tripped from another thread mid-flight lands inside a
/// synchronous round with high probability; wherever it lands, the
/// reported partial must be feasible and its cut honest.
#[test]
fn mid_round_cancellation_keeps_the_intra_partial_feasible() {
    let g = intra_circuit();
    let balance = BalanceConstraint::new(0.45, 0.55, g.num_nodes()).unwrap();
    let engine = Multilevel::standard(intra_config(2, 3));
    let token = CancelToken::new();
    let tripper = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            token.cancel();
        })
    };
    let report = engine
        .run_multi_cancellable(&g, balance, 200, 3, ParallelPolicy::Sequential, &token)
        .unwrap();
    tripper.join().unwrap();
    assert!(report.result.partition.is_balanced(balance));
    assert_eq!(
        report.result.cut_cost,
        oracle::naive_cut(&g, &report.result.partition)
    );
    // Whatever prefix of the 200 runs completed, each run's recorded cut
    // is what the winner selection saw: the best equals the reported cut.
    let best = report
        .result
        .run_cuts
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    assert_eq!(best, report.result.cut_cost);
}

use prop_suite::multilevel::FlowConfig;

fn flow_config(threads: usize, seed: u64) -> MultilevelConfig {
    MultilevelConfig {
        flow: FlowConfig {
            enabled: true,
            ..FlowConfig::default()
        },
        ..intra_config(threads, seed)
    }
}

/// The corridor-flow pass draws no randomness and runs sequentially, so
/// the flow-enabled intra engine stays worker-count invariant: 1, 2, and
/// 4 workers (and a repeat at the same count) agree on the exact
/// assignment, and the reported cut never exceeds the flow-off engine's.
#[test]
fn flow_refinement_is_worker_count_invariant() {
    let g = intra_circuit();
    let balance = BalanceConstraint::new(0.45, 0.55, g.num_nodes()).unwrap();
    for seed in [0u64, 9] {
        let base = Multilevel::standard(flow_config(1, seed))
            .run_multi(&g, balance, 2, seed)
            .unwrap();
        assert!(base.partition.is_balanced(balance));
        assert_eq!(base.cut_cost, oracle::naive_cut(&g, &base.partition));
        let no_flow = Multilevel::standard(intra_config(1, seed))
            .run_multi(&g, balance, 2, seed)
            .unwrap();
        assert!(
            base.cut_cost <= no_flow.cut_cost,
            "flow worsened the cut: {} > {}",
            base.cut_cost,
            no_flow.cut_cost
        );
        for threads in [1usize, 2, 4] {
            let result = Multilevel::standard(flow_config(threads, seed))
                .run_multi(&g, balance, 2, seed)
                .unwrap();
            assert_eq!(&result, &base, "flow run diverged at {threads} workers");
            assert_eq!(
                assignment_hash(&result.partition),
                assignment_hash(&base.partition)
            );
        }
    }
}

/// `flow.enabled = false` keeps the engine byte-identical to the default
/// configuration, whatever the other flow knobs say — the master switch
/// alone decides whether the pass can perturb a V-cycle.
#[test]
fn disabled_flow_is_byte_identical_to_the_classic_engine() {
    let g = intra_circuit();
    let balance = BalanceConstraint::new(0.45, 0.55, g.num_nodes()).unwrap();
    let classic = Multilevel::standard(MultilevelConfig {
        seed: 7,
        ..MultilevelConfig::default()
    })
    .run_multi(&g, balance, 3, 7)
    .unwrap();
    let flow_off = Multilevel::standard(MultilevelConfig {
        seed: 7,
        flow: FlowConfig {
            enabled: false,
            corridor_nodes: 17, // ignored while disabled
        },
        ..MultilevelConfig::default()
    })
    .run_multi(&g, balance, 3, 7)
    .unwrap();
    assert_eq!(flow_off, classic);
    assert_eq!(
        assignment_hash(&flow_off.partition),
        assignment_hash(&classic.partition)
    );
}

/// A token tripped mid-flight with flow enabled lands inside a Dinic
/// augmentation round with decent probability; wherever it lands, the
/// interrupted corridor must be abandoned (never half-applied) and the
/// reported partial stays feasible with an oracle-exact cut.
#[test]
fn mid_corridor_cancellation_keeps_the_flow_partial_feasible() {
    let g = intra_circuit();
    let balance = BalanceConstraint::new(0.45, 0.55, g.num_nodes()).unwrap();
    let engine = Multilevel::standard(flow_config(2, 3));
    let token = CancelToken::new();
    let tripper = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            token.cancel();
        })
    };
    let report = engine
        .run_multi_cancellable(&g, balance, 200, 3, ParallelPolicy::Sequential, &token)
        .unwrap();
    tripper.join().unwrap();
    assert!(report.result.partition.is_balanced(balance));
    assert_eq!(
        report.result.cut_cost,
        oracle::naive_cut(&g, &report.result.partition)
    );
    let best = report
        .result
        .run_cuts
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    assert_eq!(best, report.result.cut_cost);

    // A pre-tripped token stops before any corridor work at all.
    let token = CancelToken::new();
    token.cancel();
    let report = engine
        .run_multi_cancellable(&g, balance, 3, 5, ParallelPolicy::Sequential, &token)
        .unwrap();
    assert_eq!(report.status, RunStatus::Cancelled);
    assert!(report.result.partition.is_balanced(balance));
}

fn p2() -> Hypergraph {
    prop_suite::netlist::suite::by_name("p2")
        .expect("suite circuit")
        .instantiate()
        .expect("valid suite circuit")
}

/// One classic V-cycle on p2 with every weighted level above
/// `refine_skip_nodes` folded away: cut, passes, and assignment hash are
/// pinned. Folding itself changes no result (the values equalled the
/// unfolded V-cycle's, which kept those levels resident and projected
/// through them unrefined); the `0` row was re-pinned once when FM passes
/// in the refiner began to stop on a stall. `200` folds the four largest
/// coarse levels into one map; `0` folds every coarse level but the
/// coarsest, whose starts then stay unrefined.
#[test]
fn folded_vcycles_on_p2_are_pinned() {
    use prop_suite::core::GlobalPartitioner;
    let g = p2();
    let balance = BalanceConstraint::new(0.45, 0.55, g.num_nodes()).unwrap();
    for (skip, cut, passes, hash) in [
        (200usize, 70.0, 35usize, 7_635_526_917_272_321_682u64),
        (0, 208.0, 4, 6_335_119_785_474_489_813),
    ] {
        let ml = Multilevel::standard(MultilevelConfig {
            refine_skip_nodes: skip,
            ..MultilevelConfig::default()
        });
        let result = ml.partition(&g, balance).unwrap();
        let got = (
            result.cut_cost,
            result.total_passes,
            assignment_hash(&result.partition),
        );
        assert_eq!(got, (cut, passes, hash), "refine_skip_nodes={skip}");
        assert_eq!(result.cut_cost, oracle::naive_cut(&g, &result.partition));
    }
}

/// A V-cycle result that a run discards is counted, so the fallback to
/// the run's random start is visible in `ml_rejected` (`cargo test
/// --features prof --test multilevel_vcycle`). On p2, coarsening to 2
/// nodes leaves every V-cycle unbalanced; at the default coarsest size
/// every one is accepted.
#[cfg(feature = "prof")]
#[test]
fn discarded_vcycles_are_counted() {
    use prop_suite::core::prof;
    let g = p2();
    let balance = BalanceConstraint::new(0.45, 0.55, g.num_nodes()).unwrap();
    let rejected = |coarsest_nodes: usize| {
        prof::reset();
        Multilevel::standard(MultilevelConfig {
            coarsest_nodes,
            ..MultilevelConfig::default()
        })
        .run_multi(&g, balance, 4, 0)
        .unwrap();
        let s = prof::snapshot();
        prof::reset();
        s.ml_rejected
    };
    assert_eq!(rejected(2), 4);
    assert_eq!(rejected(MultilevelConfig::default().coarsest_nodes), 0);
}

/// Matching seeds and the `max_levels` cap count levels *built*, so the
/// coarsest circuit — and with it every refined coarsest start — is the
/// same however many levels were folded on the way down.
#[test]
fn coarsest_starts_do_not_depend_on_folding() {
    let g = p2();
    let balance = BalanceConstraint::new(0.45, 0.55, g.num_nodes()).unwrap();
    let starts = |skip: usize| {
        Multilevel::standard(MultilevelConfig {
            refine_skip_nodes: skip,
            ..MultilevelConfig::default()
        })
        .coarsest_start_cuts(&g, balance)
        .unwrap()
    };
    let unfolded = starts(usize::MAX);
    assert_eq!(unfolded.len(), MultilevelConfig::default().coarsest_starts);
    assert_eq!(starts(200), unfolded);
    assert_eq!(starts(0), unfolded);
}

/// `coarsest_nodes` below 2 acts as 2: coarsening to a single node would
/// leave nothing to bisect, and the V-cycle's result could never be
/// accepted over the harness's random start.
#[test]
fn coarsest_nodes_below_two_act_as_two() {
    let g = prop_suite::netlist::suite::by_name("balu")
        .expect("suite circuit")
        .instantiate()
        .expect("valid suite circuit");
    let balance = BalanceConstraint::weighted(0.45, 0.55, &g).unwrap();
    let run = |coarsest_nodes: usize| {
        Multilevel::standard(MultilevelConfig {
            coarsest_nodes,
            ..MultilevelConfig::default()
        })
        .run_multi(&g, balance, 2, 0)
        .unwrap()
    };
    let floor = run(2);
    assert_eq!(floor.cut_cost, oracle::naive_cut(&g, &floor.partition));
    for coarsest_nodes in [0, 1] {
        let got = run(coarsest_nodes);
        assert_eq!(got, floor, "coarsest_nodes={coarsest_nodes}");
        assert_eq!(
            assignment_hash(&got.partition),
            assignment_hash(&floor.partition)
        );
    }
}
