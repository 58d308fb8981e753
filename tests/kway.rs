//! End-to-end contract of the recursive k-way driver.
//!
//! Acceptance is oracle-first: every objective and every per-part weight
//! the driver reports must agree bit-for-bit with the from-scratch
//! `prop-verify` k-way oracles, budgets must hold exactly, results must
//! be bit-identical at every thread count, `k = 2` must collapse to the
//! plain bipartition path, and cancellation mid-recursion must still
//! yield a complete feasible assignment.

use prop_core::{
    partition_kway, partition_kway_cancellable, BalanceConstraint, CancelToken, KwayConfig,
    ParallelPolicy, PartitionError, Partitioner, Prop, PropConfig, RunStatus, Side,
};
use prop_multilevel::{MlRefiner, Multilevel, MultilevelConfig};
use prop_netlist::generate::{generate, generate_adversarial, GeneratorConfig};
use prop_netlist::Hypergraph;
use prop_verify::kway as oracle;
use proptest::prelude::*;
use std::time::Duration;

fn circuit(n: usize, seed: u64) -> Hypergraph {
    let nets = n * 11 / 10;
    generate(&GeneratorConfig::new(n, nets, nets * 7 / 2).with_seed(seed)).unwrap()
}

fn prop() -> Prop {
    Prop::new(PropConfig::calibrated())
}

fn ml() -> Multilevel<MlRefiner> {
    Multilevel::standard(MultilevelConfig::default())
}

/// Assignment validity + bit-exact oracle agreement on both objectives
/// and the per-part weights.
fn assert_oracle_exact(graph: &Hypergraph, partition: &prop_core::KwayPartition, k: usize) {
    assert_eq!(partition.k(), k);
    assert_eq!(partition.len(), graph.num_nodes());
    assert!(partition.assignment().iter().all(|&p| (p as usize) < k));
    let a = partition.assignment();
    assert_eq!(partition.cut_cost(graph), oracle::kway_cut(graph, a, k as u32));
    assert_eq!(
        partition.connectivity_cost(graph),
        oracle::kway_connectivity(graph, a, k as u32)
    );
    assert_eq!(
        partition.part_weights(),
        oracle::part_weights(graph, a, k as u32).as_slice()
    );
}

#[test]
fn uniform_kway_is_oracle_exact_for_every_k() {
    let graph = circuit(300, 21);
    for k in [2usize, 3, 4, 8] {
        let config = KwayConfig {
            runs: 3,
            seed: 7,
            ..KwayConfig::new(k)
        };
        let report = partition_kway(&graph, &prop(), &config).unwrap();
        assert_eq!(report.status, RunStatus::Completed);
        assert_oracle_exact(&graph, &report.partition, k);
        // Every part is non-trivial on a 300-node circuit.
        assert!(report.partition.block_sizes().iter().all(|&s| s > 0));
    }
}

#[test]
fn budgeted_kway_is_oracle_exact_and_inside_budgets() {
    let graph = circuit(240, 22); // unit weights, total 240
    let budgets = vec![130.0, 65.0, 65.0, 40.0];
    let config = KwayConfig {
        budgets: Some(budgets.clone()),
        runs: 3,
        seed: 5,
        ..KwayConfig::new(4)
    };
    let report = partition_kway(&graph, &prop(), &config).unwrap();
    assert_oracle_exact(&graph, &report.partition, 4);
    assert!(oracle::check_budgets(report.partition.part_weights(), &budgets));
}

#[test]
fn kway_is_bit_identical_across_run_harness_thread_counts() {
    let graph = circuit(260, 23);
    for budgets in [None, Some(vec![140.0, 70.0, 70.0])] {
        let k = budgets.as_ref().map_or(4, Vec::len);
        let reference = partition_kway(
            &graph,
            &prop(),
            &KwayConfig {
                budgets: budgets.clone(),
                runs: 4,
                seed: 13,
                ..KwayConfig::new(k)
            },
        )
        .unwrap();
        for threads in [1usize, 2, 4] {
            let config = KwayConfig {
                budgets: budgets.clone(),
                runs: 4,
                seed: 13,
                policy: ParallelPolicy::Threads(threads),
                ..KwayConfig::new(k)
            };
            let report = partition_kway(&graph, &prop(), &config).unwrap();
            assert_eq!(report, reference, "threads = {threads}, budgets = {budgets:?}");
        }
    }
}

/// The driver's policies: sequential, fixed budgets that split evenly
/// and unevenly between sibling subtrees, and every CPU.
const POLICIES: [ParallelPolicy; 4] = [
    ParallelPolicy::Sequential,
    ParallelPolicy::Threads(2),
    ParallelPolicy::Threads(3),
    ParallelPolicy::Auto,
];

#[test]
fn kway_is_bit_identical_across_subtree_policies() {
    let graph = circuit(400, 30);
    let engines: [(&str, Box<dyn Partitioner>); 2] =
        [("prop", Box::new(prop())), ("ml", Box::new(ml()))];
    let cases: [(usize, Option<Vec<f64>>); 4] = [
        (3, None),
        (5, None),
        (8, None),
        (4, Some(vec![130.0, 110.0, 100.0, 90.0])),
    ];
    for (name, engine) in &engines {
        for (k, budgets) in &cases {
            let run = |policy| {
                let config = KwayConfig {
                    budgets: budgets.clone(),
                    runs: 2,
                    seed: 17,
                    policy,
                    ..KwayConfig::new(*k)
                };
                partition_kway(&graph, engine.as_ref(), &config).unwrap()
            };
            let reference = run(ParallelPolicy::Sequential);
            assert_oracle_exact(&graph, &reference.partition, *k);
            for policy in POLICIES {
                let report = run(policy);
                let case = format!("{name} k={k} budgets={budgets:?} {policy:?}");
                assert_eq!(
                    report.partition.assignment(),
                    reference.partition.assignment(),
                    "{case}"
                );
                assert_eq!(
                    report.partition.part_weights(),
                    reference.partition.part_weights(),
                    "{case}"
                );
                assert_eq!(report.total_passes, reference.total_passes, "{case}");
                assert_eq!(report.status, RunStatus::Completed, "{case}");
            }
        }
    }
}

/// `n` nodes of weight 3 on a ring of 2-pin nets plus a few chords.
fn weight_three_ring(n: usize) -> Hypergraph {
    let mut b = prop_netlist::HypergraphBuilder::new(n);
    for i in 0..n {
        b.add_net(1.0, [i, (i + 1) % n]).unwrap();
        b.add_net(1.0, [i, (i + 7) % n]).unwrap();
    }
    b.set_node_weights(vec![3.0; n]).unwrap();
    b.build().unwrap()
}

#[test]
fn subtree_errors_match_the_sequential_run() {
    // Budgets that sum to exactly the total weight leave no slack, so
    // each bisection must fill its caps exactly. A group of five
    // weight-3 nodes under two 7.5 budgets cannot be split: the root
    // succeeds and only the 5-node subtrees fail.
    let cases = [
        // Only the right subtree (path 3) is infeasible.
        (weight_three_ring(25), vec![30.0, 30.0, 7.5, 7.5], "path 3"),
        // Both are: the left subtree's error (path 2) wins.
        (weight_three_ring(10), vec![7.5; 4], "path 2"),
    ];
    for (graph, budgets, path) in cases {
        let run = |policy| {
            partition_kway(
                &graph,
                &prop(),
                &KwayConfig {
                    budgets: Some(budgets.clone()),
                    runs: 2,
                    seed: 4,
                    policy,
                    ..KwayConfig::new(4)
                },
            )
            .unwrap_err()
        };
        let sequential = run(ParallelPolicy::Sequential);
        assert!(
            matches!(sequential, PartitionError::InfeasibleBudgets { .. }),
            "{sequential}"
        );
        assert!(sequential.to_string().contains(path), "{sequential}");
        for policy in POLICIES {
            assert_eq!(run(policy), sequential, "{policy:?}");
        }
    }
}

/// Worker threads' profile counters are folded into the caller at every
/// join, so a parallel k-way run counts exactly the work a sequential
/// one does (`cargo test --features prof --test kway`).
#[cfg(feature = "prof")]
#[test]
fn prof_counters_are_policy_independent() {
    use prop_core::prof;
    let graph = circuit(1200, 32);
    let counts = |policy| {
        prof::reset();
        let config = KwayConfig {
            runs: 2,
            seed: 8,
            policy,
            ..KwayConfig::new(4)
        };
        partition_kway(&graph, &ml(), &config).unwrap();
        let s = prof::snapshot();
        prof::reset();
        [s.ml_levels, s.moves, s.net_recomputes, s.gain_recomputes]
    };
    let sequential = counts(ParallelPolicy::Sequential);
    assert!(sequential[0] > 0 && sequential[1] > 0, "{sequential:?}");
    assert_eq!(counts(ParallelPolicy::Threads(2)), sequential);
}

#[test]
fn k_equals_two_reduces_to_the_existing_bipartition_path() {
    let graph = circuit(220, 25);
    for engine in [Box::new(prop()) as Box<dyn Partitioner>, Box::new(ml())] {
        let config = KwayConfig {
            runs: 3,
            seed: 19,
            ..KwayConfig::new(2)
        };
        let report = partition_kway(&graph, engine.as_ref(), &config).unwrap();
        let balance = BalanceConstraint::weighted(0.45, 0.55, &graph).unwrap();
        let direct = engine
            .run_multi_parallel(&graph, balance, 3, 19, ParallelPolicy::Sequential)
            .unwrap();
        let sides: Vec<u32> = direct
            .partition
            .sides()
            .iter()
            .map(|s| s.index() as u32)
            .collect();
        assert_eq!(
            report.partition.assignment(),
            sides.as_slice(),
            "{} diverged from the bipartition harness",
            engine.name()
        );
        assert_eq!(report.partition.cut_cost(&graph), direct.cut_cost);
        assert_eq!(report.total_passes, direct.total_passes);
        // Side weights and part weights are the same numbers.
        let w = prop_core::SideWeights::new(&graph, &direct.partition);
        assert_eq!(
            report.partition.part_weights(),
            [w.get(Side::A), w.get(Side::B)].as_slice()
        );
    }
}

#[test]
fn cancellation_mid_recursion_yields_a_complete_feasible_assignment() {
    let graph = circuit(800, 26);
    let budgets = vec![220.0; 8]; // generous: 1760 against weight 800

    // Sequential, and with the two subtrees of the root running at once.
    for policy in [ParallelPolicy::Sequential, ParallelPolicy::Threads(2)] {
        let token = CancelToken::new();
        token.set_timeout(Duration::from_millis(20));
        let config = KwayConfig {
            budgets: Some(budgets.clone()),
            runs: 60,
            seed: 1,
            policy,
            ..KwayConfig::new(8)
        };
        let report = partition_kway_cancellable(&graph, &prop(), &config, &token).unwrap();
        // 60 runs × 7 bisections of an 800-node circuit dwarf a 20 ms
        // deadline, so the trip lands mid-recursion.
        assert_eq!(report.status, RunStatus::Cancelled, "{policy:?}");
        assert_oracle_exact(&graph, &report.partition, 8);
        assert!(oracle::check_budgets(
            report.partition.part_weights(),
            &budgets
        ));
    }
}

#[test]
fn pre_tripped_token_packs_without_running_engines() {
    let graph = circuit(200, 27);
    let token = CancelToken::new();
    token.cancel();
    let config = KwayConfig {
        runs: 4,
        ..KwayConfig::new(5)
    };
    let report = partition_kway_cancellable(&graph, &prop(), &config, &token).unwrap();
    assert_eq!(report.status, RunStatus::Cancelled);
    assert_eq!(report.total_passes, 0);
    assert_oracle_exact(&graph, &report.partition, 5);
}

#[test]
fn infeasible_budgets_are_typed_errors_not_panics() {
    let graph = circuit(100, 28);
    // Sum below the total node weight.
    let err = partition_kway(
        &graph,
        &prop(),
        &KwayConfig {
            budgets: Some(vec![40.0, 40.0]),
            ..KwayConfig::new(2)
        },
    )
    .unwrap_err();
    assert!(matches!(err, PartitionError::InfeasibleBudgets { .. }), "{err}");
    assert!(err.to_string().contains("infeasible"));
}

/// A feasible budget vector for `graph`: random positive shares scaled
/// to `sigma ≥ 1.05` times the total weight, each floored at the
/// heaviest node — so both of the driver's named prechecks pass by
/// construction.
fn feasible_budgets(graph: &Hypergraph, shares: &[f64], sigma: f64) -> Vec<f64> {
    let total = graph.total_node_weight();
    let heaviest = graph.max_node_weight();
    let share_sum: f64 = shares.iter().sum();
    shares
        .iter()
        .map(|s| (total * sigma * s / share_sum).max(heaviest * 1.001))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random adversarial netlists (single-pin nets, duplicate pins,
    /// giant nets, non-unit weights, isolated nodes) with random k and
    /// random feasible budgets: the driver never panics, and every `Ok`
    /// is oracle-exact and inside its budgets.
    #[test]
    fn adversarial_budgeted_kway_never_violates_budgets(
        seed in 0u64..400,
        k in 2usize..=9,
        shares in proptest::collection::vec(0.05f64..1.0, 9),
        sigma in 1.05f64..2.5,
    ) {
        let graph = generate_adversarial(seed).unwrap();
        let k = k.min(graph.num_nodes());
        let budgets = feasible_budgets(&graph, &shares[..k], sigma);
        let config = KwayConfig {
            budgets: Some(budgets.clone()),
            runs: 1,
            seed,
            ..KwayConfig::new(k)
        };
        match partition_kway(&graph, &prop(), &config) {
            Ok(report) => {
                prop_assert_eq!(report.partition.len(), graph.num_nodes());
                prop_assert!(report.partition.assignment().iter().all(|&p| (p as usize) < k));
                let weights = oracle::part_weights(
                    &graph,
                    report.partition.assignment(),
                    k as u32,
                );
                prop_assert!(oracle::check_budgets(&weights, &budgets));
                prop_assert_eq!(report.partition.part_weights(), weights.as_slice());
                prop_assert_eq!(
                    report.partition.cut_cost(&graph),
                    oracle::kway_cut(&graph, report.partition.assignment(), k as u32)
                );
            }
            // Tight caps on a lumpy weight profile may admit no packing;
            // that must surface as the typed error, never a panic.
            Err(PartitionError::InfeasibleBudgets { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// Budgets that cannot hold the circuit are always the typed
    /// infeasibility error.
    #[test]
    fn underfull_budgets_are_always_typed_errors(
        seed in 0u64..400,
        k in 2usize..=6,
        shares in proptest::collection::vec(0.05f64..1.0, 6),
        shrink in 0.2f64..0.95,
    ) {
        let graph = generate_adversarial(seed).unwrap();
        let k = k.min(graph.num_nodes());
        let total = graph.total_node_weight();
        let share_sum: f64 = shares[..k].iter().sum();
        // Scaled strictly below the total weight: sum(budgets) < W.
        let budgets: Vec<f64> =
            shares[..k].iter().map(|s| total * shrink * s / share_sum).collect();
        let config = KwayConfig {
            budgets: Some(budgets),
            runs: 1,
            seed,
            ..KwayConfig::new(k)
        };
        prop_assert!(matches!(
            partition_kway(&graph, &prop(), &config),
            Err(PartitionError::InfeasibleBudgets { .. })
        ));
    }

    /// Uniform mode on adversarial netlists: never panics, always a
    /// complete oracle-exact assignment.
    #[test]
    fn adversarial_uniform_kway_is_total_and_oracle_exact(
        seed in 0u64..400,
        k in 2usize..=9,
    ) {
        let graph = generate_adversarial(seed).unwrap();
        let k = k.min(graph.num_nodes());
        let config = KwayConfig { runs: 1, seed, ..KwayConfig::new(k) };
        let report = partition_kway(&graph, &prop(), &config).unwrap();
        prop_assert_eq!(report.partition.len(), graph.num_nodes());
        prop_assert!(report.partition.assignment().iter().all(|&p| (p as usize) < k));
        prop_assert_eq!(
            report.partition.cut_cost(&graph),
            oracle::kway_cut(&graph, report.partition.assignment(), k as u32)
        );
        prop_assert_eq!(
            report.partition.connectivity_cost(&graph),
            oracle::kway_connectivity(&graph, report.partition.assignment(), k as u32)
        );
    }
}
