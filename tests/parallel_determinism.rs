//! The parallel multi-start harness must be bit-identical to the
//! sequential one, and the PROP engine's per-pass behaviour is pinned by
//! a golden trace so hot-path refactors cannot silently change the
//! algorithm.

use prop_suite::core::{
    BalanceConstraint, ParallelPolicy, PartitionError, Partitioner, Prop, PropConfig, Side,
};
use prop_suite::fm::FmBucket;
use prop_suite::netlist::generate::{generate, GeneratorConfig};
use prop_suite::netlist::Hypergraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn circuits() -> Vec<Hypergraph> {
    vec![
        generate(&GeneratorConfig::new(220, 240, 820).with_seed(11)).unwrap(),
        generate(&GeneratorConfig::new(150, 170, 560).with_seed(47)).unwrap(),
    ]
}

fn assert_bit_identical(partitioner: &dyn Partitioner, graph: &Hypergraph) {
    let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes()).unwrap();
    let sequential = partitioner.run_multi(graph, balance, 6, 3).unwrap();
    let parallel = partitioner
        .run_multi_parallel(graph, balance, 6, 3, ParallelPolicy::Threads(4))
        .unwrap();
    assert_eq!(parallel.cut_cost, sequential.cut_cost, "{}", partitioner.name());
    assert_eq!(parallel.run_cuts, sequential.run_cuts, "{}", partitioner.name());
    assert_eq!(
        parallel.partition, sequential.partition,
        "{} winning partition",
        partitioner.name()
    );
    assert_eq!(parallel.total_passes, sequential.total_passes, "{}", partitioner.name());
}

#[test]
fn parallel_multistart_matches_sequential_for_prop_and_fm() {
    for graph in &circuits() {
        assert_bit_identical(&Prop::new(PropConfig::calibrated()), graph);
        assert_bit_identical(&FmBucket::default(), graph);
    }
}

/// Golden regression trace of the PROP engine: a fixed circuit, seed, and
/// configuration must reproduce the exact per-pass move counts and
/// committed gains. Regenerate the constants with
/// `cargo test golden_trace -- --nocapture` after an *intentional*
/// algorithmic change (the printed `observed:` line is the new golden).
#[test]
fn golden_trace_is_stable() {
    let graph = generate(&GeneratorConfig::new(120, 130, 440).with_seed(9)).unwrap();
    let balance = BalanceConstraint::bisection(graph.num_nodes());
    let prop = Prop::new(PropConfig::calibrated());
    let mut rng = StdRng::seed_from_u64(17);
    let mut partition = prop_suite::core::Bipartition::random(graph.num_nodes(), &mut rng);
    let (stats, traces) = prop.improve_traced(&graph, &mut partition, balance);

    let observed: Vec<(usize, usize, f64, f64)> = traces
        .iter()
        .map(|t| (t.tentative_moves, t.committed_moves, t.committed_gain, t.max_drawdown))
        .collect();
    println!("observed: cut={} passes={} traces={observed:?}", stats.cut_cost, stats.passes);

    let golden: Vec<(usize, usize, f64, f64)> = vec![
        (120, 56, 85.0, 0.0),
        (120, 2, 2.0, 0.0),
        (120, 0, 0.0, 0.0),
    ];
    assert_eq!(stats.cut_cost, 11.0);
    assert_eq!(observed, golden);
    assert_eq!(partition.count(Side::A) + partition.count(Side::B), 120);
}

#[test]
fn zero_runs_are_rejected() {
    let graph = generate(&GeneratorConfig::new(60, 70, 230).with_seed(2)).unwrap();
    let balance = BalanceConstraint::bisection(60);
    let err = Prop::default().run_multi(&graph, balance, 0, 0).unwrap_err();
    assert!(matches!(err, PartitionError::InvalidConfig { .. }));
}

/// A best-of-1 harness call is exactly one seeded run, whatever the
/// thread policy, and `run_seeded` agrees with it.
#[test]
fn single_run_matches_run_seeded() {
    let graph = generate(&GeneratorConfig::new(60, 70, 230).with_seed(2)).unwrap();
    let balance = BalanceConstraint::bisection(60);
    let prop = Prop::new(PropConfig::calibrated());
    let direct = prop.run_seeded(&graph, balance, 31).unwrap();
    for policy in [
        ParallelPolicy::Sequential,
        ParallelPolicy::Threads(0),
        ParallelPolicy::Threads(8),
        ParallelPolicy::Auto,
    ] {
        let single = prop
            .run_multi_parallel(&graph, balance, 1, 31, policy)
            .unwrap();
        assert_eq!(single, direct, "{policy:?}");
        assert_eq!(single.run_cuts.len(), 1);
    }
}

/// More workers than runs must neither deadlock nor change the outcome —
/// the excess workers find the run queue drained and exit.
#[test]
fn more_threads_than_runs_is_bit_identical() {
    let graph = generate(&GeneratorConfig::new(90, 100, 340).with_seed(6)).unwrap();
    let balance = BalanceConstraint::new(0.45, 0.55, 90).unwrap();
    let prop = Prop::new(PropConfig::calibrated());
    let sequential = prop.run_multi(&graph, balance, 3, 12).unwrap();
    for threads in [4, 16, 64] {
        let parallel = prop
            .run_multi_parallel(&graph, balance, 3, 12, ParallelPolicy::Threads(threads))
            .unwrap();
        assert_eq!(parallel, sequential, "threads={threads}");
    }
}

/// Installing an auditor must never change results: the audited engines
/// emit records but the algorithm is observation-only. Worker threads of
/// the parallel harness run unaudited (the slot is thread-local), so the
/// parallel result must equal the audited sequential one bit-for-bit.
#[cfg(feature = "debug-audit")]
#[test]
fn audited_runs_match_unaudited_and_parallel() {
    use prop_suite::verify::{audited, OracleAuditor};

    let graph = generate(&GeneratorConfig::new(90, 100, 340).with_seed(6)).unwrap();
    let balance = BalanceConstraint::new(0.45, 0.55, 90).unwrap();
    let prop = Prop::new(PropConfig::calibrated());

    let unaudited = prop.run_multi(&graph, balance, 4, 3).unwrap();
    let (auditor, stats) = OracleAuditor::new();
    let audited_result =
        audited(Box::new(auditor), || prop.run_multi(&graph, balance, 4, 3)).unwrap();
    assert_eq!(audited_result, unaudited);
    assert!(stats.borrow().passes > 0, "auditor saw no passes");

    let (auditor, _) = OracleAuditor::new();
    let parallel = audited(Box::new(auditor), || {
        prop.run_multi_parallel(&graph, balance, 4, 3, ParallelPolicy::Threads(4))
    })
    .unwrap();
    assert_eq!(parallel, unaudited);
}
