//! Cooperative cancellation semantics of the multi-start harness.
//!
//! The contract: a tripped [`CancelToken`] stops the engines at the next
//! pass boundary, the harness reports `Cancelled`, and the result it
//! hands back is not garbage — it is a balance-feasible partition whose
//! reported cut the independent `prop-verify` oracle reproduces. An
//! untripped token changes nothing at all.

use prop_core::{
    BalanceConstraint, CancelToken, ParallelPolicy, Partitioner, Prop, PropConfig, RunStatus,
};
use prop_fm::FmBucket;
use prop_multilevel::{Multilevel, MultilevelConfig};
use prop_netlist::generate::{generate, GeneratorConfig};
use prop_engines::{EngineName, Job};
use prop_serve::{server, Client, Json, ServerConfig, SubmitRequest};
use prop_verify::oracle;
use std::time::Duration;

fn medium_graph() -> prop_netlist::Hypergraph {
    generate(&GeneratorConfig::new(400, 460, 1500).with_seed(17)).unwrap()
}

#[test]
fn untripped_token_changes_nothing() {
    let graph = generate(&GeneratorConfig::new(120, 140, 460).with_seed(9)).unwrap();
    let balance = BalanceConstraint::weighted(0.45, 0.55, &graph).unwrap();
    for policy in [ParallelPolicy::Sequential, ParallelPolicy::Threads(3)] {
        let token = CancelToken::new();
        let report = Prop::new(PropConfig::calibrated())
            .run_multi_cancellable(&graph, balance, 4, 11, policy, &token)
            .unwrap();
        assert_eq!(report.status, RunStatus::Completed);
        assert_eq!(report.started_runs, 4);
        let direct = Prop::new(PropConfig::calibrated())
            .run_multi(&graph, balance, 4, 11)
            .unwrap();
        assert_eq!(report.result, direct, "{policy:?}");
    }
}

#[test]
fn pre_tripped_token_still_yields_a_verified_feasible_partition() {
    let graph = medium_graph();
    let balance = BalanceConstraint::weighted(0.45, 0.55, &graph).unwrap();
    let token = CancelToken::new();
    token.cancel();
    for engine in [
        Box::new(Prop::new(PropConfig::calibrated())) as Box<dyn Partitioner>,
        Box::new(FmBucket::default()),
        Box::new(Multilevel::standard(MultilevelConfig { seed: 3, ..MultilevelConfig::default() })),
    ] {
        let report = engine
            .run_multi_cancellable(&graph, balance, 8, 3, ParallelPolicy::Sequential, &token)
            .unwrap();
        assert_eq!(report.status, RunStatus::Cancelled);
        assert_eq!(report.started_runs, 0);
        // Even with zero started runs the harness synthesizes run 0's
        // seeded initial partition: feasible, honestly recounted.
        let result = &report.result;
        assert!(result.partition.is_balanced(balance));
        assert_eq!(result.cut_cost, oracle::naive_cut(&graph, &result.partition));
    }
}

#[test]
fn deadline_stops_runs_early_with_a_usable_partial_result() {
    let graph = medium_graph();
    let balance = BalanceConstraint::weighted(0.45, 0.55, &graph).unwrap();
    const RUNS: usize = 400;
    let token = CancelToken::new();
    // A deadline far shorter than 400 sequential PROP runs on a
    // 400-node circuit: the harness must stop at a pass boundary well
    // before finishing the budget.
    token.set_timeout(Duration::from_millis(25));
    let report = Prop::new(PropConfig::calibrated())
        .run_multi_cancellable(&graph, balance, RUNS, 0, ParallelPolicy::Sequential, &token)
        .unwrap();
    assert_eq!(report.status, RunStatus::Cancelled);
    assert!(
        report.started_runs < RUNS,
        "expected an early stop, got all {RUNS} runs"
    );
    // The partial best is still a real answer: feasible, and its cut is
    // exactly what the independent oracle counts.
    let result = &report.result;
    assert!(result.partition.is_balanced(balance));
    assert_eq!(result.cut_cost, oracle::naive_cut(&graph, &result.partition));
    assert_eq!(result.run_cuts.len(), report.started_runs);
    // The winner is the best of the runs that did complete.
    let best = result.run_cuts.iter().copied().fold(f64::INFINITY, f64::min);
    assert_eq!(result.cut_cost, best);
}

#[test]
fn ml_deadline_stops_vcycles_early_with_a_feasible_partial() {
    let graph = medium_graph();
    let balance = BalanceConstraint::weighted(0.45, 0.55, &graph).unwrap();
    const RUNS: usize = 4000;
    let ml = Multilevel::standard(MultilevelConfig { seed: 0, ..MultilevelConfig::default() });

    // Untripped: the cancellable harness is bit-identical to run_multi.
    let token = CancelToken::new();
    let report = ml
        .run_multi_cancellable(&graph, balance, 3, 0, ParallelPolicy::Sequential, &token)
        .unwrap();
    assert_eq!(report.status, RunStatus::Completed);
    let direct = ml.run_multi(&graph, balance, 3, 0).unwrap();
    assert_eq!(report.result, direct);

    // Deadline: far fewer V-cycles than the budget, but the surfaced
    // partial — possibly from a run cancelled mid-uncoarsening, where
    // refinement is skipped but projection continues — is feasible and
    // its cut honest.
    let token = CancelToken::new();
    token.set_timeout(Duration::from_millis(25));
    let report = ml
        .run_multi_cancellable(&graph, balance, RUNS, 0, ParallelPolicy::Sequential, &token)
        .unwrap();
    assert_eq!(report.status, RunStatus::Cancelled);
    assert!(report.started_runs < RUNS, "expected an early stop");
    let result = &report.result;
    assert!(result.partition.is_balanced(balance));
    assert_eq!(result.cut_cost, oracle::naive_cut(&graph, &result.partition));
}

#[test]
fn parallel_cancellation_keeps_the_run_prefix_contiguous() {
    let graph = medium_graph();
    let balance = BalanceConstraint::weighted(0.45, 0.55, &graph).unwrap();
    const RUNS: usize = 400;
    let token = CancelToken::new();
    token.set_timeout(Duration::from_millis(25));
    let report = Prop::new(PropConfig::calibrated())
        .run_multi_cancellable(&graph, balance, RUNS, 0, ParallelPolicy::Threads(3), &token)
        .unwrap();
    assert_eq!(report.status, RunStatus::Cancelled);
    assert!(report.started_runs < RUNS);
    let result = &report.result;
    // Started runs form the prefix 0..k: the trajectory has no holes,
    // even though runs in flight at the trip stopped at a pass boundary
    // (so their cuts may differ from an uninterrupted run's).
    assert_eq!(result.run_cuts.len(), report.started_runs);
    assert!(report.started_runs > 0, "workers should have claimed runs");
    assert!(result.partition.is_balanced(balance));
    assert_eq!(result.cut_cost, oracle::naive_cut(&graph, &result.partition));
    let best = result.run_cuts.iter().copied().fold(f64::INFINITY, f64::min);
    assert_eq!(result.cut_cost, best);
}

#[test]
fn daemon_cancel_and_timeout_report_partial_results() {
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_cap: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let payload = prop_netlist::format::write_hgr(&medium_graph());

    // A deadline-bound job times out but still reports a cut.
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client
        .submit(&SubmitRequest {
            job: Job { runs: 400, ..Job::new(EngineName::Prop) },
            timeout_ms: 25,
            payload: payload.clone(),
            wait: true,
            ..SubmitRequest::default()
        })
        .unwrap();
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("timed_out"),
        "{}",
        resp.render()
    );
    assert!(resp.get("cut").and_then(Json::as_f64).is_some());

    // The ml engine honors job deadlines too (V-cycles poll the token at
    // level boundaries) and still reports a usable cut.
    let resp = client
        .submit(&SubmitRequest {
            job: Job { runs: 4000, ..Job::new(EngineName::Ml) },
            timeout_ms: 25,
            payload: payload.clone(),
            wait: true,
            ..SubmitRequest::default()
        })
        .unwrap();
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("timed_out"),
        "{}",
        resp.render()
    );
    assert!(resp.get("cut").and_then(Json::as_f64).is_some());

    // An explicit cancel is reported as cancelled, not timed out.
    let resp = client
        .submit(&SubmitRequest {
            job: Job { runs: 400, ..Job::new(EngineName::Prop) },
            payload,
            ..SubmitRequest::default()
        })
        .unwrap();
    let job = resp.get("job").and_then(Json::as_u64).unwrap();
    let cancel = client.cancel(job).unwrap();
    assert_eq!(cancel.get("ok").and_then(Json::as_bool), Some(true));
    let done = client.wait(job).unwrap();
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("cancelled"),
        "{}",
        done.render()
    );
    assert_eq!(done.get("cancel_requested").and_then(Json::as_bool), Some(true));
    assert!(done.get("cut").and_then(Json::as_f64).is_some());

    client.shutdown().unwrap();
    handle.join();
}
