//! Round-trip equivalence between the `prop-serve` daemon and direct
//! library calls.
//!
//! The daemon's whole value proposition is that putting a socket in
//! front of the engines changes *nothing*: for each engine, the cut,
//! the per-run seed trajectory, and the full node→side assignment
//! (compared by FNV-1a hash) fetched over the wire must be bit-identical
//! to `run_multi_parallel` on the same inputs — including across
//! concurrent clients hammering one daemon.

use prop_core::{BalanceConstraint, ParallelPolicy, Partitioner, Prop, PropConfig};
use prop_fm::FmBucket;
use prop_multilevel::{Multilevel, MultilevelConfig};
use prop_netlist::format;
use prop_netlist::generate::{generate, GeneratorConfig};
use prop_serve::{engine, server, Client, Json, ServerConfig, SubmitRequest};
use std::thread;

const RUNS: usize = 3;
const SEED: u64 = 41;

fn test_graph(seed: u64) -> prop_netlist::Hypergraph {
    generate(&GeneratorConfig::new(80, 92, 300).with_seed(seed)).unwrap()
}

/// The direct-library expectation for one engine: (cut, run_cuts,
/// assignment hash).
fn direct_expectation(engine_name: &str, graph: &prop_netlist::Hypergraph) -> (f64, Vec<f64>, u64) {
    let balance = BalanceConstraint::weighted(0.45, 0.55, graph).unwrap();
    let result = match engine_name {
        "prop" => Prop::new(PropConfig::calibrated())
            .run_multi_parallel(graph, balance, RUNS, SEED, ParallelPolicy::Threads(2))
            .unwrap(),
        "fm" => FmBucket::default()
            .run_multi_parallel(graph, balance, RUNS, SEED, ParallelPolicy::Threads(2))
            .unwrap(),
        "ml" => Multilevel::standard(MultilevelConfig {
            seed: SEED,
            ..MultilevelConfig::default()
        })
        .run_multi_parallel(graph, balance, RUNS, SEED, ParallelPolicy::Threads(2))
        .unwrap(),
        other => panic!("unexpected engine {other}"),
    };
    let hash = engine::assignment_hash(result.partition.sides());
    (result.cut_cost, result.run_cuts, hash)
}

fn submit_via_daemon(
    addr: std::net::SocketAddr,
    engine_name: &str,
    payload: &str,
) -> (f64, Vec<f64>, u64) {
    submit_request(
        addr,
        &SubmitRequest {
            engine: engine_name.into(),
            runs: RUNS,
            seed: SEED,
            payload: payload.into(),
            wait: true,
            ..SubmitRequest::default()
        },
    )
}

/// Submits one waiting request and returns (cut, run_cuts, assignment
/// hash) from its completed response.
fn submit_request(addr: std::net::SocketAddr, request: &SubmitRequest) -> (f64, Vec<f64>, u64) {
    let engine_name = &request.engine;
    let mut client = Client::connect(addr).unwrap();
    let response = client.submit(request).unwrap();
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{engine_name}: {}",
        response.render()
    );
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("completed"),
        "{engine_name}: {}",
        response.render()
    );
    let cut = response.get("cut").and_then(Json::as_f64).unwrap();
    let run_cuts: Vec<f64> = response
        .get("run_cuts")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|c| c.as_f64().unwrap())
        .collect();
    let hash = response
        .get("assignment_hash")
        .and_then(Json::as_str)
        .and_then(prop_serve::json::parse_hex64)
        .unwrap();
    (cut, run_cuts, hash)
}

#[test]
fn concurrent_clients_get_bit_identical_results() {
    let handle = server::start(&ServerConfig {
        workers: 2,
        queue_cap: 32,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr();

    // Four concurrent clients: prop and fm on two different circuits, ml
    // on one of them — every (engine, circuit) checked against the
    // library run on this thread.
    let jobs: Vec<(&str, u64)> = vec![("prop", 1), ("fm", 1), ("prop", 2), ("ml", 1)];
    let clients: Vec<_> = jobs
        .iter()
        .map(|&(engine_name, graph_seed)| {
            let payload = format::write_hgr(&test_graph(graph_seed));
            thread::spawn(move || submit_via_daemon(addr, engine_name, &payload))
        })
        .collect();
    let served: Vec<(f64, Vec<f64>, u64)> =
        clients.into_iter().map(|c| c.join().unwrap()).collect();

    for (&(engine_name, graph_seed), got) in jobs.iter().zip(&served) {
        let graph = test_graph(graph_seed);
        let expect = direct_expectation(engine_name, &graph);
        assert_eq!(
            got, &expect,
            "daemon diverged from direct run for {engine_name} on circuit seed {graph_seed}"
        );
    }

    // The hgr round-trip itself must not perturb the circuit either:
    // same payload, same expectation.
    let reparsed = format::parse_hgr(&format::write_hgr(&test_graph(1))).unwrap();
    assert_eq!(
        direct_expectation("prop", &reparsed),
        direct_expectation("prop", &test_graph(1))
    );

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let jobs_stats = stats.get("stats").and_then(|s| s.get("jobs")).unwrap();
    assert_eq!(
        jobs_stats.get("completed").and_then(Json::as_u64),
        Some(4),
        "{}",
        stats.render()
    );
    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn repeat_submissions_are_deterministic_across_connections() {
    let handle = server::start(&ServerConfig {
        workers: 2,
        queue_cap: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let payload = format::write_hgr(&test_graph(3));
    let first = submit_via_daemon(handle.addr(), "prop", &payload);
    let second = submit_via_daemon(handle.addr(), "prop", &payload);
    assert_eq!(first, second);
    assert_eq!(first.1.len(), RUNS, "seed trajectory covers every run");
    let mut client = Client::connect(handle.addr()).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

/// Submits a k-way job (optionally budgeted) and returns the wire-side
/// summary: (cut, connectivity, k, part_weights, assignment hash).
fn submit_kway_via_daemon(
    addr: std::net::SocketAddr,
    engine_name: &str,
    payload: &str,
    k: usize,
    budgets: Vec<f64>,
) -> (f64, f64, u64, Vec<f64>, u64) {
    let mut client = Client::connect(addr).unwrap();
    let response = client
        .submit(&SubmitRequest {
            engine: engine_name.into(),
            runs: RUNS,
            seed: SEED,
            payload: payload.into(),
            wait: true,
            k,
            budgets,
            ..SubmitRequest::default()
        })
        .unwrap();
    assert_eq!(
        response.get("ok").and_then(Json::as_bool),
        Some(true),
        "{engine_name}: {}",
        response.render()
    );
    let cut = response.get("cut").and_then(Json::as_f64).unwrap();
    let connectivity = response.get("connectivity").and_then(Json::as_f64).unwrap();
    let k_out = response.get("k").and_then(Json::as_u64).unwrap();
    let part_weights: Vec<f64> = response
        .get("part_weights")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.as_f64().unwrap())
        .collect();
    let hash = response
        .get("assignment_hash")
        .and_then(Json::as_str)
        .and_then(prop_serve::json::parse_hex64)
        .unwrap();
    (cut, connectivity, k_out, part_weights, hash)
}

#[test]
fn kway_submissions_are_bit_identical_to_the_direct_driver() {
    let handle = server::start(&ServerConfig {
        workers: 2,
        queue_cap: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let graph = test_graph(5);
    let payload = format::write_hgr(&graph);
    let total: f64 = graph.nodes().map(|v| graph.node_weight(v)).sum();
    let budgets = vec![total * 0.4, total * 0.25, total * 0.25, total * 0.2];

    for (engine_name, budget_set) in [("ml", Vec::new()), ("prop", budgets.clone())] {
        let served =
            submit_kway_via_daemon(handle.addr(), engine_name, &payload, 4, budget_set.clone());
        let token = prop_core::CancelToken::new();
        let report = engine::execute_kway(
            engine_name.parse().unwrap(),
            &graph,
            4,
            (!budget_set.is_empty()).then(|| budget_set.clone()),
            0.45,
            0.55,
            RUNS,
            SEED,
            &token,
            MultilevelConfig::default(),
        )
        .unwrap();
        let expect = (
            report.partition.cut_cost(&graph),
            report.partition.connectivity_cost(&graph),
            4u64,
            report.partition.part_weights().to_vec(),
            engine::kway_assignment_hash(report.partition.assignment()),
        );
        assert_eq!(
            served, expect,
            "daemon k-way diverged from the direct driver for {engine_name}"
        );
        if !budget_set.is_empty() {
            for (w, b) in served.3.iter().zip(&budget_set) {
                assert!(w <= b, "served part weight {w} exceeds budget {b}");
            }
        }
    }

    // A `k=2` uniform submission takes the classic bipartition path; the
    // k-way hash function is bit-compatible, so a direct 2-way run must
    // produce the same assignment hash the daemon reports.
    let served2 = submit_via_daemon(handle.addr(), "prop", &payload);
    assert_eq!(served2, direct_expectation("prop", &graph));

    let mut client = Client::connect(handle.addr()).unwrap();
    client.shutdown().unwrap();
    handle.join();
}

/// `ml_coarsest=0` and `ml_coarsest=1` act as `ml_coarsest=2` over the
/// wire too: coarsening stops at two nodes, so the V-cycle result is a
/// refined partition identical to the one at the floor.
#[test]
fn ml_coarsest_below_two_acts_as_two_through_the_daemon() {
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_cap: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let graph = prop_netlist::suite::by_name("balu")
        .unwrap()
        .instantiate()
        .unwrap();
    let payload = format::write_hgr(&graph);
    let served = |ml_coarsest| {
        submit_request(
            handle.addr(),
            &SubmitRequest {
                engine: "ml".into(),
                runs: RUNS,
                seed: SEED,
                payload: payload.clone(),
                wait: true,
                ml_coarsest,
                ..SubmitRequest::default()
            },
        )
    };
    let floor = served(2);
    let balance = BalanceConstraint::weighted(0.45, 0.55, &graph).unwrap();
    let direct = Multilevel::standard(MultilevelConfig {
        coarsest_nodes: 0,
        seed: SEED,
        ..MultilevelConfig::default()
    })
    .run_multi_parallel(&graph, balance, RUNS, SEED, ParallelPolicy::Threads(2))
    .unwrap();
    assert_eq!(
        floor,
        (
            direct.cut_cost,
            direct.run_cuts,
            engine::assignment_hash(direct.partition.sides())
        )
    );
    for ml_coarsest in [0, 1] {
        assert_eq!(served(ml_coarsest), floor, "ml_coarsest={ml_coarsest}");
    }
    Client::connect(handle.addr()).unwrap().shutdown().unwrap();
    handle.join();
}
