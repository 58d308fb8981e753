//! One engine registry, three surfaces, one job path.
//!
//! For every registered iterative engine, the library build
//! (`prop_engines`), the `prop` CLI (argv parsed by `prop_cli::parse_args`
//! into a `prop_engines::Job`, run by `Job::run` at the CLI's thread
//! policy, as `prop partition` does) and a live daemon must agree bit for
//! bit at k = 2 and at k = 4 uniform. Every one-shot global name is
//! refused by the daemon and by the k-way path with a typed error, and an
//! unknown name by every surface. The CLI runs every engine at its
//! default thread policy and at `--threads 1` and `2`, which must change
//! nothing.

use prop_cli::{parse_args, resolve_threads, Command};
use prop_core::{
    partition_kway, BalanceConstraint, CancelToken, KwayConfig, KwayReport, MultiRunReport,
    ParallelPolicy,
};
use prop_engines::{EngineName, EngineSpec, Job, JobReport};
use prop_netlist::format;
use prop_netlist::generate::{generate, GeneratorConfig};
use prop_netlist::Hypergraph;
use prop_serve::{engine, server, wire, Client, Json, ServerConfig, SubmitRequest};

const RUNS: usize = 2;
const SEED: u64 = 17;

/// The `--threads` settings every engine must agree at: the default (every
/// CPU), one thread, and two.
const CLI_THREADS: [Option<usize>; 3] = [None, Some(1), Some(2)];

/// Submits `RUNS` runs of `engine` into `k` parts. The line is built by
/// hand so names the wire refuses can be sent too.
fn submit(client: &mut Client, engine: &str, payload: &str, k: usize) -> Json {
    let line = SubmitRequest {
        job: Job {
            runs: RUNS,
            seed: SEED,
            k,
            ..Job::default()
        },
        payload: payload.into(),
        wait: true,
        ..SubmitRequest::default()
    }
    .render()
    .replacen("engine=prop", &format!("engine={engine}"), 1);
    client.roundtrip(&line).unwrap()
}

/// Parses `prop partition g.hgr --method <method> --runs RUNS --seed SEED`
/// plus `extra`, and the `--threads` setting, the way the CLI does.
fn cli_job(method: &str, extra: &[&str], threads: Option<usize>) -> Result<(Job, ParallelPolicy), i32> {
    let mut args: Vec<String> = ["partition", "g.hgr", "--method", method, "--runs"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend([RUNS.to_string(), "--seed".into(), SEED.to_string()]);
    args.extend(extra.iter().map(|s| s.to_string()));
    if let Some(n) = threads {
        args.extend(["--threads".into(), n.to_string()]);
    }
    match parse_args(&args).map_err(|e| e.code)? {
        Command::Partition { job, threads, .. } => Ok((job, resolve_threads(threads))),
        other => panic!("expected partition, got {other:?}"),
    }
}

/// Runs a CLI-parsed job on `graph`.
fn cli_run(graph: &Hypergraph, method: &str, extra: &[&str], threads: Option<usize>) -> JobReport {
    let (job, policy) = cli_job(method, extra, threads).unwrap();
    job.run(graph, policy, &CancelToken::new()).unwrap()
}

fn two_way(report: JobReport) -> MultiRunReport {
    match report {
        JobReport::TwoWay(report) => report,
        JobReport::Kway(_) => panic!("expected a bipartition"),
    }
}

fn kway(report: JobReport) -> KwayReport {
    match report {
        JobReport::Kway(report) => report,
        JobReport::TwoWay(_) => panic!("expected a k-way partition"),
    }
}

fn number(response: &Json, key: &str) -> f64 {
    response.get(key).and_then(Json::as_f64).unwrap()
}

fn wire_hash(response: &Json) -> u64 {
    response
        .get("assignment_hash")
        .and_then(Json::as_str)
        .and_then(prop_serve::json::parse_hex64)
        .unwrap()
}

fn start_daemon() -> (server::ServerHandle, Client) {
    let handle = server::start(&ServerConfig {
        workers: 1,
        queue_cap: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let client = Client::connect(handle.addr()).unwrap();
    (handle, client)
}

#[test]
fn every_iterative_engine_is_identical_through_library_cli_and_daemon() {
    let graph = generate(&GeneratorConfig::new(60, 70, 240).with_seed(3)).unwrap();
    let payload = format::write_hgr(&graph);
    let balance = BalanceConstraint::weighted(0.45, 0.55, &graph).unwrap();
    let (handle, mut client) = start_daemon();
    let iterative: Vec<EngineName> = EngineName::ALL
        .into_iter()
        .filter(|name| name.is_iterative())
        .collect();
    assert_eq!(iterative.len(), 9);
    for (index, name) in EngineName::ALL.into_iter().enumerate() {
        assert_eq!(name.index(), index);
        assert_eq!(name.to_string().parse::<EngineName>(), Ok(name));
    }

    for name in iterative {
        // `EngineSpec::new` is the library's default.
        let library = EngineSpec::new(name)
            .build(SEED, RUNS)
            .iterative()
            .expect("iterative engine");

        // k = 2: cut, per-run cut trajectory and assignment hash.
        let direct = library.run_multi(&graph, balance, RUNS, SEED).unwrap();
        let expect = (
            direct.cut_cost,
            direct.run_cuts.clone(),
            prop_core::assignment_hash(direct.partition.sides()),
        );
        for threads in CLI_THREADS {
            let cli = two_way(cli_run(&graph, name.as_str(), &[], threads)).result;
            let cli = (
                cli.cut_cost,
                cli.run_cuts,
                prop_core::assignment_hash(cli.partition.sides()),
            );
            assert_eq!(cli, expect, "{name} --threads {threads:?}: CLI vs library");
        }
        let served = submit(&mut client, name.as_str(), &payload, 2);
        assert_eq!(
            served.get("status").and_then(Json::as_str),
            Some("completed"),
            "{name}: {}",
            served.render()
        );
        assert_eq!(
            served.get("started_runs").and_then(Json::as_u64),
            Some(RUNS as u64)
        );
        let run_cuts: Vec<f64> = served
            .get("run_cuts")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|c| c.as_f64().unwrap())
            .collect();
        let served = (number(&served, "cut"), run_cuts, wire_hash(&served));
        assert_eq!(served, expect, "{name}: daemon vs library");

        // k = 4 uniform: cut, connectivity and assignment hash.
        let config = KwayConfig {
            runs: RUNS,
            seed: SEED,
            ..KwayConfig::new(4)
        };
        let direct = partition_kway(&graph, library.as_ref(), &config)
            .unwrap()
            .partition;
        let expect = (
            direct.cut_cost(&graph),
            direct.connectivity_cost(&graph),
            engine::kway_assignment_hash(direct.assignment()),
        );
        for threads in CLI_THREADS {
            let cli = kway(cli_run(&graph, name.as_str(), &["--k", "4"], threads)).partition;
            let cli = (
                cli.cut_cost(&graph),
                cli.connectivity_cost(&graph),
                engine::kway_assignment_hash(cli.assignment()),
            );
            assert_eq!(
                cli, expect,
                "{name} --threads {threads:?}: k-way CLI vs library"
            );
        }
        let served = submit(&mut client, name.as_str(), &payload, 4);
        let served = (
            number(&served, "cut"),
            number(&served, "connectivity"),
            wire_hash(&served),
        );
        assert_eq!(served, expect, "{name}: k-way daemon vs library");
    }

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn global_and_unknown_names_are_refused_with_typed_errors() {
    let graph = generate(&GeneratorConfig::new(30, 34, 110).with_seed(4)).unwrap();
    let payload = format::write_hgr(&graph);
    let balance = BalanceConstraint::weighted(0.45, 0.55, &graph).unwrap();
    let (handle, mut client) = start_daemon();
    let served_list = EngineName::names(EngineName::is_iterative);

    let globals = EngineName::ALL
        .into_iter()
        .filter(|name| !name.is_iterative());
    for name in globals.map(EngineName::as_str).chain(["nope"]) {
        for k in [2, 4] {
            let response = submit(&mut client, name, &payload, k);
            assert_eq!(
                response.get("ok").and_then(Json::as_bool),
                Some(false),
                "{name}"
            );
            assert_eq!(
                response.get("error").and_then(Json::as_str),
                Some("unknown_engine"),
                "{name}: {}",
                response.render()
            );
            let message = response.get("message").and_then(Json::as_str).unwrap();
            assert!(message.contains(&served_list), "{name}: {message}");
        }
        let kway = cli_job(name, &["--k", "4"], None);
        assert_eq!(kway.unwrap_err(), 2, "{name}: k-way CLI");
    }

    assert!("nope".parse::<EngineName>().is_err());
    assert_eq!(cli_job("nope", &[], None).unwrap_err(), 2);
    // A one-shot method still runs through the CLI's 2-way job path, but
    // the daemon's parse refuses it before any job is built.
    let global = two_way(cli_run(&graph, "eig1", &[], None)).result;
    assert!(global.partition.is_balanced(balance));
    let line = format!("submit engine=eig1 runs={RUNS} payload=x");
    let refused = wire::parse_request(&line).unwrap_err();
    assert_eq!(
        refused.code(),
        "unknown_engine",
        "the daemon runs iterative engines only"
    );

    client.shutdown().unwrap();
    handle.join();
}
