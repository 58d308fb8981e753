//! One engine registry, three surfaces.
//!
//! For every registered iterative engine, the library build
//! (`prop_engines`), the `prop` CLI's dispatch (`prop_cli::run_method` /
//! `run_kway`) and a live daemon must agree bit for bit at k = 2 and at
//! k = 4 uniform. Every one-shot global name is refused by the daemon and
//! by the k-way path with a typed error, and an unknown name by every
//! surface. The CLI runs at its default thread policy, and every flat
//! engine also at `--threads 1`, which must change nothing.

use prop_cli::{run_kway, run_method};
use prop_core::{partition_kway, BalanceConstraint, KwayConfig};
use prop_engines::{EngineName, EngineSpec};
use prop_multilevel::MultilevelConfig;
use prop_netlist::format;
use prop_netlist::generate::{generate, GeneratorConfig};
use prop_serve::{engine, server, Client, Json, ServerConfig, SubmitRequest};

const RUNS: usize = 2;
const SEED: u64 = 17;

/// The `--threads` settings each engine must agree at: the default for
/// every engine, plus `--threads 1` for the flat ones. For `ml` any
/// `--threads` selects the intra-parallel V-cycle, a different algorithm
/// than the library's classic default.
fn cli_threads(name: EngineName) -> &'static [Option<usize>] {
    if name == EngineName::Ml {
        &[None]
    } else {
        &[None, Some(1)]
    }
}

fn submit(client: &mut Client, engine: &str, payload: &str, k: usize) -> Json {
    client
        .submit(&SubmitRequest {
            engine: engine.into(),
            runs: RUNS,
            seed: SEED,
            payload: payload.into(),
            wait: true,
            k,
            ..SubmitRequest::default()
        })
        .unwrap()
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
        // `EngineSpec::new` is the library's default: for `ml`, the
        // classic V-cycle.
        let library = EngineSpec::new(name)
            .build(SEED, RUNS)
            .iterative()
            .expect("iterative engine");

        // k = 2: cut, per-run cut trajectory and assignment hash.
        let direct = library.run_multi(&graph, balance, RUNS, SEED).unwrap();
        let expect = (
            direct.cut_cost,
            direct.run_cuts.clone(),
            engine::assignment_hash(direct.partition.sides()),
        );
        for &threads in cli_threads(name) {
            let cli = run_method(name.as_str(), &graph, balance, RUNS, SEED, threads).unwrap();
            let cli = (
                cli.cut_cost,
                cli.run_cuts,
                engine::assignment_hash(cli.partition.sides()),
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
        for &threads in cli_threads(name) {
            let cli = run_kway(
                name.as_str(),
                &graph,
                4,
                None,
                0.45,
                0.55,
                RUNS,
                SEED,
                threads,
                MultilevelConfig::default(),
            )
            .unwrap()
            .partition;
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
        let kway = run_kway(
            name,
            &graph,
            4,
            None,
            0.45,
            0.55,
            RUNS,
            SEED,
            None,
            MultilevelConfig::default(),
        );
        assert_eq!(kway.unwrap_err().code, 2, "{name}: k-way CLI");
    }

    assert!("nope".parse::<EngineName>().is_err());
    let cli = run_method("nope", &graph, balance, RUNS, SEED, None);
    assert_eq!(cli.unwrap_err().code, 2);
    let cancel = prop_core::CancelToken::new();
    let library = engine::execute(EngineName::Eig1, &graph, balance, RUNS, SEED, &cancel);
    assert!(
        library.is_err(),
        "the daemon's execute path runs iterative engines only"
    );

    client.shutdown().unwrap();
    handle.join();
}
