//! Every engine on every kind of valid netlist gives a result or a typed
//! refusal, never a panic, through every surface.
//!
//! The loop runs every registry name × {unit net costs, net cost 2, net
//! cost 2.5, node sizes} × k ∈ {2, 3} through the library
//! (`prop_engines::Job::run`), the `prop` CLI (`prop_cli::run`, which
//! loads the file and prints the result line) and a live daemon, and
//! every 2-way point through a coordinator's batch planner. LA-k needs
//! unit net costs and KL unit node sizes (`EngineName::needs`); the
//! one-shot methods cannot drive k-way recursion and the daemon does not
//! serve them. Each refusal has its typed form: `JobError::Unsupported` /
//! `JobError::Invalid` in the library, exit 1 / exit 2 from the CLI,
//! `unsupported_input` / `unknown_engine` from the daemon.

use prop_cli::{parse_args, run};
use prop_core::{cut_cost, CancelToken, ParallelPolicy};
use prop_engines::{EngineName, Job, JobError, JobReport};
use prop_netlist::generate::{generate, GeneratorConfig};
use prop_netlist::{format, Hypergraph, HypergraphBuilder};
use prop_serve::{
    server, BatchRequest, Client, ClusterConfig, Json, ServerConfig, SubmitRequest, UploadRequest,
};

const RUNS: usize = 2;

/// What a surface must answer for one (engine, netlist, k) point.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Expect {
    /// A partition.
    Result,
    /// The engine cannot take the netlist.
    Unsupported,
    /// A one-shot method asked for k parts.
    NotIterative,
}

/// The base circuit with every net cost set to `net_cost` and, when
/// `sized`, node sizes 1, 2, 3, 1, 2, 3, ...
fn variant(base: &Hypergraph, net_cost: f64, sized: bool) -> Hypergraph {
    let mut builder = HypergraphBuilder::new(base.num_nodes());
    for net in base.nets() {
        builder
            .add_net(net_cost, base.pins_of(net).iter().map(|v| v.index()))
            .unwrap();
    }
    if sized {
        let sizes = (0..base.num_nodes()).map(|i| (1 + i % 3) as f64).collect();
        builder.set_node_weights(sizes).unwrap();
    }
    builder.build().unwrap()
}

/// The rule the surfaces must follow, stated here from the engines'
/// definitions rather than read back from the registry.
fn expect(name: EngineName, net_cost: f64, sized: bool, k: usize) -> Expect {
    let la = matches!(name, EngineName::La2 | EngineName::La3);
    if k != 2 && !name.is_iterative() {
        Expect::NotIterative
    } else if (la && net_cost != 1.0) || (name == EngineName::Kl && sized) {
        Expect::Unsupported
    } else {
        Expect::Result
    }
}

fn library(job: &Job, graph: &Hypergraph) -> Expect {
    match job.run(graph, ParallelPolicy::Sequential, &CancelToken::new()) {
        Ok(JobReport::TwoWay(report)) => {
            let result = report.result;
            assert_eq!(result.cut_cost, cut_cost(graph, &result.partition));
            Expect::Result
        }
        Ok(JobReport::Kway(report)) => {
            assert_eq!(report.partition.assignment().len(), graph.num_nodes());
            Expect::Result
        }
        Err(JobError::Unsupported(message)) => {
            assert!(message.contains(job.spec.name.as_str()), "{message}");
            Expect::Unsupported
        }
        Err(JobError::Invalid(message)) => {
            assert!(message.contains("k-way"), "{message}");
            Expect::NotIterative
        }
        Err(e) => panic!("{}: untyped failure {e}", job.spec.name),
    }
}

fn cli(name: EngineName, file: &str, k: usize) -> Expect {
    let args: Vec<String> = [
        "partition",
        file,
        "--method",
        name.as_str(),
        "--runs",
        &RUNS.to_string(),
        "--k",
        &k.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    match parse_args(&args).and_then(run) {
        Ok(()) => Expect::Result,
        Err(e) if e.code == 1 && e.message.contains("needs unit") => Expect::Unsupported,
        Err(e) if e.code == 2 && e.message.contains("k-way") => Expect::NotIterative,
        Err(e) => panic!("{name} k={k}: exit {} ({})", e.code, e.message),
    }
}

fn daemon(client: &mut Client, name: EngineName, payload: &str, k: usize) -> Expect {
    let line = SubmitRequest {
        job: Job {
            runs: RUNS,
            k,
            ..Job::default()
        },
        payload: payload.into(),
        wait: true,
        ..SubmitRequest::default()
    }
    .render()
    .replacen("engine=prop", &format!("engine={name}"), 1);
    let response = client.roundtrip(&line).unwrap();
    let error = response.get("error").and_then(Json::as_str);
    let status = response.get("status").and_then(Json::as_str);
    match (error, status) {
        (None, Some("completed")) => Expect::Result,
        (Some("unsupported_input"), Some("failed")) => Expect::Unsupported,
        // The daemon serves iterative engines only, at every k.
        (Some("unknown_engine"), None) if !name.is_iterative() => Expect::NotIterative,
        _ => panic!("{name} k={k}: {}", response.render()),
    }
}

/// Plans a one-engine batch against the stored circuit `id`; an admitted
/// batch is watched to its end.
fn batch(client: &mut Client, name: EngineName, id: &str) -> Expect {
    let response = client
        .batch(&BatchRequest {
            circuit_id: id.into(),
            engines: vec![name],
            runs: RUNS,
            ..BatchRequest::default()
        })
        .unwrap();
    if response.get("error").and_then(Json::as_str) == Some("unsupported_input") {
        return Expect::Unsupported;
    }
    let job = response.get("job").and_then(Json::as_u64);
    let done = client.watch(job.unwrap(), |_| {}).unwrap();
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("completed"),
        "{name} on {id}: {}",
        done.render()
    );
    Expect::Result
}

#[test]
fn every_engine_gives_a_result_or_a_typed_refusal_on_every_input() {
    let dir = std::env::temp_dir().join(format!("prop-input-caps-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let base = generate(&GeneratorConfig::new(36, 40, 130).with_seed(7)).unwrap();
    let plain = server::start(&ServerConfig {
        workers: 1,
        queue_cap: 8,
        ..ServerConfig::default()
    })
    .unwrap();
    let worker = server::start(&ServerConfig {
        workers: 1,
        queue_cap: 8,
        store_dir: Some(dir.join("worker").to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .unwrap();
    let coordinator = server::start(&ServerConfig {
        workers: 1,
        queue_cap: 8,
        store_dir: Some(dir.join("coordinator").to_string_lossy().into_owned()),
        cluster: Some(ClusterConfig {
            workers: vec![worker.addr().to_string()],
            heartbeat_ms: 50,
            ..ClusterConfig::default()
        }),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(plain.addr()).unwrap();
    let mut planner = Client::connect(coordinator.addr()).unwrap();

    let variants = [
        ("unit", 1.0, false),
        ("cost2", 2.0, false),
        ("cost2_5", 2.5, false),
        ("sized", 1.0, true),
    ];
    let mut refusals = 0;
    for (label, net_cost, sized) in variants {
        let graph = variant(&base, net_cost, sized);
        assert_eq!(graph.has_unit_weights(), net_cost == 1.0, "{label}");
        assert_eq!(graph.has_unit_node_weights(), !sized, "{label}");
        let payload = format::write_hgr(&graph);
        let file = dir.join(format!("{label}.hgr"));
        std::fs::write(&file, &payload).unwrap();
        let file = file.to_str().unwrap();
        planner
            .upload(&UploadRequest {
                circuit: label.into(),
                fmt: "hgr".into(),
                payload: Some(payload.clone().into_bytes()),
                path: None,
            })
            .unwrap();

        for name in EngineName::ALL {
            for k in [2, 3] {
                let want = expect(name, net_cost, sized, k);
                let job = Job {
                    runs: RUNS,
                    k,
                    ..Job::new(name)
                };
                let at = format!("{name} on {label} at k={k}");
                assert_eq!(library(&job, &graph), want, "library: {at}");
                assert_eq!(cli(name, file, k), want, "CLI: {at}");
                let served = daemon(&mut client, name, &payload, k);
                if name.is_iterative() {
                    assert_eq!(served, want, "daemon: {at}");
                    if k == 2 {
                        assert_eq!(batch(&mut planner, name, label), want, "batch: {at}");
                    }
                } else {
                    assert_eq!(served, Expect::NotIterative, "daemon: {at}");
                }
                refusals += usize::from(want == Expect::Unsupported);
            }
        }
    }
    // la2 and la3 on both costed netlists, kl on the sized one, at both k.
    assert_eq!(refusals, 10);

    planner.shutdown().unwrap();
    coordinator.join();
    Client::connect(worker.addr()).unwrap().shutdown().unwrap();
    worker.join();
    client.shutdown().unwrap();
    plain.join();
    let _ = std::fs::remove_dir_all(&dir);
}
