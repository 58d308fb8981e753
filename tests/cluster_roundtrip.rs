//! Bit-identity of coordinator-sharded batch sweeps against direct
//! sequential library calls.
//!
//! The cluster subsystem's core claim: a `batch` sweep sharded across
//! any number of workers — including a pool with a dead member that
//! forces mid-batch rescheduling — produces exactly the result of a
//! local sequential `run_multi` sweep: same winning cut, same per-run
//! seed trajectory, same node→side assignment hash, per group and
//! overall. These tests run real daemons (workers + coordinator) on
//! loopback and compare against the library run in-process.

use prop_core::{BalanceConstraint, Partitioner, Prop, PropConfig};
use prop_engines::EngineName;
use prop_fm::FmBucket;
use prop_netlist::format;
use prop_netlist::generate::{generate, GeneratorConfig};
use prop_serve::{server, BatchRequest, Client, ClusterConfig, Json, ServerConfig, UploadRequest};
use std::time::Duration;

const RUNS: usize = 4;
const SEED: u64 = 41;

fn test_graph() -> prop_netlist::Hypergraph {
    generate(&GeneratorConfig::new(80, 92, 300).with_seed(5)).unwrap()
}

/// The sequential-library expectation for one sweep group.
fn direct_group(engine_name: &str, graph: &prop_netlist::Hypergraph) -> (f64, Vec<f64>, u64) {
    let balance = BalanceConstraint::weighted(0.45, 0.55, graph).unwrap();
    let result = match engine_name {
        "prop" => Prop::new(PropConfig::calibrated())
            .run_multi(graph, balance, RUNS, SEED)
            .unwrap(),
        "fm" => FmBucket::default()
            .run_multi(graph, balance, RUNS, SEED)
            .unwrap(),
        other => panic!("unexpected engine {other}"),
    };
    let hash = prop_core::assignment_hash(result.partition.sides());
    (result.cut_cost, result.run_cuts, hash)
}

struct Cluster {
    coordinator: server::ServerHandle,
    workers: Vec<server::ServerHandle>,
    base: std::path::PathBuf,
}

/// Spawns `real_workers` worker daemons plus a coordinator fronting
/// them (and any `extra_addrs`, e.g. dead ports), and uploads the test
/// circuit as `rt`.
fn start_cluster(tag: &str, real_workers: usize, extra_addrs: Vec<String>) -> Cluster {
    let base = std::env::temp_dir().join(format!(
        "prop-cluster-roundtrip-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&base).ok();
    let workers: Vec<_> = (0..real_workers)
        .map(|w| {
            server::start(&ServerConfig {
                workers: 1,
                queue_cap: 32,
                store_dir: Some(base.join(format!("w{w}")).to_string_lossy().into_owned()),
                ..ServerConfig::default()
            })
            .unwrap()
        })
        .collect();
    let mut addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    addrs.extend(extra_addrs);
    let coordinator = server::start(&ServerConfig {
        workers: 1,
        queue_cap: 32,
        store_dir: Some(base.join("coord").to_string_lossy().into_owned()),
        cluster: Some(ClusterConfig {
            workers: addrs,
            heartbeat_ms: 25,
            heartbeat_timeout_ms: 100,
            max_retries: 10,
            backoff_ms: 20,
        }),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(coordinator.addr()).unwrap();
    client
        .upload(&UploadRequest {
            circuit: "rt".into(),
            fmt: "hgr".into(),
            payload: Some(format::write_hgr(&test_graph()).into_bytes()),
            path: None,
        })
        .unwrap();
    Cluster {
        coordinator,
        workers,
        base,
    }
}

impl Cluster {
    fn client(&self) -> Client {
        Client::connect(self.coordinator.addr()).unwrap()
    }

    fn stop(self) {
        self.client().shutdown().unwrap();
        self.coordinator.join();
        for w in self.workers {
            Client::connect(w.addr()).unwrap().shutdown().unwrap();
            w.join();
        }
        std::fs::remove_dir_all(&self.base).ok();
    }
}

fn sweep_spec() -> BatchRequest {
    BatchRequest {
        circuit_id: "rt".into(),
        engines: vec![EngineName::Prop, EngineName::Fm],
        eps: vec![(0.45, 0.55)],
        runs: RUNS,
        seed: SEED,
        chunk: 2, // two chunks per group — real sharding even at 2 workers
        ..BatchRequest::default()
    }
}

/// Runs the sweep on the cluster and returns the terminal `done` event.
fn run_batch(cluster: &Cluster) -> Json {
    let mut client = cluster.client();
    let resp = client.batch(&sweep_spec()).unwrap();
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        resp.render()
    );
    let job = resp.get("job").and_then(Json::as_u64).unwrap();
    let done = client.watch(job, |_| {}).unwrap();
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("completed"),
        "{}",
        done.render()
    );
    done
}

/// Extracts (engine, cut, run_cuts, assignment hash) per sweep group.
fn group_results(done: &Json) -> Vec<(String, f64, Vec<f64>, u64)> {
    done.get("groups")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|g| {
            (
                g.get("engine").and_then(Json::as_str).unwrap().to_string(),
                g.get("cut").and_then(Json::as_f64).unwrap(),
                g.get("run_cuts")
                    .and_then(Json::as_arr)
                    .unwrap()
                    .iter()
                    .map(|c| c.as_f64().unwrap())
                    .collect(),
                g.get("assignment_hash")
                    .and_then(Json::as_str)
                    .and_then(prop_serve::json::parse_hex64)
                    .unwrap(),
            )
        })
        .collect()
}

/// The done event with run-specific fields (batch id, reschedule count)
/// stripped, so results from different cluster shapes compare equal.
fn normalized(done: &Json) -> String {
    let Json::Obj(fields) = done else {
        panic!("done event is not an object: {}", done.render())
    };
    Json::Obj(
        fields
            .iter()
            .filter(|(k, _)| k != "job" && k != "rescheduled")
            .cloned()
            .collect(),
    )
    .render()
}

fn assert_matches_direct(done: &Json) {
    let graph = test_graph();
    let groups = group_results(done);
    assert_eq!(groups.len(), 2, "{}", done.render());
    for (engine_name, cut, run_cuts, hash) in &groups {
        let (want_cut, want_cuts, want_hash) = direct_group(engine_name, &graph);
        assert_eq!(*cut, want_cut, "{engine_name} cut");
        assert_eq!(*run_cuts, want_cuts, "{engine_name} seed trajectory");
        assert_eq!(*hash, want_hash, "{engine_name} assignment hash");
        assert_eq!(run_cuts.len(), RUNS);
    }
    // The batch winner is one of the groups, carried verbatim.
    let cut = done.get("cut").and_then(Json::as_f64).unwrap();
    let hash = done
        .get("assignment_hash")
        .and_then(Json::as_str)
        .and_then(prop_serve::json::parse_hex64)
        .unwrap();
    let min = groups.iter().map(|g| g.1).fold(f64::INFINITY, f64::min);
    assert_eq!(cut, min, "winner carries the lowest group cut");
    assert!(groups.iter().any(|g| g.1 == cut && g.3 == hash));
}

#[test]
fn one_worker_matches_direct_sequential_sweep() {
    let cluster = start_cluster("one", 1, Vec::new());
    let done = run_batch(&cluster);
    assert_matches_direct(&done);
    assert_eq!(done.get("rescheduled").and_then(Json::as_u64), Some(0));
    cluster.stop();
}

#[test]
fn two_workers_are_bit_identical_to_one() {
    let one = start_cluster("pair-a", 1, Vec::new());
    let done_one = run_batch(&one);
    one.stop();

    let two = start_cluster("pair-b", 2, Vec::new());
    let done_two = run_batch(&two);
    // Both workers actually participated (or at least could): the
    // sweep expands to 4 sub-jobs over 2 dispatchers.
    assert_eq!(done_two.get("sub_jobs").and_then(Json::as_u64), Some(4));
    two.stop();

    assert_matches_direct(&done_two);
    assert_eq!(normalized(&done_one), normalized(&done_two));
}

#[test]
fn dead_worker_mid_pool_reschedules_without_changing_the_result() {
    // A listener bound then dropped: the port was just free, so dials
    // are refused — a worker that is lost from the very first dispatch.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let cluster = start_cluster("dead", 1, vec![dead_addr]);
    let done = run_batch(&cluster);
    assert_matches_direct(&done);

    // The dead worker is marked lost in the coordinator's stats and
    // completed nothing; the real worker carried the whole sweep.
    let mut client = cluster.client();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        let cluster_stats = stats.get("stats").and_then(|s| s.get("cluster")).unwrap();
        let workers = cluster_stats.get("workers").and_then(Json::as_arr).unwrap();
        assert_eq!(workers.len(), 2);
        if workers[1].get("alive").and_then(Json::as_bool) == Some(false) {
            assert_eq!(workers[1].get("completed").and_then(Json::as_u64), Some(0));
            assert_eq!(workers[0].get("completed").and_then(Json::as_u64), Some(4));
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "dead worker never marked lost: {}",
            stats.render()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    cluster.stop();
}

#[test]
fn cancel_fans_out_and_evict_is_refused_while_running() {
    let cluster = start_cluster("cancel", 1, Vec::new());
    let mut client = cluster.client();
    // A long sweep: many single-run sub-jobs so the batch is still in
    // flight when the cancel lands.
    let resp = client
        .batch(&BatchRequest {
            circuit_id: "rt".into(),
            engines: vec![EngineName::Prop],
            runs: 400,
            seed: SEED,
            chunk: 1,
            ..BatchRequest::default()
        })
        .unwrap();
    let job = resp.get("job").and_then(Json::as_u64).unwrap();

    // The referenced circuit is pinned for the batch's lifetime.
    let evict = client.evict("rt").unwrap();
    if evict.get("ok").and_then(Json::as_bool) == Some(false) {
        assert_eq!(
            evict.get("error").and_then(Json::as_str),
            Some("circuit_busy"),
            "{}",
            evict.render()
        );
    }

    let cancel = client.cancel(job).unwrap();
    assert_eq!(cancel.get("ok").and_then(Json::as_bool), Some(true));
    let done = client.wait(job).unwrap();
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("cancelled"),
        "{}",
        done.render()
    );

    // Terminal batch → pin released → evict now succeeds.
    let evict = client.evict("rt").unwrap();
    assert_eq!(
        evict.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        evict.render()
    );
    cluster.stop();
}
