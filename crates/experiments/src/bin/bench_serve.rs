//! Service-overhead benchmark for the `prop-serve` daemon.
//!
//! Answers two questions about putting a socket in front of the engines:
//!
//! 1. **Latency overhead** — per circuit, the best-of-R PROP protocol is
//!    timed as a direct library call and as a loopback `submit wait=1`
//!    round trip (wire encode, queueing, worker dispatch, JSON response).
//!    Both paths must produce the identical cut *and* the identical
//!    assignment hash — the daemon is only allowed to cost time, never
//!    quality.
//! 2. **Throughput** — a batch of short jobs is submitted without
//!    waiting and then collected, reporting jobs/second through the
//!    queue + worker pool.
//!
//! Shared options: `--quick`, `--runs <n>`, `--circuit <name>`,
//! `--threads <n>` (daemon worker-pool size; 0/absent = 2). Extra:
//! `--jobs <n>` for the throughput batch size (default 16), and
//! `--cluster` to instead benchmark coordinator-sharded batch sweeps:
//! a golem3 fm seed sweep through the circuit store at 1 vs 2 worker
//! daemons (results asserted bit-identical across worker counts),
//! appending `cluster-batch`-labelled jobs/s rows to `BENCH_prop.json`.

use prop_core::BalanceConstraint;
use prop_engines::{EngineName, EngineSpec, Job};
use prop_experiments::{git_rev, Options};
use prop_netlist::{format, suite};
use prop_serve::{
    engine, server, BatchRequest, Client, ClusterConfig, Json, ServerConfig, SubmitRequest,
    UploadRequest,
};
use std::time::Instant;

const CIRCUITS: [&str; 2] = ["balu", "struct"];

fn serve_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: bench_serve [--quick] [--circuit <name>] [--runs <n>] [--threads <n>] \
         [--jobs <n>] [--cluster]"
    );
    std::process::exit(2)
}

fn parse_serve_args() -> (Options, usize, bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, leftover) =
        Options::parse_known(&args).unwrap_or_else(|message| serve_usage(&message));
    let mut jobs = 16usize;
    let mut cluster = false;
    let mut it = leftover.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| serve_usage("--jobs requires a value: --jobs <n>"));
                jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| serve_usage(&format!("bad value {v:?} for --jobs")));
            }
            "--cluster" => cluster = true,
            other => serve_usage(&format!("unknown argument {other:?}")),
        }
    }
    (opts, jobs, cluster)
}

/// Merges the `cluster-batch` rows into `BENCH_prop.json`: previous rows
/// of that label are replaced, every other row is kept verbatim, so the
/// committed trajectory and `bench_snapshot --compare` are undisturbed.
fn append_cluster_rows(path: &str, rows: &[String]) {
    let existing = std::fs::read_to_string(path).unwrap_or_else(|_| String::from("[\n]\n"));
    let mut all: Vec<String> = existing
        .lines()
        .filter(|l| l.contains("\"circuit\""))
        .map(|l| l.trim_end().trim_end_matches(',').to_string())
        .filter(|l| !l.contains("\"label\": \"cluster-batch\""))
        .collect();
    all.extend(rows.iter().cloned());
    std::fs::write(path, format!("[\n{}\n]\n", all.join(",\n"))).expect("write BENCH_prop.json");
}

/// One timed sweep: `sweep_runs` single-run fm sub-jobs over a stored
/// golem3 sharded across `workers` worker daemons. Returns (seconds,
/// winning cut, run_cuts + assignment hash for the identity check).
fn cluster_sweep(workers: usize, sweep_runs: usize, payload: &[u8]) -> (f64, f64, String) {
    let base = std::env::temp_dir().join(format!(
        "prop-bench-cluster-{}w-{}",
        workers,
        std::process::id()
    ));
    std::fs::remove_dir_all(&base).ok();
    let worker_handles: Vec<_> = (0..workers)
        .map(|w| {
            server::start(&ServerConfig {
                workers: 1,
                queue_cap: 64,
                store_dir: Some(base.join(format!("w{w}")).to_string_lossy().into_owned()),
                ..ServerConfig::default()
            })
            .expect("bind worker daemon")
        })
        .collect();
    let coordinator = server::start(&ServerConfig {
        workers: 1,
        queue_cap: 64,
        store_dir: Some(base.join("co").to_string_lossy().into_owned()),
        cluster: Some(ClusterConfig {
            workers: worker_handles.iter().map(|w| w.addr().to_string()).collect(),
            ..ClusterConfig::default()
        }),
        ..ServerConfig::default()
    })
    .expect("bind coordinator daemon");

    let mut client = Client::connect(coordinator.addr()).expect("connect to coordinator");
    client
        .upload(&UploadRequest {
            circuit: "golem3".into(),
            fmt: "hgr".into(),
            payload: Some(payload.to_vec()),
            path: None,
        })
        .expect("upload golem3");

    let start = Instant::now();
    let resp = client
        .batch(&BatchRequest {
            circuit_id: "golem3".into(),
            engines: vec![EngineName::Fm],
            runs: sweep_runs,
            seed: 0,
            chunk: 1,
            ..BatchRequest::default()
        })
        .expect("submit batch");
    let job = resp
        .get("job")
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("batch admission failed: {}", resp.render()));
    let done = client.watch(job, |_| {}).expect("watch batch");
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("completed"),
        "{}",
        done.render()
    );
    let cut = done.get("cut").and_then(Json::as_f64).expect("cut in done");
    let identity = format!(
        "{} {} {}",
        cut,
        done.get("run_cuts").map(Json::render).unwrap_or_default(),
        done.get("assignment_hash")
            .and_then(Json::as_str)
            .unwrap_or_default()
    );

    client.shutdown().expect("shutdown coordinator");
    coordinator.join();
    for w in worker_handles {
        Client::connect(w.addr())
            .expect("connect to worker")
            .shutdown()
            .expect("shutdown worker");
        w.join();
    }
    std::fs::remove_dir_all(&base).ok();
    (secs, cut, identity)
}

fn cluster_mode(opts: &Options) {
    let sweep_runs = opts.scaled_runs(16).max(2);
    let spec = suite::by_name("golem3").expect("golem3 suite entry");
    println!("cluster batch benchmark: golem3 via store, {sweep_runs} one-run fm sub-jobs");
    let graph = spec.instantiate().expect("valid golem3 spec");
    let payload = format::write_hgr(&graph).into_bytes();

    let threads_avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = git_rev();
    let mut rows = Vec::new();
    let mut identities = Vec::new();
    for workers in [1usize, 2] {
        let (secs, cut, identity) = cluster_sweep(workers, sweep_runs, &payload);
        println!(
            "  {workers} worker(s): {sweep_runs} sub-jobs in {secs:.3}s \
             ({:.2} jobs/s), cut {cut}",
            sweep_runs as f64 / secs.max(1e-12)
        );
        rows.push(format!(
            "  {{\"circuit\": \"golem3\", \"method\": \"cluster-batch\", \"runs\": {}, \
             \"threads\": {}, \"best_cut\": {}, \"secs_total\": {:.6}, \
             \"secs_per_run\": {:.6}, \"load_ms\": 0, \"parse_ms\": 0, \
             \"threads_avail\": {}, \"git_rev\": \"{}\", \"label\": \"cluster-batch\"}}",
            sweep_runs,
            workers,
            cut,
            secs,
            secs / sweep_runs as f64,
            threads_avail,
            rev
        ));
        identities.push(identity);
    }
    assert_eq!(
        identities[0], identities[1],
        "cluster sweep diverged across worker counts"
    );
    println!("  1-worker and 2-worker sweeps are bit-identical (cut + run_cuts + assignment_hash)");
    append_cluster_rows("BENCH_prop.json", &rows);
    println!("appended {} cluster-batch rows to BENCH_prop.json", rows.len());
}

fn main() {
    let (opts, batch_jobs, cluster) = parse_serve_args();
    if cluster {
        cluster_mode(&opts);
        return;
    }
    let runs = opts.scaled_runs(10);
    let workers = match opts.threads {
        Some(n) if n >= 1 => n,
        _ => 2,
    };
    let mut circuits: Vec<&str> = CIRCUITS.to_vec();
    if let Some(only) = &opts.circuit {
        circuits.retain(|c| c == only);
        if circuits.is_empty() {
            serve_usage(&format!(
                "--circuit {only:?} is not part of the serve benchmark ({})",
                CIRCUITS.join(", ")
            ));
        }
    }

    let handle = server::start(&ServerConfig {
        workers,
        queue_cap: batch_jobs.max(64),
        ..ServerConfig::default()
    })
    .expect("bind loopback daemon");
    println!(
        "daemon on {} ({workers} workers); best-of-{runs} PROP per circuit",
        handle.addr()
    );

    let prop = EngineSpec::new(EngineName::Prop)
        .build(0, 0)
        .iterative()
        .expect("prop is iterative");
    for name in &circuits {
        let spec = suite::by_name(name).expect("benchmark circuit");
        let graph = spec.instantiate().expect("valid Table-1 spec");
        let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes()).expect("valid ratios");
        let payload = format::write_hgr(&graph);

        let start = Instant::now();
        let direct = prop
            .run_multi(&graph, balance, runs, 0)
            .expect("non-empty graph");
        let direct_s = start.elapsed().as_secs_f64();
        let direct_hash = engine::assignment_hash(direct.partition.sides());

        let mut client = Client::connect(handle.addr()).expect("connect to daemon");
        let start = Instant::now();
        let response = client
            .submit(&SubmitRequest {
                job: Job { runs, seed: 0, ..Job::new(EngineName::Prop) },
                payload,
                wait: true,
                ..SubmitRequest::default()
            })
            .expect("submit round trip");
        let serve_s = start.elapsed().as_secs_f64();

        assert_eq!(
            response.get("status").and_then(Json::as_str),
            Some("completed"),
            "{name}: {}",
            response.render()
        );
        let served_cut = response
            .get("cut")
            .and_then(Json::as_f64)
            .expect("cut in response");
        let served_hash = response
            .get("assignment_hash")
            .and_then(Json::as_str)
            .and_then(prop_serve::json::parse_hex64)
            .expect("assignment hash in response");
        assert_eq!(
            served_cut, direct.cut_cost,
            "{name}: daemon cut diverged from the direct run"
        );
        assert_eq!(
            served_hash, direct_hash,
            "{name}: daemon assignment diverged from the direct run"
        );

        let overhead = serve_s - direct_s;
        println!(
            "  {name}: direct {direct_s:.3}s, via daemon {serve_s:.3}s \
             (overhead {:+.1} ms, {:+.1}%), cut {} [bit-identical]",
            overhead * 1e3,
            100.0 * overhead / direct_s.max(1e-12),
            direct.cut_cost
        );
    }

    // Throughput: a batch of 1-run FM jobs through the queue.
    let spec = suite::by_name(CIRCUITS[0]).expect("benchmark circuit");
    let graph = spec.instantiate().expect("valid Table-1 spec");
    let payload = format::write_hgr(&graph);
    let mut client = Client::connect(handle.addr()).expect("connect to daemon");
    let start = Instant::now();
    let mut ids = Vec::with_capacity(batch_jobs);
    for seed in 0..batch_jobs as u64 {
        let response = client
            .submit(&SubmitRequest {
                job: Job { runs: 1, seed, ..Job::new(EngineName::Fm) },
                payload: payload.clone(),
                ..SubmitRequest::default()
            })
            .expect("submit batch job");
        let id = response
            .get("job")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("batch admission failed: {}", response.render()));
        ids.push(id);
    }
    for id in ids {
        let done = client.wait(id).expect("wait for batch job");
        assert_eq!(
            done.get("status").and_then(Json::as_str),
            Some("completed"),
            "{}",
            done.render()
        );
    }
    let batch_s = start.elapsed().as_secs_f64();
    println!(
        "  throughput: {batch_jobs} one-run FM jobs in {batch_s:.3}s \
         ({:.1} jobs/s through {workers} workers)",
        batch_jobs as f64 / batch_s.max(1e-12)
    );

    let stats = client.stats().expect("stats round trip");
    let completed = stats
        .get("stats")
        .and_then(|s| s.get("jobs"))
        .and_then(|j| j.get("completed"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    println!("  daemon completed {completed} jobs total");
    client.shutdown().expect("shutdown round trip");
    handle.join();
}
