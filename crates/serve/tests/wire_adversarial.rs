//! Robustness of the daemon's wire surface against malformed, hostile,
//! and half-finished input.
//!
//! Contract under test: a bad request may cost the offending client its
//! connection, but it must never panic a thread, wedge a worker, or
//! degrade service for well-behaved clients. Every scenario ends by
//! proving the daemon still completes a real job.

use prop_engines::{EngineName, Job};
use prop_serve::{server, BatchRequest, Client, ClusterConfig, Json, ServerConfig, SubmitRequest};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn start_small_server() -> server::ServerHandle {
    server::start(&ServerConfig {
        workers: 1,
        queue_cap: 8,
        // Small cap so the oversized-line scenario is cheap to trigger.
        max_request_bytes: 4096,
        ..ServerConfig::default()
    })
    .unwrap()
}

fn raw_connection(handle: &server::ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn read_response_line(stream: &TcpStream) -> String {
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

/// The daemon still runs real jobs to completion.
fn assert_daemon_healthy(handle: &server::ServerHandle) {
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client
        .submit(&SubmitRequest {
            job: Job { runs: 1, ..Job::new(EngineName::Fm) },
            payload: "3 4\n1 2\n2 3\n3 4\n".into(),
            wait: true,
            ..SubmitRequest::default()
        })
        .unwrap();
    assert_eq!(
        response.get("status").and_then(Json::as_str),
        Some("completed"),
        "{}",
        response.render()
    );
}

#[test]
fn malformed_lines_get_errors_and_keep_the_connection() {
    let handle = start_small_server();
    let mut stream = raw_connection(&handle);
    for bad in [
        "frobnicate\n",
        "submit\n",
        "submit payload=abc runs=0\n",
        "submit payload=%GG\n",
        "status job=banana\n",
        "ping trailing=field\n",
        "\n",
    ] {
        stream.write_all(bad.as_bytes()).unwrap();
        let response = read_response_line(&stream);
        let body = prop_serve::json::parse(&response).expect("error responses are valid JSON");
        assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false), "{bad:?}");
        assert!(body.get("message").and_then(Json::as_str).is_some(), "{bad:?}");
    }
    // Same connection still serves well-formed requests.
    stream.write_all(b"ping\n").unwrap();
    let pong = prop_serve::json::parse(&read_response_line(&stream)).unwrap();
    assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

    assert_daemon_healthy(&handle);
    handle.shutdown();
    handle.join();
}

#[test]
fn non_utf8_bytes_are_rejected_cleanly() {
    let handle = start_small_server();
    let mut stream = raw_connection(&handle);
    stream.write_all(b"submit payload=a \xff\xfe garbage\n").unwrap();
    let body = prop_serve::json::parse(&read_response_line(&stream)).unwrap();
    assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false));
    // Framing intact: the next request on the same connection works.
    stream.write_all(b"stats\n").unwrap();
    let stats = prop_serve::json::parse(&read_response_line(&stream)).unwrap();
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    let malformed = stats
        .get("stats")
        .and_then(|s| s.get("jobs"))
        .and_then(|j| j.get("malformed"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(malformed >= 1, "malformed counter should have moved");

    assert_daemon_healthy(&handle);
    handle.shutdown();
    handle.join();
}

#[test]
fn oversized_request_is_refused_and_connection_dropped() {
    let handle = start_small_server();
    let stream = raw_connection(&handle);
    // 64 KiB against a 4 KiB cap. The server answers once mid-stream and
    // drops the connection; because it closes with unread bytes pending,
    // the remaining writes (and even the response read) may instead see a
    // reset — both are a clean refusal, never a hang or a panic.
    let huge = vec![b'a'; 64 * 1024];
    let _ = (&stream).write_all(&huge);
    let _ = (&stream).write_all(b"\n");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => {
            let body = prop_serve::json::parse(line.trim_end()).unwrap();
            assert_eq!(body.get("error").and_then(Json::as_str), Some("too_large"));
            // After the one refusal the connection is closed.
            let mut rest = Vec::new();
            let n = reader.read_to_end(&mut rest).unwrap_or(0);
            assert_eq!(n, 0, "expected EOF after the oversized-line rejection");
        }
        // EOF or reset before the response: the drop itself is the refusal.
        Ok(_) | Err(_) => {}
    }

    assert_daemon_healthy(&handle);
    handle.shutdown();
    handle.join();
}

#[test]
fn premature_disconnects_do_not_wedge_the_daemon() {
    let handle = start_small_server();
    // Half a request, then drop; a bare connect-and-drop; a drop right
    // after a full submit whose response we never read.
    {
        let mut stream = raw_connection(&handle);
        stream.write_all(b"submit engine=prop payl").unwrap();
    }
    {
        let _stream = raw_connection(&handle);
    }
    {
        let mut stream = raw_connection(&handle);
        let req = SubmitRequest {
            job: Job { runs: 1, ..Job::new(EngineName::Fm) },
            payload: "3 4\n1 2\n2 3\n3 4\n".into(),
            wait: true,
            ..SubmitRequest::default()
        };
        stream
            .write_all(format!("{}\n", req.render()).as_bytes())
            .unwrap();
        // Drop without reading the response: the worker still finishes
        // the job and the write failure is contained.
    }
    assert_daemon_healthy(&handle);
    handle.shutdown();
    handle.join();
}

fn tiny_hgr() -> String {
    let g = prop_netlist::generate::generate(
        &prop_netlist::generate::GeneratorConfig::new(24, 28, 96).with_seed(17),
    )
    .unwrap();
    prop_netlist::format::write_hgr(&g)
}

/// A worker daemon plus a coordinator fronting it (and any extra,
/// possibly hostile, worker addresses), with a circuit uploaded as `c`.
fn start_cluster(
    tag: &str,
    extra_workers: Vec<String>,
    max_retries: u32,
) -> (server::ServerHandle, server::ServerHandle, std::path::PathBuf) {
    let base = std::env::temp_dir().join(format!(
        "prop-wire-adversarial-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&base).ok();
    let worker = server::start(&ServerConfig {
        workers: 1,
        queue_cap: 16,
        store_dir: Some(base.join("w").to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut workers = vec![worker.addr().to_string()];
    workers.extend(extra_workers);
    let coordinator = server::start(&ServerConfig {
        workers: 1,
        queue_cap: 16,
        store_dir: Some(base.join("c").to_string_lossy().into_owned()),
        cluster: Some(ClusterConfig {
            workers,
            heartbeat_ms: 25,
            heartbeat_timeout_ms: 100,
            max_retries,
            backoff_ms: 20,
        }),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(coordinator.addr()).unwrap();
    client
        .upload(&prop_serve::UploadRequest {
            circuit: "c".into(),
            fmt: "hgr".into(),
            payload: Some(tiny_hgr().into_bytes()),
            path: None,
        })
        .unwrap();
    (coordinator, worker, base)
}

fn stop_cluster(
    coordinator: server::ServerHandle,
    worker: server::ServerHandle,
    base: &std::path::Path,
) {
    Client::connect(coordinator.addr()).unwrap().shutdown().unwrap();
    coordinator.join();
    Client::connect(worker.addr()).unwrap().shutdown().unwrap();
    worker.join();
    std::fs::remove_dir_all(base).ok();
}

#[test]
fn malformed_batch_specs_get_typed_errors() {
    let handle = start_small_server();
    let mut stream = raw_connection(&handle);
    for bad in [
        "batch\n",                                   // no circuit_id
        "batch circuit_id=c engines=quantum\n",      // unknown engine
        "batch circuit_id=c engines=\n",             // empty dimension
        "batch circuit_id=c eps=0.6:0.4\n",          // inverted ratios
        "batch circuit_id=c eps=0.45\n",             // not a pair
        "batch circuit_id=c eps=a:b\n",              // non-numeric
        "batch circuit_id=c runs=0\n",               // empty sweep
        "batch circuit_id=c chunk=0\n",              // zero grain
        "batch circuit_id=c runs=999999 chunk=1\n",  // over the sub-job cap
        "batch circuit_id=c bogus=1\n",              // unknown field
        "watch\n",                                   // no job
        "watch job=banana\n",                        // non-numeric job
    ] {
        stream.write_all(bad.as_bytes()).unwrap();
        let body = prop_serve::json::parse(&read_response_line(&stream)).unwrap();
        assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false), "{bad:?}");
        assert_eq!(
            body.get("error").and_then(Json::as_str),
            Some("malformed"),
            "{bad:?}"
        );
    }
    // A well-formed batch against a plain daemon gets the typed
    // not_coordinator error, not a hang or a panic.
    stream.write_all(b"batch circuit_id=c\n").unwrap();
    let body = prop_serve::json::parse(&read_response_line(&stream)).unwrap();
    assert_eq!(body.get("error").and_then(Json::as_str), Some("not_coordinator"));

    assert_daemon_healthy(&handle);
    handle.shutdown();
    handle.join();
}

#[test]
fn watch_errors_are_single_typed_lines() {
    let (coordinator, worker, base) = start_cluster("watch-errors", Vec::new(), 3);
    let mut client = Client::connect(coordinator.addr()).unwrap();
    // Unknown batch id.
    let terminal = client.watch(424_242, |_| {}).unwrap();
    assert_eq!(terminal.get("error").and_then(Json::as_str), Some("unknown_job"));
    // A plain (non-batch) job id is not watchable either.
    let resp = client
        .submit(&SubmitRequest {
            job: Job { runs: 1, ..Job::new(EngineName::Fm) },
            payload: "3 4\n1 2\n2 3\n3 4\n".into(),
            wait: true,
            ..SubmitRequest::default()
        })
        .unwrap();
    let job = resp.get("job").and_then(Json::as_u64).unwrap();
    let terminal = client.watch(job, |_| {}).unwrap();
    assert_eq!(terminal.get("error").and_then(Json::as_str), Some("unknown_job"));
    // The connection survives both error lines.
    assert!(client.ping().is_ok());
    stop_cluster(coordinator, worker, &base);
}

#[test]
fn client_truncated_watch_stream_surfaces_as_protocol_error() {
    // A fake coordinator that sends one half-finished event line and
    // closes mid-stream: the client reports a typed protocol error
    // instead of hanging or panicking.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut line = String::new();
        BufReader::new(s.try_clone().unwrap()).read_line(&mut line).unwrap();
        assert!(line.starts_with("watch"));
        s.write_all(b"{\"ok\":true,\"event\":\"progress\"}\n").unwrap();
        s.write_all(b"{\"ok\":true,\"eve").unwrap(); // truncated, then gone
    });
    let mut client = Client::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut events = 0;
    let err = client.watch(7, |_| events += 1).unwrap_err();
    assert_eq!(err.code(), "protocol");
    assert_eq!(events, 1, "the complete event line was still delivered");
    fake.join().unwrap();
}

#[test]
fn watcher_disconnect_mid_stream_does_not_stop_the_batch() {
    let (coordinator, worker, base) = start_cluster("watcher-drop", Vec::new(), 3);
    let mut client = Client::connect(coordinator.addr()).unwrap();
    let resp = client
        .batch(&BatchRequest {
            circuit_id: "c".into(),
            engines: vec![EngineName::Fm],
            runs: 6,
            chunk: 1,
            ..BatchRequest::default()
        })
        .unwrap();
    let job = resp.get("job").and_then(Json::as_u64).unwrap();
    {
        // Start a watch, read at most one line, and vanish.
        let mut stream = raw_connection(&coordinator);
        stream.write_all(format!("watch job={job}\n").as_bytes()).unwrap();
        let _ = read_response_line(&stream);
    }
    // The batch still runs to completion and the daemon stays healthy.
    let done = client.wait(job).unwrap();
    assert_eq!(done.get("status").and_then(Json::as_str), Some("completed"), "{}", done.render());
    assert_daemon_healthy(&coordinator);
    stop_cluster(coordinator, worker, &base);
}

#[test]
fn bogus_heartbeat_replies_mark_the_worker_lost_not_the_daemon() {
    // A hostile "worker" that answers every request — pings and submits
    // alike — with garbage, then closes. The coordinator must treat it
    // as a failed ping / failed sub-job, reschedule onto the real
    // worker, and finish the batch.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let bogus_addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { continue };
            let mut line = String::new();
            let _ = BufReader::new(s.try_clone().unwrap()).read_line(&mut line);
            let _ = s.write_all(b"}}} utterly not json {{{\n");
        }
    });
    // Generous retry budget: the bogus worker may grab (and fail) a few
    // sub-jobs before the heartbeat declares it lost.
    let (coordinator, worker, base) = start_cluster("bogus-worker", vec![bogus_addr], 50);
    let mut client = Client::connect(coordinator.addr()).unwrap();
    let resp = client
        .batch(&BatchRequest {
            circuit_id: "c".into(),
            engines: vec![EngineName::Fm],
            runs: 8,
            chunk: 1,
            ..BatchRequest::default()
        })
        .unwrap();
    let job = resp.get("job").and_then(Json::as_u64).unwrap();
    let done = client.wait(job).unwrap();
    assert_eq!(done.get("status").and_then(Json::as_str), Some("completed"), "{}", done.render());

    // The batch can finish before the heartbeat grace period expires,
    // so poll until the bogus worker is declared lost (bounded wait).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let workers = loop {
        let stats = client.stats().unwrap();
        let cluster = stats.get("stats").and_then(|s| s.get("cluster")).unwrap();
        let workers = cluster.get("workers").and_then(Json::as_arr).unwrap().to_vec();
        assert_eq!(workers.len(), 2);
        if workers[1].get("alive").and_then(Json::as_bool) == Some(false) {
            break workers;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "bogus worker never marked lost: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    // The bogus worker accumulated ping failures, never completed a
    // sub-job, and every sub-job ultimately ran on the real worker.
    let bogus = &workers[1];
    assert!(bogus.get("ping_failures").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(bogus.get("completed").and_then(Json::as_u64), Some(0));
    assert_eq!(workers[0].get("completed").and_then(Json::as_u64), Some(8));
    assert_daemon_healthy(&coordinator);
    stop_cluster(coordinator, worker, &base);
}

#[test]
fn binary_flood_never_panics_a_worker() {
    let handle = start_small_server();
    let mut stream = raw_connection(&handle);
    // Newline-riddled binary noise: every "line" is a malformed request.
    let mut noise = Vec::new();
    for i in 0..200u32 {
        noise.extend_from_slice(&i.to_le_bytes());
        noise.push(if i % 3 == 0 { b'\n' } else { 0x07 });
    }
    noise.push(b'\n');
    stream.write_all(&noise).unwrap();
    // Drain whatever error responses came back (count is not the point;
    // surviving is).
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    // One response is enough (count is not the point; surviving is).
    if reader.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
        let body = prop_serve::json::parse(line.trim_end()).unwrap();
        assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false));
    }
    drop(stream);

    assert_daemon_healthy(&handle);
    // No worker panicked anywhere in this test.
    let mut client = Client::connect(handle.addr()).unwrap();
    let stats = client.stats().unwrap();
    let panics = stats
        .get("stats")
        .and_then(|s| s.get("jobs"))
        .and_then(|j| j.get("worker_panics"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(panics, 0);
    client.shutdown().unwrap();
    handle.join();
}
