//! The daemon itself: listener, connection handlers, and the worker pool.
//!
//! Threading model:
//!
//! * one accept thread, nonblocking with a short poll sleep so it can
//!   observe the shutdown flag;
//! * one detached handler thread per connection, reading line-delimited
//!   requests under the configured size cap and a generous idle timeout;
//! * `workers` pool threads, each blocking on the job queue, arming the
//!   job's deadline, installing its cancellation token, and running the
//!   engine under `catch_unwind` so a panicking job fails that job — not
//!   the daemon.
//!
//! Shutdown (the `shutdown` verb or [`ServerHandle::shutdown`]) is
//! graceful: the listener stops accepting, new submits are refused with
//! `shutting_down`, queued jobs drain, and [`ServerHandle::join`] returns
//! once every worker has retired.

use crate::batch::BatchRequest;
use crate::cluster::{ClusterConfig, Coordinator};
use crate::engine;
use crate::job::{JobOutcome, JobStatus, JobTable, JobView};
use crate::json::{self, Json};
use crate::metrics::Metrics;
use crate::queue::{JobQueue, PushError};
use crate::store::CircuitStore;
use crate::wire::{self, Request, SubmitRequest, UploadRequest, WireError, DEFAULT_MAX_REQUEST_BYTES};
use prop_core::{prof, CancelToken, ParallelPolicy, RunStatus, Side};
use prop_engines::{InputNeeds, JobError, JobReport};
use prop_netlist::{hgb, Hypergraph};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7077` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker pool size (minimum 1).
    pub workers: usize,
    /// Job-queue admission capacity.
    pub queue_cap: usize,
    /// Per-request line cap in bytes.
    pub max_request_bytes: usize,
    /// Directory for the named-circuit store (`upload` / `circuits` /
    /// `evict`, `submit circuit_id=`). `None` disables the store verbs.
    pub store_dir: Option<String>,
    /// Coordinator mode: the worker set and health/retry knobs for the
    /// `batch` / `watch` verbs. `None` runs a plain single-node daemon.
    /// Requires `store_dir` (batches reference stored circuits).
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            store_dir: None,
            cluster: None,
        }
    }
}

struct Shared {
    queue: JobQueue,
    jobs: JobTable,
    metrics: Metrics,
    shutdown: AtomicBool,
    store: Option<CircuitStore>,
    cluster: Option<Coordinator>,
}

/// A running daemon; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`] (or send the `shutdown` verb) first.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates the graceful drain from this process (equivalent to the
    /// wire `shutdown` verb). Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.drain();
        if let Some(cluster) = self.shared.cluster.as_ref() {
            cluster.stop();
        }
    }

    /// Blocks until the accept thread and every worker have retired —
    /// i.e. until a shutdown was requested *and* the queue fully drained.
    ///
    /// # Panics
    ///
    /// Propagates a panic from the accept or worker threads (the worker
    /// body is itself panic-contained, so this indicates a daemon bug).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept thread");
        }
        for worker in self.workers.drain(..) {
            worker.join().expect("worker thread");
        }
    }
}

/// Starts the daemon.
///
/// # Errors
///
/// Fails if the listen address cannot be bound.
pub fn start(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    if let Some(cluster) = &config.cluster {
        // Batches reference stored circuits and the coordinator ships
        // snapshots worker-to-worker, so both requirements are structural.
        if config.store_dir.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "coordinator mode requires a circuit store (set store_dir / --store-dir)",
            ));
        }
        if cluster.workers.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "coordinator mode requires at least one worker address",
            ));
        }
    }
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        queue: JobQueue::new(config.queue_cap),
        jobs: JobTable::new(),
        metrics: Metrics::new(),
        shutdown: AtomicBool::new(false),
        store: config.store_dir.as_deref().map(CircuitStore::new),
        cluster: config.cluster.clone().map(Coordinator::new),
    });

    let workers = (0..config.workers.max(1))
        .map(|i| {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("prop-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let accept = {
        let shared = Arc::clone(&shared);
        let max_bytes = config.max_request_bytes;
        thread::Builder::new()
            .name("prop-serve-accept".into())
            .spawn(move || accept_loop(&listener, &shared, max_bytes))
            .expect("spawn acceptor")
    };

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, max_bytes: usize) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                // Detached: a handler blocked in `wait` must not delay
                // other connections or the drain.
                let _ = thread::Builder::new()
                    .name("prop-serve-conn".into())
                    .spawn(move || handle_connection(stream, &shared, max_bytes));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn ok_obj(fields: Vec<(&str, Json)>) -> Json {
    let mut all = vec![("ok", Json::Bool(true))];
    all.extend(fields);
    json::obj(all)
}

fn err_obj(code: &str, message: &str) -> Json {
    json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", json::str(code)),
        ("message", json::str(message)),
    ])
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, max_bytes: usize) {
    let _ = stream.set_nodelay(true);
    // Idle connections are reaped; an in-flight `wait` blocks server-side
    // between reads, so long jobs are unaffected.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(300)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let response = match wire::read_request_line(&mut reader, max_bytes) {
            Ok(None) => break,
            Ok(bytes) => {
                let bytes = bytes.unwrap_or_default();
                match std::str::from_utf8(&bytes) {
                    Err(_) => {
                        shared.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                        err_obj("malformed", &WireError::NotUtf8.to_string())
                    }
                    Ok(line) => match wire::parse_request(line) {
                        Err(e) => {
                            shared.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                            err_obj(e.code(), &e.to_string())
                        }
                        // The one multi-line response: stream batch
                        // events directly, then keep the connection.
                        Ok(Request::Watch { job }) => {
                            if stream_watch(job, shared, &mut writer).is_err() {
                                break;
                            }
                            continue;
                        }
                        Ok(request) => handle_request(request, shared),
                    },
                }
            }
            Err(e @ WireError::TooLarge { .. }) => {
                // Framing is lost: answer once, then drop the connection.
                shared.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                let body = err_obj(e.code(), &e.to_string());
                let _ = writeln!(writer, "{}", body.render());
                break;
            }
            // Premature disconnect or read timeout: clean drop.
            Err(_) => break,
        };
        if writeln!(writer, "{}", response.render()).is_err() {
            break;
        }
    }
}

fn handle_request(request: Request, shared: &Arc<Shared>) -> Json {
    match request {
        Request::Ping => ok_obj(vec![("pong", Json::Bool(true))]),
        Request::Stats => {
            let mut body = shared.metrics.to_json(
                shared.queue.depth(),
                shared.queue.capacity(),
                shared.shutdown.load(Ordering::SeqCst),
            );
            if let Some(cluster) = shared.cluster.as_ref() {
                if let Json::Obj(fields) = &mut body {
                    fields.push(("cluster".to_string(), cluster.stats_json()));
                }
            }
            ok_obj(vec![("stats", body)])
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue.drain();
            if let Some(cluster) = shared.cluster.as_ref() {
                cluster.stop();
            }
            ok_obj(vec![("draining", Json::Bool(true))])
        }
        Request::Submit(submit) => handle_submit(submit, shared),
        Request::Batch(spec) => handle_batch(spec, shared),
        // Intercepted by the connection loop (the one streaming verb);
        // reachable only through direct library calls.
        Request::Watch { job } => match shared.cluster.as_ref().and_then(|c| c.batch(job)) {
            Some(batch) => batch.view(),
            None => err_obj("unknown_job", &format!("no batch {job}")),
        },
        Request::Status { job } => {
            if let Some(batch) = shared.cluster.as_ref().and_then(|c| c.batch(job)) {
                return batch.view();
            }
            match shared.jobs.view(job) {
                None => err_obj("unknown_job", &format!("no job {job}")),
                Some(view) => view_json(job, &view),
            }
        }
        Request::Wait { job } => {
            if let Some(batch) = shared.cluster.as_ref().and_then(|c| c.batch(job)) {
                return batch.wait_view();
            }
            match shared.jobs.wait(job) {
                None => err_obj("unknown_job", &format!("no job {job}")),
                Some(view) => view_json(job, &view),
            }
        }
        Request::Cancel { job } => {
            let hit_batch = shared.cluster.as_ref().is_some_and(|c| c.cancel(job));
            if hit_batch || shared.jobs.cancel(job) {
                ok_obj(vec![("job", json::uint(job)), ("cancelled", Json::Bool(true))])
            } else {
                err_obj("unknown_job", &format!("no job {job}"))
            }
        }
        Request::Upload(upload) => handle_upload(upload, shared),
        Request::Circuits => match require_store(shared) {
            Err(resp) => resp,
            Ok(store) => match store.list() {
                Err(e) => err_obj(e.code(), &e.to_string()),
                Ok(list) => ok_obj(vec![(
                    "circuits",
                    Json::Arr(
                        list.iter()
                            .map(|c| {
                                json::obj(vec![
                                    ("id", json::str(&c.id)),
                                    ("nodes", json::uint(c.nodes)),
                                    ("nets", json::uint(c.nets)),
                                    ("pins", json::uint(c.pins)),
                                    ("bytes", json::uint(c.bytes)),
                                    ("cached", Json::Bool(c.cached)),
                                ])
                            })
                            .collect(),
                    ),
                )]),
            },
        },
        Request::Evict { circuit } => match require_store(shared) {
            Err(resp) => resp,
            Ok(store) => match store.evict(&circuit) {
                Ok(existed) => ok_obj(vec![
                    ("circuit", json::str(&circuit)),
                    ("evicted", Json::Bool(existed)),
                ]),
                Err(e) => err_obj(e.code(), &e.to_string()),
            },
        },
    }
}

/// Streams a batch's event log: replay from the start, then follow live
/// until the terminal `done` event. Unknown ids and non-coordinator
/// daemons get a single error line (the connection stays usable).
/// `Err` means the client went away mid-stream — drop the connection.
fn stream_watch(job: u64, shared: &Arc<Shared>, writer: &mut TcpStream) -> Result<(), ()> {
    let batch = match shared.cluster.as_ref() {
        None => {
            let body = err_obj(
                "not_coordinator",
                "watch requires a coordinator daemon (serve --coordinator)",
            );
            return writeln!(writer, "{}", body.render()).map_err(|_| ());
        }
        Some(cluster) => match cluster.batch(job) {
            Some(batch) => batch,
            None => {
                let body = err_obj("unknown_job", &format!("no batch {job}"));
                return writeln!(writer, "{}", body.render()).map_err(|_| ());
            }
        },
    };
    let mut next = 0;
    while let Some(event) = batch.event(next) {
        writeln!(writer, "{}", event.render()).map_err(|_| ())?;
        next += 1;
    }
    Ok(())
}

/// Admits a `batch`: snapshot + pin the circuit, reserve a job id, and
/// hand the sweep to the coordinator's dispatchers.
fn handle_batch(spec: BatchRequest, shared: &Arc<Shared>) -> Json {
    let Some(cluster) = shared.cluster.as_ref() else {
        return err_obj(
            "not_coordinator",
            "batch requires a coordinator daemon (serve --coordinator --workers host:port,...)",
        );
    };
    if shared.shutdown.load(Ordering::SeqCst) {
        shared
            .metrics
            .rejected_shutdown
            .fetch_add(1, Ordering::Relaxed);
        return err_obj("shutting_down", "daemon is draining; not accepting batches");
    }
    let store = match require_store(shared) {
        Ok(store) => store,
        Err(resp) => return resp,
    };
    // Snapshot before pin: both fail with the same typed errors, and a
    // failed admission must leave no pin behind.
    let snapshot = match store.snapshot_bytes(&spec.circuit_id) {
        Ok(bytes) => bytes,
        Err(e) => return err_obj(e.code(), &e.to_string()),
    };
    // Refuse an engine that cannot take the circuit here, once, rather
    // than as a failed sub-job on every worker. Only a sweep with such an
    // engine materializes the circuit on the coordinator.
    if spec.engines.iter().any(|name| name.needs() != InputNeeds::default()) {
        let graph = match store.get(&spec.circuit_id) {
            Ok(graph) => graph,
            Err(e) => return err_obj(e.code(), &e.to_string()),
        };
        if let Some(refusal) = spec.engines.iter().find_map(|name| name.accepts(&graph).err()) {
            return err_obj(UNSUPPORTED_INPUT, &refusal.to_string());
        }
    }
    if let Err(e) = store.pin(&spec.circuit_id) {
        return err_obj(e.code(), &e.to_string());
    }
    let id = shared.jobs.reserve();
    let unpin = {
        let shared = Arc::clone(shared);
        let circuit = spec.circuit_id.clone();
        Box::new(move || {
            if let Some(store) = shared.store.as_ref() {
                store.unpin(&circuit);
            }
        })
    };
    let sub_jobs = cluster.submit_batch(id, spec, snapshot, unpin);
    shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
    ok_obj(vec![
        ("job", json::uint(id)),
        ("batch", Json::Bool(true)),
        ("sub_jobs", json::uint(sub_jobs as u64)),
        ("queued", Json::Bool(true)),
    ])
}

fn require_store(shared: &Arc<Shared>) -> Result<&CircuitStore, Json> {
    shared.store.as_ref().ok_or_else(|| {
        err_obj(
            "store_disabled",
            "daemon started without a circuit store (set store_dir / --store-dir)",
        )
    })
}

/// Decodes an uploaded netlist — inline bytes in the declared format, or
/// a daemon-local file picked by extension — into a hypergraph.
fn ingest_upload(upload: &UploadRequest) -> Result<Hypergraph, (&'static str, String)> {
    if let Some(payload) = &upload.payload {
        return parse_circuit_bytes(&upload.fmt, payload)
            .map_err(|m| ("invalid_netlist", m));
    }
    let path = upload.path.as_deref().unwrap_or_default();
    let fmt = Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("");
    if fmt == "hgb" {
        // The mmap fast path: the snapshot is validated and materialized
        // without an intermediate copy of the file.
        return match hgb::load_hgb(Path::new(path)) {
            Ok((graph, _report)) => Ok(graph),
            Err(hgb::HgbLoadError::Io(e)) => Err(("store_io", format!("{path}: {e}"))),
            Err(hgb::HgbLoadError::Format(e)) => Err(("invalid_netlist", e.to_string())),
        };
    }
    let bytes = std::fs::read(path).map_err(|e| ("store_io", format!("{path}: {e}")))?;
    parse_circuit_bytes(fmt, &bytes).map_err(|m| ("invalid_netlist", m))
}

fn parse_circuit_bytes(fmt: &str, bytes: &[u8]) -> Result<Hypergraph, String> {
    match fmt {
        "hgb" => hgb::parse_hgb(bytes).map_err(|e| e.to_string()),
        "hgr" | "netd" => {
            let text = std::str::from_utf8(bytes)
                .map_err(|_| format!("{fmt} payload is not valid UTF-8"))?;
            engine::parse_payload(fmt, text)
        }
        other => Err(format!("unknown netlist format {other:?} (use hgr, netd, or hgb)")),
    }
}

fn handle_upload(upload: UploadRequest, shared: &Arc<Shared>) -> Json {
    let store = match require_store(shared) {
        Ok(store) => store,
        Err(resp) => return resp,
    };
    let graph = match ingest_upload(&upload) {
        Ok(graph) => graph,
        Err((code, message)) => {
            shared.metrics.malformed.fetch_add(1, Ordering::Relaxed);
            return err_obj(code, &message);
        }
    };
    match store.put(&upload.circuit, graph) {
        Ok(info) => ok_obj(vec![
            ("circuit", json::str(&info.id)),
            ("nodes", json::uint(info.nodes)),
            ("nets", json::uint(info.nets)),
            ("pins", json::uint(info.pins)),
            ("bytes", json::uint(info.bytes)),
        ]),
        Err(e) => err_obj(e.code(), &e.to_string()),
    }
}

fn handle_submit(submit: SubmitRequest, shared: &Arc<Shared>) -> Json {
    let circuit_id = submit.circuit_id.clone();
    if !circuit_id.is_empty() {
        // The admission probe doubles as the eviction pin: a typo'd id
        // is refused here (not minutes later as a failed job), and a
        // valid one cannot be evicted out from under the queued job.
        let store = match require_store(shared) {
            Ok(store) => store,
            Err(resp) => return resp,
        };
        if let Err(e) = store.pin(&circuit_id) {
            return err_obj(e.code(), &e.to_string());
        }
    }
    let unpin = |shared: &Arc<Shared>| {
        if !circuit_id.is_empty() {
            if let Some(store) = shared.store.as_ref() {
                store.unpin(&circuit_id);
            }
        }
    };
    let priority = submit.priority;
    let wait = submit.wait;
    let id = shared.jobs.insert(submit);
    match shared.queue.try_push(id, priority) {
        Ok(()) => {
            shared.metrics.accepted.fetch_add(1, Ordering::Relaxed);
            if wait {
                match shared.jobs.wait(id) {
                    Some(view) => view_json(id, &view),
                    None => err_obj("unknown_job", &format!("no job {id}")),
                }
            } else {
                ok_obj(vec![("job", json::uint(id)), ("queued", Json::Bool(true))])
            }
        }
        Err(PushError::Full) => {
            unpin(shared);
            shared.jobs.forget(id);
            shared.metrics.rejected_full.fetch_add(1, Ordering::Relaxed);
            err_obj("queue_full", "job queue at capacity; retry later")
        }
        Err(PushError::Draining) => {
            unpin(shared);
            shared.jobs.forget(id);
            shared
                .metrics
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            err_obj("shutting_down", "daemon is draining; not accepting jobs")
        }
    }
}

fn view_json(id: u64, view: &JobView) -> Json {
    let mut fields = vec![
        ("job", json::uint(id)),
        ("phase", json::str(view.phase.name())),
        ("cancel_requested", Json::Bool(view.cancel_requested)),
    ];
    if let Some(outcome) = &view.outcome {
        fields.push(("status", json::str(outcome.status.name())));
        if let Some(code) = outcome.code {
            fields.push(("error", json::str(code)));
        }
        if let Some(error) = &outcome.error {
            fields.push(("message", json::str(error)));
        }
        if let Some(cut) = outcome.cut {
            fields.push(("cut", json::num(cut)));
        }
        if let Some(k) = outcome.k {
            fields.push(("k", json::uint(k as u64)));
            fields.push((
                "part_weights",
                Json::Arr(outcome.part_weights.iter().map(|&w| json::num(w)).collect()),
            ));
            if let Some(connectivity) = outcome.connectivity {
                fields.push(("connectivity", json::num(connectivity)));
            }
        } else {
            fields.push((
                "sides",
                Json::Arr(vec![
                    json::uint(outcome.sides.0 as u64),
                    json::uint(outcome.sides.1 as u64),
                ]),
            ));
        }
        fields.push(("passes", json::uint(outcome.passes as u64)));
        fields.push((
            "run_cuts",
            Json::Arr(outcome.run_cuts.iter().map(|&c| json::num(c)).collect()),
        ));
        if let Some(hash) = outcome.assignment_hash {
            fields.push(("assignment_hash", json::hex64(hash)));
        }
        fields.push(("started_runs", json::uint(outcome.started_runs as u64)));
        fields.push(("wall_ms", json::uint(outcome.wall_ms)));
    }
    ok_obj(fields)
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(id) = shared.queue.pop_blocking() {
        let Some((work, token)) = shared.jobs.take_work(id) else {
            continue;
        };
        let start = Instant::now();
        if work.timeout_ms > 0 {
            token.set_timeout(Duration::from_millis(work.timeout_ms));
        }
        prof::reset();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run_job(&work, &token, shared.store.as_ref())
        }));
        shared.metrics.record_prof(&prof::snapshot());
        let wall_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);

        let outcome = match ran {
            Ok(Ok((report, graph))) => {
                shared.metrics.record_latency(work.job.spec.name, wall_ms);
                let status = job_status(report.status(), shared, id);
                status_counter(status, shared).fetch_add(1, Ordering::Relaxed);
                match report {
                    JobReport::Kway(report) => {
                        shared.metrics.kway.fetch_add(1, Ordering::Relaxed);
                        let partition = &report.partition;
                        JobOutcome {
                            status,
                            code: None,
                            error: None,
                            cut: Some(partition.cut_cost(&graph)),
                            sides: (0, 0),
                            passes: report.total_passes,
                            run_cuts: Vec::new(),
                            assignment_hash: Some(engine::kway_assignment_hash(
                                partition.assignment(),
                            )),
                            started_runs: 0,
                            wall_ms,
                            k: Some(work.job.k),
                            part_weights: partition.part_weights().to_vec(),
                            connectivity: Some(partition.connectivity_cost(&graph)),
                        }
                    }
                    JobReport::TwoWay(report) => {
                        let result = report.result;
                        JobOutcome {
                            status,
                            code: None,
                            error: None,
                            cut: Some(result.cut_cost),
                            sides: (
                                result.partition.count(Side::A),
                                result.partition.count(Side::B),
                            ),
                            passes: result.total_passes,
                            run_cuts: result.run_cuts,
                            assignment_hash: Some(engine::assignment_hash(
                                result.partition.sides(),
                            )),
                            started_runs: report.started_runs,
                            wall_ms,
                            k: None,
                            part_weights: Vec::new(),
                            connectivity: None,
                        }
                    }
                }
            }
            Ok(Err((code, message))) => {
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                JobOutcome {
                    code,
                    ..JobOutcome::failed(message, wall_ms)
                }
            }
            Err(_) => {
                shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                JobOutcome::failed("worker panicked while running the job", wall_ms)
            }
        };
        // Release the admission-time eviction pin before publishing the
        // terminal state: a client that saw the job complete must be able
        // to evict the circuit immediately.
        if !work.circuit_id.is_empty() {
            if let Some(store) = shared.store.as_ref() {
                store.unpin(&work.circuit_id);
            }
        }
        shared.jobs.finish(id, outcome);
    }
}

/// Maps an engine's run status to the job's terminal status: the token
/// trips for both explicit cancels and deadlines; the table knows which
/// one it was.
fn job_status(status: RunStatus, shared: &Arc<Shared>, id: u64) -> JobStatus {
    match status {
        RunStatus::Completed => JobStatus::Completed,
        RunStatus::Cancelled if shared.jobs.cancel_requested(id) => JobStatus::Cancelled,
        RunStatus::Cancelled => JobStatus::TimedOut,
    }
}

/// The metrics counter a terminal status increments.
fn status_counter(status: JobStatus, shared: &Arc<Shared>) -> &AtomicU64 {
    match status {
        JobStatus::Completed => &shared.metrics.completed,
        JobStatus::Cancelled => &shared.metrics.cancelled,
        JobStatus::TimedOut => &shared.metrics.timed_out,
        JobStatus::Failed => &shared.metrics.failed,
    }
}

/// The response code of a job whose engine cannot take its netlist.
const UNSUPPORTED_INPUT: &str = "unsupported_input";

/// A failed job: its typed code, when it has one, and its message.
type Failure = (Option<&'static str>, String);

/// Loads the job's netlist and runs the job. The graph comes back with
/// the report because the k-way result is summarised against it; a
/// failure carries a typed code when the engine refused the netlist.
fn run_job(
    work: &SubmitRequest,
    token: &CancelToken,
    store: Option<&CircuitStore>,
) -> Result<(JobReport, Arc<Hypergraph>), Failure> {
    // A stored circuit is shared by every job of a sweep through one
    // cached `Arc`; an inline payload is parsed per job.
    let graph: Arc<Hypergraph> = if work.circuit_id.is_empty() {
        Arc::new(engine::parse_payload(&work.fmt, &work.payload).map_err(|m| (None, m))?)
    } else {
        store
            .ok_or_else(|| (None, "daemon has no circuit store".to_string()))?
            .get(&work.circuit_id)
            .map_err(|e| (None, e.to_string()))?
    };
    // The worker pool owns the daemon's concurrency, so each job runs
    // its runs (and k-way subtrees) on its worker's thread.
    match work.job.run(&graph, ParallelPolicy::Sequential, token) {
        Ok(report) => Ok((report, graph)),
        Err(e @ JobError::Unsupported(_)) => Err((Some(UNSUPPORTED_INPUT), e.to_string())),
        Err(e) => Err((None, e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use prop_engines::{EngineName, Job};
    use prop_netlist::format;
    use prop_netlist::generate::{generate, GeneratorConfig};

    fn tiny_payload() -> String {
        let g = generate(&GeneratorConfig::new(24, 28, 96).with_seed(11)).unwrap();
        format::write_hgr(&g)
    }

    fn start_test_server(workers: usize, queue_cap: usize) -> ServerHandle {
        start(&ServerConfig {
            workers,
            queue_cap,
            ..ServerConfig::default()
        })
        .expect("bind ephemeral server")
    }

    #[test]
    fn ping_stats_and_graceful_shutdown() {
        let handle = start_test_server(1, 4);
        let mut client = Client::connect(handle.addr()).unwrap();
        let pong = client.ping().unwrap();
        assert_eq!(pong.get("ok").and_then(Json::as_bool), Some(true));

        let stats = client.stats().unwrap();
        let body = stats.get("stats").unwrap();
        assert_eq!(
            body.get("queue").and_then(|q| q.get("capacity")).and_then(Json::as_u64),
            Some(4)
        );

        let resp = client.shutdown().unwrap();
        assert_eq!(resp.get("draining").and_then(Json::as_bool), Some(true));
        handle.join();
    }

    #[test]
    fn submit_wait_runs_a_job_end_to_end() {
        let handle = start_test_server(2, 8);
        let mut client = Client::connect(handle.addr()).unwrap();
        let req = SubmitRequest {
            job: Job { runs: 2, seed: 5, ..Job::new(EngineName::Fm) },
            payload: tiny_payload(),
            wait: true,
            ..SubmitRequest::default()
        };
        let resp = client.submit(&req).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp:?}");
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("completed"));
        assert!(resp.get("cut").and_then(Json::as_f64).is_some());
        assert_eq!(
            resp.get("run_cuts").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn submit_then_poll_status_and_wait() {
        let handle = start_test_server(1, 8);
        let mut client = Client::connect(handle.addr()).unwrap();
        let req = SubmitRequest {
            job: Job::new(EngineName::Prop),
            payload: tiny_payload(),
            ..SubmitRequest::default()
        };
        let resp = client.submit(&req).unwrap();
        let job = resp.get("job").and_then(Json::as_u64).unwrap();
        let done = client.wait(job).unwrap();
        assert_eq!(done.get("phase").and_then(Json::as_str), Some("done"));
        let again = client.status(job).unwrap();
        assert_eq!(again.get("status").and_then(Json::as_str), Some("completed"));
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn queue_full_and_shutdown_rejections() {
        // One worker, capacity 1: park a job, fill the queue, overflow.
        let handle = start_test_server(1, 1);
        let mut client = Client::connect(handle.addr()).unwrap();
        let slow = SubmitRequest {
            job: Job { runs: 12, ..Job::new(EngineName::Prop) },
            payload: tiny_payload(),
            ..SubmitRequest::default()
        };
        let first = client.submit(&slow).unwrap();
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        // Eventually the worker is busy and one more fills the queue; keep
        // submitting until a rejection shows up.
        let mut saw_reject = false;
        for _ in 0..50 {
            let resp = client.submit(&slow).unwrap();
            if resp.get("error").and_then(Json::as_str) == Some("queue_full") {
                saw_reject = true;
                break;
            }
        }
        assert!(saw_reject, "queue never reported full");

        client.shutdown().unwrap();
        let resp = client.submit(&slow).unwrap();
        assert_eq!(resp.get("error").and_then(Json::as_str), Some("shutting_down"));
        handle.join();
    }

    #[test]
    fn unknown_engine_and_unknown_job_errors() {
        let handle = start_test_server(1, 4);
        let mut client = Client::connect(handle.addr()).unwrap();
        let resp = client
            .roundtrip("submit engine=quantum payload=2%202%0A1%202%0A1%202%0A")
            .unwrap();
        assert_eq!(resp.get("error").and_then(Json::as_str), Some("unknown_engine"));
        let resp = client.status(999).unwrap();
        assert_eq!(resp.get("error").and_then(Json::as_str), Some("unknown_job"));
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn store_verbs_require_a_store_dir() {
        let handle = start_test_server(1, 4);
        let mut client = Client::connect(handle.addr()).unwrap();
        for line in [
            "circuits",
            "evict circuit=x",
            "upload circuit=x payload=abc",
            "submit engine=prop circuit_id=x",
        ] {
            let resp = client.roundtrip(line).unwrap();
            assert_eq!(
                resp.get("error").and_then(Json::as_str),
                Some("store_disabled"),
                "{line}"
            );
        }
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn upload_once_submit_by_id_matches_inline() {
        let dir = std::env::temp_dir().join(format!("prop-serve-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let handle = start(&ServerConfig {
            workers: 2,
            queue_cap: 8,
            store_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();

        let payload = tiny_payload();
        let up = client
            .upload(&crate::wire::UploadRequest {
                circuit: "tiny".into(),
                fmt: "hgr".into(),
                payload: Some(payload.clone().into_bytes()),
                path: None,
            })
            .unwrap();
        assert_eq!(up.get("ok").and_then(Json::as_bool), Some(true), "{up:?}");
        assert_eq!(up.get("nodes").and_then(Json::as_u64), Some(24));

        let listed = client.circuits().unwrap();
        let arr = listed.get("circuits").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 1);
        assert_eq!(arr[0].get("id").and_then(Json::as_str), Some("tiny"));
        assert_eq!(arr[0].get("cached").and_then(Json::as_bool), Some(true));

        let inline = client
            .submit(&SubmitRequest {
                job: Job { runs: 2, seed: 9, ..Job::new(EngineName::Fm) },
                payload,
                wait: true,
                ..SubmitRequest::default()
            })
            .unwrap();
        let stored = client
            .submit(&SubmitRequest {
                job: Job { runs: 2, seed: 9, ..Job::new(EngineName::Fm) },
                circuit_id: "tiny".into(),
                wait: true,
                ..SubmitRequest::default()
            })
            .unwrap();
        for key in ["cut", "assignment_hash", "run_cuts"] {
            assert_eq!(inline.get(key), stored.get(key), "{key} differs");
        }
        assert_eq!(stored.get("status").and_then(Json::as_str), Some("completed"));

        // Unknown ids are refused at admission, not at run time.
        let resp = client
            .submit(&SubmitRequest {
                job: Job::new(EngineName::Fm),
                circuit_id: "ghost".into(),
                wait: true,
                ..SubmitRequest::default()
            })
            .unwrap();
        assert_eq!(resp.get("error").and_then(Json::as_str), Some("unknown_circuit"));

        let resp = client.evict("tiny").unwrap();
        assert_eq!(resp.get("evicted").and_then(Json::as_bool), Some(true));
        let listed = client.circuits().unwrap();
        assert_eq!(
            listed.get("circuits").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );

        client.shutdown().unwrap();
        handle.join();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_and_watch_require_a_coordinator() {
        let handle = start_test_server(1, 4);
        let mut client = Client::connect(handle.addr()).unwrap();
        let resp = client.roundtrip("batch circuit_id=c").unwrap();
        assert_eq!(resp.get("error").and_then(Json::as_str), Some("not_coordinator"));
        let terminal = client.watch(1, |_| {}).unwrap();
        assert_eq!(
            terminal.get("error").and_then(Json::as_str),
            Some("not_coordinator")
        );
        // The connection survives the error lines.
        assert!(client.ping().is_ok());
        client.shutdown().unwrap();
        handle.join();
    }

    #[test]
    fn coordinator_mode_validates_its_config() {
        let no_store = start(&ServerConfig {
            cluster: Some(crate::cluster::ClusterConfig {
                workers: vec!["127.0.0.1:1".into()],
                ..crate::cluster::ClusterConfig::default()
            }),
            ..ServerConfig::default()
        });
        assert_eq!(
            no_store.err().map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidInput)
        );
        let no_workers = start(&ServerConfig {
            store_dir: Some("unused".into()),
            cluster: Some(crate::cluster::ClusterConfig::default()),
            ..ServerConfig::default()
        });
        assert_eq!(
            no_workers.err().map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidInput)
        );
    }

    #[test]
    fn coordinator_runs_a_batch_end_to_end() {
        let base = std::env::temp_dir().join(format!(
            "prop-serve-cluster-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::remove_dir_all(&base).ok();
        let worker = start(&ServerConfig {
            workers: 1,
            queue_cap: 16,
            store_dir: Some(base.join("w").to_string_lossy().into_owned()),
            ..ServerConfig::default()
        })
        .unwrap();
        let coordinator = start(&ServerConfig {
            workers: 1,
            queue_cap: 16,
            store_dir: Some(base.join("c").to_string_lossy().into_owned()),
            cluster: Some(crate::cluster::ClusterConfig {
                workers: vec![worker.addr().to_string()],
                heartbeat_ms: 50,
                ..crate::cluster::ClusterConfig::default()
            }),
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(coordinator.addr()).unwrap();
        client
            .upload(&crate::wire::UploadRequest {
                circuit: "tiny".into(),
                fmt: "hgr".into(),
                payload: Some(tiny_payload().into_bytes()),
                path: None,
            })
            .unwrap();

        let spec = crate::batch::BatchRequest {
            circuit_id: "tiny".into(),
            engines: vec![EngineName::Fm],
            runs: 4,
            seed: 3,
            chunk: 2,
            ..crate::batch::BatchRequest::default()
        };
        let resp = client.batch(&spec).unwrap();
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true), "{resp:?}");
        assert_eq!(resp.get("sub_jobs").and_then(Json::as_u64), Some(2));
        let job = resp.get("job").and_then(Json::as_u64).unwrap();

        // The circuit is pinned while the batch is live: evict is busy
        // until the done event lands (it may already have landed on a
        // fast machine, so only assert the typed code when refused).
        let evict = client.evict("tiny").unwrap();
        if evict.get("ok").and_then(Json::as_bool) != Some(true) {
            assert_eq!(evict.get("error").and_then(Json::as_str), Some("circuit_busy"));
        }

        let mut events = Vec::new();
        let done = client.watch(job, |e| events.push(e.clone())).unwrap();
        assert_eq!(done.get("event").and_then(Json::as_str), Some("done"));
        assert_eq!(done.get("status").and_then(Json::as_str), Some("completed"));
        assert!(done.get("cut").and_then(Json::as_f64).is_some());
        assert_eq!(
            done.get("run_cuts").and_then(Json::as_arr).map(<[Json]>::len),
            Some(4)
        );
        assert!(
            events
                .iter()
                .any(|e| e.get("event").and_then(Json::as_str) == Some("result")),
            "per-sub-job result events streamed"
        );

        // status/wait on a finished batch return the terminal view; a
        // second watch replays the full log.
        let status = client.status(job).unwrap();
        assert_eq!(status.get("status").and_then(Json::as_str), Some("completed"));
        assert_eq!(client.wait(job).unwrap(), status);
        let replay = client.watch(job, |_| {}).unwrap();
        assert_eq!(replay, done);

        // Batch done → pin released → evict succeeds.
        let evict = client.evict("tiny").unwrap();
        assert_eq!(evict.get("ok").and_then(Json::as_bool), Some(true), "{evict:?}");

        let stats = client.stats().unwrap();
        let cluster = stats.get("stats").and_then(|s| s.get("cluster")).unwrap();
        let workers = cluster.get("workers").and_then(Json::as_arr).unwrap();
        assert_eq!(workers.len(), 1);
        assert!(workers[0].get("completed").and_then(Json::as_u64).unwrap() >= 2);
        assert_eq!(workers[0].get("uploads").and_then(Json::as_u64), Some(1));
        assert_eq!(
            cluster
                .get("batches")
                .and_then(|b| b.get("completed"))
                .and_then(Json::as_u64),
            Some(1)
        );

        client.shutdown().unwrap();
        coordinator.join();
        let mut wclient = Client::connect(worker.addr()).unwrap();
        wclient.shutdown().unwrap();
        worker.join();
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn bad_payload_fails_the_job_not_the_daemon() {
        let handle = start_test_server(1, 4);
        let mut client = Client::connect(handle.addr()).unwrap();
        let resp = client
            .submit(&SubmitRequest {
                payload: "this is not an hgr file".into(),
                wait: true,
                ..SubmitRequest::default()
            })
            .unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("failed"));
        assert!(resp.get("message").and_then(Json::as_str).is_some());
        // Daemon still healthy.
        assert!(client.ping().is_ok());
        client.shutdown().unwrap();
        handle.join();
    }
}
