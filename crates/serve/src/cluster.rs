//! The coordinator: shards `batch` sweeps across worker daemons.
//!
//! A coordinator is an ordinary daemon (every single-node verb still
//! works, served by its local pool) plus a worker table of remote
//! daemons. One `batch` request expands — via [`crate::batch`] — into a
//! deterministic sub-job list; per-worker dispatcher threads pull
//! sub-jobs from a shared queue and execute each as a plain
//! `submit`/`wait` round-trip against their worker, pushing the stored
//! circuit first (store-to-store, by id) when the worker lacks it.
//!
//! Failure handling is structural, not arrival-ordered, so it cannot
//! perturb results:
//!
//! * a **heartbeat thread** pings every worker on a configurable
//!   interval; a worker that keeps failing past the timeout is marked
//!   lost and receives no new dispatches until a ping succeeds again;
//! * a sub-job whose round-trip fails (connect refused, connection
//!   reset by a SIGKILLed worker, refused submit, failed remote job) is
//!   **requeued** with bounded per-sub-job retries and cancellable
//!   exponential backoff — any live dispatcher picks it up, so work
//!   migrates off a lost worker onto the survivors;
//! * the final merge ([`crate::batch::merge`]) orders results by the
//!   planner's indices, so the batch winner is bit-identical to a
//!   sequential sweep no matter which workers ran what, in what order,
//!   or how many times a sub-job moved.
//!
//! Progress is observable while the batch runs: every state change
//! appends one JSON event to a per-batch log that `watch` connections
//! replay and then follow (`progress` / `result` lines, terminal
//! `done`). Cancellation trips the batch's [`CancelToken`], which stops
//! dispatchers at their next poll and fans out `cancel` verbs to every
//! in-flight remote job.

use crate::batch::{self, BatchRequest, SubJob, SubJobOutcome};
use crate::client::{Client, ConnectRetry};
use crate::json::{self, Json};
use crate::metrics::LatencyHistogram;
use crate::wire::UploadRequest;
use prop_core::CancelToken;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Coordinator configuration: the worker set plus health/retry knobs.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClusterConfig {
    /// Worker daemon addresses (`host:port`).
    pub workers: Vec<String>,
    /// Heartbeat ping interval in milliseconds.
    pub heartbeat_ms: u64,
    /// A worker whose pings keep failing for this long is marked lost.
    pub heartbeat_timeout_ms: u64,
    /// Bounded retries per sub-job before the batch fails.
    pub max_retries: u32,
    /// Base backoff before a rescheduled sub-job re-dispatches;
    /// doubles per attempt (capped), jittered by the connect path.
    pub backoff_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: Vec::new(),
            heartbeat_ms: 500,
            heartbeat_timeout_ms: 2000,
            max_retries: 3,
            backoff_ms: 50,
        }
    }
}

/// One remote worker daemon: address, health, and per-worker metrics.
struct WorkerState {
    addr: String,
    alive: AtomicBool,
    last_ok: Mutex<Instant>,
    submitted: AtomicU64,
    completed: AtomicU64,
    retries: AtomicU64,
    ping_failures: AtomicU64,
    uploads: AtomicU64,
    latency: LatencyHistogram,
    /// Circuits this worker is known to hold (pushed by us or seen in a
    /// successful submit). Cleared per id when a worker answers
    /// `unknown_circuit` (e.g. it restarted on an empty store).
    circuits: Mutex<HashSet<String>>,
}

/// Batch-level counters for the `cluster` stats section.
#[derive(Default)]
struct ClusterCounters {
    batches_accepted: AtomicU64,
    batches_completed: AtomicU64,
    batches_failed: AtomicU64,
    batches_cancelled: AtomicU64,
    sub_jobs_dispatched: AtomicU64,
    sub_jobs_rescheduled: AtomicU64,
}

/// One running (or finished) batch: the planned sub-jobs, the work
/// queue dispatchers pull from, collected results, and the append-only
/// event log `watch` connections stream.
pub struct BatchState {
    id: u64,
    spec: BatchRequest,
    jobs: Vec<SubJob>,
    snapshot: Arc<Vec<u8>>,
    token: CancelToken,
    queue: Mutex<VecDeque<usize>>,
    attempts: Mutex<Vec<u32>>,
    results: Mutex<Vec<Option<SubJobOutcome>>>,
    remaining: AtomicUsize,
    inflight: Mutex<HashMap<usize, (String, u64)>>,
    rescheduled: AtomicU64,
    events: Mutex<Vec<Json>>,
    events_cv: Condvar,
    done: AtomicBool,
    finalized: AtomicBool,
    final_view: Mutex<Option<Json>>,
    on_done: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl BatchState {
    fn new(
        id: u64,
        spec: BatchRequest,
        snapshot: Vec<u8>,
        on_done: Box<dyn FnOnce() + Send>,
    ) -> Arc<BatchState> {
        let jobs = spec.expand();
        let n = jobs.len();
        Arc::new(BatchState {
            id,
            spec,
            jobs,
            snapshot: Arc::new(snapshot),
            token: CancelToken::new(),
            queue: Mutex::new((0..n).collect()),
            attempts: Mutex::new(vec![0; n]),
            results: Mutex::new(vec![None; n]),
            remaining: AtomicUsize::new(n),
            inflight: Mutex::new(HashMap::new()),
            rescheduled: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
            events_cv: Condvar::new(),
            done: AtomicBool::new(false),
            finalized: AtomicBool::new(false),
            final_view: Mutex::new(None),
            on_done: Mutex::new(Some(on_done)),
        })
    }

    /// Number of planned sub-jobs.
    pub fn sub_jobs(&self) -> usize {
        self.jobs.len()
    }

    fn completed_count(&self) -> usize {
        self.jobs.len() - self.remaining.load(Ordering::Acquire)
    }

    fn emit(&self, event: Json) {
        self.append(event, false);
    }

    /// Appends `event` and wakes watchers and waiters. A `terminal` event
    /// also marks the batch done under the same hold of the event-log
    /// lock, so a reader that sees `done` has also seen the last event
    /// and no `watch` stream ends without it.
    fn append(&self, event: Json, terminal: bool) {
        let mut events = self.events.lock().expect("batch event log lock");
        events.push(event);
        if terminal {
            self.done.store(true, Ordering::Release);
        }
        drop(events);
        self.events_cv.notify_all();
    }

    /// Blocks until event `index` exists and returns a copy; `None`
    /// once the batch is terminal and no further event will arrive —
    /// the `watch` stream's read primitive.
    pub fn event(&self, index: usize) -> Option<Json> {
        let mut events = self.events.lock().expect("batch event log lock");
        loop {
            if index < events.len() {
                return Some(events[index].clone());
            }
            if self.done.load(Ordering::Acquire) {
                return None;
            }
            events = self
                .events_cv
                .wait(events)
                .expect("batch event log lock");
        }
    }

    /// The terminal view (the `done` event), once the batch finished.
    pub fn final_view(&self) -> Option<Json> {
        self.final_view
            .lock()
            .expect("batch final view lock")
            .clone()
    }

    /// A point-in-time `status` view: the final view when terminal,
    /// otherwise a running summary.
    pub fn view(&self) -> Json {
        if let Some(view) = self.final_view() {
            return view;
        }
        json::obj(vec![
            ("ok", Json::Bool(true)),
            ("job", json::uint(self.id)),
            ("batch", Json::Bool(true)),
            ("phase", json::str("running")),
            ("sub_jobs", json::uint(self.jobs.len() as u64)),
            ("completed", json::uint(self.completed_count() as u64)),
            (
                "rescheduled",
                json::uint(self.rescheduled.load(Ordering::Relaxed)),
            ),
        ])
    }

    /// Blocks until the batch is terminal and returns the final view.
    pub fn wait_view(&self) -> Json {
        let mut events = self.events.lock().expect("batch event log lock");
        while !self.done.load(Ordering::Acquire) {
            events = self
                .events_cv
                .wait(events)
                .expect("batch event log lock");
        }
        drop(events);
        self.final_view().expect("terminal batch has a final view")
    }

    /// Claims the right to finalize; exactly one caller wins.
    fn try_finalize(&self) -> bool {
        !self.finalized.swap(true, Ordering::AcqRel)
    }

    /// Publishes the terminal view, wakes waiters, runs the completion
    /// hook (circuit unpin).
    fn seal(&self, view: Json) {
        // Run the on-done hook (the circuit unpin) before the terminal
        // event becomes observable: a client that saw the batch finish
        // must be able to evict the circuit immediately.
        if let Some(hook) = self.on_done.lock().expect("batch hook lock").take() {
            hook();
        }
        *self.final_view.lock().expect("batch final view lock") = Some(view.clone());
        self.append(view, true);
    }
}

struct Inner {
    config: ClusterConfig,
    workers: Vec<Arc<WorkerState>>,
    batches: Mutex<HashMap<u64, Arc<BatchState>>>,
    counters: ClusterCounters,
    stop: CancelToken,
}

/// Handle to the coordinator state: shared by the server's request
/// handlers, the heartbeat thread, and every batch dispatcher.
#[derive(Clone)]
pub struct Coordinator {
    inner: Arc<Inner>,
}

impl Coordinator {
    /// Builds the worker table and starts the heartbeat thread.
    pub fn new(config: ClusterConfig) -> Coordinator {
        let workers = config
            .workers
            .iter()
            .map(|addr| {
                Arc::new(WorkerState {
                    addr: addr.clone(),
                    // Optimistic until the heartbeat learns otherwise, so
                    // batches submitted right after start dispatch
                    // immediately; a dead worker's dispatches fail fast
                    // and reschedule.
                    alive: AtomicBool::new(true),
                    last_ok: Mutex::new(Instant::now()),
                    submitted: AtomicU64::new(0),
                    completed: AtomicU64::new(0),
                    retries: AtomicU64::new(0),
                    ping_failures: AtomicU64::new(0),
                    uploads: AtomicU64::new(0),
                    latency: LatencyHistogram::new(),
                    circuits: Mutex::new(HashSet::new()),
                })
            })
            .collect();
        let inner = Arc::new(Inner {
            config,
            workers,
            batches: Mutex::new(HashMap::new()),
            counters: ClusterCounters::default(),
            stop: CancelToken::new(),
        });
        {
            let inner = Arc::clone(&inner);
            let _ = thread::Builder::new()
                .name("prop-cluster-heartbeat".into())
                .spawn(move || heartbeat_loop(&inner));
        }
        Coordinator { inner }
    }

    /// Number of configured workers.
    pub fn worker_count(&self) -> usize {
        self.inner.workers.len()
    }

    /// Stops the heartbeat and every dispatcher (in-flight batches
    /// finalize as cancelled). Called on daemon shutdown.
    pub fn stop(&self) {
        self.inner.stop.cancel();
        let batches: Vec<Arc<BatchState>> = {
            let map = self.inner.batches.lock().expect("batch table lock");
            map.values().cloned().collect()
        };
        for batch in batches {
            if !batch.done.load(Ordering::Acquire) {
                batch.token.cancel();
            }
        }
    }

    /// Registers a batch under `id` (reserved from the job-id space)
    /// and spawns its per-worker dispatchers. `snapshot` is the
    /// circuit's `.hgb` image for store-to-store pushes; `on_done` runs
    /// exactly once when the batch reaches its terminal state (the
    /// server unpins the circuit there). Returns the sub-job count.
    pub fn submit_batch(
        &self,
        id: u64,
        spec: BatchRequest,
        snapshot: Vec<u8>,
        on_done: Box<dyn FnOnce() + Send>,
    ) -> usize {
        let batch = BatchState::new(id, spec, snapshot, on_done);
        let n = batch.sub_jobs();
        self.inner
            .batches
            .lock()
            .expect("batch table lock")
            .insert(id, Arc::clone(&batch));
        self.inner
            .counters
            .batches_accepted
            .fetch_add(1, Ordering::Relaxed);
        for (w, worker) in self.inner.workers.iter().enumerate() {
            let inner = Arc::clone(&self.inner);
            let batch = Arc::clone(&batch);
            let worker = Arc::clone(worker);
            let _ = thread::Builder::new()
                .name(format!("prop-batch-{id}-w{w}"))
                .spawn(move || dispatcher(&inner, &batch, &worker));
        }
        n
    }

    /// The batch registered under `id`, if any.
    pub fn batch(&self, id: u64) -> Option<Arc<BatchState>> {
        self.inner
            .batches
            .lock()
            .expect("batch table lock")
            .get(&id)
            .cloned()
    }

    /// Cancels batch `id`: trips its token (dispatchers stop at their
    /// next poll) and fans `cancel` out to every in-flight remote job.
    /// `false` when no batch has this id (plain jobs fall through to
    /// the job table).
    pub fn cancel(&self, id: u64) -> bool {
        let Some(batch) = self.batch(id) else {
            return false;
        };
        batch.token.cancel();
        cancel_inflight(&batch);
        true
    }

    /// The `cluster` section of the `stats` response.
    pub fn stats_json(&self) -> Json {
        let workers: Vec<Json> = self
            .inner
            .workers
            .iter()
            .map(|w| {
                json::obj(vec![
                    ("addr", json::str(&w.addr)),
                    ("alive", Json::Bool(w.alive.load(Ordering::Relaxed))),
                    ("submitted", json::uint(w.submitted.load(Ordering::Relaxed))),
                    ("completed", json::uint(w.completed.load(Ordering::Relaxed))),
                    ("retries", json::uint(w.retries.load(Ordering::Relaxed))),
                    (
                        "ping_failures",
                        json::uint(w.ping_failures.load(Ordering::Relaxed)),
                    ),
                    ("uploads", json::uint(w.uploads.load(Ordering::Relaxed))),
                    ("latency", w.latency.to_json()),
                ])
            })
            .collect();
        let c = &self.inner.counters;
        let running = {
            let map = self.inner.batches.lock().expect("batch table lock");
            map.values()
                .filter(|b| !b.done.load(Ordering::Acquire))
                .count()
        };
        json::obj(vec![
            ("workers", Json::Arr(workers)),
            (
                "batches",
                json::obj(vec![
                    ("accepted", json::uint(c.batches_accepted.load(Ordering::Relaxed))),
                    (
                        "completed",
                        json::uint(c.batches_completed.load(Ordering::Relaxed)),
                    ),
                    ("failed", json::uint(c.batches_failed.load(Ordering::Relaxed))),
                    (
                        "cancelled",
                        json::uint(c.batches_cancelled.load(Ordering::Relaxed)),
                    ),
                    ("running", json::uint(running as u64)),
                ]),
            ),
            (
                "sub_jobs",
                json::obj(vec![
                    (
                        "dispatched",
                        json::uint(c.sub_jobs_dispatched.load(Ordering::Relaxed)),
                    ),
                    (
                        "rescheduled",
                        json::uint(c.sub_jobs_rescheduled.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
        ])
    }
}

/// Pings every worker on the configured interval, flipping `alive`.
fn heartbeat_loop(inner: &Arc<Inner>) {
    let interval = Duration::from_millis(inner.config.heartbeat_ms.max(10));
    let timeout = Duration::from_millis(inner.config.heartbeat_timeout_ms.max(1));
    loop {
        for worker in &inner.workers {
            if inner.stop.is_cancelled() {
                return;
            }
            match ping_worker(&worker.addr, interval.max(Duration::from_millis(100))) {
                Ok(()) => {
                    *worker.last_ok.lock().expect("worker health lock") = Instant::now();
                    worker.alive.store(true, Ordering::Relaxed);
                }
                Err(()) => {
                    worker.ping_failures.fetch_add(1, Ordering::Relaxed);
                    let last_ok = *worker.last_ok.lock().expect("worker health lock");
                    if last_ok.elapsed() >= timeout {
                        worker.alive.store(false, Ordering::Relaxed);
                    }
                }
            }
        }
        if inner.stop.sleep(interval) {
            return;
        }
    }
}

/// One bounded-time `ping` round-trip (its own connection, so a wedged
/// worker cannot stall the heartbeat thread past the deadline).
fn ping_worker(addr: &str, deadline: Duration) -> Result<(), ()> {
    let sock = addr
        .to_socket_addrs()
        .map_err(|_| ())?
        .next()
        .ok_or(())?;
    let stream = TcpStream::connect_timeout(&sock, deadline).map_err(|_| ())?;
    stream.set_read_timeout(Some(deadline)).map_err(|_| ())?;
    stream.set_write_timeout(Some(deadline)).map_err(|_| ())?;
    let mut stream = stream;
    use std::io::{BufRead, BufReader, Write};
    stream.write_all(b"ping\n").map_err(|_| ())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).map_err(|_| ())?;
    // A bogus heartbeat reply (wrong shape, error object, empty line)
    // counts as a failed ping, not a panic.
    match json::parse(line.trim_end()) {
        Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => Ok(()),
        _ => Err(()),
    }
}

/// One worker's dispatch loop for one batch: claim, execute, requeue on
/// failure, finalize when the batch completes, fails, or is cancelled.
fn dispatcher(inner: &Arc<Inner>, batch: &Arc<BatchState>, worker: &Arc<WorkerState>) {
    let cfg = &inner.config;
    let idle = Duration::from_millis(20);
    loop {
        if batch.done.load(Ordering::Acquire) {
            return;
        }
        if batch.token.is_cancelled() || inner.stop.is_cancelled() {
            finalize_cancelled(inner, batch);
            return;
        }
        if !worker.alive.load(Ordering::Relaxed) {
            batch
                .token
                .sleep(Duration::from_millis(cfg.heartbeat_ms.clamp(20, 200)));
            continue;
        }
        let claimed = batch.queue.lock().expect("batch queue lock").pop_front();
        let Some(idx) = claimed else {
            if batch.remaining.load(Ordering::Acquire) == 0 {
                return; // the completing dispatcher already finalized
            }
            batch.token.sleep(idle);
            continue;
        };
        let job = &batch.jobs[idx];
        worker.submitted.fetch_add(1, Ordering::Relaxed);
        inner
            .counters
            .sub_jobs_dispatched
            .fetch_add(1, Ordering::Relaxed);
        batch.emit(json::obj(vec![
            ("ok", Json::Bool(true)),
            ("event", json::str("progress")),
            ("job", json::uint(batch.id)),
            ("sub_job", json::uint(idx as u64)),
            ("of", json::uint(batch.jobs.len() as u64)),
            ("state", json::str("dispatched")),
            ("engine", json::str(job.request.job.spec.name.as_str())),
            ("seed", json::uint(job.request.job.seed)),
            ("runs", json::uint(job.request.job.runs as u64)),
            ("worker", json::str(&worker.addr)),
        ]));
        let started = Instant::now();
        match run_sub_job(inner, batch, worker, idx) {
            Ok(outcome) => {
                let wall_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
                worker.completed.fetch_add(1, Ordering::Relaxed);
                worker.latency.record(wall_ms);
                batch.emit(json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("event", json::str("result")),
                    ("job", json::uint(batch.id)),
                    ("sub_job", json::uint(idx as u64)),
                    ("of", json::uint(batch.jobs.len() as u64)),
                    ("engine", json::str(job.request.job.spec.name.as_str())),
                    ("r1", json::num(job.request.job.r1)),
                    ("r2", json::num(job.request.job.r2)),
                    ("seed", json::uint(job.request.job.seed)),
                    ("cut", json::num(outcome.cut)),
                    ("worker", json::str(&worker.addr)),
                    ("wall_ms", json::uint(wall_ms)),
                ]));
                batch.results.lock().expect("batch results lock")[idx] = Some(outcome);
                if batch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    finalize_completed(inner, batch);
                    return;
                }
            }
            Err(message) => {
                batch.inflight.lock().expect("batch inflight lock").remove(&idx);
                if batch.token.is_cancelled() || inner.stop.is_cancelled() {
                    finalize_cancelled(inner, batch);
                    return;
                }
                worker.retries.fetch_add(1, Ordering::Relaxed);
                inner
                    .counters
                    .sub_jobs_rescheduled
                    .fetch_add(1, Ordering::Relaxed);
                batch.rescheduled.fetch_add(1, Ordering::Relaxed);
                let attempt = {
                    let mut attempts = batch.attempts.lock().expect("batch attempts lock");
                    attempts[idx] += 1;
                    attempts[idx]
                };
                if attempt > cfg.max_retries {
                    finalize_failed(inner, batch, idx, &message);
                    return;
                }
                batch.emit(json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("event", json::str("progress")),
                    ("job", json::uint(batch.id)),
                    ("sub_job", json::uint(idx as u64)),
                    ("state", json::str("rescheduled")),
                    ("attempt", json::uint(u64::from(attempt))),
                    ("worker", json::str(&worker.addr)),
                    ("error", json::str(&message)),
                ]));
                batch
                    .queue
                    .lock()
                    .expect("batch queue lock")
                    .push_back(idx);
                let backoff = cfg.backoff_ms.max(1) << u64::from((attempt - 1).min(5));
                batch.token.sleep(Duration::from_millis(backoff));
            }
        }
    }
}

/// Executes sub-job `idx` on `worker`: connect (bounded retry), push
/// the circuit if the worker lacks it, submit without wait (to learn
/// the remote id for cancel fan-out), then wait for the result.
fn run_sub_job(
    inner: &Arc<Inner>,
    batch: &Arc<BatchState>,
    worker: &Arc<WorkerState>,
    idx: usize,
) -> Result<SubJobOutcome, String> {
    let retry = ConnectRetry {
        attempts: 2,
        base_delay_ms: inner.config.backoff_ms.max(1),
    };
    let mut client = Client::connect_retry(&worker.addr, &retry).map_err(|e| e.to_string())?;
    let circuit = &batch.spec.circuit_id;
    let known = worker
        .circuits
        .lock()
        .expect("worker circuit set lock")
        .contains(circuit);
    if !known {
        push_circuit(&mut client, worker, circuit, &batch.snapshot)?;
    }
    let mut request = batch.jobs[idx].request.clone();
    request.wait = false;
    let mut resp = client.submit(&request).map_err(|e| e.to_string())?;
    if resp.get("error").and_then(Json::as_str) == Some("unknown_circuit") {
        // The worker lost its store (restart, eviction): re-push once.
        worker
            .circuits
            .lock()
            .expect("worker circuit set lock")
            .remove(circuit);
        push_circuit(&mut client, worker, circuit, &batch.snapshot)?;
        resp = client.submit(&request).map_err(|e| e.to_string())?;
    }
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("submit refused: {}", resp.render()));
    }
    let remote = resp
        .get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| "submit response lacks a job id".to_string())?;
    batch
        .inflight
        .lock()
        .expect("batch inflight lock")
        .insert(idx, (worker.addr.clone(), remote));
    let view = client.wait(remote);
    batch.inflight.lock().expect("batch inflight lock").remove(&idx);
    parse_outcome(&view.map_err(|e| e.to_string())?)
}

/// Ships the batch's `.hgb` snapshot to `worker` under the circuit id.
fn push_circuit(
    client: &mut Client,
    worker: &Arc<WorkerState>,
    circuit: &str,
    snapshot: &Arc<Vec<u8>>,
) -> Result<(), String> {
    let upload = UploadRequest {
        circuit: circuit.to_string(),
        fmt: "hgb".into(),
        payload: Some(snapshot.as_ref().clone()),
        path: None,
    };
    let resp = client.upload(&upload).map_err(|e| e.to_string())?;
    if resp.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("circuit push refused: {}", resp.render()));
    }
    worker.uploads.fetch_add(1, Ordering::Relaxed);
    worker
        .circuits
        .lock()
        .expect("worker circuit set lock")
        .insert(circuit.to_string());
    Ok(())
}

/// Parses a worker's terminal job view into a [`SubJobOutcome`].
fn parse_outcome(view: &Json) -> Result<SubJobOutcome, String> {
    if view.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("remote job errored: {}", view.render()));
    }
    let status = view.get("status").and_then(Json::as_str).unwrap_or("");
    if status != "completed" {
        let message = view.get("message").and_then(Json::as_str).unwrap_or("");
        return Err(format!("remote job {status}: {message}"));
    }
    let field = |key: &str| -> Result<&Json, String> {
        view.get(key)
            .ok_or_else(|| format!("remote result lacks {key:?}"))
    };
    let cut = field("cut")?
        .as_f64()
        .ok_or_else(|| "bad cut in remote result".to_string())?;
    let sides = field("sides")?
        .as_arr()
        .filter(|a| a.len() == 2)
        .and_then(|a| Some((a[0].as_u64()? as usize, a[1].as_u64()? as usize)))
        .ok_or_else(|| "bad sides in remote result".to_string())?;
    let passes = field("passes")?
        .as_u64()
        .ok_or_else(|| "bad passes in remote result".to_string())? as usize;
    let run_cuts = field("run_cuts")?
        .as_arr()
        .map(|a| a.iter().filter_map(Json::as_f64).collect::<Vec<f64>>())
        .ok_or_else(|| "bad run_cuts in remote result".to_string())?;
    let assignment_hash = field("assignment_hash")?
        .as_str()
        .and_then(json::parse_hex64)
        .ok_or_else(|| "bad assignment_hash in remote result".to_string())?;
    Ok(SubJobOutcome {
        cut,
        sides,
        passes,
        run_cuts,
        assignment_hash,
    })
}

/// Fans `cancel` out to every in-flight remote job (best effort: a
/// dead worker's cancel just fails its fast, bounded connect).
fn cancel_inflight(batch: &Arc<BatchState>) {
    let inflight: Vec<(String, u64)> = {
        let map = batch.inflight.lock().expect("batch inflight lock");
        map.values().cloned().collect()
    };
    for (addr, remote) in inflight {
        if let Ok(mut client) = Client::connect_retry(&addr, &ConnectRetry::once()) {
            let _ = client.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = client.cancel(remote);
        }
    }
}

fn finalize_completed(inner: &Arc<Inner>, batch: &Arc<BatchState>) {
    if !batch.try_finalize() {
        return;
    }
    let outcomes: Vec<SubJobOutcome> = {
        let results = batch.results.lock().expect("batch results lock");
        results
            .iter()
            .map(|r| r.clone().expect("completed batch has every outcome"))
            .collect()
    };
    let merged = batch::merge(&batch.spec, &batch.jobs, &outcomes);
    let groups: Vec<Json> = merged
        .groups
        .iter()
        .map(|g| {
            json::obj(vec![
                ("engine", json::str(g.engine.as_str())),
                ("r1", json::num(g.r1)),
                ("r2", json::num(g.r2)),
                ("cut", json::num(g.cut)),
                (
                    "sides",
                    Json::Arr(vec![
                        json::uint(g.sides.0 as u64),
                        json::uint(g.sides.1 as u64),
                    ]),
                ),
                ("passes", json::uint(g.passes as u64)),
                (
                    "run_cuts",
                    Json::Arr(g.run_cuts.iter().map(|&c| json::num(c)).collect()),
                ),
                ("assignment_hash", json::hex64(g.assignment_hash)),
            ])
        })
        .collect();
    let w = merged.winner();
    let view = json::obj(vec![
        ("ok", Json::Bool(true)),
        ("event", json::str("done")),
        ("job", json::uint(batch.id)),
        ("batch", Json::Bool(true)),
        ("phase", json::str("done")),
        ("status", json::str("completed")),
        ("engine", json::str(w.engine.as_str())),
        ("r1", json::num(w.r1)),
        ("r2", json::num(w.r2)),
        ("cut", json::num(w.cut)),
        (
            "sides",
            Json::Arr(vec![
                json::uint(w.sides.0 as u64),
                json::uint(w.sides.1 as u64),
            ]),
        ),
        ("passes", json::uint(w.passes as u64)),
        (
            "run_cuts",
            Json::Arr(w.run_cuts.iter().map(|&c| json::num(c)).collect()),
        ),
        ("assignment_hash", json::hex64(w.assignment_hash)),
        ("sub_jobs", json::uint(batch.jobs.len() as u64)),
        (
            "rescheduled",
            json::uint(batch.rescheduled.load(Ordering::Relaxed)),
        ),
        ("groups", Json::Arr(groups)),
    ]);
    inner
        .counters
        .batches_completed
        .fetch_add(1, Ordering::Relaxed);
    batch.seal(view);
}

fn finalize_failed(inner: &Arc<Inner>, batch: &Arc<BatchState>, idx: usize, message: &str) {
    if !batch.try_finalize() {
        return;
    }
    // Stop the other dispatchers and any still-running remote work.
    batch.token.cancel();
    cancel_inflight(batch);
    inner
        .counters
        .batches_failed
        .fetch_add(1, Ordering::Relaxed);
    batch.seal(json::obj(vec![
        ("ok", Json::Bool(true)),
        ("event", json::str("done")),
        ("job", json::uint(batch.id)),
        ("batch", Json::Bool(true)),
        ("phase", json::str("done")),
        ("status", json::str("failed")),
        ("sub_job", json::uint(idx as u64)),
        ("message", json::str(message)),
        ("sub_jobs", json::uint(batch.jobs.len() as u64)),
        ("completed", json::uint(batch.completed_count() as u64)),
        (
            "rescheduled",
            json::uint(batch.rescheduled.load(Ordering::Relaxed)),
        ),
    ]));
}

fn finalize_cancelled(inner: &Arc<Inner>, batch: &Arc<BatchState>) {
    if !batch.try_finalize() {
        return;
    }
    cancel_inflight(batch);
    inner
        .counters
        .batches_cancelled
        .fetch_add(1, Ordering::Relaxed);
    batch.seal(json::obj(vec![
        ("ok", Json::Bool(true)),
        ("event", json::str("done")),
        ("job", json::uint(batch.id)),
        ("batch", Json::Bool(true)),
        ("phase", json::str("done")),
        ("status", json::str("cancelled")),
        ("sub_jobs", json::uint(batch.jobs.len() as u64)),
        ("completed", json::uint(batch.completed_count() as u64)),
        (
            "rescheduled",
            json::uint(batch.rescheduled.load(Ordering::Relaxed)),
        ),
    ]));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_event_log_blocks_and_replays() {
        let batch = BatchState::new(
            7,
            BatchRequest {
                circuit_id: "c".into(),
                runs: 2,
                ..BatchRequest::default()
            },
            Vec::new(),
            Box::new(|| {}),
        );
        assert_eq!(batch.sub_jobs(), 2);
        batch.emit(json::obj(vec![("event", json::str("progress"))]));
        assert!(batch.event(0).is_some());
        // A watcher blocked on a future event wakes when it arrives.
        let waiter = {
            let batch = Arc::clone(&batch);
            thread::spawn(move || batch.event(1))
        };
        thread::sleep(Duration::from_millis(20));
        batch.emit(json::obj(vec![("event", json::str("result"))]));
        assert!(waiter.join().unwrap().is_some());
        // After the terminal seal, reads past the end return None.
        batch.finalized.store(true, Ordering::Release);
        batch.seal(json::obj(vec![("event", json::str("done"))]));
        assert!(batch.event(2).is_some());
        assert!(batch.event(3).is_none());
    }

    #[test]
    fn watch_streams_always_end_on_the_done_event() {
        const WATCHERS: usize = 3;
        for round in 0..2000 {
            let batch = BatchState::new(
                round,
                BatchRequest {
                    circuit_id: "c".into(),
                    ..BatchRequest::default()
                },
                Vec::new(),
                Box::new(|| {}),
            );
            batch.emit(json::obj(vec![("event", json::str("result"))]));
            // Watchers replay the log the way `watch` does, released
            // together with the seal so their reads race it.
            let start = Arc::new(std::sync::Barrier::new(WATCHERS + 1));
            let watchers: Vec<_> = (0..WATCHERS)
                .map(|_| {
                    let batch = Arc::clone(&batch);
                    let start = Arc::clone(&start);
                    thread::spawn(move || {
                        start.wait();
                        let mut events = Vec::new();
                        while let Some(event) = batch.event(events.len()) {
                            events.push(event);
                        }
                        events
                    })
                })
                .collect();
            assert!(batch.try_finalize());
            start.wait();
            batch.seal(json::obj(vec![("event", json::str("done"))]));
            for watcher in watchers {
                let events = watcher.join().unwrap();
                assert_eq!(events.len(), 2, "round {round}: the stream ended early");
                assert_eq!(
                    events[1].get("event").and_then(Json::as_str),
                    Some("done"),
                    "round {round}"
                );
            }
        }
    }

    #[test]
    fn on_done_hook_runs_exactly_once() {
        let count = Arc::new(AtomicU64::new(0));
        let hook_count = Arc::clone(&count);
        let batch = BatchState::new(
            1,
            BatchRequest {
                circuit_id: "c".into(),
                ..BatchRequest::default()
            },
            Vec::new(),
            Box::new(move || {
                hook_count.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert!(batch.try_finalize());
        assert!(!batch.try_finalize(), "finalize claims once");
        batch.seal(json::obj(vec![("event", json::str("done"))]));
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert!(batch.final_view().is_some());
        assert_eq!(batch.wait_view().get("event").and_then(Json::as_str), Some("done"));
    }

    #[test]
    fn ping_worker_rejects_dead_and_bogus_peers() {
        // Dead peer: bind-then-drop to find a free port.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        assert!(ping_worker(&addr, Duration::from_millis(200)).is_err());

        // Bogus peer: answers pings with garbage — a failed ping, not
        // a coordinator panic.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let bogus = listener.local_addr().unwrap().to_string();
        let server = thread::spawn(move || {
            use std::io::{Read, Write};
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 16];
            let _ = s.read(&mut buf);
            let _ = s.write_all(b"not json at all\n");
        });
        assert!(ping_worker(&bogus, Duration::from_millis(500)).is_err());
        server.join().unwrap();
    }

    #[test]
    fn coordinator_tracks_worker_health() {
        // One dead worker: heartbeat marks it lost after the timeout.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let coordinator = Coordinator::new(ClusterConfig {
            workers: vec![addr.clone()],
            heartbeat_ms: 20,
            heartbeat_timeout_ms: 60,
            ..ClusterConfig::default()
        });
        assert_eq!(coordinator.worker_count(), 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let stats = coordinator.stats_json();
            let workers = stats.get("workers").and_then(Json::as_arr).unwrap();
            if workers[0].get("alive").and_then(Json::as_bool) == Some(false) {
                assert!(
                    workers[0]
                        .get("ping_failures")
                        .and_then(Json::as_u64)
                        .unwrap()
                        > 0
                );
                break;
            }
            assert!(Instant::now() < deadline, "worker never marked lost");
            thread::sleep(Duration::from_millis(10));
        }
        coordinator.stop();
    }
}
