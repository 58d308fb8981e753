//! cluster-sweep: a coordinator shards a 32-run PROP sweep over two
//! one-worker daemons, one sub-job per run. Each sub-job is ~50 ms of
//! engine work, so dispatch, the per-sub-job connections, the merge and
//! two-worker parallelism decide the sweep time.

use crate::calibrate::{self, Calibration};
use crate::daemon::Daemon;
use crate::json::Json;
use crate::parse::{self, JobView};
use crate::report::{metric, scaled, EndToEnd, Outcome, Sample};
use crate::schedule::job_seed;
use crate::stats;
use crate::wire::Conn;
use crate::workload::{generate, repeated_setup, Ctx, P2};
use std::path::Path;
use std::time::{Duration, Instant};

/// Runs per sweep, one per sub-job.
pub const RUNS: usize = 32;
/// Distinct sweep seeds per run.
pub const SWEEPS: usize = 2;

/// The sweep seeds of workload seed `seed`.
pub fn sweep_seeds(seed: u64) -> Vec<u64> {
    (0..SWEEPS as u64)
        .map(|j| job_seed(seed, "cluster-sweep", j))
        .collect()
}

/// The batch request of one sweep.
fn batch_line(seed: u64) -> String {
    format!("batch circuit_id=p2 engines=prop runs={RUNS} seed={seed} chunk=1")
}

/// The single-daemon request the merged sweep must equal.
fn reference_line(seed: u64) -> String {
    format!("submit engine=prop runs={RUNS} seed={seed} wait=1 circuit_id=p2")
}

/// A coordinator with its two workers, the circuit uploaded.
#[derive(Debug)]
pub struct Cluster {
    /// The worker daemons.
    pub workers: Vec<Daemon>,
    /// The coordinator.
    pub coordinator: Daemon,
    /// A connection to the coordinator.
    pub conn: Conn,
}

impl Cluster {
    /// Every daemon, coordinator first.
    fn daemons(&self) -> impl Iterator<Item = &Daemon> {
        std::iter::once(&self.coordinator).chain(&self.workers)
    }

    /// Stops the coordinator, then the workers.
    ///
    /// # Errors
    ///
    /// The first daemon that did not stop cleanly.
    pub fn stop(self) -> Result<(), String> {
        let mut result = self.coordinator.stop();
        for w in self.workers {
            result = result.and(w.stop());
        }
        result.map_err(|e| e.to_string())
    }
}

/// Starts `workers` one-worker daemons and a coordinator over them in
/// `dir`, and uploads the p2 circuit to the coordinator.
///
/// # Errors
///
/// Any failed step.
pub fn start(ctx: &Ctx, dir: &Path, workers: usize) -> Result<Cluster, String> {
    let p2 = generate(ctx, dir, &P2)?;
    let daemon = |name: &str, extra: &[String]| {
        let store = dir.join(name).to_string_lossy().into_owned();
        let mut args: Vec<String> = ["--workers", "1", "--store-dir", &store]
            .map(String::from)
            .to_vec();
        args.extend_from_slice(extra);
        Daemon::start(&ctx.prop, &args).map_err(|e| e.to_string())
    };
    let workers = (0..workers)
        .map(|i| daemon(&format!("worker{i}"), &[]))
        .collect::<Result<Vec<_>, _>>()?;
    let list = workers
        .iter()
        .map(|w| w.addr.as_str())
        .collect::<Vec<_>>()
        .join(",");
    let coordinator = daemon("coordinator", &["--coordinator".into(), list])?;
    let mut conn = coordinator.conn().map_err(|e| e.to_string())?;
    conn.upload_hgb("p2", &p2)?;
    Ok(Cluster {
        workers,
        coordinator,
        conn,
    })
}

/// One finished sweep.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// From sending `batch` to the answer of `wait`.
    pub wall: Duration,
    /// The merged result.
    pub view: JobView,
    /// Sub-jobs moved to another worker after a failure.
    pub rescheduled: f64,
    /// Summed sub-job time of each worker during the sweep.
    pub busy_ms: Vec<f64>,
}

impl Sweep {
    /// The busiest worker's summed sub-job time: the sweep's critical
    /// path through the engines.
    pub fn critical_path_ms(&self) -> f64 {
        self.busy_ms.iter().copied().fold(0.0, f64::max)
    }

    /// Wall time minus the critical path: what dispatch, connections and
    /// the merge add.
    pub fn overhead_ms(&self) -> f64 {
        self.wall.as_secs_f64() * 1e3 - self.critical_path_ms()
    }
}

/// Summed sub-job latency per worker so far, from the coordinator's
/// `stats` (its per-worker histogram totals).
fn busy_ms(conn: &mut Conn) -> Result<Vec<f64>, String> {
    let stats = conn.request("stats").map_err(|e| e.to_string())?;
    stats
        .get("stats")
        .and_then(|s| s.get("cluster"))
        .and_then(|c| c.get("workers"))
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("no worker table in {}", stats.render()))?
        .iter()
        .map(|w| {
            w.get("latency")
                .and_then(|l| l.num("total_ms"))
                .ok_or("no worker latency total".to_string())
        })
        .collect()
}

/// Submits one sweep and waits for its merged result. `wait` rather than
/// `watch`: a `watch` stream can end without its `done` line when the
/// batch seals while the watcher is between events.
///
/// # Errors
///
/// Refusals, connection errors and sweeps that did not complete.
pub fn sweep(conn: &mut Conn, seed: u64) -> Result<Sweep, String> {
    let before = busy_ms(conn)?;
    let start = Instant::now();
    let admitted = conn.request(&batch_line(seed)).map_err(|e| e.to_string())?;
    let job = admitted
        .get("job")
        .and_then(Json::as_u64)
        .filter(|_| admitted.get("ok").and_then(Json::as_bool) == Some(true))
        .ok_or_else(|| format!("batch refused: {}", admitted.render()))?;
    let done = conn
        .request(&format!("wait job={job}"))
        .map_err(|e| e.to_string())?;
    let wall = start.elapsed();
    let after = busy_ms(conn)?;
    Ok(Sweep {
        wall,
        view: parse::job_view(&done)?,
        rescheduled: done.num("rescheduled").unwrap_or(f64::NAN),
        busy_ms: after.iter().zip(&before).map(|(a, b)| a - b).collect(),
    })
}

/// Runs the single-daemon reference of every seed, one seed per worker
/// at a time so the references run in parallel.
fn references(cluster: &Cluster, seeds: &[u64]) -> Vec<Result<JobView, String>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let worker = &cluster.workers[i % cluster.workers.len()];
                scope.spawn(move || {
                    let reply = worker
                        .conn()
                        .and_then(|mut c| c.request(&reference_line(seed)));
                    reply
                        .map_err(|e| e.to_string())
                        .and_then(|v| parse::job_view(&v))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Whether two results agree on everything the merge promises.
pub fn same_result(a: &JobView, b: &JobView) -> bool {
    a.cut == b.cut && a.run_cuts == b.run_cuts && a.assignment_hash == b.assignment_hash
}

/// Runs cluster-sweep.
///
/// # Errors
///
/// Set-up failures.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let seeds = sweep_seeds(ctx.seed);
    // The set-up's first sweep ships the snapshot to both workers.
    let (mut cluster, setup_s) = repeated_setup(
        ctx,
        |dir| {
            let mut c = start(ctx, dir, 2)?;
            sweep(&mut c.conn, seeds[0])?;
            Ok(c)
        },
        Cluster::stop,
    )?;
    let cpu_of = |c: &Cluster| c.daemons().map(Daemon::cpu).sum::<Option<Duration>>();
    let cpu_before = cpu_of(&cluster);

    let mut out = Outcome::default();
    let mut calibration = Calibration::default();
    let mut first: Vec<Option<JobView>> = vec![None; SWEEPS];
    let mut sweeps = Vec::new();
    let mut latency = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < ctx.seconds
        || (first.iter().any(Option::is_none) && i < 3 * SWEEPS)
    {
        let j = i % SWEEPS;
        i += 1;
        out.attempted += 1;
        let mark = calibration.mark(calibrate::PER_JOB);
        match sweep(&mut cluster.conn, seeds[j]) {
            Err(e) => {
                latency.push((f64::INFINITY, mark));
                out.fail(format!("sweep seed {}: {e}", seeds[j]));
                if let Ok(c) = cluster.coordinator.conn() {
                    cluster.conn = c;
                }
            }
            Ok(s) => {
                latency.push((s.wall.as_secs_f64() * 1e3, mark));
                match &first[j] {
                    Some(f) if !same_result(f, &s.view) => out.fail(format!(
                        "sweep seed {} did not repeat: {f:?} then {:?}",
                        seeds[j], s.view
                    )),
                    Some(_) => {}
                    None => first[j] = Some(s.view.clone()),
                }
                sweeps.push(s);
            }
        }
    }
    let cpu = cpu_of(&cluster).zip(cpu_before).map(|(a, b)| a - b);
    calibration.mark(calibrate::PER_JOB);
    let latency = scaled(latency, &calibration);
    let hwm_kb: Option<u64> = cluster.daemons().map(Daemon::hwm_kb).sum();
    for (j, reference) in references(&cluster, &seeds).into_iter().enumerate() {
        match (reference, &first[j]) {
            (Ok(r), Some(f)) if !same_result(&r, f) => out.error(format!(
                "sweep seed {} merged {f:?} but one daemon gives {r:?}",
                seeds[j]
            )),
            (Err(e), _) => out.error(format!("reference for sweep seed {}: {e}", seeds[j])),
            _ => {}
        }
    }
    cluster.stop()?;

    let cuts: Vec<f64> = first.iter().flatten().map(|v| v.cut).collect();
    let n = latency.len();
    let e2e = EndToEnd {
        setup_s,
        latency_ms: latency,
        cpu_ms: vec![Sample {
            raw: cpu.map_or(f64::NAN, |c| c.as_secs_f64() * 1e3 / n.max(1) as f64),
            scale: calibration.scale(),
        }],
        cut: stats::mean(&cuts).unwrap_or(f64::NAN),
        cut_jobs: cuts.len(),
        peak_rss_mb: hwm_kb.map_or(f64::NAN, |kb| kb as f64 / 1024.0),
        calibration,
    };
    out.metrics = e2e.metrics();
    out.details = e2e.raw();
    out.details.extend(details(&sweeps));
    Ok(out)
}

/// Sub-job time, critical path, overhead and reschedules of `sweeps`.
pub fn details(sweeps: &[Sweep]) -> Vec<crate::report::Metric> {
    let subjob: f64 =
        sweeps.iter().flat_map(|s| &s.busy_ms).sum::<f64>() / (RUNS * sweeps.len()).max(1) as f64;
    let critical: Vec<f64> = sweeps.iter().map(Sweep::critical_path_ms).collect();
    let overhead: Vec<f64> = sweeps.iter().map(Sweep::overhead_ms).collect();
    let n = sweeps.len();
    vec![
        metric("cluster.subjob_ms_mean", "ms", subjob, RUNS * n),
        metric(
            "cluster.critical_path_ms",
            "ms",
            stats::median(&critical).unwrap_or(f64::NAN),
            n,
        ),
        metric(
            "cluster.overhead_ms",
            "ms",
            stats::median(&overhead).unwrap_or(f64::NAN),
            n,
        ),
        metric(
            "cluster.rescheduled",
            "count",
            sweeps.iter().map(|s| s.rescheduled).sum(),
            n,
        ),
    ]
}
