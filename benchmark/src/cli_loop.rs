//! Closed-loop CLI workloads: one client starts the next `prop partition`
//! process only after the previous one exits, cycling through the run's
//! distinct job seeds.

use crate::calibrate::{self, Calibration};
use crate::parse::{self, CliResult};
use crate::report::{metric, scaled, EndToEnd, Outcome};
use crate::schedule::{fnv1a, job_seed};
use crate::stats;
use crate::sys::{self, Finished};
use crate::workload::{generate, repeated_setup, CliWorkload, Ctx};
use prop_netlist::{format, hgb, Hypergraph};
use prop_verify::kway::{kway_connectivity, kway_cut};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// One finished job: what it printed, its assignment file's hash, and
/// what it cost.
#[derive(Clone, Debug)]
pub struct JobRun {
    /// The parsed result line.
    pub result: CliResult,
    /// FNV-1a hash of the `--assign` file.
    pub assign_hash: u64,
    /// Process measurements.
    pub finished: Finished,
}

/// The `prop partition` command of one job.
fn job_command(ctx: &Ctx, w: &CliWorkload, circuit: &Path, seed: u64, assign: &Path) -> Command {
    let mut cmd = Command::new(&ctx.prop);
    cmd.arg("partition")
        .arg(circuit)
        .args(w.args)
        .args(["--seed", &seed.to_string()])
        .arg("--assign")
        .arg(assign);
    cmd
}

/// Runs one job and reads its result.
///
/// # Errors
///
/// A failed process, a missing result line or an unreadable assignment.
pub fn run_job(
    ctx: &Ctx,
    w: &CliWorkload,
    circuit: &Path,
    seed: u64,
    assign: &Path,
) -> Result<JobRun, String> {
    let finished =
        sys::run(&mut job_command(ctx, w, circuit, seed, assign)).map_err(|e| e.to_string())?;
    if finished.code != Some(0) {
        return Err(format!("prop partition exited with {:?}", finished.code));
    }
    let result = parse::cli_result(&finished.stdout)?;
    let bytes = std::fs::read(assign).map_err(|e| format!("{}: {e}", assign.display()))?;
    Ok(JobRun {
        result,
        assign_hash: fnv1a(&bytes),
        finished,
    })
}

/// Loads a circuit file the way the CLI does, for the oracles.
///
/// # Errors
///
/// Unreadable or malformed files.
pub fn load_graph(path: &Path) -> Result<Hypergraph, String> {
    if path.extension().is_some_and(|e| e == "hgb") {
        return hgb::load_hgb(path)
            .map(|(g, _)| g)
            .map_err(|e| e.to_string());
    }
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    format::parse_hgr(&text).map_err(|e| e.to_string())
}

/// Recounts a job's cut (and connectivity, for k-way jobs) from its
/// assignment file with the `prop-verify` oracles.
///
/// # Errors
///
/// Describes the disagreement.
pub fn oracle_check(graph: &Hypergraph, assign: &Path, result: &CliResult) -> Result<(), String> {
    let text = std::fs::read_to_string(assign).map_err(|e| e.to_string())?;
    let parts = parse::assignment(&text)?;
    if parts.len() != graph.num_nodes() || parts.iter().any(|&p| p >= result.k) {
        return Err(format!(
            "assignment has {} entries for {} nodes or a part >= k={}",
            parts.len(),
            graph.num_nodes(),
            result.k
        ));
    }
    let cut = kway_cut(graph, &parts, result.k);
    if cut != result.cut {
        return Err(format!("oracle cut {cut} != reported {}", result.cut));
    }
    if let Some(reported) = result.connectivity {
        let lambda = kway_connectivity(graph, &parts, result.k);
        if lambda != reported {
            return Err(format!(
                "oracle connectivity {lambda} != reported {reported}"
            ));
        }
    }
    Ok(())
}

/// One set-up of a CLI workload: generate the circuit, then run the
/// workload's first job once, untimed, as a warm-up. Returns the
/// circuit's path, the warm-up's result and its assignment file.
///
/// # Errors
///
/// A failed generate or warm-up job.
pub fn setup(
    ctx: &Ctx,
    w: &CliWorkload,
    dir: &Path,
    seed: u64,
) -> Result<(PathBuf, JobRun, PathBuf), String> {
    let circuit = generate(ctx, dir, &w.circuit)?;
    let assign = dir.join("warmup.assign");
    let warm = run_job(ctx, w, &circuit, seed, &assign)?;
    Ok((circuit, warm, assign))
}

/// Runs a closed-loop CLI workload.
///
/// # Errors
///
/// Set-up failures.
pub fn run(ctx: &Ctx, w: &CliWorkload) -> Result<Outcome, String> {
    let seeds: Vec<u64> = (0..w.jobs as u64)
        .map(|j| job_seed(ctx.seed, w.name, j))
        .collect();
    let ((circuit, warm, warm_assign), setup_s) =
        repeated_setup(ctx, |dir| setup(ctx, w, dir, seeds[0]), |_| Ok(()))?;
    let graph = load_graph(&circuit)?;

    let mut out = Outcome::default();
    let mut calibration = Calibration::default();
    let mut first: Vec<Option<JobRun>> = vec![None; w.jobs];
    // The warm-up is job 0's first result: its timed runs must repeat it.
    if let Err(e) = oracle_check(&graph, &warm_assign, &warm.result) {
        out.error(format!("warm-up job (seed {}): {e}", seeds[0]));
    }
    first[0] = Some(warm);
    // Times with the calibration group taken just before them; scaled
    // once the group after the last job is taken.
    let (mut walls, mut cpus, mut peak_kb) = (Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    let mut i = 0;
    // Every distinct job runs at least once, even past the window, so the
    // cut always averages the same job set; a job that keeps failing stops
    // the loop after three rounds.
    while start.elapsed().as_secs_f64() < ctx.seconds
        || (first.iter().any(Option::is_none) && i < 3 * w.jobs)
    {
        let j = i % w.jobs;
        i += 1;
        out.attempted += 1;
        let mark = calibration.mark(calibrate::PER_JOB);
        let assign = ctx.dir.join(format!("job{j}.assign"));
        let run = match run_job(ctx, w, &circuit, seeds[j], &assign) {
            Ok(run) => run,
            Err(e) => {
                walls.push((f64::INFINITY, mark));
                out.fail(format!("job {j} (seed {}): {e}", seeds[j]));
                continue;
            }
        };
        walls.push((run.finished.wall.as_secs_f64() * 1e3, mark));
        cpus.push((run.finished.cpu.as_secs_f64() * 1e3, mark));
        peak_kb = peak_kb.max(run.finished.maxrss_kb);
        match &first[j] {
            Some(f) if (&f.result, f.assign_hash) != (&run.result, run.assign_hash) => {
                out.fail(format!(
                    "job {j} (seed {}) did not repeat: {:?} then {:?}",
                    seeds[j], f.result, run.result
                ));
            }
            Some(_) => {}
            None => {
                if let Err(e) = oracle_check(&graph, &assign, &run.result) {
                    out.fail(format!("job {j} (seed {}): {e}", seeds[j]));
                }
                first[j] = Some(run);
            }
        }
    }
    calibration.mark(calibrate::PER_JOB);
    let (walls, cpus) = (scaled(walls, &calibration), scaled(cpus, &calibration));

    let done: Vec<&CliResult> = first.iter().flatten().map(|r| &r.result).collect();
    let mean_of =
        |f: fn(&CliResult) -> f64| stats::mean(&done.iter().map(|&r| f(r)).collect::<Vec<_>>());
    let e2e = EndToEnd {
        setup_s,
        latency_ms: walls,
        cpu_ms: cpus,
        cut: mean_of(|r| r.cut).unwrap_or(f64::NAN),
        cut_jobs: done.len(),
        peak_rss_mb: peak_kb as f64 / 1024.0,
        calibration,
    };
    out.metrics = e2e.metrics();
    out.details = e2e.raw();
    out.details.push(metric(
        "passes",
        "count",
        mean_of(|r| r.passes as f64).unwrap_or(f64::NAN),
        done.len(),
    ));
    if let Some(lambda) = mean_of(|r| r.connectivity.unwrap_or(f64::NAN)).filter(|v| v.is_finite())
    {
        out.details
            .push(metric("connectivity", "count", lambda, done.len()));
    }
    Ok(out)
}
