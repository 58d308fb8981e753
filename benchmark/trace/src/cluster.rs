//! Traced cluster-sweep: sweeps on two workers and on one, then each
//! sweep once more in-process as the sequential multi-start the merge
//! promises to reproduce.

use crate::cli::load;
use crate::serve::assignment_hash;
use crate::timed::{split, Layers, Timed};
use prop_benchmark::cluster::{self, same_result, Sweep, RUNS};
use prop_benchmark::parse::JobView;
use prop_benchmark::report::{metric, Outcome};
use prop_benchmark::spans::Recorder;
use prop_benchmark::stats;
use prop_benchmark::workload::{Ctx, P2};
use prop_core::{BalanceConstraint, ParallelPolicy, Partitioner, Prop, PropConfig};

/// Measured two-worker sweeps per seed.
const ROUNDS: usize = 2;

fn ms(s: &Sweep) -> f64 {
    s.wall.as_secs_f64() * 1e3
}

fn sweeps_on(
    ctx: &Ctx,
    workers: usize,
    seeds: &[u64],
    rounds: usize,
) -> Result<(Sweep, Vec<(usize, Sweep)>), String> {
    let dir = ctx.dir.join(format!("workers{workers}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut c = cluster::start(ctx, &dir, workers)?;
    let run = |c: &mut cluster::Cluster| -> Result<_, String> {
        let ship = cluster::sweep(&mut c.conn, seeds[0])?;
        let mut list = Vec::new();
        for _ in 0..rounds {
            for (j, &seed) in seeds.iter().enumerate() {
                list.push((j, cluster::sweep(&mut c.conn, seed)?));
            }
        }
        Ok((ship, list))
    };
    let result = run(&mut c);
    c.stop()?;
    result
}

/// Runs the traced cluster-sweep.
///
/// # Errors
///
/// Set-up failures; wrong answers go into `out`.
pub fn trace(
    ctx: &Ctx,
    rec: &Recorder,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Result<(), String> {
    let seeds = cluster::sweep_seeds(ctx.seed);
    let (ship, two) = sweeps_on(ctx, 2, &seeds, ROUNDS)?;
    let (_, one) = sweeps_on(ctx, 1, &seeds[..1], 1)?;

    let p2 = ctx.dir.join("workers2").join(P2.file);
    let mut in_process: Vec<JobView> = Vec::new();
    for (j, &seed) in seeds.iter().enumerate() {
        rec.set_job(j as u64);
        let root = rec.open("job");
        let r = load(rec, &p2).and_then(|graph| {
            let balance =
                BalanceConstraint::weighted(0.45, 0.55, &graph).map_err(|e| e.to_string())?;
            let engine = Timed::new(Prop::new(PropConfig::calibrated()), "core.prop", rec);
            rec.span("core.harness", || {
                engine.run_multi_parallel(&graph, balance, RUNS, seed, ParallelPolicy::Sequential)
            })
            .map_err(|e| e.to_string())
        });
        rec.close(root, &[]);
        let r = r?;
        in_process.push(JobView {
            cut: r.cut_cost,
            assignment_hash: assignment_hash(&r.partition),
            run_cuts: r.run_cuts,
            wall_ms: None,
        });
    }

    let spans = rec.spans();
    for (j, sweep) in &two {
        out.attempted += 1;
        if !same_result(&sweep.view, &in_process[*j]) {
            out.fail(format!(
                "sweep seed {}: merged {:?} but in-process {:?}",
                seeds[*j], sweep.view, in_process[*j]
            ));
        }
        layers.push(split(&spans, *j as u64), sweep.overhead_ms());
    }
    for (_, sweep) in &one {
        out.attempted += 1;
        if !same_result(&sweep.view, &in_process[0]) {
            out.fail(format!(
                "one-worker sweep merged {:?} but in-process {:?}",
                sweep.view, in_process[0]
            ));
        }
    }

    let walls: Vec<f64> = two.iter().map(|(_, s)| ms(s)).collect();
    let seed0: Vec<f64> = two
        .iter()
        .filter(|(j, _)| *j == 0)
        .map(|(_, s)| ms(s))
        .collect();
    let median = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    let sweeps: Vec<Sweep> = two.into_iter().map(|(_, s)| s).collect();
    out.details.extend(cluster::details(&sweeps));
    out.details.extend([
        metric("cluster.ship_ms", "ms", ms(&ship) - median(&walls), 1),
        metric(
            "cluster.speedup_2w",
            "ratio",
            ms(&one[0].1) / median(&seed0),
            seed0.len(),
        ),
    ]);
    Ok(())
}
