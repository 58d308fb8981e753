//! Traced runs of the closed-loop CLI workloads: each job runs once
//! through the `prop` binary, untraced, and once in-process through the
//! same library calls the CLI makes, with spans around each layer. The
//! two results must be identical.

use crate::timed::{split, total_ms, Layers, Timed};
use prop_benchmark::cli_loop;
use prop_benchmark::report::{metric, Outcome};
use prop_benchmark::schedule::{fnv1a, job_seed};
use prop_benchmark::spans::{self, Recorder, Span};
use prop_benchmark::stats;
use prop_benchmark::workload::{CliWorkload, Ctx};
use prop_core::{
    partition_kway, BalanceConstraint, Bipartition, ImproveStats, KwayConfig, ParallelPolicy,
    Partitioner, Prop, PropConfig, Side,
};
use prop_flow::FlowConfig;
use prop_fm::FmBucket;
use prop_multilevel::{MlRefiner, Multilevel, MultilevelConfig};
use prop_netlist::{format, HgbFile, Hypergraph};
use std::path::Path;
use std::time::Instant;

/// The CLI's balance window.
const R1: f64 = 0.45;
const R2: f64 = 0.55;

/// Jobs traced per run: the first ones of the end-to-end run's job list.
const TRACED_JOBS: usize = 3;

/// Loads a circuit the way `prop partition` does, with one span for
/// opening the snapshot and one for materializing the graph (deep
/// validation plus the copy into an owned `Hypergraph`).
pub fn load(rec: &Recorder, path: &Path) -> Result<Hypergraph, String> {
    if path.extension().is_some_and(|e| e == "hgb") {
        let file = rec
            .span("netlist.hgb_open", || HgbFile::open(path))
            .map_err(|e| e.to_string())?;
        let view = rec
            .span("netlist.hgb_open", || file.view())
            .map_err(|e| e.to_string())?;
        return rec
            .span("netlist.materialize", || view.to_hypergraph())
            .map_err(|e| e.to_string());
    }
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    rec.span("netlist.hgr_parse", || format::parse_hgr(&text))
        .map_err(|e| e.to_string())
}

fn node_label(graph: &Hypergraph, v: prop_netlist::NodeId) -> String {
    graph
        .node_name(v)
        .map_or_else(|| v.to_string(), str::to_owned)
}

/// The `--assign` text the CLI writes for a bipartition.
pub fn render_sides(graph: &Hypergraph, p: &Bipartition) -> String {
    graph
        .nodes()
        .map(|v| {
            format!(
                "{} {}\n",
                node_label(graph, v),
                if p.side(v) == Side::A { 'A' } else { 'B' }
            )
        })
        .collect()
}

/// One in-process job's result, in the CLI's terms.
struct Done {
    cut: f64,
    connectivity: Option<f64>,
    passes: u64,
    assignment: String,
    /// The 2-way winner (for the flow replay).
    partition: Option<Bipartition>,
    /// Input partition and stats of the finest-level refinement call.
    finest: Vec<(Bipartition, ImproveStats)>,
}

/// The CLI's default V-cycle at `seed`, with a span around every V-cycle
/// and every refiner call; the refiner keeps its calls on graphs of
/// `capture_nodes` nodes.
fn timed_vcycle(
    seed: u64,
    rec: &Recorder,
    capture_nodes: Option<usize>,
) -> Timed<'_, Multilevel<Timed<'_, MlRefiner>>> {
    let cfg = MultilevelConfig {
        seed,
        ..MultilevelConfig::default()
    };
    let refiner =
        Timed::new(MlRefiner::new(&cfg), "multilevel.refine", rec).capturing(capture_nodes);
    Timed::new(
        Multilevel::with_config(refiner, cfg),
        "multilevel.vcycle",
        rec,
    )
}

fn run_engine(
    w: &CliWorkload,
    graph: &Hypergraph,
    seed: u64,
    rec: &Recorder,
) -> Result<Done, String> {
    let balance = BalanceConstraint::weighted(R1, R2, graph).map_err(|e| e.to_string())?;
    let two_way = |engine: &dyn Partitioner, runs: usize| {
        let r = rec
            .span("core.harness", || {
                engine.run_multi_parallel(graph, balance, runs, seed, ParallelPolicy::Sequential)
            })
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(Done {
            cut: r.cut_cost,
            connectivity: None,
            passes: r.total_passes as u64,
            assignment: render_sides(graph, &r.partition),
            partition: Some(r.partition),
            finest: Vec::new(),
        })
    };
    match w.name {
        "ml-golem3" => {
            let engine = timed_vcycle(seed, rec, Some(graph.num_nodes()));
            let mut done = two_way(&engine, 1)?;
            // The refiner inside the timed V-cycle kept the finest call.
            done.finest = engine.inner().inner().take_captured();
            Ok(done)
        }
        "prop-p2" => two_way(
            &Timed::new(Prop::new(PropConfig::calibrated()), "core.prop", rec),
            20,
        ),
        "kway8-golem3" => {
            let engine = timed_vcycle(seed, rec, None);
            let config = KwayConfig {
                k: 8,
                budgets: None,
                runs: 1,
                seed,
                r1: R1,
                r2: R2,
                policy: ParallelPolicy::Sequential,
            };
            let report = rec
                .span("core.harness", || partition_kway(graph, &engine, &config))
                .map_err(|e| e.to_string())?;
            let p = report.partition;
            Ok(Done {
                cut: p.cut_cost(graph),
                connectivity: Some(p.connectivity_cost(graph)),
                passes: report.total_passes as u64,
                assignment: graph
                    .nodes()
                    .map(|v| format!("{} {}\n", node_label(graph, v), p.block(v)))
                    .collect(),
                partition: None,
                finest: Vec::new(),
            })
        }
        other => Err(format!("no traced engine for {other}")),
    }
}

/// Runs the traced version of a CLI workload.
///
/// # Errors
///
/// Set-up failures; wrong answers go into `out`.
pub fn trace(
    ctx: &Ctx,
    w: &CliWorkload,
    rec: &Recorder,
    out: &mut Outcome,
    layers: &mut Layers,
) -> Result<(), String> {
    let seeds: Vec<u64> = (0..TRACED_JOBS.min(w.jobs) as u64)
        .map(|j| job_seed(ctx.seed, w.name, j))
        .collect();
    let (circuit, _, _) = cli_loop::setup(ctx, w, &ctx.dir, seeds[0])?;
    let mut first: Option<(Hypergraph, Done)> = None;
    for (j, &seed) in seeds.iter().enumerate() {
        out.attempted += 1;
        let cli = match cli_loop::run_job(
            ctx,
            w,
            &circuit,
            seed,
            &ctx.dir.join(format!("job{j}.assign")),
        ) {
            Ok(cli) => cli,
            Err(e) => {
                out.fail(format!("job {j} (seed {seed}): {e}"));
                continue;
            }
        };
        rec.set_job(j as u64);
        let root = rec.open("job");
        let traced = load(rec, &circuit).and_then(|g| run_engine(w, &g, seed, rec).map(|d| (g, d)));
        rec.close(root, &[]);
        let (graph, done) = traced?;
        let same = done.cut == cli.result.cut
            && done.connectivity == cli.result.connectivity
            && done.passes == cli.result.passes
            && fnv1a(done.assignment.as_bytes()) == cli.assign_hash;
        if !same {
            out.fail(format!(
                "job {j} (seed {seed}): traced cut={} connectivity={:?} passes={} differs from the CLI's {:?} or its assignment",
                done.cut, done.connectivity, done.passes, cli.result
            ));
        }
        // The CLI's own overhead: process start, output, the assignment file.
        let s = split(&rec.spans(), j as u64);
        layers.push(s, cli.finished.wall.as_secs_f64() * 1e3 - s.library_ms);
        if first.is_none() {
            first = Some((graph, done));
        }
    }
    let spans = rec.spans();
    let jobs = seeds.len();
    let per_job = |name: &str| total_ms(&spans, name) / jobs as f64;
    out.details.extend([
        metric(
            "netlist.hgb_open_ms",
            "ms",
            per_job("netlist.hgb_open"),
            jobs,
        ),
        metric(
            "netlist.materialize_ms",
            "ms",
            per_job("netlist.materialize"),
            jobs,
        ),
    ]);
    let Some((graph, done)) = first else {
        return Ok(());
    };
    match w.name {
        "ml-golem3" => ml_details(&spans, &graph, &done, out),
        "prop-p2" => prop_details(&spans, out),
        _ => kway_details(&spans, &graph, seeds[0], out),
    }
}

/// The V-cycle's phases, from the spans of its first job.
fn ml_details(
    spans: &[Span],
    graph: &Hypergraph,
    done: &Done,
    out: &mut Outcome,
) -> Result<(), String> {
    let job: Vec<Span> = spans.iter().filter(|s| s.job == 0).cloned().collect();
    let selfs = spans::self_ns(&job);
    let (vi, vcycle) = job
        .iter()
        .enumerate()
        .find(|(_, s)| s.name == "multilevel.vcycle")
        .ok_or("no V-cycle span")?;
    let calls: Vec<&Span> = job.iter().filter(|s| s.parent == Some(vi)).collect();
    let starts = MultilevelConfig::default()
        .coarsest_starts
        .max(1)
        .min(calls.len());
    let (initial, refine) = calls.split_at(starts);
    let ms = |ns: u64| ns as f64 / 1e6;
    let sum = |list: &[&Span]| list.iter().map(|s| ms(s.dur_ns())).sum::<f64>();
    out.details.extend([
        metric("multilevel.vcycle_ms", "ms", ms(vcycle.dur_ns()), 1),
        metric(
            "multilevel.coarsen_ms",
            "ms",
            calls
                .first()
                .map_or(f64::NAN, |c| ms(c.start_ns - vcycle.start_ns)),
            1,
        ),
        metric("multilevel.levels", "count", refine.len() as f64, 1),
        metric("multilevel.initial_ms", "ms", sum(initial), 1),
        metric("multilevel.initial_calls", "count", initial.len() as f64, 1),
        metric("multilevel.refine_ms", "ms", sum(refine), 1),
        metric("multilevel.refine_calls", "count", refine.len() as f64, 1),
        metric(
            "multilevel.refine_finest_ms",
            "ms",
            refine.last().map_or(f64::NAN, |s| ms(s.dur_ns())),
            1,
        ),
        metric("multilevel.rest_ms", "ms", ms(selfs[vi]), 1),
    ]);

    // Replay the finest level: FM to convergence, then the PROP polish.
    let balance = BalanceConstraint::weighted(R1, R2, graph).map_err(|e| e.to_string())?;
    let (input, stats) = done
        .finest
        .last()
        .ok_or("no finest-level refinement captured")?;
    let cfg = MultilevelConfig::default();
    let mut p = input.clone();
    let t = Instant::now();
    let fm = FmBucket::default().improve(graph, &mut p, balance);
    let fm_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let polish = Prop::new(PropConfig {
        max_passes: cfg.polish_passes.max(1),
        ..PropConfig::calibrated()
    })
    .improve(graph, &mut p, balance);
    let polish_ms = t.elapsed().as_secs_f64() * 1e3;
    let replay_ok = polish.cut_cost == stats.cut_cost && fm.passes + polish.passes == stats.passes;
    if !replay_ok {
        out.fail(format!(
            "finest-level replay gave cut {} passes {}, the traced call {stats:?}",
            polish.cut_cost,
            fm.passes + polish.passes
        ));
    }
    out.details.extend([
        metric("fm.finest_ms", "ms", fm_ms, 1),
        metric("fm.finest_passes", "count", fm.passes as f64, 1),
        metric("core.polish_ms", "ms", polish_ms, 1),
        metric("core.polish_passes", "count", polish.passes as f64, 1),
        metric("replay_ok", "bool", f64::from(u8::from(replay_ok)), 1),
    ]);

    // One flow refinement pass on the result, as a preview of flow-on.
    let mut p = done.partition.clone().ok_or("no 2-way result")?;
    let t = Instant::now();
    let flow = prop_flow::refine(
        graph,
        &mut p,
        balance,
        &FlowConfig {
            enabled: true,
            ..FlowConfig::default()
        },
    );
    out.details.extend([
        metric("flow.refine_ms", "ms", t.elapsed().as_secs_f64() * 1e3, 1),
        metric("flow.accepted", "count", flow.accepted as f64, 1),
        metric("flow.cut_delta", "count", flow.cut_cost - done.cut, 1),
    ]);
    Ok(())
}

fn prop_details(spans: &[Span], out: &mut Outcome) -> Result<(), String> {
    let runs: Vec<&Span> = spans.iter().filter(|s| s.name == "core.prop").collect();
    let ms: Vec<f64> = runs.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();
    let passes: f64 = runs.iter().map(|s| s.attr("passes").unwrap_or(0.0)).sum();
    out.details.extend([
        metric(
            "core.prop_run_ms",
            "ms",
            stats::median(&ms).unwrap_or(f64::NAN),
            ms.len(),
        ),
        metric(
            "core.prop_passes",
            "count",
            passes / runs.len().max(1) as f64,
            runs.len(),
        ),
        metric(
            "core.prop_ms_per_pass",
            "ms",
            ms.iter().sum::<f64>() / passes.max(1.0),
            runs.len(),
        ),
    ]);
    Ok(())
}

/// The k-way driver against its engine calls, and the V-cycle's
/// two-worker speed-up on the same circuit.
fn kway_details(
    spans: &[Span],
    graph: &Hypergraph,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let job: Vec<&Span> = spans.iter().filter(|s| s.job == 0).collect();
    let total = job
        .iter()
        .find(|s| s.name == "core.harness")
        .ok_or("no k-way span")?;
    let engines: Vec<&&Span> = job
        .iter()
        .filter(|s| s.name == "multilevel.vcycle")
        .collect();
    let ms = |ns: u64| ns as f64 / 1e6;
    let engine_sum: u64 = engines.iter().map(|s| s.dur_ns()).sum();
    let engine_wall = spans::union_ns(engines.iter().map(|s| (s.start_ns, s.end_ns)).collect());
    out.details.extend([
        metric("kway.total_ms", "ms", ms(total.dur_ns()), 1),
        metric("kway.engine_ms", "ms", ms(engine_sum), 1),
        metric("kway.engine_calls", "count", engines.len() as f64, 1),
        metric("kway.driver_ms", "ms", ms(total.dur_ns() - engine_wall), 1),
        metric(
            "kway.engine_ms_root",
            "ms",
            engines.first().map_or(f64::NAN, |s| ms(s.dur_ns())),
            1,
        ),
        metric(
            "kway.engine_overlap",
            "ratio",
            engine_sum as f64 / engine_wall.max(1) as f64,
            1,
        ),
    ]);

    // One 2-way synchronous V-cycle at one and at two intra workers:
    // bit-identical results, and the wall-time ratio.
    let balance = BalanceConstraint::weighted(R1, R2, graph).map_err(|e| e.to_string())?;
    let mut timed = Vec::new();
    for workers in [1, 2] {
        let cfg = MultilevelConfig {
            seed,
            intra: ParallelPolicy::Threads(workers),
            ..MultilevelConfig::default()
        };
        let t = Instant::now();
        let r = Multilevel::standard(cfg)
            .run_multi_parallel(graph, balance, 1, seed, ParallelPolicy::Sequential)
            .map_err(|e| e.to_string())?;
        timed.push((t.elapsed().as_secs_f64(), r));
    }
    if timed[0].1 != timed[1].1 {
        out.fail("the V-cycle differs between one and two intra workers");
    }
    out.details.push(metric(
        "multilevel.intra_speedup",
        "ratio",
        timed[0].0 / timed[1].0,
        1,
    ));
    Ok(())
}
