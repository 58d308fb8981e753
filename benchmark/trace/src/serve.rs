//! Traced serve-mix: the benchmark's seeded schedule against a daemon,
//! then every key it sent once more in-process with spans, checked
//! against the daemon's answers.

use crate::cli::load;
use crate::timed::{split, Layers, Split, Timed};
use prop_benchmark::parse;
use prop_benchmark::report::{metric, Outcome};
use prop_benchmark::schedule::{fnv1a, poisson};
use prop_benchmark::serve_mix::{self, is_inline, Served, FM_KEYS, FM_SHARE, PROP_KEYS, RATE};
use prop_benchmark::spans::Recorder;
use prop_benchmark::stats;
use prop_benchmark::workload::Ctx;
use prop_core::{
    BalanceConstraint, Bipartition, ParallelPolicy, Partitioner, Prop, PropConfig, RunResult, Side,
};
use prop_fm::FmBucket;
use prop_netlist::{format, Hypergraph};
use std::collections::{BTreeMap, BTreeSet};

/// In-process repetitions per key; the key's library time is the median.
const REPS: usize = 3;

/// The daemon's assignment hash: FNV-1a 64 over one byte per node (0 for
/// side A, 1 for side B), printed as 16 hex digits (DESIGN.md §11).
pub fn assignment_hash(p: &Bipartition) -> String {
    let bytes: Vec<u8> = p.sides().iter().map(|&s| u8::from(s == Side::B)).collect();
    format!("{:016x}", fnv1a(&bytes))
}

fn run_key(
    rec: &Recorder,
    key: usize,
    seed: u64,
    p2: &Hypergraph,
    balu_text: &str,
) -> Result<RunResult, String> {
    // A stored circuit is a cache hit in the daemon: no netlist work.
    let parsed;
    let graph = if is_inline(key) {
        parsed = rec
            .span("netlist.hgr_parse", || format::parse_hgr(balu_text))
            .map_err(|e| e.to_string())?;
        &parsed
    } else {
        p2
    };
    let balance = BalanceConstraint::weighted(0.45, 0.55, graph).map_err(|e| e.to_string())?;
    let engine: Box<dyn Partitioner + '_> = if is_inline(key) {
        Box::new(Timed::new(
            Prop::new(PropConfig::calibrated()),
            "core.prop",
            rec,
        ))
    } else {
        Box::new(Timed::new(FmBucket::default(), "fm.bucket", rec))
    };
    let runs = if is_inline(key) { 2 } else { 1 };
    rec.span("core.harness", || {
        engine.run_multi_parallel(graph, balance, runs, seed, ParallelPolicy::Sequential)
    })
    .map_err(|e| e.to_string())
}

/// Runs the traced serve-mix.
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
    let seeds = serve_mix::key_seeds(ctx.seed);
    let Served {
        daemon,
        p2,
        balu,
        lines,
    } = serve_mix::start(ctx, &ctx.dir, &seeds)?;
    let schedule = poisson(ctx.seed, RATE, ctx.seconds, FM_SHARE, FM_KEYS, PROP_KEYS);
    let replies = serve_mix::play(&daemon.addr, &lines, &schedule, ctx.seconds, || {});
    let stats_reply = daemon.conn().and_then(|mut c| c.request("stats"));
    daemon.stop().map_err(|e| e.to_string())?;

    let p2_graph = load(&Recorder::default(), &p2)?;
    let balu_text = std::fs::read_to_string(&balu).map_err(|e| e.to_string())?;
    let used: BTreeSet<usize> = replies.iter().map(|r| r.key).collect();
    let mut library: BTreeMap<usize, (Split, f64, String)> = BTreeMap::new();
    for &key in &used {
        let mut splits = Vec::new();
        let mut result = None;
        for rep in 0..REPS {
            let job = (key * REPS + rep) as u64;
            rec.set_job(job);
            let root = rec.open("job");
            let r = run_key(rec, key, seeds[key], &p2_graph, &balu_text);
            rec.close(root, &[]);
            result = Some(r?);
            splits.push(split(&rec.spans(), job));
        }
        splits.sort_by(|a, b| a.library_ms.total_cmp(&b.library_ms));
        let r = result.expect("REPS > 0");
        library.insert(
            key,
            (splits[REPS / 2], r.cut_cost, assignment_hash(&r.partition)),
        );
    }

    let mut views = Vec::new();
    let mut overhead = Vec::new();
    for r in &replies {
        out.attempted += 1;
        let view = match r.response.clone().and_then(|v| parse::job_view(&v)) {
            Ok(view) => view,
            Err(e) => {
                out.fail(format!("arrival {} key {}: {e}", r.index, r.key));
                views.push(None);
                continue;
            }
        };
        let (s, cut, hash) = &library[&r.key];
        if view.cut != *cut || view.assignment_hash != *hash {
            out.fail(format!(
                "key {}: daemon cut {} hash {} but in-process cut {cut} hash {hash}",
                r.key, view.cut, view.assignment_hash
            ));
        }
        layers.push(*s, r.from_send_ms - s.library_ms);
        overhead.push(r.from_send_ms - view.wall_ms.unwrap_or(f64::NAN));
        views.push(Some(view));
    }

    let spans = rec.spans();
    let parse_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "netlist.hgr_parse")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    out.details.extend([
        metric(
            "netlist.hgr_parse_ms",
            "ms",
            stats::median(&parse_ms).unwrap_or(f64::NAN),
            parse_ms.len(),
        ),
        metric(
            "serve.overhead_ms_p50",
            "ms",
            stats::median(&overhead).unwrap_or(f64::NAN),
            overhead.len(),
        ),
    ]);
    out.details
        .extend(serve_mix::tail("serve.overhead_ms", &overhead));
    let stats_json = stats_reply.map_err(|e| format!("stats: {e}"))?;
    out.details
        .extend(serve_mix::daemon_details(&replies, &views, &stats_json));
    Ok(())
}
