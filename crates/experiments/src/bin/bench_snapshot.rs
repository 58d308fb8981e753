//! Benchmark snapshot for the PROP engine and multi-start harness.
//!
//! Runs the best-of-20 protocol for PROP and FM-bucket on a fixed subset
//! of the Table-1 proxy circuits, once sequentially and once on every
//! available core, and writes the timings to `BENCH_prop.json` in the
//! current directory. Because the parallel harness is bit-identical to
//! the sequential one, the `best_cut` column doubles as a correctness
//! check: it must agree between the two thread settings of each
//! circuit/method pair, and every reported cut is recounted by the naive
//! oracle.
//!
//! Every row carries provenance: the machine's available parallelism, the
//! git revision of the working tree, and an optional free-form label.
//! Rows written by older versions of this binary are backfilled with
//! explicit defaults when a labelled run merges into an existing file, so
//! the schema stays uniform.
//!
//! Shared options: `--quick` (fewer runs), `--runs <n>`, `--threads <n>`
//! (override the "max" thread count; 0 = auto-detect). Snapshot-specific
//! options:
//!
//! * `--large` — add the ~100k-node `golem3` circuit to the suite
//!   (PROP-only at 1 and max threads; FM at the same settings).
//! * `--method <name>` — restrict to one engine (`PROP`, `FM-bucket`,
//!   `ML`, or `ML+flow`), e.g. to append a single method's rows under a
//!   new label without re-running the whole suite.
//! * `--label <s>` — tag the rows and *append* them to an existing
//!   `BENCH_prop.json` instead of overwriting it, so a trajectory of
//!   snapshots accumulates in one file.
//! * `--profile` — single-threaded per-phase timing: prints each PROP
//!   phase's share of runtime plus work counters, and the multilevel
//!   overlay phases when profiling `ML`. Requires the binary to be built
//!   with `--features prof`; rows are not written in this mode (the
//!   instrumentation itself skews the timings).
//! * `--compare <path>` — regression gate: instead of writing anything,
//!   compare against the single-thread rows of a committed snapshot and
//!   exit non-zero on a >2x `secs_per_run` regression or (at matching run
//!   counts) a changed `best_cut`.
//! * `--kway` — recursive k-way benchmark instead of bipartitioning:
//!   for each circuit run the k-way driver over the multilevel V-cycle at
//!   `k = 4` and `k = 8`, once sequentially and once with the machine's
//!   worker count fanning out subtrees and runs, emit `ML-k4`/`ML-k8` rows
//!   whose `best_cut` is the hyperedge cut, and fail unless each pair is
//!   bit-identical and the cut matches the independent k-way oracle.
//!   `--large` extends the set with golem3.
//! * `--io` — loader benchmark instead of partitioning: for each circuit,
//!   time hgr text parse+build against the `.hgb` snapshot load
//!   (`load_hgb`: mmap open + validation, after which the graph runs on
//!   the mapped image),
//!   emit `method: "load"` rows carrying `parse_ms`/`load_ms`, and fail
//!   unless the golem-tier circuits load at least 10x faster from the
//!   snapshot. `--large` extends the set with golem3 and golem4.

use prop_core::{BalanceConstraint, KwayConfig, ParallelPolicy, Partitioner};
use prop_engines::{EngineName, EngineSpec};
use prop_experiments::{git_rev, Options};
use prop_netlist::{format, hgb, suite};
use std::time::Instant;

/// The fixed circuits of the snapshot, smallest to largest.
const CIRCUITS: [&str; 3] = ["balu", "struct", "p2"];

/// The large-circuit extension behind `--large`.
const LARGE_CIRCUITS: [&str; 1] = ["golem3"];

/// The extra circuits the `--io --large` loader benchmark covers beyond
/// [`LARGE_CIRCUITS`] (partitioning golem4 at snapshot run counts is a
/// separate exercise; loading it is cheap).
const IO_LARGE_CIRCUITS: [&str; 1] = ["golem4"];

/// Minimum speedup of the mmap `.hgb` load over text parse+build that
/// `--io` requires on the golem-tier circuits (the point of the binary
/// format; small Table-1 circuits are too quick to time reliably).
const IO_SPEEDUP_FLOOR: f64 = 10.0;

/// Maximum tolerated single-thread `secs_per_run` ratio vs the committed
/// snapshot before `--compare` fails.
const REGRESSION_FACTOR: f64 = 2.0;

/// Builds a snapshot engine from the registry at the snapshot's seed 0.
fn iterative(spec: &EngineSpec) -> Box<dyn Partitioner> {
    spec.build(0, 0).iterative().expect("snapshot engines are iterative")
}

struct Record {
    circuit: String,
    method: String,
    runs: usize,
    threads: usize,
    best_cut: f64,
    secs_total: f64,
    /// Wall-clock milliseconds to load the circuit from its `.hgb`
    /// snapshot: mmap open + structural parse + deep validation, after
    /// which the zero-copy CSR view is fully queryable without a single
    /// allocation. `0` on partitioning rows, which receive the graph
    /// pre-built.
    load_ms: f64,
    /// Wall-clock milliseconds to parse+build the same circuit from hgr
    /// text. `0` on partitioning rows.
    parse_ms: f64,
}

impl Record {
    fn secs_per_run(&self) -> f64 {
        self.secs_total / self.runs.max(1) as f64
    }
}

/// Snapshot-specific flags layered on top of the shared [`Options`].
struct SnapshotOptions {
    label: Option<String>,
    profile: bool,
    large: bool,
    compare: Option<String>,
    method: Option<String>,
    io: bool,
    kway: bool,
}

fn snapshot_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: bench_snapshot [--quick] [--circuit <name>] [--runs <n>] [--threads <n>] \
         [--large] [--method <name>] [--label <s>] [--profile] [--compare <path>] [--io] [--kway]"
    );
    std::process::exit(2)
}

fn parse_snapshot_args() -> (Options, SnapshotOptions) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, leftover) =
        Options::parse_known(&args).unwrap_or_else(|message| snapshot_usage(&message));
    let mut extra = SnapshotOptions {
        label: None,
        profile: false,
        large: false,
        compare: None,
        method: None,
        io: false,
        kway: false,
    };
    let mut it = leftover.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--label" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| snapshot_usage("--label requires a value: --label <s>"));
                extra.label = Some(v.clone());
            }
            "--profile" => extra.profile = true,
            "--large" => extra.large = true,
            "--io" => extra.io = true,
            "--kway" => extra.kway = true,
            "--compare" => {
                let v = it.next().unwrap_or_else(|| {
                    snapshot_usage("--compare requires a value: --compare <path>")
                });
                extra.compare = Some(v.clone());
            }
            "--method" => {
                let v = it.next().unwrap_or_else(|| {
                    snapshot_usage("--method requires a value: --method <name>")
                });
                extra.method = Some(v.clone());
            }
            other => snapshot_usage(&format!("unknown argument {other:?}")),
        }
    }
    (opts, extra)
}

/// The row's thread count as a harness policy: `Sequential` at one.
fn policy(threads: usize) -> ParallelPolicy {
    if threads <= 1 {
        ParallelPolicy::Sequential
    } else {
        ParallelPolicy::Threads(threads)
    }
}

fn measure(
    circuit: &str,
    method: &str,
    partitioner: &dyn Partitioner,
    graph: &prop_netlist::Hypergraph,
    balance: BalanceConstraint,
    runs: usize,
    threads: usize,
) -> Record {
    let start = Instant::now();
    let result = partitioner
        .run_multi_parallel(graph, balance, runs, 0, policy(threads))
        .expect("non-empty graph and runs >= 1");
    let secs_total = start.elapsed().as_secs_f64();
    // Oracle cross-check (outside the timed region): the reported best cut
    // must equal a naive from-scratch recount of the winning partition.
    let recount = prop_verify::oracle::naive_cut(graph, &result.partition);
    assert_eq!(
        result.cut_cost, recount,
        "{circuit}/{method}: reported cut diverged from the oracle recount"
    );
    Record {
        circuit: circuit.to_string(),
        method: method.to_string(),
        runs,
        threads,
        best_cut: result.cut_cost,
        secs_total,
        load_ms: 0.0,
        parse_ms: 0.0,
    }
}

fn render_rows(records: &[Record], threads_avail: usize, rev: &str, label: &str) -> Vec<String> {
    records
        .iter()
        .map(|r| {
            format!(
                "  {{\"circuit\": \"{}\", \"method\": \"{}\", \"runs\": {}, \"threads\": {}, \
                 \"best_cut\": {}, \"secs_total\": {:.6}, \
                 \"secs_per_run\": {:.6}, \"load_ms\": {:.3}, \"parse_ms\": {:.3}, \
                 \"threads_avail\": {}, \"git_rev\": \"{}\", \"label\": \"{}\"}}",
                r.circuit,
                r.method,
                r.runs,
                r.threads,
                r.best_cut,
                r.secs_total,
                r.secs_per_run(),
                r.load_ms,
                r.parse_ms,
                threads_avail,
                rev,
                label
            )
        })
        .collect()
}

/// The identity of a snapshot row for append-mode deduplication.
fn row_key(line: &str) -> Option<(String, String, String, String)> {
    Some((
        field(line, "label")?.to_string(),
        field(line, "circuit")?.to_string(),
        field(line, "method")?.to_string(),
        field(line, "threads")?.to_string(),
    ))
}

/// Backfills provenance fields that predate them: rows written before
/// `threads_avail`/`git_rev`/`label`/`load_ms`/`parse_ms` existed get explicit
/// defaults, so every row of a merged snapshot carries the full schema
/// (`threads_avail: 0` / `git_rev: "unknown"` mark the provenance as
/// genuinely unrecorded, not as measured-on-this-machine).
fn normalize_row(line: &str) -> String {
    let mut row = line.trim_end().trim_end_matches(',').trim_end().to_string();
    for (key, default) in [
        ("load_ms", "0"),
        ("parse_ms", "0"),
        ("threads_avail", "0"),
        ("git_rev", "\"unknown\""),
        ("label", "\"\""),
    ] {
        if field(&row, key).is_none() && row.ends_with('}') {
            row.truncate(row.len() - 1);
            row.push_str(&format!(", \"{key}\": {default}}}"));
        }
    }
    row
}

/// Merges new rows into an existing snapshot body: any old row with the
/// same (label, circuit, method, threads) key as a new row
/// is dropped, so re-running a labelled snapshot updates its trajectory
/// point in place instead of accumulating duplicates. Rows from other
/// labels are kept, normalized to the full field schema.
fn merge_rows(existing: &str, rows: &[String]) -> Vec<String> {
    let new_keys: Vec<_> = rows.iter().filter_map(|r| row_key(r)).collect();
    let mut merged: Vec<String> = existing
        .lines()
        .filter(|line| line.contains("\"circuit\""))
        .map(normalize_row)
        .filter(|line| row_key(line).is_none_or(|key| !new_keys.contains(&key)))
        .collect();
    merged.extend(rows.iter().cloned());
    merged
}

/// Writes the snapshot: fresh file by default, merged into an existing
/// JSON array (deduplicating by row key) when a label marks the rows as
/// a trajectory point.
fn write_snapshot(path: &str, rows: &[String], append: bool) {
    let all = if append {
        match std::fs::read_to_string(path) {
            Ok(existing) => merge_rows(&existing, rows),
            Err(_) => rows.to_vec(),
        }
    } else {
        rows.to_vec()
    };
    let body = format!("[\n{}\n]\n", all.join(",\n"));
    std::fs::write(path, body).expect("write benchmark snapshot");
}

/// A baseline row parsed back out of a committed `BENCH_prop.json`.
struct BaselineRow {
    circuit: String,
    method: String,
    runs: usize,
    threads: usize,
    best_cut: f64,
    secs_per_run: f64,
}

/// Extracts `"key": value` from one rendered row. The file is this
/// binary's own output format, so a line-based scan suffices — no JSON
/// parser dependency.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

fn parse_baseline(path: &str) -> Vec<BaselineRow> {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| snapshot_usage(&format!("cannot read {path:?}: {e}")));
    body.lines()
        .filter(|line| line.contains("\"circuit\""))
        .filter_map(|line| {
            Some(BaselineRow {
                circuit: field(line, "circuit")?.to_string(),
                method: field(line, "method")?.to_string(),
                runs: field(line, "runs")?.parse().ok()?,
                threads: field(line, "threads")?.parse().ok()?,
                best_cut: field(line, "best_cut")?.parse().ok()?,
                secs_per_run: field(line, "secs_per_run")?.parse().ok()?,
            })
        })
        .collect()
}

/// The `--compare` gate: single-thread rows against the committed
/// baseline. Returns the number of violations (printed as they are found).
fn compare_against(baseline: &[BaselineRow], records: &[Record]) -> usize {
    let mut violations = 0;
    // Loader rows have no baseline semantics (no cut, machine-bound
    // timings); the speedup floor inside `--io` is their gate.
    for r in records.iter().filter(|r| r.threads == 1 && r.method != "load") {
        // The latest matching baseline row wins (an appended trajectory
        // lists newest rows last).
        let Some(base) = baseline
            .iter()
            .rev()
            .find(|b| b.circuit == r.circuit && b.method == r.method && b.threads == 1)
        else {
            println!("  {}/{}: no baseline row, skipping", r.circuit, r.method);
            continue;
        };
        let ratio = r.secs_per_run() / base.secs_per_run.max(1e-12);
        if ratio > REGRESSION_FACTOR {
            println!(
                "  FAIL {}/{}: {:.4}s per run vs baseline {:.4}s ({ratio:.2}x > {REGRESSION_FACTOR}x)",
                r.circuit,
                r.method,
                r.secs_per_run(),
                base.secs_per_run
            );
            violations += 1;
        } else if base.runs == r.runs && base.best_cut != r.best_cut {
            println!(
                "  FAIL {}/{}: best_cut {} vs baseline {} at identical run count {}",
                r.circuit, r.method, r.best_cut, base.best_cut, r.runs
            );
            violations += 1;
        } else {
            println!(
                "  ok   {}/{}: {:.4}s per run ({ratio:.2}x of baseline), cut {}",
                r.circuit,
                r.method,
                r.secs_per_run(),
                r.best_cut
            );
        }
    }
    violations
}

/// `--profile` mode: single-threaded runs per circuit, phase breakdown
/// from the thread-local counters. Profiles PROP by default; with
/// `--method ML` profiles the multilevel engine instead, adding the
/// V-cycle overlay phases (coarsen/initial/project/refine, level count).
fn profile(circuits: &[&str], runs: usize, method: &str, partitioner: &dyn Partitioner) {
    if !prop_core::prof::enabled() {
        snapshot_usage(
            "--profile needs the instrumented build: \
             cargo run --release -p prop-experiments --features prof --bin bench_snapshot",
        );
    }
    for name in circuits {
        let spec = suite::by_name(name).expect("snapshot circuit");
        let graph = spec.instantiate().expect("valid spec");
        let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes()).expect("valid ratios");
        prop_core::prof::reset();
        let rec = measure(name, method, partitioner, &graph, balance, runs, 1);
        let s = prop_core::prof::snapshot();
        let total = s.total_ns().max(1) as f64;
        let pct = |ns: u64| 100.0 * ns as f64 / total;
        println!(
            "{name}: cut={} {:.3}s total ({} runs)",
            rec.best_cut, rec.secs_total, rec.runs
        );
        if s.ml_total_ns() > 0 {
            let ml_total = s.ml_total_ns().max(1) as f64;
            let ml_pct = |ns: u64| 100.0 * ns as f64 / ml_total;
            println!(
                "  ml: coarsen {:6.2}%  initial {:6.2}%  project {:6.2}%  refine {:6.2}%  \
                 ({} levels, {:.3}s instrumented)",
                ml_pct(s.ml_coarsen_ns),
                ml_pct(s.ml_initial_ns),
                ml_pct(s.ml_project_ns),
                ml_pct(s.ml_refine_ns),
                s.ml_levels,
                ml_total / 1e9
            );
        }
        println!(
            "  seed {:6.2}%  refine {:6.2}%  select {:6.2}%  apply {:6.2}%  refresh {:6.2}%",
            pct(s.seed_ns),
            pct(s.refine_ns),
            pct(s.select_ns),
            pct(s.apply_ns),
            pct(s.refresh_ns)
        );
        let counters: Vec<String> =
            s.fields().iter().map(|(name, value)| format!("{name} {value}")).collect();
        println!(
            "  {}  ({:.1} net / {:.1} gain per move)",
            counters.join("  "),
            s.net_recomputes as f64 / s.moves.max(1) as f64,
            s.gain_recomputes as f64 / s.moves.max(1) as f64
        );
    }
}

/// `--io` mode: the loader benchmark. Each circuit is rendered to hgr
/// text and written as a `.hgb` snapshot in a scratch dir; the row then
/// times text parse+build against `load_hgb` (open + deep validation,
/// the whole load of a `.hgb` job) on identical content — the two graphs
/// are asserted equal before either timing is trusted. Golem-tier circuits
/// must clear [`IO_SPEEDUP_FLOOR`].
fn run_io(circuits: &[&str], threads_avail: usize, label: Option<&str>) {
    let dir = std::env::temp_dir().join(format!("prop-bench-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut records = Vec::new();
    let mut violations = 0usize;
    for name in circuits {
        let spec = suite::by_name(name).expect("snapshot circuit");
        let graph = spec.instantiate().expect("valid spec");
        let text = format::write_hgr(&graph);
        let path = dir.join(format!("{name}.hgb"));
        hgb::write_hgb_file(&graph, &path).expect("write snapshot");

        // Best of three for each side: a single-core box under load can
        // stretch any one measurement severalfold, and the floor below is
        // a property of the code, not of scheduler noise.
        let mut parse_ms = f64::INFINITY;
        let mut parsed = None;
        for _ in 0..3 {
            let start = Instant::now();
            let graph = format::parse_hgr(&text).expect("hgr reparse");
            parse_ms = parse_ms.min(start.elapsed().as_secs_f64() * 1e3);
            parsed = Some(graph);
        }
        let parsed = parsed.expect("three parses ran");

        // The snapshot load, as every `.hgb` job pays it: `load_hgb` end
        // to end (open, structural parse, deep validation), after which
        // the graph runs on the file's image in place.
        let mut load_ms = f64::INFINITY;
        let mut loaded = None;
        for _ in 0..3 {
            let start = Instant::now();
            let load = hgb::load_hgb(&path).expect("load snapshot");
            load_ms = load_ms.min(start.elapsed().as_secs_f64() * 1e3);
            loaded = Some(load);
        }
        let (loaded, report) = loaded.expect("three loads ran");

        // Untimed correctness anchor: the two paths give the same graph.
        assert_eq!(parsed, loaded, "{name}: text and .hgb load differently");
        let speedup = parse_ms / load_ms.max(1e-6);
        println!(
            "  {name}: parse {parse_ms:.1}ms, {} load {load_ms:.1}ms ({speedup:.1}x, {} bytes)",
            report.mode, report.bytes
        );
        if name.starts_with("golem") && speedup < IO_SPEEDUP_FLOOR {
            eprintln!("  FAIL {name}: {speedup:.1}x < required {IO_SPEEDUP_FLOOR}x");
            violations += 1;
        }
        records.push(Record {
            circuit: name.to_string(),
            method: "load".to_string(),
            runs: 1,
            threads: 1,
            best_cut: 0.0,
            secs_total: (parse_ms + load_ms) / 1e3,
            load_ms,
            parse_ms,
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
    let rows = render_rows(&records, threads_avail, &git_rev(), label.unwrap_or(""));
    write_snapshot("BENCH_prop.json", &rows, label.is_some());
    println!("wrote BENCH_prop.json ({} loader records)", rows.len());
    if violations > 0 {
        eprintln!("{violations} loader speedup violation(s)");
        std::process::exit(1);
    }
}

/// `--kway` mode: the recursive k-way benchmark. For each circuit the
/// multilevel V-cycle drives the recursive bisection at `k` = 4 and 8,
/// once with [`ParallelPolicy::Sequential`] and once with `max` workers
/// fanning out the sibling subtrees and each bisection's runs. Each pair
/// must be bit-identical (same assignment hash, so same cut,
/// connectivity, and part weights), and every reported cut is recounted
/// by the independent k-way oracle before the row is trusted.
fn run_kway(circuits: &[&str], runs: usize, max_threads: usize, threads_avail: usize,
            label: Option<&str>) {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let engine = iterative(&EngineSpec::new(EngineName::Ml));
    let mut records = Vec::new();
    for name in circuits {
        let spec = suite::by_name(name).expect("snapshot circuit");
        let graph = spec.instantiate().expect("valid spec");
        for k in [4usize, 8] {
            let mut pair_hashes = Vec::new();
            // Even on a single-core box the second row runs two workers:
            // the pair is a determinism check, not a speedup claim.
            for threads in [1, max_threads.max(2)] {
                let config = KwayConfig {
                    runs,
                    policy: policy(threads),
                    ..KwayConfig::new(k)
                };
                let start = Instant::now();
                let report = prop_core::partition_kway(&graph, engine.as_ref(), &config)
                    .expect("k-way succeeds");
                let secs_total = start.elapsed().as_secs_f64();
                let cut = report.partition.cut_cost(&graph);
                let recount =
                    prop_verify::kway::kway_cut(&graph, report.partition.assignment(), k as u32);
                assert_eq!(
                    cut, recount,
                    "{name}/ML-k{k}: reported cut diverged from the k-way oracle"
                );
                let mut h = DefaultHasher::new();
                report.partition.assignment().hash(&mut h);
                pair_hashes.push(h.finish());
                eprintln!(
                    "  {name} ML-k{k} runs={runs} threads={threads}: cut={cut} \
                     lambda={} {secs_total:.3}s",
                    report.partition.connectivity_cost(&graph)
                );
                records.push(Record {
                    circuit: name.to_string(),
                    method: format!("ML-k{k}"),
                    runs,
                    threads,
                    best_cut: cut,
                    secs_total,
                    load_ms: 0.0,
                    parse_ms: 0.0,
                });
            }
            assert!(
                pair_hashes.windows(2).all(|w| w[0] == w[1]),
                "{name}/ML-k{k}: assignment differs between sequential and parallel runs"
            );
        }
    }
    let rows = render_rows(&records, threads_avail, &git_rev(), label.unwrap_or(""));
    write_snapshot("BENCH_prop.json", &rows, label.is_some());
    println!("wrote BENCH_prop.json ({} k-way records)", rows.len());
}

fn main() {
    let (opts, extra) = parse_snapshot_args();
    let runs = opts.scaled_runs(20);
    let threads_avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_threads = match opts.threads {
        Some(n) if n >= 1 => n,
        _ => threads_avail,
    };
    let mut circuits: Vec<&str> = CIRCUITS.to_vec();
    if extra.large {
        circuits.extend(LARGE_CIRCUITS);
    }
    if extra.large && extra.io {
        circuits.extend(IO_LARGE_CIRCUITS);
    }
    if let Some(only) = &opts.circuit {
        circuits.retain(|c| c == only);
        if circuits.is_empty() {
            snapshot_usage(&format!(
                "--circuit {only:?} is not part of the snapshot suite ({}; --large adds {})",
                CIRCUITS.join(", "),
                LARGE_CIRCUITS.join(", ")
            ));
        }
    }

    if extra.io {
        run_io(&circuits, threads_avail, extra.label.as_deref());
        return;
    }

    if extra.kway {
        run_kway(
            &circuits,
            opts.scaled_runs(5),
            max_threads,
            threads_avail,
            extra.label.as_deref(),
        );
        return;
    }

    // The `method` labels are the BENCH_prop.json row keys.
    let mut ml_flow = EngineSpec::new(EngineName::Ml);
    ml_flow.ml.flow.enabled = true;
    let mut engines: Vec<(&str, Box<dyn Partitioner>)> = [
        ("PROP", EngineSpec::new(EngineName::Prop)),
        ("FM-bucket", EngineSpec::new(EngineName::Fm)),
        ("ML", EngineSpec::new(EngineName::Ml)),
        ("ML+flow", ml_flow),
    ]
    .iter()
    .map(|(label, spec)| (*label, iterative(spec)))
    .collect();
    if let Some(only) = &extra.method {
        engines.retain(|(name, _)| name == only);
        if engines.is_empty() {
            snapshot_usage(&format!(
                "--method {only:?} is not a snapshot engine (PROP, FM-bucket, ML, ML+flow)"
            ));
        }
    }

    if extra.profile {
        let (method, partitioner) = &engines[0];
        profile(&circuits, runs, method, partitioner.as_ref());
        return;
    }

    let mut records = Vec::new();
    for name in &circuits {
        let spec = suite::by_name(name).expect("fixed snapshot circuit");
        let graph = spec.instantiate().expect("valid Table-1 spec");
        let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes()).expect("valid ratios");
        for (method, partitioner) in &engines {
            for threads in [1, max_threads] {
                let rec =
                    measure(name, method, partitioner.as_ref(), &graph, balance, runs, threads);
                eprintln!(
                    "  {} {} runs={} threads={}: cut={} {:.3}s",
                    rec.circuit, rec.method, rec.runs, rec.threads, rec.best_cut, rec.secs_total
                );
                records.push(rec);
            }
        }
    }

    // Cross-check determinism and report the headline speedup. Records
    // arrive in (threads=1, threads=max) pairs per engine, and each pair
    // must agree on the cut because run fan-out is bit-identical.
    for pair in records.chunks(2) {
        let [seq, par] = pair else { continue };
        assert_eq!(
            seq.best_cut, par.best_cut,
            "parallel harness diverged on {}/{}",
            seq.circuit, seq.method
        );
    }
    if max_threads > 1 {
        if let Some(seq) = records
            .iter()
            .rev()
            .find(|r| r.method == "PROP" && r.threads == 1)
        {
            if let Some(par) = records
                .iter()
                .rev()
                .find(|r| r.circuit == seq.circuit && r.method == "PROP" && r.threads == max_threads)
            {
                println!(
                    "PROP on {} with {} threads: {:.2}x speedup",
                    seq.circuit,
                    max_threads,
                    seq.secs_total / par.secs_total.max(1e-12)
                );
            }
        }
    }

    if let Some(path) = &extra.compare {
        println!("comparing against {path} (single-thread rows):");
        let violations = compare_against(&parse_baseline(path), &records);
        if violations > 0 {
            eprintln!("{violations} benchmark regression(s) vs {path}");
            std::process::exit(1);
        }
        return;
    }

    let path = "BENCH_prop.json";
    let rows = render_rows(
        &records,
        threads_avail,
        &git_rev(),
        extra.label.as_deref().unwrap_or(""),
    );
    write_snapshot(path, &rows, extra.label.is_some());
    println!("wrote {path} ({} new records)", rows.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str, circuit: &str, method: &str, threads: usize, cut: f64) -> String {
        let rendered = render_rows(
            &[Record {
                circuit: circuit.to_string(),
                method: method.to_string(),
                runs: 4,
                threads,
                best_cut: cut,
                secs_total: 1.0,
                load_ms: 0.0,
                parse_ms: 0.0,
            }],
            8,
            "deadbeef",
            label,
        );
        rendered.into_iter().next().unwrap()
    }

    #[test]
    fn field_extracts_values_from_rendered_rows() {
        let line = row("v1", "balu", "PROP", 1, 27.0);
        assert_eq!(field(&line, "circuit"), Some("balu"));
        assert_eq!(field(&line, "method"), Some("PROP"));
        assert_eq!(field(&line, "threads"), Some("1"));
        assert_eq!(field(&line, "label"), Some("v1"));
        assert_eq!(field(&line, "missing"), None);
    }

    #[test]
    fn merge_replaces_rows_with_the_same_key() {
        let old = format!("[\n{},\n{}\n]\n", row("v1", "balu", "PROP", 1, 27.0),
            row("v1", "p2", "PROP", 1, 150.0));
        // Re-running the v1/balu/PROP/1 point must replace the stale row,
        // not duplicate it; the untouched p2 row survives.
        let fresh = vec![row("v1", "balu", "PROP", 1, 25.0)];
        let merged = merge_rows(&old, &fresh);
        assert_eq!(merged.len(), 2);
        assert!(merged[0].contains("\"circuit\": \"p2\""));
        assert!(merged[1].contains("\"best_cut\": 25"));
        let dupes = merged
            .iter()
            .filter(|l| l.contains("\"circuit\": \"balu\""))
            .count();
        assert_eq!(dupes, 1);
    }

    #[test]
    fn merge_keys_distinguish_label_method_and_threads() {
        let old = format!(
            "[\n{},\n{},\n{}\n]\n",
            row("v1", "balu", "PROP", 1, 27.0),
            row("v2", "balu", "PROP", 1, 27.0),
            row("v1", "balu", "FM-bucket", 1, 30.0),
        );
        let fresh = vec![row("v1", "balu", "PROP", 8, 27.0)];
        // Different threads: nothing replaced, row appended.
        let merged = merge_rows(&old, &fresh);
        assert_eq!(merged.len(), 4);
        // Same key but different label: only the v1 row is replaced.
        let merged = merge_rows(&old, &[row("v1", "balu", "PROP", 1, 20.0)]);
        assert_eq!(merged.len(), 3);
        assert!(merged.iter().any(|l| l.contains("\"label\": \"v2\"")));
        assert!(merged.iter().any(|l| l.contains("\"best_cut\": 20")));
    }

    #[test]
    fn merge_backfills_legacy_rows_with_provenance_defaults() {
        // A row from before the provenance fields existed.
        let legacy = "  {\"circuit\": \"balu\", \"method\": \"PROP\", \"runs\": 20, \
                      \"threads\": 1, \"best_cut\": 18, \"secs_total\": 0.3, \
                      \"secs_per_run\": 0.015},";
        let merged = merge_rows(legacy, &[row("v1", "p2", "PROP", 1, 150.0)]);
        assert_eq!(merged.len(), 2);
        assert_eq!(field(&merged[0], "load_ms"), Some("0"));
        assert_eq!(field(&merged[0], "parse_ms"), Some("0"));
        assert_eq!(field(&merged[0], "threads_avail"), Some("0"));
        assert_eq!(field(&merged[0], "git_rev"), Some("unknown"));
        assert_eq!(field(&merged[0], "label"), Some(""));
        // The backfill is idempotent: normalizing a full-schema row is a
        // no-op.
        assert_eq!(normalize_row(&merged[0]), merged[0]);
        // And a legacy row now participates in keyed deduplication.
        let merged = merge_rows(legacy, &[row("", "balu", "PROP", 1, 17.0)]);
        assert_eq!(merged.len(), 1);
        assert_eq!(field(&merged[0], "best_cut"), Some("17"));
    }

    #[test]
    fn merge_tolerates_garbage_and_preserves_bracketless_lines() {
        let old = "[\nnot a row\n]\n";
        let merged = merge_rows(old, &[row("v1", "balu", "PROP", 1, 1.0)]);
        // Non-row lines are dropped (they never contained records), and
        // the new rows always land.
        assert_eq!(merged.len(), 1);
    }
}
