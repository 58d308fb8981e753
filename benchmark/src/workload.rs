//! The five workloads: their inputs, set-up and the numbers they report.
//!
//! Why each workload exists, and which layers it stresses, is written up
//! in `benchmark/README.md`.

use crate::report::Outcome;
use crate::stats;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Workload names, in the order a full run measures them.
pub const WORKLOADS: [&str; 5] = [
    "ml-golem3",
    "prop-p2",
    "kway8-golem3",
    "serve-mix",
    "cluster-sweep",
];

/// Everything a workload run needs.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// The release `prop` binary under test.
    pub prop: PathBuf,
    /// Scratch directory of this run (removed afterwards).
    pub dir: PathBuf,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
}

/// A generated circuit: the node/net/pin counts of one suite circuit.
#[derive(Clone, Copy, Debug)]
pub struct Circuit {
    /// File name; the extension picks the format.
    pub file: &'static str,
    /// Nodes.
    pub nodes: usize,
    /// Nets.
    pub nets: usize,
    /// Pins.
    pub pins: usize,
}

/// The ~100k-node golem3 proxy's sizes, as a mmap-loaded snapshot.
pub const GOLEM3: Circuit = Circuit {
    file: "golem3.hgb",
    nodes: 103_048,
    nets: 108_292,
    pins: 400_680,
};
/// The p2 proxy's sizes (Table 1), as a snapshot.
pub const P2: Circuit = Circuit {
    file: "p2.hgb",
    nodes: 3014,
    nets: 3029,
    pins: 11_219,
};
/// The balu proxy's sizes (Table 1), as hMETIS text for inline jobs.
pub const BALU: Circuit = Circuit {
    file: "balu.hgr",
    nodes: 801,
    nets: 735,
    pins: 2697,
};

/// Generator seed of every circuit. It is fixed, not taken from the
/// workload seed: cuts differ by up to ±12% between generated p2
/// instances, far more than any bound a quality gate can use, while the
/// same circuit under different job seeds varies by about 1%. The
/// workload seed varies the job seeds, key mix and arrival schedule.
pub const CIRCUIT_SEED: u64 = 1;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Writes `circuit` into `dir` with `prop generate`.
///
/// # Errors
///
/// Fails when the generator fails.
pub fn generate(ctx: &Ctx, dir: &Path, circuit: &Circuit) -> Result<PathBuf, String> {
    let path = dir.join(circuit.file);
    let done = crate::sys::run(
        Command::new(&ctx.prop)
            .arg("generate")
            .args(["--nodes", &circuit.nodes.to_string()])
            .args(["--nets", &circuit.nets.to_string()])
            .args(["--pins", &circuit.pins.to_string()])
            .args(["--seed", &CIRCUIT_SEED.to_string()])
            .arg("--out")
            .arg(&path),
    )
    .map_err(|e| format!("prop generate: {e}"))?;
    if done.code != Some(0) {
        return Err(format!(
            "prop generate {} exited with {:?}",
            circuit.file, done.code
        ));
    }
    Ok(path)
}

/// Runs the set-up `SETUP_REPS` times, each in a fresh directory, and
/// returns the last state with the median set-up time in seconds.
/// Earlier states are torn down untimed.
///
/// # Errors
///
/// The first set-up or tear-down error.
pub fn repeated_setup<S>(
    ctx: &Ctx,
    mut setup: impl FnMut(&Path) -> Result<S, String>,
    mut teardown: impl FnMut(S) -> Result<(), String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::new();
    let mut state = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = state.take() {
            teardown(old)?;
        }
        let dir = ctx.dir.join(format!("setup{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let start = Instant::now();
        state = Some(setup(&dir)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one set-up");
    Ok((state.expect("at least one set-up"), median))
}

/// A closed-loop workload of `prop partition` jobs.
#[derive(Clone, Copy, Debug)]
pub struct CliWorkload {
    /// Workload name.
    pub name: &'static str,
    /// The circuit every job partitions.
    pub circuit: Circuit,
    /// `prop partition` arguments besides the file, seed and assignment.
    pub args: &'static [&'static str],
    /// Distinct jobs (job seeds) the loop cycles through.
    pub jobs: usize,
}

/// The three closed-loop CLI workloads. `kway8-golem3` runs the default
/// (sequential) V-cycle: with `--threads 2` the synchronous V-cycle's
/// 8-way cuts range from 6532 to 9290 over eight job seeds, against
/// 6042 to 6481 for the default engine, too wide for a quality bound.
///
/// A 15-second window holds the distinct jobs and a few more: averaging
/// over many job seeds keeps the run-to-run spread of the cut and of the
/// median latency low, and the jobs that fit after the last distinct one
/// repeat earlier ones for the determinism check.
pub const CLI_WORKLOADS: [CliWorkload; 3] = [
    CliWorkload {
        name: "ml-golem3",
        circuit: GOLEM3,
        args: &["--method", "ml", "--runs", "1"],
        jobs: 12,
    },
    CliWorkload {
        name: "prop-p2",
        circuit: P2,
        args: &["--method", "prop", "--runs", "20"],
        jobs: 16,
    },
    CliWorkload {
        name: "kway8-golem3",
        circuit: GOLEM3,
        args: &["--method", "ml", "--k", "8", "--runs", "1"],
        jobs: 4,
    },
];

/// Runs workload `name`.
///
/// # Errors
///
/// Set-up failures and unknown names; wrong answers are reported in the
/// outcome instead.
pub fn run(ctx: &Ctx, name: &str) -> Result<Outcome, String> {
    if let Some(w) = CLI_WORKLOADS.iter().find(|w| w.name == name) {
        return crate::cli_loop::run(ctx, w);
    }
    match name {
        "serve-mix" => crate::serve_mix::run(ctx),
        "cluster-sweep" => crate::cluster::run(ctx),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
