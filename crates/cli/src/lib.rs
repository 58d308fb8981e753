//! Implementation of the `prop` command-line tool.
//!
//! Subcommands:
//!
//! * `prop stats <file>` — parse a netlist and print its size parameters.
//! * `prop generate --nodes N --nets E --pins P [--seed S] [--out F]` —
//!   synthesise a clustered circuit; `--circuit <name>` instead
//!   instantiates a Table-1 proxy.
//! * `prop convert <in> <out>` — convert between `.hgr` and `.netd`.
//! * `prop partition <file> [--method M] [--r1 X --r2 Y] [--runs N]
//!   [--seed S] [--assign F]` — bipartition a netlist and report the cut;
//!   methods: `prop` (default), `prop-paper`, `fm`, `fm-tree`, `la2`,
//!   `la3`, `kl`, `sa`, `eig1`, `melo`, `paraboli`, `window`, `ml`.
//! * `prop serve [--addr A] [--workers N] [--queue-cap N]
//!   [--store-dir D] [--coordinator W1,W2,...] [--heartbeat-ms N]
//!   [--retries N]` — run the partitioning daemon until a `shutdown`
//!   request drains it; `--coordinator` additionally shards `batch`
//!   sweeps across the listed worker daemons.
//! * `prop submit (<file> | --circuit-id ID) [--addr A] [--engine E]
//!   [--runs N] [--seed S] [--timeout-ms T] [--priority P] [--no-wait]` —
//!   send a netlist (or reference a stored circuit) to a running daemon
//!   and print the one-line JSON response.
//! * `prop batch --circuit-id ID [--addr A] [--engines E1,E2]
//!   [--eps R1:R2,...] [--runs N] [--seed S] [--chunk N]
//!   [--timeout-ms T] [--no-wait]` — submit a sharded sweep to a
//!   coordinator and stream its progress events.
//! * `prop upload <file> [--id ID] [--addr A] [--by-path]` — store a
//!   netlist in the daemon's circuit store for submit-by-id sweeps.
//! * `prop ctl <ping|stats|shutdown|status|wait|cancel|watch|circuits|
//!   evict> [--addr A] [--job N] [--circuit ID]` — control-plane
//!   requests against a running daemon (`watch` streams a batch's
//!   events).
//!
//! The library half exists so the argument handling and command logic are
//! unit-testable; `main.rs` is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use prop_core::{CancelToken, KwayPartition, ParallelPolicy, RunResult, Side};
use prop_engines::{EngineName, Job, JobReport, UnknownEngine};
use prop_netlist::{format, generate, hgb, suite, Hypergraph};
use prop_serve::{BatchRequest, Client, ConnectRetry, Json, SubmitRequest, UploadRequest};
use std::fmt;
use std::path::Path;

/// A CLI failure: message plus exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (2 = usage, 1 = runtime failure).
    pub code: i32,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

fn usage(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 2,
    }
}

fn failure(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 1,
    }
}

/// Exit code when stdout is closed under the command (`EPIPE`): the
/// status a shell reports for a process killed by `SIGPIPE`. `main`
/// exits with it without printing an error.
pub const EXIT_BROKEN_PIPE: i32 = 141;

/// Writes to stdout. A closed pipe ends the command with
/// [`EXIT_BROKEN_PIPE`]; any other write error is a runtime failure.
fn emit(args: fmt::Arguments<'_>) -> Result<(), CliError> {
    use std::io::{ErrorKind, Write};
    std::io::stdout()
        .lock()
        .write_fmt(args)
        .map_err(|e| match e.kind() {
            ErrorKind::BrokenPipe => CliError {
                message: "stdout closed".into(),
                code: EXIT_BROKEN_PIPE,
            },
            _ => failure(format!("cannot write to stdout: {e}")),
        })
}

/// `println!` through [`emit`], returning its error from the enclosing
/// function.
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

/// Parsed command line.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// `prop stats <file>`
    Stats {
        /// Netlist path.
        file: String,
    },
    /// `prop generate ...`
    Generate {
        /// Explicit sizes, or a named Table-1 circuit.
        source: GenerateSource,
        /// Seed for the explicit-size form.
        seed: u64,
        /// Output path (stdout if `None`); extension selects the format.
        out: Option<String>,
    },
    /// `prop convert <in> <out>`
    Convert {
        /// Input path.
        input: String,
        /// Output path.
        output: String,
    },
    /// `prop partition <file> ...`
    Partition {
        /// Netlist path.
        file: String,
        /// The job: `--method`, `--r1`/`--r2`, `--runs`, `--seed`, the
        /// `--ml-*` knobs, `--k` and `--budgets`.
        job: Job,
        /// `--threads`, resolved by [`resolve_threads`]: the runs (and
        /// k-way subtrees) use every CPU when `None` or `Some(0)`, at most
        /// `n` with `Some(n)`. The result is bit-identical for every
        /// count.
        threads: Option<usize>,
        /// Optional path for the node→side assignment output.
        assign: Option<String>,
    },
    /// `prop serve ...`
    Serve {
        /// Listen address.
        addr: String,
        /// Worker pool size (0 = auto-detect).
        workers: usize,
        /// Job-queue admission capacity.
        queue_cap: usize,
        /// Directory of the daemon's named-circuit store.
        store_dir: String,
        /// Coordinator mode: comma-separated worker daemon addresses to
        /// shard `batch` sweeps across (`None` = plain daemon).
        coordinator: Option<Vec<String>>,
        /// Worker heartbeat interval in milliseconds (coordinator mode).
        heartbeat_ms: u64,
        /// Bounded per-sub-job retries before a batch fails
        /// (coordinator mode).
        retries: u32,
    },
    /// `prop submit (<file> | --circuit-id ID) ...`
    Submit {
        /// Netlist path (extension selects the wire format), or `None`
        /// when the job references a stored circuit.
        file: Option<String>,
        /// Stored circuit to run against instead of an inline payload.
        circuit_id: Option<String>,
        /// Daemon address.
        addr: String,
        /// The job, parsed by the same flags as `partition`'s (with
        /// `--engine` for `--method`) and forwarded on the wire. The
        /// daemon serves every iterative engine, not the one-shot global
        /// ones.
        job: Job,
        /// Job deadline in milliseconds (0 = none).
        timeout_ms: u64,
        /// Scheduling priority (0–3, higher first).
        priority: u8,
        /// When `false`, block until the job is terminal.
        no_wait: bool,
    },
    /// `prop batch --circuit-id ID ...`
    Batch {
        /// Stored circuit the sweep runs against.
        circuit_id: String,
        /// Coordinator address.
        addr: String,
        /// Engines dimension of the sweep.
        engines: Vec<EngineName>,
        /// Balance (ε) dimension: `(r1, r2)` pairs.
        eps: Vec<(f64, f64)>,
        /// Multi-start runs per (engine, ε) group.
        runs: usize,
        /// Base seed.
        seed: u64,
        /// Consecutive runs per sub-job (the sharding grain).
        chunk: usize,
        /// Per-sub-job deadline in milliseconds (0 = none).
        timeout_ms: u64,
        /// When `false`, stream `watch` events until the terminal
        /// `done` line.
        no_wait: bool,
    },
    /// `prop upload <file> ...`
    Upload {
        /// Netlist path (`.hgr`, `.netd`, or `.hgb`).
        file: String,
        /// Circuit id to store under (default: the file stem).
        id: Option<String>,
        /// Daemon address.
        addr: String,
        /// Send the (daemon-local) file path instead of the inline bytes
        /// — the route for circuits larger than the request cap.
        by_path: bool,
    },
    /// `prop ctl <verb> ...`
    Ctl {
        /// Control verb: `ping`, `stats`, `shutdown`, `status`, `wait`,
        /// `cancel`, `watch`, `circuits`, or `evict`.
        verb: String,
        /// Daemon address.
        addr: String,
        /// Job id for `status`/`wait`/`cancel`/`watch`.
        job: Option<u64>,
        /// Circuit id for `evict`.
        circuit: Option<String>,
    },
    /// `prop help`
    Help,
}

/// The default daemon address for `serve`, `submit`, and `ctl`.
pub const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7077";

/// What `prop generate` generates.
#[derive(Clone, PartialEq, Debug)]
pub enum GenerateSource {
    /// Explicit node/net/pin counts.
    Sizes {
        /// Node count.
        nodes: usize,
        /// Net count.
        nets: usize,
        /// Exact pin count.
        pins: usize,
    },
    /// A named Table-1 proxy circuit.
    Circuit(String),
}

/// The usage text printed by `prop help` and on argument errors.
pub const USAGE: &str = "\
prop — PROP probabilistic min-cut partitioning suite (DAC-96 reproduction)

USAGE:
  prop stats <file>
  prop generate (--circuit <name> | --nodes N --nets E --pins P) [--seed S] [--out FILE]
  prop convert <in> <out>
  prop partition <file> [--method M] [--r1 X] [--r2 Y] [--runs N] [--seed S]
                 [--threads N] [--assign FILE] [--ml-* N]
                 [--k K] [--budgets A1,A2,...]
  prop serve [--addr A] [--workers N] [--queue-cap N] [--store-dir D]
             [--coordinator W1,W2,...] [--heartbeat-ms N] [--retries N]
  prop submit (<file> | --circuit-id ID) [--addr A] [--engine E] [--runs N]
              [--seed S] [--r1 X] [--r2 Y] [--timeout-ms T] [--priority P]
              [--no-wait] [--ml-* N] [--k K] [--budgets A1,A2,...]
  prop batch --circuit-id ID [--addr A] [--engines E1,E2] [--eps R1:R2,...]
             [--runs N] [--seed S] [--chunk N] [--timeout-ms T] [--no-wait]
  prop upload <file> [--id ID] [--addr A] [--by-path]
  prop ctl <ping|stats|shutdown|status|wait|cancel|watch|circuits|evict>
           [--addr A] [--job N] [--circuit ID]
  prop help

Formats are chosen by extension: .hgr (hMETIS), .netd (named), or .hgb
(the zero-copy binary snapshot; stats/partition load it via mmap, and
convert to .hgb writes the canonical snapshot).
upload stores a netlist in the daemon's circuit store (--by-path sends a
daemon-local file path instead of the bytes — the route past the request
cap); submit --circuit-id then sweeps seeds/engines against the stored
circuit without re-sending it.
Partition methods: prop (default), prop-paper, fm, fm-tree, la2, la3, kl,
sa, eig1, melo, paraboli, window, ml. submit --engine and batch --engines
take every method except the one-shot eig1, melo, paraboli and window.
la2 and la3 need unit net costs and kl unit node sizes; a netlist an
engine cannot take is refused (exit 1, wire code unsupported_input).
--k K partitions into K parts by recursive bisection (iterative methods
and ml only); --budgets A1,...,AK caps each part's node weight by an
absolute area (multi-FPGA style, k-way driver even at K=2). The k-way
result line reports both objectives (hyperedge cut and connectivity
lambda-1), per-part sizes and weights; --assign then writes node->part
numbers. submit forwards --k/--budgets on the wire; infeasible budgets
fail the job with a typed message.
partition runs the best-of-R runs of iterative methods (and, with --k,
the sibling subtrees of the recursion) on every CPU by default;
--threads N caps them at N threads in all (0 = every CPU). The result
is bit-identical at every count.
This holds for every method, ml included: each V-cycle runs on one
thread.
The ml method takes --ml-coarsest, --ml-starts, --ml-max-net,
--ml-refine-passes, and --ml-polish V-cycle knobs (partition and
submit). --ml-flow adds flow-based corridor refinement after
each level's move passes; --ml-flow-corridor N caps the corridor at N
nodes per side (implies --ml-flow; default 3000).
serve/submit/ctl default to 127.0.0.1:7077; submit prints the daemon's
one-line JSON response and exits nonzero if the job did not complete.
serve --coordinator W1,W2,... additionally shards `batch` sweeps across
the listed worker daemons, with heartbeat health checks (--heartbeat-ms)
and bounded retry-on-loss (--retries); batch expands a stored circuit
into a seeds x engines x eps sweep, streams per-sub-job progress lines,
and prints a final merged result bit-identical to the same sweep run
sequentially. ctl watch --job N re-streams a batch's event log.";

/// Parses a full argument list (without the program name).
///
/// # Errors
///
/// Returns a usage-level [`CliError`] for unknown commands, flags, or
/// malformed values.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "stats" => {
            let [file] = rest.as_slice() else {
                return Err(usage("stats takes exactly one file argument"));
            };
            Ok(Command::Stats {
                file: (*file).clone(),
            })
        }
        "convert" => {
            let [input, output] = rest.as_slice() else {
                return Err(usage("convert takes exactly <in> <out>"));
            };
            Ok(Command::Convert {
                input: (*input).clone(),
                output: (*output).clone(),
            })
        }
        "generate" => parse_generate(&rest),
        "partition" => parse_partition(&rest),
        "serve" => parse_serve(&rest),
        "submit" => parse_submit(&rest),
        "batch" => parse_batch(&rest),
        "upload" => parse_upload(&rest),
        "ctl" => parse_ctl(&rest),
        other => Err(usage(format!("unknown command {other:?}"))),
    }
}

fn take_value<'a>(
    flag: &str,
    it: &mut std::slice::Iter<'a, &'a String>,
) -> Result<&'a str, CliError> {
    it.next()
        .map(|s| s.as_str())
        .ok_or_else(|| usage(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| usage(format!("bad value {value:?} for {flag}")))
}

/// Parses an engine name against the registry.
fn parse_engine(name: &str) -> Result<EngineName, CliError> {
    name.parse().map_err(|e: UnknownEngine| usage(e.to_string()))
}

/// Consumes one job flag if `arg` is one, returning whether it was: the
/// engine (`engine_flag`: `--method` for partition, `--engine` for
/// submit), `--r1`/`--r2`, `--runs`, `--seed`, `--k`, `--budgets` and the
/// `--ml-*` V-cycle knobs. Shared by `partition` and `submit`, so both
/// build the same [`Job`] from the same flags.
fn parse_job_flag<'a>(
    arg: &str,
    engine_flag: &str,
    it: &mut std::slice::Iter<'a, &'a String>,
    job: &mut Job,
) -> Result<bool, CliError> {
    let ml = &mut job.spec.ml;
    match arg {
        _ if arg == engine_flag => job.spec.name = parse_engine(take_value(arg, it)?)?,
        "--r1" => job.r1 = parse_num(arg, take_value(arg, it)?)?,
        "--r2" => job.r2 = parse_num(arg, take_value(arg, it)?)?,
        "--runs" => job.runs = parse_num(arg, take_value(arg, it)?)?,
        "--seed" => job.seed = parse_num(arg, take_value(arg, it)?)?,
        "--k" => job.k = parse_num(arg, take_value(arg, it)?)?,
        "--budgets" => job.budgets = Some(parse_budgets(take_value(arg, it)?)?),
        "--ml-coarsest" => ml.coarsest_nodes = parse_num(arg, take_value(arg, it)?)?,
        "--ml-starts" => ml.coarsest_starts = parse_num(arg, take_value(arg, it)?)?,
        "--ml-max-net" => ml.max_match_net = parse_num(arg, take_value(arg, it)?)?,
        "--ml-refine-passes" => ml.refine_passes = parse_num(arg, take_value(arg, it)?)?,
        "--ml-polish" => ml.polish_passes = parse_num(arg, take_value(arg, it)?)?,
        "--ml-flow" => ml.flow.enabled = true,
        "--ml-flow-corridor" => {
            ml.flow.enabled = true;
            ml.flow.corridor_nodes = parse_num(arg, take_value(arg, it)?)?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// The job a `partition` or `submit` command line starts from: 20 runs
/// of `prop`.
fn default_job() -> Job {
    Job {
        runs: 20,
        ..Job::default()
    }
}

/// Checks a parsed job through the one rule set, [`Job::validate`].
fn validated(job: Job) -> Result<Job, CliError> {
    job.validate().map_err(|e| usage(e.to_string()))?;
    Ok(job)
}

fn parse_generate(rest: &[&String]) -> Result<Command, CliError> {
    let mut nodes = None;
    let mut nets = None;
    let mut pins = None;
    let mut circuit = None;
    let mut seed = 0u64;
    let mut out = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--nodes" => nodes = Some(parse_num("--nodes", take_value("--nodes", &mut it)?)?),
            "--nets" => nets = Some(parse_num("--nets", take_value("--nets", &mut it)?)?),
            "--pins" => pins = Some(parse_num("--pins", take_value("--pins", &mut it)?)?),
            "--seed" => seed = parse_num("--seed", take_value("--seed", &mut it)?)?,
            "--circuit" => circuit = Some(take_value("--circuit", &mut it)?.to_string()),
            "--out" => out = Some(take_value("--out", &mut it)?.to_string()),
            other => return Err(usage(format!("unknown generate flag {other:?}"))),
        }
    }
    let source = match (circuit, nodes, nets, pins) {
        (Some(name), None, None, None) => GenerateSource::Circuit(name),
        (None, Some(nodes), Some(nets), Some(pins)) => GenerateSource::Sizes { nodes, nets, pins },
        _ => {
            return Err(usage(
                "generate needs either --circuit <name> or all of --nodes/--nets/--pins",
            ))
        }
    };
    Ok(Command::Generate { source, seed, out })
}

fn parse_partition(rest: &[&String]) -> Result<Command, CliError> {
    let mut it = rest.iter();
    let Some(file) = it.next() else {
        return Err(usage("partition needs a netlist file"));
    };
    let mut job = default_job();
    let mut threads = None;
    let mut assign = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                threads = Some(parse_num("--threads", take_value("--threads", &mut it)?)?)
            }
            "--assign" => assign = Some(take_value("--assign", &mut it)?.to_string()),
            other => {
                if !parse_job_flag(other, "--method", &mut it, &mut job)? {
                    return Err(usage(format!("unknown partition flag {other:?}")));
                }
            }
        }
    }
    Ok(Command::Partition {
        file: (*file).clone(),
        job: validated(job)?,
        threads,
        assign,
    })
}

/// Parses a `--budgets` comma-separated area list.
fn parse_budgets(value: &str) -> Result<Vec<f64>, CliError> {
    let budgets = value
        .split(',')
        .map(|b| parse_num("--budgets", b.trim()))
        .collect::<Result<Vec<f64>, CliError>>()?;
    if budgets.is_empty() {
        return Err(usage("--budgets needs a comma-separated list of areas"));
    }
    Ok(budgets)
}

/// The default circuit-store directory for `prop serve`.
pub const DEFAULT_STORE_DIR: &str = "prop-store";

fn parse_serve(rest: &[&String]) -> Result<Command, CliError> {
    let mut addr = DEFAULT_SERVE_ADDR.to_string();
    let mut workers = 0usize;
    let mut queue_cap = 64usize;
    let mut store_dir = DEFAULT_STORE_DIR.to_string();
    let mut coordinator = None;
    let mut heartbeat_ms = 500u64;
    let mut retries = 3u32;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = take_value("--addr", &mut it)?.to_string(),
            "--workers" => workers = parse_num("--workers", take_value("--workers", &mut it)?)?,
            "--queue-cap" => {
                queue_cap = parse_num("--queue-cap", take_value("--queue-cap", &mut it)?)?
            }
            "--store-dir" => store_dir = take_value("--store-dir", &mut it)?.to_string(),
            "--coordinator" => {
                let list: Vec<String> = take_value("--coordinator", &mut it)?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if list.is_empty() {
                    return Err(usage(
                        "--coordinator needs a comma-separated worker address list",
                    ));
                }
                coordinator = Some(list);
            }
            "--heartbeat-ms" => {
                heartbeat_ms =
                    parse_num("--heartbeat-ms", take_value("--heartbeat-ms", &mut it)?)?
            }
            "--retries" => retries = parse_num("--retries", take_value("--retries", &mut it)?)?,
            other => return Err(usage(format!("unknown serve flag {other:?}"))),
        }
    }
    if queue_cap == 0 {
        return Err(usage("--queue-cap must be at least 1"));
    }
    if heartbeat_ms == 0 {
        return Err(usage("--heartbeat-ms must be at least 1"));
    }
    Ok(Command::Serve {
        addr,
        workers,
        queue_cap,
        store_dir,
        coordinator,
        heartbeat_ms,
        retries,
    })
}

fn parse_batch(rest: &[&String]) -> Result<Command, CliError> {
    let mut circuit_id = None;
    let mut addr = DEFAULT_SERVE_ADDR.to_string();
    let mut engines = vec![EngineName::Prop];
    let mut eps = vec![(0.45, 0.55)];
    let mut runs = 20usize;
    let mut seed = 0u64;
    let mut chunk = 1usize;
    let mut timeout_ms = 0u64;
    let mut no_wait = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--circuit-id" => {
                circuit_id = Some(take_value("--circuit-id", &mut it)?.to_string())
            }
            "--addr" => addr = take_value("--addr", &mut it)?.to_string(),
            "--engines" => {
                engines = take_value("--engines", &mut it)?
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(parse_engine)
                    .collect::<Result<_, _>>()?;
                if engines.is_empty() {
                    return Err(usage("--engines needs a comma-separated engine list"));
                }
            }
            "--eps" => {
                eps = take_value("--eps", &mut it)?
                    .split(',')
                    .map(|pair| {
                        let (r1, r2) = pair
                            .split_once(':')
                            .ok_or_else(|| usage(format!("bad --eps pair {pair:?} (use R1:R2)")))?;
                        Ok((parse_num("--eps", r1.trim())?, parse_num("--eps", r2.trim())?))
                    })
                    .collect::<Result<Vec<(f64, f64)>, CliError>>()?;
                if eps.is_empty() {
                    return Err(usage("--eps needs a comma-separated R1:R2 list"));
                }
            }
            "--runs" => runs = parse_num("--runs", take_value("--runs", &mut it)?)?,
            "--seed" => seed = parse_num("--seed", take_value("--seed", &mut it)?)?,
            "--chunk" => chunk = parse_num("--chunk", take_value("--chunk", &mut it)?)?,
            "--timeout-ms" => {
                timeout_ms = parse_num("--timeout-ms", take_value("--timeout-ms", &mut it)?)?
            }
            "--no-wait" => no_wait = true,
            other => return Err(usage(format!("unknown batch flag {other:?}"))),
        }
    }
    let Some(circuit_id) = circuit_id else {
        return Err(usage("batch needs --circuit-id <id> (upload the circuit first)"));
    };
    Ok(Command::Batch {
        circuit_id,
        addr,
        engines,
        eps,
        runs,
        seed,
        chunk,
        timeout_ms,
        no_wait,
    })
}

fn parse_submit(rest: &[&String]) -> Result<Command, CliError> {
    let mut it = rest.iter();
    let mut file = None;
    let mut circuit_id = None;
    let mut addr = DEFAULT_SERVE_ADDR.to_string();
    let mut job = default_job();
    let mut timeout_ms = 0u64;
    let mut priority = 0u8;
    let mut no_wait = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = take_value("--addr", &mut it)?.to_string(),
            "--timeout-ms" => {
                timeout_ms = parse_num("--timeout-ms", take_value("--timeout-ms", &mut it)?)?
            }
            "--priority" => {
                priority = parse_num("--priority", take_value("--priority", &mut it)?)?
            }
            "--no-wait" => no_wait = true,
            "--circuit-id" => {
                circuit_id = Some(take_value("--circuit-id", &mut it)?.to_string())
            }
            other => {
                if parse_job_flag(other, "--engine", &mut it, &mut job)? {
                    continue;
                }
                if !other.starts_with('-') && file.is_none() {
                    file = Some(other.to_string());
                } else {
                    return Err(usage(format!("unknown submit flag {other:?}")));
                }
            }
        }
    }
    match (&file, &circuit_id) {
        (None, None) => {
            return Err(usage("submit needs a netlist file or --circuit-id <id>"))
        }
        (Some(_), Some(_)) => {
            return Err(usage("submit takes either a netlist file or --circuit-id, not both"))
        }
        _ => {}
    }
    Ok(Command::Submit {
        file,
        circuit_id,
        addr,
        job: validated(job)?,
        timeout_ms,
        priority,
        no_wait,
    })
}

fn parse_upload(rest: &[&String]) -> Result<Command, CliError> {
    let mut it = rest.iter();
    let mut file = None;
    let mut id = None;
    let mut addr = DEFAULT_SERVE_ADDR.to_string();
    let mut by_path = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--id" => id = Some(take_value("--id", &mut it)?.to_string()),
            "--addr" => addr = take_value("--addr", &mut it)?.to_string(),
            "--by-path" => by_path = true,
            other => {
                if !other.starts_with('-') && file.is_none() {
                    file = Some(other.to_string());
                } else {
                    return Err(usage(format!("unknown upload flag {other:?}")));
                }
            }
        }
    }
    let Some(file) = file else {
        return Err(usage("upload needs a netlist file"));
    };
    Ok(Command::Upload {
        file,
        id,
        addr,
        by_path,
    })
}

fn parse_ctl(rest: &[&String]) -> Result<Command, CliError> {
    let mut it = rest.iter();
    let Some(verb) = it.next() else {
        return Err(usage(
            "ctl needs a verb: ping, stats, shutdown, status, wait, cancel, watch, circuits, evict",
        ));
    };
    let verb = verb.as_str();
    if !["ping", "stats", "shutdown", "status", "wait", "cancel", "watch", "circuits", "evict"]
        .contains(&verb)
    {
        return Err(usage(format!("unknown ctl verb {verb:?}")));
    }
    let mut addr = DEFAULT_SERVE_ADDR.to_string();
    let mut job = None;
    let mut circuit = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = take_value("--addr", &mut it)?.to_string(),
            "--job" => job = Some(parse_num("--job", take_value("--job", &mut it)?)?),
            "--circuit" => circuit = Some(take_value("--circuit", &mut it)?.to_string()),
            other => return Err(usage(format!("unknown ctl flag {other:?}"))),
        }
    }
    let needs_job = ["status", "wait", "cancel", "watch"].contains(&verb);
    if needs_job && job.is_none() {
        return Err(usage(format!("ctl {verb} needs --job <id>")));
    }
    if !needs_job && job.is_some() {
        return Err(usage(format!("ctl {verb} takes no --job")));
    }
    if verb == "evict" && circuit.is_none() {
        return Err(usage("ctl evict needs --circuit <id>"));
    }
    if verb != "evict" && circuit.is_some() {
        return Err(usage(format!("ctl {verb} takes no --circuit")));
    }
    Ok(Command::Ctl {
        verb: verb.to_string(),
        addr,
        job,
        circuit,
    })
}

/// Loads a netlist, choosing the parser by file extension. `.hgb`
/// snapshots go through the zero-copy loader and also return its load
/// report (backing mode, bytes, elapsed milliseconds).
///
/// # Errors
///
/// Fails on I/O errors, unknown extensions, and parse errors.
pub fn load_netlist_reported(
    path: &str,
) -> Result<(Hypergraph, Option<hgb::LoadReport>), CliError> {
    if extension(path) == "hgb" {
        let (graph, report) =
            hgb::load_hgb(Path::new(path)).map_err(|e| failure(format!("{path}: {e}")))?;
        return Ok((graph, Some(report)));
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| failure(format!("cannot read {path}: {e}")))?;
    let graph = match extension(path) {
        "hgr" => format::parse_hgr(&text).map_err(|e| failure(format!("{path}: {e}")))?,
        "netd" => format::parse_netd(&text).map_err(|e| failure(format!("{path}: {e}")))?,
        other => {
            return Err(usage(format!(
                "unknown netlist extension {other:?} (use .hgr, .netd, or .hgb)"
            )))
        }
    };
    Ok((graph, None))
}

/// Loads a netlist, choosing the parser by file extension.
///
/// # Errors
///
/// Fails on I/O errors, unknown extensions, and parse errors.
pub fn load_netlist(path: &str) -> Result<Hypergraph, CliError> {
    load_netlist_reported(path).map(|(graph, _)| graph)
}

/// Serialises a netlist to text, choosing the writer by file extension
/// (the binary `.hgb` goes through [`write_netlist`] instead).
///
/// # Errors
///
/// Fails on unknown extensions.
pub fn render_netlist(graph: &Hypergraph, path: &str) -> Result<String, CliError> {
    match extension(path) {
        "hgr" => Ok(format::write_hgr(graph)),
        "netd" => Ok(format::write_netd(graph)),
        other => Err(usage(format!(
            "unknown netlist extension {other:?} (use .hgr or .netd)"
        ))),
    }
}

/// Writes a netlist to `path`, choosing the writer by file extension:
/// `.hgb` is the canonical binary snapshot, the rest are the text
/// formats.
///
/// # Errors
///
/// Fails on unknown extensions and write errors.
pub fn write_netlist(graph: &Hypergraph, path: &str) -> Result<(), CliError> {
    if extension(path) == "hgb" {
        return hgb::write_hgb_file(graph, Path::new(path))
            .map_err(|e| failure(format!("cannot write {path}: {e}")));
    }
    let text = render_netlist(graph, path)?;
    std::fs::write(path, text).map_err(|e| failure(format!("cannot write {path}: {e}")))
}

/// Dials a daemon with the CLI's default bounded-retry policy, mapping
/// exhaustion to the typed `connect_failed` message instead of a raw
/// socket error.
fn connect_daemon(addr: &str) -> Result<Client, CliError> {
    Client::connect_retry(addr, &ConnectRetry::default()).map_err(|e| failure(e.to_string()))
}

fn extension(path: &str) -> &str {
    Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .unwrap_or("")
}

/// The one `--threads` rule of `prop partition`, for every method and
/// for the 2-way and the k-way path alike: the policy that fans out the
/// runs and, for k-way, the sibling subtrees. They use every CPU unless
/// `--threads N` caps them at `N` (`0` = every CPU). Every count gives
/// the bit-identical result.
pub fn resolve_threads(threads: Option<usize>) -> ParallelPolicy {
    match threads {
        None | Some(0) => ParallelPolicy::Auto,
        Some(n) => ParallelPolicy::Threads(n),
    }
}

/// Renders the node→part assignment of a k-way partition (one
/// `<node-or-name> <part>` line per node).
pub fn render_kway_assignment(graph: &Hypergraph, partition: &KwayPartition) -> String {
    let mut out = String::new();
    for v in graph.nodes() {
        let name = graph
            .node_name(v)
            .map(str::to_owned)
            .unwrap_or_else(|| v.to_string());
        out.push_str(&format!("{name} {}\n", partition.block(v)));
    }
    out
}

/// Renders the node→side assignment (one `<node-or-name> <A|B>` line per
/// node).
pub fn render_assignment(graph: &Hypergraph, result: &RunResult) -> String {
    let mut out = String::new();
    for v in graph.nodes() {
        let name = graph
            .node_name(v)
            .map(str::to_owned)
            .unwrap_or_else(|| v.to_string());
        let side = match result.partition.side(v) {
            Side::A => 'A',
            Side::B => 'B',
        };
        out.push_str(&format!("{name} {side}\n"));
    }
    out
}

/// Streams a job's event log to stdout, one JSON line per event, and
/// returns the terminal `done` line. After a failed write the rest of
/// the stream is drained unprinted and the write error returned.
fn watch_events(client: &mut Client, job: u64) -> Result<Json, CliError> {
    let mut written = Ok(());
    let done = client
        .watch(job, |event| {
            if written.is_ok() {
                written = emit(format_args!("{}\n", event.render()));
            }
        })
        .map_err(|e| failure(e.to_string()))?;
    written.map(|()| done)
}

/// Executes a parsed command, writing human output to stdout.
///
/// # Errors
///
/// Propagates usage and runtime failures for `main` to exit with.
pub fn run(command: Command) -> Result<(), CliError> {
    match command {
        Command::Help => {
            outln!("{USAGE}");
            Ok(())
        }
        Command::Stats { file } => {
            let (graph, report) = load_netlist_reported(&file)?;
            outln!("{}", graph.stats());
            outln!(
                "unit net costs: {}; unit node sizes: {}",
                graph.has_unit_weights(),
                graph.has_unit_node_weights()
            );
            if let Some(report) = report {
                outln!(
                    "snapshot: {} bytes loaded via {} in {} ms",
                    report.bytes, report.mode, report.millis
                );
            }
            Ok(())
        }
        Command::Convert { input, output } => {
            let graph = load_netlist(&input)?;
            write_netlist(&graph, &output)?;
            outln!("wrote {} ({})", output, graph.stats());
            Ok(())
        }
        Command::Generate { source, seed, out } => {
            let graph = match source {
                GenerateSource::Circuit(name) => suite::by_name(&name)
                    .ok_or_else(|| usage(format!("unknown circuit {name:?}")))?
                    .instantiate()
                    .map_err(|e| failure(e.to_string()))?,
                GenerateSource::Sizes { nodes, nets, pins } => generate::generate(
                    &generate::GeneratorConfig::new(nodes, nets, pins).with_seed(seed),
                )
                .map_err(|e| failure(e.to_string()))?,
            };
            match out {
                Some(path) => {
                    write_netlist(&graph, &path)?;
                    outln!("wrote {} ({})", path, graph.stats());
                }
                None => emit(format_args!("{}", format::write_hgr(&graph)))?,
            }
            Ok(())
        }
        Command::Partition {
            file,
            job,
            threads,
            assign,
        } => {
            let graph = load_netlist(&file)?;
            let report = job
                .run(&graph, resolve_threads(threads), &CancelToken::new())
                .map_err(|e| failure(e.to_string()))?;
            let method = job.spec.name;
            // The assignment file is written before anything is printed,
            // so a closed stdout cannot lose it.
            let (line, assignment) = match &report {
                JobReport::Kway(report) => {
                    let partition = &report.partition;
                    let sizes: Vec<String> =
                        partition.block_sizes().iter().map(usize::to_string).collect();
                    let weights: Vec<String> =
                        partition.part_weights().iter().map(f64::to_string).collect();
                    let line = format!(
                        "method={method} k={} cut={} connectivity={} parts={} weights={} \
                         passes={}",
                        job.k,
                        partition.cut_cost(&graph),
                        partition.connectivity_cost(&graph),
                        sizes.join("/"),
                        weights.join(","),
                        report.total_passes
                    );
                    (line, assign.is_some().then(|| render_kway_assignment(&graph, partition)))
                }
                JobReport::TwoWay(report) => {
                    let result = &report.result;
                    let line = format!(
                        "method={method} cut={} sides={}A/{}B passes={}",
                        result.cut_cost,
                        result.partition.count(Side::A),
                        result.partition.count(Side::B),
                        result.total_passes
                    );
                    (line, assign.is_some().then(|| render_assignment(&graph, result)))
                }
            };
            if let (Some(path), Some(text)) = (&assign, assignment) {
                std::fs::write(path, text)
                    .map_err(|e| failure(format!("cannot write {path}: {e}")))?;
            }
            outln!("{line}");
            if let Some(path) = assign {
                outln!("assignment written to {path}");
            }
            Ok(())
        }
        Command::Serve {
            addr,
            workers,
            queue_cap,
            store_dir,
            coordinator,
            heartbeat_ms,
            retries,
        } => {
            let workers = if workers == 0 {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(2)
            } else {
                workers
            };
            let cluster = coordinator.map(|list| prop_serve::ClusterConfig {
                workers: list,
                heartbeat_ms,
                // Lost after 4 consecutive missed heartbeats.
                heartbeat_timeout_ms: heartbeat_ms.saturating_mul(4),
                max_retries: retries,
                ..prop_serve::ClusterConfig::default()
            });
            let cluster_note = cluster
                .as_ref()
                .map(|c| format!(", coordinating {} cluster workers", c.workers.len()))
                .unwrap_or_default();
            let config = prop_serve::ServerConfig {
                addr: addr.clone(),
                workers,
                queue_cap,
                store_dir: Some(store_dir.clone()),
                cluster,
                ..prop_serve::ServerConfig::default()
            };
            let handle = prop_serve::start(&config)
                .map_err(|e| failure(format!("cannot start on {addr}: {e}")))?;
            outln!(
                "prop-serve listening on {} ({workers} workers, queue capacity {queue_cap}, \
                 store {store_dir}{cluster_note})",
                handle.addr()
            );
            handle.join();
            outln!("prop-serve drained and stopped");
            Ok(())
        }
        Command::Submit {
            file,
            circuit_id,
            addr,
            job,
            timeout_ms,
            priority,
            no_wait,
        } => {
            let (fmt, payload) = match &file {
                Some(file) => {
                    let payload = std::fs::read_to_string(file)
                        .map_err(|e| failure(format!("cannot read {file}: {e}")))?;
                    let fmt = match extension(file) {
                        ext @ ("hgr" | "netd") => ext.to_string(),
                        other => {
                            return Err(usage(format!(
                                "unknown netlist extension {other:?} (use .hgr or .netd; \
                                 upload .hgb snapshots and submit --circuit-id instead)"
                            )))
                        }
                    };
                    (fmt, payload)
                }
                None => ("hgr".to_string(), String::new()),
            };
            let request = SubmitRequest {
                job,
                timeout_ms,
                priority,
                fmt,
                payload,
                circuit_id: circuit_id.unwrap_or_default(),
                wait: !no_wait,
            };
            let mut client = connect_daemon(&addr)?;
            let response = client.submit(&request).map_err(|e| failure(e.to_string()))?;
            outln!("{}", response.render());
            let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
            let failed = response.get("status").and_then(Json::as_str) == Some("failed");
            if !ok || failed {
                return Err(failure("the daemon did not complete the job"));
            }
            Ok(())
        }
        Command::Batch {
            circuit_id,
            addr,
            engines,
            eps,
            runs,
            seed,
            chunk,
            timeout_ms,
            no_wait,
        } => {
            let spec = BatchRequest {
                circuit_id,
                engines,
                eps,
                runs,
                seed,
                chunk,
                timeout_ms,
            };
            let mut client = connect_daemon(&addr)?;
            let response = client.batch(&spec).map_err(|e| failure(e.to_string()))?;
            outln!("{}", response.render());
            if response.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(failure("the coordinator rejected the batch"));
            }
            if no_wait {
                return Ok(());
            }
            let job = response
                .get("job")
                .and_then(Json::as_u64)
                .ok_or_else(|| failure("batch response carries no job id"))?;
            // Stream the event log: one JSON line per progress/result
            // event, ending with the terminal `done` line.
            let done = watch_events(&mut client, job)?;
            let completed = done.get("ok").and_then(Json::as_bool) == Some(true)
                && done.get("status").and_then(Json::as_str) == Some("completed");
            if !completed {
                return Err(failure("the batch did not complete"));
            }
            Ok(())
        }
        Command::Upload {
            file,
            id,
            addr,
            by_path,
        } => {
            let fmt = match extension(&file) {
                ext @ ("hgr" | "netd" | "hgb") => ext.to_string(),
                other => {
                    return Err(usage(format!(
                        "unknown netlist extension {other:?} (use .hgr, .netd, or .hgb)"
                    )))
                }
            };
            let circuit = match id {
                Some(id) => id,
                None => Path::new(&file)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("")
                    .to_string(),
            };
            let request = if by_path {
                // The daemon reads the file itself, so the path must
                // resolve from the daemon's point of view; absolutise it
                // for the local-daemon case.
                let path = std::fs::canonicalize(&file)
                    .map_err(|e| failure(format!("cannot resolve {file}: {e}")))?;
                UploadRequest {
                    circuit,
                    fmt,
                    payload: None,
                    path: Some(path.to_string_lossy().into_owned()),
                }
            } else {
                let bytes = std::fs::read(&file)
                    .map_err(|e| failure(format!("cannot read {file}: {e}")))?;
                UploadRequest {
                    circuit,
                    fmt,
                    payload: Some(bytes),
                    path: None,
                }
            };
            let mut client = connect_daemon(&addr)?;
            let response = client.upload(&request).map_err(|e| failure(e.to_string()))?;
            outln!("{}", response.render());
            if response.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(failure("the daemon rejected the upload"));
            }
            Ok(())
        }
        Command::Ctl {
            verb,
            addr,
            job,
            circuit,
        } => {
            let mut client = connect_daemon(&addr)?;
            if verb == "watch" {
                let done = watch_events(&mut client, job.expect("parser enforces --job"))?;
                if done.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err(failure("ctl watch failed"));
                }
                return Ok(());
            }
            let response = match verb.as_str() {
                "ping" => client.ping(),
                "stats" => client.stats(),
                "shutdown" => client.shutdown(),
                "status" => client.status(job.expect("parser enforces --job")),
                "wait" => client.wait(job.expect("parser enforces --job")),
                "cancel" => client.cancel(job.expect("parser enforces --job")),
                "circuits" => client.circuits(),
                "evict" => client.evict(&circuit.expect("parser enforces --circuit")),
                other => return Err(usage(format!("unknown ctl verb {other:?}"))),
            }
            .map_err(|e| failure(e.to_string()))?;
            outln!("{}", response.render());
            if response.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(failure(format!("ctl {verb} failed")));
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_help_and_empty() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv(&["help"])).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn parse_stats_and_convert() {
        assert_eq!(
            parse_args(&argv(&["stats", "a.hgr"])).unwrap(),
            Command::Stats { file: "a.hgr".into() }
        );
        assert!(parse_args(&argv(&["stats"])).is_err());
        assert_eq!(
            parse_args(&argv(&["convert", "a.hgr", "b.netd"])).unwrap(),
            Command::Convert {
                input: "a.hgr".into(),
                output: "b.netd".into()
            }
        );
    }

    #[test]
    fn parse_generate_variants() {
        let cmd = parse_args(&argv(&[
            "generate", "--nodes", "10", "--nets", "12", "--pins", "40", "--seed", "7",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                source: GenerateSource::Sizes {
                    nodes: 10,
                    nets: 12,
                    pins: 40
                },
                seed: 7,
                out: None,
            }
        );
        let cmd = parse_args(&argv(&["generate", "--circuit", "balu", "--out", "x.hgr"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Generate {
                source: GenerateSource::Circuit(ref n),
                ..
            } if n == "balu"
        ));
        // Mixing or missing selectors is an error.
        assert!(parse_args(&argv(&["generate", "--nodes", "10"])).is_err());
        assert!(parse_args(&argv(&[
            "generate", "--circuit", "balu", "--nodes", "10", "--nets", "2", "--pins", "5"
        ]))
        .is_err());
        assert!(parse_args(&argv(&["generate", "--nodes", "x"])).is_err());
    }

    #[test]
    fn parse_partition_defaults_and_flags() {
        let cmd = parse_args(&argv(&["partition", "c.hgr"])).unwrap();
        assert_eq!(
            cmd,
            Command::Partition {
                file: "c.hgr".into(),
                job: Job {
                    runs: 20,
                    ..Job::new(EngineName::Prop)
                },
                threads: None,
                assign: None,
            }
        );
        let cmd = parse_args(&argv(&[
            "partition", "c.hgr", "--method", "fm", "--r1", "0.5", "--r2", "0.5", "--runs", "3",
            "--threads", "4", "--assign", "out.txt",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Partition { ref job, threads: Some(4), .. }
                if job.spec.name == EngineName::Fm && job.runs == 3 && job.r1 == 0.5
        ));
        assert!(parse_args(&argv(&["partition", "c.hgr", "--bogus"])).is_err());
        // Every job rule is a usage error, refused before any file is read.
        for bad in [
            &["--runs", "0"][..],
            &["--r1", "0.6", "--r2", "0.7"],
            &["--method", "nope"],
            &["--method", "eig1", "--k", "3"],
        ] {
            let args: Vec<&str> = ["partition", "c.hgr"].iter().chain(bad).copied().collect();
            assert_eq!(parse_args(&argv(&args)).unwrap_err().code, 2, "{bad:?}");
        }
        assert!(parse_args(&argv(&["partition", "c.hgr", "--threads", "x"])).is_err());
        assert!(parse_args(&argv(&["partition"])).is_err());
    }

    #[test]
    fn parse_kway_flags() {
        let job = |args: &[&str]| match parse_args(&argv(args)).unwrap() {
            Command::Partition { job, .. } | Command::Submit { job, .. } => job,
            other => panic!("expected partition or submit, got {other:?}"),
        };
        let kway = job(&["partition", "c.hgr", "--k", "4"]);
        assert_eq!((kway.k, kway.budgets), (4, None));
        let budgeted = job(&["partition", "c.hgr", "--k", "3", "--budgets", "120,60.5,40"]);
        assert_eq!(budgeted.k, 3);
        assert_eq!(budgeted.budgets, Some(vec![120.0, 60.5, 40.0]));
        // Budgets without --k imply arity 2 and engage the k-way driver.
        let pair = job(&["partition", "c.hgr", "--budgets", "90,60"]);
        assert_eq!(pair.k, 2);
        assert!(pair.budgets.is_some() && pair.is_kway());
        // Validation: k >= 2, arity match, finite positive entries.
        assert!(parse_args(&argv(&["partition", "c.hgr", "--k", "1"])).is_err());
        assert!(parse_args(&argv(&["partition", "c.hgr", "--k", "3", "--budgets", "1,2"]))
            .is_err());
        assert!(parse_args(&argv(&["partition", "c.hgr", "--budgets", "1,-2"])).is_err());
        assert!(parse_args(&argv(&["partition", "c.hgr", "--budgets", "1,nan"])).is_err());
        assert!(parse_args(&argv(&["partition", "c.hgr", "--budgets", ""])).is_err());
        // Same flags ride the submit wire request.
        let submitted = job(&[
            "submit", "c.hgr", "--engine", "ml", "--k", "4", "--budgets", "10,20,30,40",
        ]);
        assert_eq!(submitted.k, 4);
        assert_eq!(submitted.budgets, Some(vec![10.0, 20.0, 30.0, 40.0]));
        assert!(parse_args(&argv(&["submit", "c.hgr", "--k", "0"])).is_err());
    }

    #[test]
    fn parse_ml_knob_flags() {
        let cmd = parse_args(&argv(&[
            "partition", "c.hgr", "--method", "ml", "--ml-coarsest", "64", "--ml-starts", "4",
            "--ml-max-net", "12", "--ml-refine-passes", "2", "--ml-polish", "0",
            "--ml-flow-corridor", "500",
        ]))
        .unwrap();
        let Command::Partition { job, .. } = cmd else {
            panic!("expected partition")
        };
        let ml = job.spec.ml;
        assert_eq!(ml.coarsest_nodes, 64);
        assert_eq!(ml.coarsest_starts, 4);
        assert_eq!(ml.max_match_net, 12);
        assert_eq!(ml.refine_passes, 2);
        assert_eq!(ml.polish_passes, 0);
        assert!(ml.flow.enabled);
        assert_eq!(ml.flow.corridor_nodes, 500);
        // --ml-flow alone enables the pass at the default corridor size.
        let cmd = parse_args(&argv(&["partition", "c.hgr", "--method", "ml", "--ml-flow"]))
            .unwrap();
        let Command::Partition { job, .. } = cmd else {
            panic!("expected partition")
        };
        let ml = job.spec.ml;
        assert!(ml.flow.enabled);
        assert_eq!(
            ml.flow.corridor_nodes,
            prop_multilevel::FlowConfig::default().corridor_nodes
        );
        // Same flags on submit, forwarded onto the wire request.
        let cmd = parse_args(&argv(&[
            "submit", "c.hgr", "--engine", "ml", "--ml-coarsest", "64",
        ]))
        .unwrap();
        let Command::Submit { job, .. } = cmd else {
            panic!("expected submit")
        };
        assert_eq!(job.spec.ml.coarsest_nodes, 64);
        assert!(parse_args(&argv(&["partition", "c.hgr", "--ml-coarsest", "x"])).is_err());
        assert!(parse_args(&argv(&["partition", "c.hgr", "--ml-coarsest"])).is_err());
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        assert_eq!(
            parse_args(&argv(&["serve"])).unwrap(),
            Command::Serve {
                addr: DEFAULT_SERVE_ADDR.into(),
                workers: 0,
                queue_cap: 64,
                store_dir: DEFAULT_STORE_DIR.into(),
                coordinator: None,
                heartbeat_ms: 500,
                retries: 3,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "serve", "--addr", "127.0.0.1:0", "--workers", "3", "--queue-cap", "9",
                "--store-dir", "/tmp/circuits",
            ]))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 3,
                queue_cap: 9,
                store_dir: "/tmp/circuits".into(),
                coordinator: None,
                heartbeat_ms: 500,
                retries: 3,
            }
        );
        assert!(parse_args(&argv(&["serve", "--queue-cap", "0"])).is_err());
        assert!(parse_args(&argv(&["serve", "--bogus"])).is_err());
    }

    #[test]
    fn parse_serve_coordinator_flags() {
        let cmd = parse_args(&argv(&[
            "serve", "--coordinator", "127.0.0.1:7171, 127.0.0.1:7172", "--heartbeat-ms", "250",
            "--retries", "5",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Serve {
                coordinator: Some(ref w),
                heartbeat_ms: 250,
                retries: 5,
                ..
            } if w == &vec!["127.0.0.1:7171".to_string(), "127.0.0.1:7172".to_string()]
        ));
        assert!(parse_args(&argv(&["serve", "--coordinator", ","])).is_err());
        assert!(parse_args(&argv(&["serve", "--coordinator"])).is_err());
        assert!(parse_args(&argv(&["serve", "--heartbeat-ms", "0"])).is_err());
    }

    #[test]
    fn parse_batch_defaults_and_flags() {
        assert_eq!(
            parse_args(&argv(&["batch", "--circuit-id", "golem3"])).unwrap(),
            Command::Batch {
                circuit_id: "golem3".into(),
                addr: DEFAULT_SERVE_ADDR.into(),
                engines: vec![EngineName::Prop],
                eps: vec![(0.45, 0.55)],
                runs: 20,
                seed: 0,
                chunk: 1,
                timeout_ms: 0,
                no_wait: false,
            }
        );
        let cmd = parse_args(&argv(&[
            "batch", "--circuit-id", "c", "--engines", "fm, prop", "--eps",
            "0.45:0.55,0.4:0.6", "--runs", "8", "--seed", "3", "--chunk", "2",
            "--timeout-ms", "100", "--no-wait",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Batch {
                circuit_id: "c".into(),
                addr: DEFAULT_SERVE_ADDR.into(),
                engines: vec![EngineName::Fm, EngineName::Prop],
                eps: vec![(0.45, 0.55), (0.4, 0.6)],
                runs: 8,
                seed: 3,
                chunk: 2,
                timeout_ms: 100,
                no_wait: true,
            }
        );
        // --circuit-id is mandatory; malformed eps pairs are refused.
        assert!(parse_args(&argv(&["batch"])).is_err());
        assert!(parse_args(&argv(&["batch", "--circuit-id", "c", "--eps", "0.45"])).is_err());
        assert!(parse_args(&argv(&["batch", "--circuit-id", "c", "--eps", "a:b"])).is_err());
        assert!(parse_args(&argv(&["batch", "--circuit-id", "c", "--bogus"])).is_err());
        assert!(parse_args(&argv(&["batch", "--circuit-id", "c", "--engines", "x"])).is_err());
    }

    #[test]
    fn parse_submit_defaults_and_flags() {
        let cmd = parse_args(&argv(&["submit", "c.hgr"])).unwrap();
        assert_eq!(
            cmd,
            Command::Submit {
                file: Some("c.hgr".into()),
                circuit_id: None,
                addr: DEFAULT_SERVE_ADDR.into(),
                job: Job {
                    runs: 20,
                    ..Job::new(EngineName::Prop)
                },
                timeout_ms: 0,
                priority: 0,
                no_wait: false,
            }
        );
        let cmd = parse_args(&argv(&[
            "submit", "c.hgr", "--engine", "ml", "--runs", "4", "--timeout-ms", "250",
            "--priority", "2", "--no-wait",
        ]))
        .unwrap();
        assert!(matches!(
            cmd,
            Command::Submit {
                ref job,
                timeout_ms: 250,
                priority: 2,
                no_wait: true,
                ..
            } if job.spec.name == EngineName::Ml && job.runs == 4
        ));
        assert!(parse_args(&argv(&["submit"])).is_err());
        assert!(parse_args(&argv(&["submit", "c.hgr", "--priority", "x"])).is_err());
    }

    #[test]
    fn parse_submit_by_circuit_id() {
        let cmd = parse_args(&argv(&["submit", "--circuit-id", "golem4", "--engine", "ml"]))
            .unwrap();
        assert!(matches!(
            cmd,
            Command::Submit {
                file: None,
                circuit_id: Some(ref id),
                ..
            } if id == "golem4"
        ));
        // Exactly one netlist source.
        assert!(parse_args(&argv(&["submit", "c.hgr", "--circuit-id", "x"])).is_err());
        assert!(parse_args(&argv(&["submit", "--engine", "ml"])).is_err());
        assert!(parse_args(&argv(&["submit", "a.hgr", "b.hgr"])).is_err());
    }

    #[test]
    fn parse_upload_variants() {
        assert_eq!(
            parse_args(&argv(&["upload", "golem4.hgb"])).unwrap(),
            Command::Upload {
                file: "golem4.hgb".into(),
                id: None,
                addr: DEFAULT_SERVE_ADDR.into(),
                by_path: false,
            }
        );
        assert_eq!(
            parse_args(&argv(&[
                "upload", "big.hgr", "--id", "big-v2", "--addr", "127.0.0.1:9", "--by-path",
            ]))
            .unwrap(),
            Command::Upload {
                file: "big.hgr".into(),
                id: Some("big-v2".into()),
                addr: "127.0.0.1:9".into(),
                by_path: true,
            }
        );
        assert!(parse_args(&argv(&["upload"])).is_err());
        assert!(parse_args(&argv(&["upload", "a.hgr", "--bogus"])).is_err());
    }

    #[test]
    fn parse_ctl_verbs_and_job_requirements() {
        assert_eq!(
            parse_args(&argv(&["ctl", "stats"])).unwrap(),
            Command::Ctl {
                verb: "stats".into(),
                addr: DEFAULT_SERVE_ADDR.into(),
                job: None,
                circuit: None,
            }
        );
        assert_eq!(
            parse_args(&argv(&["ctl", "cancel", "--job", "7", "--addr", "127.0.0.1:9"])).unwrap(),
            Command::Ctl {
                verb: "cancel".into(),
                addr: "127.0.0.1:9".into(),
                job: Some(7),
                circuit: None,
            }
        );
        assert_eq!(
            parse_args(&argv(&["ctl", "circuits"])).unwrap(),
            Command::Ctl {
                verb: "circuits".into(),
                addr: DEFAULT_SERVE_ADDR.into(),
                job: None,
                circuit: None,
            }
        );
        assert_eq!(
            parse_args(&argv(&["ctl", "evict", "--circuit", "golem4"])).unwrap(),
            Command::Ctl {
                verb: "evict".into(),
                addr: DEFAULT_SERVE_ADDR.into(),
                job: None,
                circuit: Some("golem4".into()),
            }
        );
        // status/wait/cancel/watch need --job; the others refuse it.
        // evict needs --circuit; the others refuse it.
        assert!(parse_args(&argv(&["ctl", "wait"])).is_err());
        assert!(parse_args(&argv(&["ctl", "watch"])).is_err());
        assert!(matches!(
            parse_args(&argv(&["ctl", "watch", "--job", "4"])).unwrap(),
            Command::Ctl { ref verb, job: Some(4), .. } if verb == "watch"
        ));
        assert!(parse_args(&argv(&["ctl", "ping", "--job", "1"])).is_err());
        assert!(parse_args(&argv(&["ctl", "evict"])).is_err());
        assert!(parse_args(&argv(&["ctl", "ping", "--circuit", "x"])).is_err());
        assert!(parse_args(&argv(&["ctl", "reboot"])).is_err());
        assert!(parse_args(&argv(&["ctl"])).is_err());
    }

    #[test]
    fn submit_against_a_live_daemon_roundtrips() {
        let handle = prop_serve::start(&prop_serve::ServerConfig {
            workers: 1,
            queue_cap: 4,
            ..prop_serve::ServerConfig::default()
        })
        .unwrap();
        let dir = std::env::temp_dir().join(format!("prop-cli-submit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("tiny.hgr");
        let g = prop_netlist::generate::generate(
            &prop_netlist::generate::GeneratorConfig::new(20, 24, 80).with_seed(6),
        )
        .unwrap();
        std::fs::write(&file, format::write_hgr(&g)).unwrap();

        let cmd = parse_args(&argv(&[
            "submit",
            file.to_str().unwrap(),
            "--addr",
            &handle.addr().to_string(),
            "--engine",
            "fm",
            "--runs",
            "2",
        ]))
        .unwrap();
        run(cmd).unwrap();

        let ctl = parse_args(&argv(&[
            "ctl",
            "shutdown",
            "--addr",
            &handle.addr().to_string(),
        ]))
        .unwrap();
        run(ctl).unwrap();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The whole `--threads` rule, as one table. `resolve_threads` takes
    /// no engine and no `k`: every method, on the 2-way and the k-way
    /// path, resolves through it.
    #[test]
    fn resolve_threads_table() {
        use ParallelPolicy::{Auto, Threads};
        for (threads, policy) in [
            (None, Auto),
            (Some(0), Auto),
            (Some(1), Threads(1)),
            (Some(3), Threads(3)),
        ] {
            assert_eq!(resolve_threads(threads), policy, "--threads {threads:?}");
        }
    }

    #[test]
    fn removed_ml_threads_flag_is_a_usage_error() {
        for cmd in ["partition", "submit"] {
            let err = parse_args(&argv(&[cmd, "x.hgr", "--ml-threads", "2"])).unwrap_err();
            assert_eq!(err.code, 2, "{cmd}");
            assert!(err.message.contains("--ml-threads"), "{cmd}: {}", err.message);
        }
    }

    #[test]
    fn unknown_command_is_usage_error() {
        let err = parse_args(&argv(&["frobnicate"])).unwrap_err();
        assert_eq!(err.code, 2);
    }

    /// Every method runs through the one job path, and runs on every
    /// CPU, on one and on two give the same result exactly.
    #[test]
    fn every_method_is_thread_count_invariant() {
        let graph = prop_netlist::generate::generate(
            &prop_netlist::generate::GeneratorConfig::new(40, 48, 160).with_seed(1),
        )
        .unwrap();
        let balance = prop_core::BalanceConstraint::new(0.45, 0.55, 40).unwrap();
        let token = CancelToken::new();
        for name in EngineName::ALL {
            let job = Job {
                runs: 2,
                ..Job::new(name)
            };
            let run = |threads| job.run(&graph, resolve_threads(threads), &token).unwrap();
            let result = run(None);
            let JobReport::TwoWay(report) = &result else {
                panic!("{name}: a k = 2 job is a bipartition")
            };
            assert!(report.result.partition.is_balanced(balance), "{name}");
            assert_eq!(run(Some(1)), result, "{name}");
            assert_eq!(run(Some(2)), result, "{name}");
        }
    }

    #[test]
    fn usage_names_every_registered_engine() {
        let methods = USAGE
            .split_once("Partition methods:")
            .and_then(|(_, rest)| rest.split_once('.'))
            .map(|(list, _)| list)
            .expect("USAGE lists the partition methods");
        let listed: Vec<&str> = methods
            .split(',')
            .map(|m| m.trim().trim_end_matches(" (default)"))
            .collect();
        assert_eq!(listed, EngineName::ALL.map(EngineName::as_str));
    }

    #[test]
    fn assignment_lists_every_node() {
        let graph = prop_netlist::generate::generate(
            &prop_netlist::generate::GeneratorConfig::new(10, 12, 40).with_seed(2),
        )
        .unwrap();
        let report = Job::new(EngineName::Fm)
            .run(&graph, ParallelPolicy::Sequential, &CancelToken::new())
            .unwrap();
        let JobReport::TwoWay(report) = report else {
            panic!("a k = 2 job is a bipartition")
        };
        let text = render_assignment(&graph, &report.result);
        assert_eq!(text.lines().count(), 10);
        assert!(text.lines().all(|l| l.ends_with(" A") || l.ends_with(" B")));
    }

    #[test]
    fn extension_dispatch() {
        assert!(load_netlist("/definitely/missing.hgr").is_err());
        assert!(load_netlist("/definitely/missing.hgb").is_err());
        let g = prop_netlist::generate::generate(
            &prop_netlist::generate::GeneratorConfig::new(6, 6, 20).with_seed(3),
        )
        .unwrap();
        assert!(render_netlist(&g, "x.hgr").is_ok());
        assert!(render_netlist(&g, "x.netd").is_ok());
        assert!(render_netlist(&g, "x.xml").is_err());
        // The binary snapshot is not a text format.
        assert!(render_netlist(&g, "x.hgb").is_err());
    }

    #[test]
    fn hgb_snapshot_roundtrips_through_the_cli_helpers() {
        let dir = std::env::temp_dir().join(format!("prop-cli-hgb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.hgb");
        let path = path.to_str().unwrap();
        let g = prop_netlist::generate::generate(
            &prop_netlist::generate::GeneratorConfig::new(40, 44, 150).with_seed(9),
        )
        .unwrap();
        write_netlist(&g, path).unwrap();
        let (loaded, report) = load_netlist_reported(path).unwrap();
        assert_eq!(loaded, g);
        let report = report.expect("hgb loads carry a report");
        assert!(report.bytes > 0);
        // Text formats carry no snapshot report.
        let hgr = dir.join("tiny.hgr");
        let hgr = hgr.to_str().unwrap();
        write_netlist(&g, hgr).unwrap();
        let (loaded, report) = load_netlist_reported(hgr).unwrap();
        assert_eq!(loaded, g);
        assert!(report.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn upload_and_submit_by_id_through_the_cli() {
        let dir = std::env::temp_dir().join(format!("prop-cli-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store_dir = dir.join("store");
        let handle = prop_serve::start(&prop_serve::ServerConfig {
            workers: 1,
            queue_cap: 4,
            store_dir: Some(store_dir.to_string_lossy().into_owned()),
            ..prop_serve::ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();

        // Upload a .hgb snapshot, then sweep against it by id.
        let file = dir.join("tiny.hgb");
        let g = prop_netlist::generate::generate(
            &prop_netlist::generate::GeneratorConfig::new(30, 36, 120).with_seed(8),
        )
        .unwrap();
        write_netlist(&g, file.to_str().unwrap()).unwrap();
        run(parse_args(&argv(&["upload", file.to_str().unwrap(), "--addr", &addr])).unwrap())
            .unwrap();
        run(parse_args(&argv(&[
            "submit", "--circuit-id", "tiny", "--addr", &addr, "--engine", "fm", "--runs", "2",
        ]))
        .unwrap())
        .unwrap();
        run(parse_args(&argv(&["ctl", "circuits", "--addr", &addr])).unwrap()).unwrap();
        run(parse_args(&argv(&["ctl", "evict", "--circuit", "tiny", "--addr", &addr])).unwrap())
            .unwrap();

        run(parse_args(&argv(&["ctl", "shutdown", "--addr", &addr])).unwrap()).unwrap();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
