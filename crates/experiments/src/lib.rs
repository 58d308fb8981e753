//! Experiment harness for the DAC-96 PROP reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper:
//!
//! | Binary    | Reproduces | Protocol |
//! |-----------|------------|----------|
//! | `figure1` | Figure 1   | FM gains, LA-3 vectors, PROP 2nd-iteration gains on the worked example |
//! | `table1`  | Table 1    | node/net/pin characteristics of the 16 synthetic proxy circuits |
//! | `table2`  | Table 2    | 50-50% cutsets: FM100/40/20, LA-2, LA-3, WINDOW, PROP(20) |
//! | `table3`  | Table 3    | 45-55% cutsets: MELO, PARABOLI, EIG1, PROP(20) |
//! | `table4`  | Table 4    | CPU seconds per run for every method |
//! | `ablation`| (ours)     | PROP parameter sensitivity |
//! | `scaling` | §3.5       | PROP vs FM-bucket time per pass against circuit size |
//!
//! All binaries accept `--quick` (smallest four circuits, reduced run
//! counts) and `--circuit <name>` (a single circuit). Runs are entirely
//! deterministic: circuits are seeded by name, initial partitions by the
//! run index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod methods;
pub mod paper;
pub mod report;

use prop_core::ParallelPolicy;
use prop_netlist::suite::{self, CircuitSpec};

/// Command-line options shared by the experiment binaries.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Restrict to the four smallest circuits and scale run counts down.
    pub quick: bool,
    /// Restrict to a single named circuit.
    pub circuit: Option<String>,
    /// Override the number of PROP/FM20/LA runs (Table-2 columns scale
    /// proportionally).
    pub runs: Option<usize>,
    /// Worker threads for multi-run methods: `None` keeps the sequential
    /// harness, `Some(0)` auto-detects, `Some(n)` uses exactly `n`.
    /// Results are bit-identical across all settings.
    pub threads: Option<usize>,
}

impl Options {
    /// Parses `--quick`, `--circuit <name>`, `--runs <n>`, and
    /// `--threads <n>` from the process arguments. Unknown arguments abort
    /// with a usage message.
    pub fn from_args() -> Options {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Options::parse(&args).unwrap_or_else(|message| usage(&message))
    }

    /// Parses an argument slice (without the program name). Returns a
    /// human-readable message on malformed input.
    ///
    /// # Errors
    ///
    /// Returns the message to print when a flag is unknown, a flag's value
    /// is missing, or a numeric value does not parse.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--circuit" => {
                    opts.circuit =
                        Some(args.next().ok_or("--circuit requires a value: --circuit <name>")?.clone());
                }
                "--runs" => {
                    let v = args.next().ok_or("--runs requires a value: --runs <n>")?;
                    opts.runs = Some(
                        v.parse()
                            .map_err(|_| format!("--runs expects a number, got {v:?}"))?,
                    );
                }
                "--threads" => {
                    let v = args.next().ok_or("--threads requires a value: --threads <n>")?;
                    opts.threads = Some(
                        v.parse()
                            .map_err(|_| format!("--threads expects a number, got {v:?}"))?,
                    );
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(opts)
    }

    /// Like [`Options::parse`], but collects arguments this parser does
    /// not recognise into a leftover list instead of rejecting them, so a
    /// binary can layer its own flags on top of the shared set. A shared
    /// flag's *value* is still consumed by the shared parser; only whole
    /// unknown flags (and their values, which the caller must consume) are
    /// left over.
    ///
    /// # Errors
    ///
    /// Returns the message to print when a shared flag's value is missing
    /// or does not parse.
    pub fn parse_known(args: &[String]) -> Result<(Options, Vec<String>), String> {
        let mut known = Vec::new();
        let mut leftover = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => known.push(arg.clone()),
                "--circuit" | "--runs" | "--threads" => {
                    known.push(arg.clone());
                    if let Some(v) = args.next() {
                        known.push(v.clone());
                    }
                }
                _ => leftover.push(arg.clone()),
            }
        }
        Ok((Options::parse(&known)?, leftover))
    }

    /// The parallelism policy the `--threads` setting resolves to.
    pub fn policy(&self) -> ParallelPolicy {
        match self.threads {
            None => ParallelPolicy::Sequential,
            Some(0) => ParallelPolicy::Auto,
            Some(n) => ParallelPolicy::Threads(n),
        }
    }

    /// The circuits this invocation covers.
    pub fn circuits(&self) -> Vec<CircuitSpec> {
        if let Some(name) = &self.circuit {
            match suite::by_name(name) {
                Some(spec) => vec![spec],
                None => usage(&format!(
                    "unknown circuit {name:?}; known: {}",
                    suite::table1()
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                )),
            }
        } else if self.quick {
            suite::small_suite()
        } else {
            suite::table1()
        }
    }

    /// Scales a paper run count (e.g. 20) by the `--quick`/`--runs`
    /// settings. An explicit `--runs <n>` is authoritative: the paper's
    /// column ratios still apply (`n * paper_runs / 20`), but `--quick`
    /// does not divide it further, so `--quick --runs 5` really does 5
    /// runs of a 20-run protocol — what the smoke gates rely on.
    pub fn scaled_runs(&self, paper_runs: usize) -> usize {
        match self.runs {
            Some(r) => (r * paper_runs / 20).max(1),
            None if self.quick => paper_runs.div_ceil(4).max(1),
            None => paper_runs.max(1),
        }
    }
}

/// The git revision of the working tree, for row provenance: the short
/// `HEAD` hash, plus `-dirty` when `git status --porcelain` lists any
/// change, so a row taken before its change is committed does not carry
/// the parent's rev as if it measured it. `unknown` outside a checkout.
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    match git(&["rev-parse", "--short", "HEAD"]) {
        Some(head) => rev_label(&head, &git(&["status", "--porcelain"]).unwrap_or_default()),
        None => rev_label("", ""),
    }
}

/// The provenance label for `head` (`git rev-parse` output) and
/// `porcelain` (`git status --porcelain` output).
fn rev_label(head: &str, porcelain: &str) -> String {
    match head.trim() {
        "" => "unknown".to_string(),
        rev if porcelain.trim().is_empty() => rev.to_string(),
        rev => format!("{rev}-dirty"),
    }
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: <bin> [--quick] [--circuit <name>] [--runs <n>] [--threads <n>]");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rev_label_marks_a_dirty_tree() {
        assert_eq!(rev_label("d9c6572\n", ""), "d9c6572");
        assert_eq!(rev_label("d9c6572\n", " M crates/cli/src/lib.rs\n"), "d9c6572-dirty");
        assert_eq!(rev_label("", ""), "unknown");
    }

    #[test]
    fn default_options_cover_full_suite() {
        let o = Options::default();
        assert_eq!(o.circuits().len(), 16);
        assert_eq!(o.scaled_runs(20), 20);
        assert_eq!(o.scaled_runs(100), 100);
    }

    #[test]
    fn quick_scales_down() {
        let o = Options {
            quick: true,
            ..Options::default()
        };
        assert_eq!(o.circuits().len(), 4);
        assert_eq!(o.scaled_runs(20), 5);
        assert_eq!(o.scaled_runs(100), 25);
        // Never zero.
        assert_eq!(o.scaled_runs(1), 1);
    }

    #[test]
    fn runs_override_scales_proportionally() {
        let o = Options {
            runs: Some(10),
            ..Options::default()
        };
        assert_eq!(o.scaled_runs(20), 10);
        assert_eq!(o.scaled_runs(100), 50);
    }

    #[test]
    fn explicit_runs_is_not_divided_by_quick() {
        let o = Options {
            quick: true,
            runs: Some(5),
            ..Options::default()
        };
        assert_eq!(o.scaled_runs(20), 5);
        assert_eq!(o.scaled_runs(100), 25);
        // Never zero, even for tiny columns.
        assert_eq!(o.scaled_runs(1), 1);
    }

    fn parse(args: &[&str]) -> Result<Options, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Options::parse(&owned)
    }

    #[test]
    fn parse_accepts_all_flags() {
        let o = parse(&["--quick", "--circuit", "balu", "--runs", "10", "--threads", "4"])
            .unwrap();
        assert!(o.quick);
        assert_eq!(o.circuit.as_deref(), Some("balu"));
        assert_eq!(o.runs, Some(10));
        assert_eq!(o.threads, Some(4));
        assert_eq!(o.policy(), ParallelPolicy::Threads(4));
    }

    #[test]
    fn parse_threads_policies() {
        assert_eq!(parse(&[]).unwrap().policy(), ParallelPolicy::Sequential);
        assert_eq!(
            parse(&["--threads", "0"]).unwrap().policy(),
            ParallelPolicy::Auto
        );
        assert_eq!(
            parse(&["--threads", "7"]).unwrap().policy(),
            ParallelPolicy::Threads(7)
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(parse(&["--frobnicate"]).unwrap_err().contains("--frobnicate"));
        assert!(parse(&["--runs"]).unwrap_err().contains("--runs"));
        assert!(parse(&["--runs", "many"]).unwrap_err().contains("many"));
        assert!(parse(&["--threads"]).unwrap_err().contains("--threads"));
        assert!(parse(&["--threads", "x"]).unwrap_err().contains("x"));
        assert!(parse(&["--circuit"]).unwrap_err().contains("--circuit"));
    }

    #[test]
    fn parse_known_splits_shared_from_leftover() {
        let args: Vec<String> = ["--label", "x", "--quick", "--runs", "10", "--profile"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (o, leftover) = Options::parse_known(&args).unwrap();
        assert!(o.quick);
        assert_eq!(o.runs, Some(10));
        assert_eq!(leftover, vec!["--label", "x", "--profile"]);
    }

    #[test]
    fn parse_known_still_validates_shared_values() {
        let args: Vec<String> = ["--runs", "many"].iter().map(|s| s.to_string()).collect();
        assert!(Options::parse_known(&args).unwrap_err().contains("many"));
        // A shared flag missing its value is a shared-parser error, not a
        // leftover.
        let args: Vec<String> = vec!["--threads".to_string()];
        assert!(Options::parse_known(&args).unwrap_err().contains("--threads"));
    }

    #[test]
    fn parse_known_with_no_leftovers_matches_parse() {
        let args: Vec<String> = ["--circuit", "p2", "--threads", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (o, leftover) = Options::parse_known(&args).unwrap();
        assert!(leftover.is_empty());
        assert_eq!(o.circuit.as_deref(), Some("p2"));
        assert_eq!(o.threads, Some(2));
    }

    #[test]
    fn named_circuit_selection() {
        let o = Options {
            circuit: Some("balu".into()),
            ..Options::default()
        };
        let c = o.circuits();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].name, "balu");
    }
}
