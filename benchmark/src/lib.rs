//! The PROP suite's benchmark: five workloads that drive the release
//! `prop` binary, its daemon and its cluster mode from outside, check
//! every answer, and report end-to-end metrics; plus the span tools the
//! separate `trace` binary uses for per-layer numbers.
//!
//! See `benchmark/README.md` for the workloads, the metrics and how to
//! run it.

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod cli_loop;
pub mod cluster;
pub mod compare;
pub mod daemon;
pub mod json;
pub mod parse;
pub mod report;
pub mod schedule;
pub mod serve_mix;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod wire;
pub mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Default length of the measured window, matching `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// The repository root: the parent of this package.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

/// The cargo target directory the running executable was built into.
///
/// # Errors
///
/// Fails when the executable's path is unknown.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("cannot place {} in a target directory", exe.display()))
}

/// Builds `targets` of the package at `manifest` in release mode into
/// `target`, offline.
///
/// # Errors
///
/// Fails when cargo cannot run or the build fails.
pub fn cargo_build(target: &Path, manifest: &Path, targets: &[&str]) -> Result<(), String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(manifest)
        .args(targets)
        .env("CARGO_TARGET_DIR", target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "cargo build of {} failed ({status})",
            manifest.display()
        ))
    }
}

/// Appends `line` to the record file at `path`, creating it if needed.
///
/// # Errors
///
/// Fails when the file cannot be opened or written.
pub fn append_line(path: &Path, line: &str) -> Result<(), String> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))
}

/// The first line a command prints, or `unknown`.
pub fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}
