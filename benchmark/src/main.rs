//! `bench`: runs the benchmark's workloads and prints every metric by
//! name with its unit and sample count; the last line of standard output
//! is one JSON summary. Exits 1 on any wrong answer.
//!
//! ```text
//! bench [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--record FILE]
//! bench --compare A.jsonl B.jsonl
//! ```

use prop_benchmark::json::{self, Json};
use prop_benchmark::workload::{self, Ctx, WORKLOADS};
use prop_benchmark::{
    append_line, cargo_build, command_line, compare, repo_root, sys, target_dir, DEFAULT_SECONDS,
};
use std::path::{Path, PathBuf};
use std::process::Command;

const USAGE: &str =
    "usage: bench [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--record FILE]
       bench --compare A.jsonl B.jsonl
workloads: ml-golem3, prop-p2, kway8-golem3, serve-mix, cluster-sweep (default: all)";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        record: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--record" => args.record = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?}\n{USAGE}"));
        }
    }
    Ok(args)
}

fn main() {
    let code = match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<i32, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let root = repo_root();
    if let Some((a, b)) = &args.compare {
        return compare_files(&root, a, b);
    }
    if sys::nproc() < 2 {
        return Err(format!(
            "refusing to run on {} CPU: the workloads are sized for two (two daemon workers, two clients)",
            sys::nproc()
        ));
    }
    let target = target_dir()?;
    cargo_build(
        &target,
        &root.join("Cargo.toml"),
        &["-p", "prop-cli", "--bin", "prop"],
    )?;
    let prop = target.join("release").join("prop");
    if args.trace {
        return run_trace(&root, &target, &prop);
    }

    let root_arg = root.to_string_lossy();
    let rev = command_line("git", &["-C", &root_arg, "rev-parse", "--short=12", "HEAD"]);
    let rustc = command_line("rustc", &["-V"]);
    let provenance = |w: &str| {
        vec![
            ("workload", json::s(w)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("rev", json::s(&rev)),
            ("nproc", Json::Num(sys::nproc() as f64)),
            ("rustc", json::s(&rustc)),
        ]
    };
    let chosen: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for name in chosen {
        let dir =
            target
                .join("benchmark")
                .join(format!("{name}-s{}-{}", args.seed, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let ctx = Ctx {
            prop: prop.clone(),
            dir: dir.clone(),
            seed: args.seed,
            seconds: args.seconds,
        };
        let outcome = workload::run(&ctx, name);
        let _ = std::fs::remove_dir_all(&dir);
        let outcome = outcome.map_err(|e| format!("{name}: set-up failed: {e}"))?;

        let prov = provenance(name);
        let header: Vec<String> = prov
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()))
            .collect();
        println!("# {}", header.join(" "));
        for line in outcome.lines() {
            println!("{line}");
        }
        if let Some(path) = &args.record {
            append_line(path, &outcome.record(prov).render())?;
        }
        println!("{}", outcome.summary().render());
        all_correct &= outcome.correct();
    }
    Ok(if all_correct { 0 } else { 1 })
}

/// Builds the separate `trace` binary and hands the run over to it.
fn run_trace(root: &Path, target: &Path, prop: &Path) -> Result<i32, String> {
    cargo_build(target, &root.join("benchmark/trace/Cargo.toml"), &[])?;
    let passthrough: Vec<String> = {
        let mut it = std::env::args().skip(1);
        let mut kept = Vec::new();
        while let Some(a) = it.next() {
            if a == "--trace" {
                it.next();
            } else {
                kept.push(a);
            }
        }
        kept
    };
    let status = Command::new(target.join("release").join("trace"))
        .args(passthrough)
        .arg("--prop")
        .arg(prop)
        .status()
        .map_err(|e| format!("cannot run trace: {e}"))?;
    Ok(status.code().unwrap_or(1))
}

fn compare_files(root: &Path, a: &Path, b: &Path) -> Result<i32, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = compare::bounds(&read(&root.join("BENCHMARK.json"))?)?;
    let rows = compare::compare(
        &bounds,
        &compare::records(&read(a)?)?,
        &compare::records(&read(b)?)?,
    );
    if rows.is_empty() {
        return Err("the two sets share no workload".into());
    }
    for row in &rows {
        println!("{}", compare::render(row));
    }
    let failing = compare::failing(&rows);
    println!(
        "{}",
        if failing {
            "compare: FAILED"
        } else {
            "compare: ok"
        }
    );
    Ok(i32::from(failing))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve-mix",
            "--seed",
            "3",
            "--seconds",
            "15",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve-mix"), 3, 15.0, false)
        );
        assert!(args(&["--trace", "1"]).unwrap().trace);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        let c = args(&["--compare", "a", "b"]).unwrap();
        assert_eq!(c.compare, Some(("a".into(), "b".into())));
    }
}
