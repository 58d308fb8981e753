//! `trace`: the traced run of the benchmark's workloads. It calls each
//! layer's public functions in-process, records spans around them in
//! memory, checks every traced result against the untraced result of the
//! same job, writes the spans to `<target>/benchmark/trace-<workload>.json`
//! and prints the per-layer metrics; the last line of standard output is
//! one JSON summary. Normally started by `bench --trace 1`.
//!
//! ```text
//! trace --prop PATH [--workload W] [--seed S] [--seconds T] [--record FILE]
//! ```

mod cli;
mod cluster;
mod serve;
mod timed;

use prop_benchmark::json::{self, Json};
use prop_benchmark::report::Outcome;
use prop_benchmark::spans::{self, Recorder};
use prop_benchmark::workload::{Ctx, CLI_WORKLOADS, WORKLOADS};
use prop_benchmark::{append_line, target_dir, DEFAULT_SECONDS};
use std::path::PathBuf;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    prop: PathBuf,
    record: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut prop, mut record) =
        (None, 1, DEFAULT_SECONDS, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--prop" => prop = Some(PathBuf::from(value)),
            "--record" => record = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if workload.as_deref().is_some_and(|w| !WORKLOADS.contains(&w)) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let prop = prop.ok_or("--prop <path to the prop binary> is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        prop,
        record,
    })
}

fn main() {
    let code = match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("trace: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn real_main() -> Result<i32, String> {
    let args = parse_args(std::env::args().skip(1))?;
    let out_dir = target_dir()?.join("benchmark");
    let chosen: Vec<&str> = args
        .workload
        .as_deref()
        .map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut all_correct = true;
    for name in chosen {
        let dir = out_dir.join(format!(
            "trace-{name}-s{}-{}",
            args.seed,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let ctx = Ctx {
            prop: args.prop.clone(),
            dir: dir.clone(),
            seed: args.seed,
            seconds: args.seconds,
        };
        let rec = Recorder::default();
        let mut out = Outcome::default();
        let mut layers = timed::Layers::default();
        let result = match CLI_WORKLOADS.iter().find(|w| w.name == name) {
            Some(w) => cli::trace(&ctx, w, &rec, &mut out, &mut layers),
            None if name == "serve-mix" => serve::trace(&ctx, &rec, &mut out, &mut layers),
            None => cluster::trace(&ctx, &rec, &mut out, &mut layers),
        };
        let _ = std::fs::remove_dir_all(&dir);
        result.map_err(|e| format!("{name}: {e}"))?;
        out.metrics = layers.metrics();

        let prov = vec![
            ("workload", json::s(name)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("trace", Json::Bool(true)),
        ];
        let mut file = match out.record(prov.clone()) {
            Json::Obj(fields) => fields,
            _ => unreachable!("records are objects"),
        };
        file.push(("spans".into(), spans::to_json(&rec.spans())));
        let path = out_dir.join(format!("trace-{name}.json"));
        std::fs::write(&path, Json::Obj(file).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;

        let header: Vec<String> = prov
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()))
            .collect();
        println!("# {} spans={}", header.join(" "), path.display());
        for line in out.lines() {
            println!("{line}");
        }
        if let Some(record) = &args.record {
            append_line(record, &out.record(prov).render())?;
        }
        println!("{}", out.summary().render());
        all_correct &= out.correct();
    }
    Ok(if all_correct { 0 } else { 1 })
}
