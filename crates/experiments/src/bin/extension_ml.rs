//! Extension experiment: the clustering pre-phase the paper's conclusion
//! anticipates ("in conjunction with a clustering initial phase \[PROP\]
//! will yield a high-quality partitioning tool").
//!
//! Compares, per circuit at 45-55% balance: flat PROP vs the multilevel
//! `ml` engine (best-of-R V-cycles over heavy-edge coarsening, PROP/FM
//! size-adaptive refinement), in both cut quality and per-run wall-clock.

use prop_core::ParallelPolicy;
use prop_engines::EngineName;
use prop_experiments::methods;
use prop_experiments::report::{fmt_cut, fmt_pct, fmt_secs, improvement_pct, Table};
use prop_experiments::Options;

fn main() {
    let opts = Options::from_args();

    println!("Extension — multilevel (clustering pre-phase) PROP vs flat PROP, 45-55%");
    println!();
    let mut table = Table::new([
        "Test Case",
        "PROP",
        "ML",
        "impr %",
        "PROP s/run",
        "ML s/run",
        "speedup",
    ]);
    let mut totals = [0.0f64; 4]; // flat cut, ml cut, flat secs, ml secs
    for spec in opts.circuits() {
        let graph = spec.instantiate().expect("valid Table-1 spec");
        let runs = opts.scaled_runs(20);

        let [flat, multi] = [("PROP", EngineName::Prop), ("ML", EngineName::Ml)].map(
            |(label, engine)| {
                methods::run(label, engine, &graph, (0.45, 0.55), runs, ParallelPolicy::Sequential)
            },
        );

        totals[0] += flat.cut;
        totals[1] += multi.cut;
        totals[2] += flat.seconds_per_run;
        totals[3] += multi.seconds_per_run;
        table.push_row([
            spec.name.to_string(),
            fmt_cut(flat.cut),
            fmt_cut(multi.cut),
            fmt_pct(improvement_pct(multi.cut, flat.cut)),
            fmt_secs(flat.seconds_per_run),
            fmt_secs(multi.seconds_per_run),
            format!("{:.1}x", flat.seconds_per_run / multi.seconds_per_run.max(1e-9)),
        ]);
        eprintln!("  done: {}", spec.name);
    }
    table.push_row([
        "Total".to_string(),
        fmt_cut(totals[0]),
        fmt_cut(totals[1]),
        fmt_pct(improvement_pct(totals[1], totals[0])),
        fmt_secs(totals[2]),
        fmt_secs(totals[3]),
        format!("{:.1}x", totals[2] / totals[3].max(1e-9)),
    ]);
    print!("{}", table.render());
    println!();
    println!("best-of-R for both engines (same run count); positive impr % means");
    println!("the clustering pre-phase found the better cut.");
}
