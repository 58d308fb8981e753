//! Regenerates Table 4 of the paper: CPU seconds per run for every
//! compared method, plus the total-time and speed-ratio summaries the
//! paper's §4 discusses.

use prop_engines::EngineName;
use prop_experiments::methods;
use prop_experiments::report::{fmt_secs, Table};
use prop_experiments::Options;

fn main() {
    let opts = Options::from_args();

    // Per-run timing probes: a handful of runs per iterative method is
    // enough for a stable per-run figure. `--threads` fans the probe runs
    // out (per-run seconds then reflect the parallel harness).
    let probe_runs = if opts.quick { 2 } else { 3 };
    let policy = opts.policy();

    println!("Table 4 — seconds per run (iterative) / per invocation (global)");
    println!();
    let mut table = Table::new([
        "Test Case",
        "FM-bucket",
        "FM-tree",
        "LA-2",
        "LA-3",
        "PROP",
        "EIG1",
        "Paraboli",
        "MELO",
        "WINDOW",
    ]);
    // Accumulate the paper's total-time protocol: per-run times scaled by
    // the number of runs each method is given in Tables 2-3.
    let mut totals = [0.0f64; 9];
    let run_scale = [100.0, 100.0, 40.0, 20.0, 20.0, 1.0, 1.0, 1.0, 1.0];
    for spec in opts.circuits() {
        let graph = spec.instantiate().expect("valid Table-1 spec");
        let b5050 = (0.5, 0.5);
        let b4555 = (0.45, 0.55);
        let window_runs = opts.scaled_runs(20);
        let outcomes = [
            ("FM-bucket", EngineName::Fm, b5050, probe_runs),
            ("FM-tree", EngineName::FmTree, b5050, probe_runs),
            ("LA-2", EngineName::La2, b5050, probe_runs),
            ("LA-3", EngineName::La3, b5050, probe_runs),
            // The paper's Table-4 PROP column is the 45-55% run time.
            ("PROP", EngineName::Prop, b4555, probe_runs),
            ("EIG1", EngineName::Eig1, b4555, 1),
            ("Paraboli", EngineName::Paraboli, b4555, 1),
            ("MELO", EngineName::Melo, b4555, 1),
            ("WINDOW", EngineName::Window, b5050, window_runs),
        ]
        .map(|(label, engine, balance, runs)| {
            methods::run(label, engine, &graph, balance, runs, policy)
        });
        let mut row = vec![spec.name.to_string()];
        for ((t, o), scale) in totals.iter_mut().zip(&outcomes).zip(run_scale) {
            *t += o.seconds_per_run * scale;
            row.push(fmt_secs(o.seconds_per_run));
        }
        table.push_row(row);
        eprintln!("  done: {}", spec.name);
    }
    let mut total_row = vec!["Total (paper runs)".to_string()];
    total_row.extend(totals.iter().map(|&t| fmt_secs(t)));
    table.push_row(total_row);
    print!("{}", table.render());

    println!();
    println!("totals scale per-run times by the paper's run counts:");
    println!("  FM x100, LA-2 x40, LA-3 x20, PROP x20; global methods x1");
    let prop_total = totals[4].max(1e-12); // PROP x20 runs
    let prop_per_run = prop_total / 20.0;
    let fm_per_run = (totals[0] / 100.0).max(1e-12);
    println!();
    println!("speed ratios (paper: PROP 4.6x slower than FM per run,");
    println!("  3.15x faster than FM100-tree total, 3.9x faster than PARABOLI,");
    println!("  2.2x faster than LA-3 and MELO):");
    println!("  PROP/FM-bucket per-run ratio: {:.1}x", prop_per_run / fm_per_run);
    println!("  FM100-tree / PROP20 total:    {:.2}x", totals[1] / prop_total);
    println!("  Paraboli / PROP20 total:      {:.2}x", totals[6] / prop_total);
    println!("  LA-3(20) / PROP20 total:      {:.2}x", totals[3] / prop_total);
    println!("  MELO / PROP20 total:          {:.2}x", totals[7] / prop_total);
}
