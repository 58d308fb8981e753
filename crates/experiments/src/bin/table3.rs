//! Regenerates Table 3 of the paper: cutset sizes under the 45-55%
//! balance criterion for MELO, PARABOLI, EIG1, and PROP (20 runs).

use prop_core::ParallelPolicy;
use prop_engines::EngineName;
use prop_experiments::methods;
use prop_experiments::report::{fmt_cut, fmt_pct, improvement_pct, Table};
use prop_experiments::Options;

fn main() {
    let opts = Options::from_args();

    println!("Table 3 — 45-55% balance cutsets");
    println!();
    let mut table = Table::new(["Test Case", "MELO", "Paraboli", "EIG1", "PROP"]);
    let mut totals = [0.0f64; 4];
    for spec in opts.circuits() {
        let graph = spec.instantiate().expect("valid Table-1 spec");
        let runs = opts.scaled_runs(20);
        let outcomes = [
            ("MELO", EngineName::Melo),
            ("Paraboli", EngineName::Paraboli),
            ("EIG1", EngineName::Eig1),
            ("PROP", EngineName::Prop),
        ]
        .map(|(label, engine)| {
            methods::run(label, engine, &graph, (0.45, 0.55), runs, ParallelPolicy::Sequential)
        });
        let mut row = vec![spec.name.to_string()];
        for (t, o) in totals.iter_mut().zip(&outcomes) {
            *t += o.cut;
            row.push(fmt_cut(o.cut));
        }
        table.push_row(row);
        eprintln!("  done: {}", spec.name);
    }
    let mut total_row = vec!["Total".to_string()];
    total_row.extend(totals.iter().map(|&t| fmt_cut(t)));
    table.push_row(total_row);
    print!("{}", table.render());

    println!();
    println!("PROP improvement over each method (paper convention, totals):");
    let prop_total = totals[3];
    for (i, name) in ["MELO", "Paraboli", "EIG1"].iter().enumerate() {
        println!(
            "  vs {:<9} {:>6}%   (paper: MELO 19.9, Paraboli 15.0, EIG1 57.1)",
            name,
            fmt_pct(improvement_pct(prop_total, totals[i]))
        );
    }
}
