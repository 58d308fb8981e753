//! Regenerates Table 2 of the paper: cutset sizes under the 50-50%
//! balance criterion for FM (100/40/20 runs), LA-2, LA-3, WINDOW, and
//! PROP (20 runs), with PROP's improvement percentages.

use prop_core::ParallelPolicy;
use prop_engines::EngineName;
use prop_experiments::methods::{self, MethodOutcome};
use prop_experiments::report::{fmt_cut, fmt_pct, improvement_pct, Table};
use prop_experiments::Options;

fn main() {
    let opts = Options::from_args();
    let columns = [
        ("FM100", EngineName::Fm, 100usize),
        ("FM40", EngineName::Fm, 40),
        ("FM20", EngineName::Fm, 20),
        ("LA-2", EngineName::La2, 20),
        ("LA-3", EngineName::La3, 20),
        ("WINDOW", EngineName::Window, 20),
        ("PROP", EngineName::Prop, 20),
    ];
    println!("Table 2 — 50-50% balance cutsets");
    println!();
    let mut header: Vec<String> = vec!["Test Case".into()];
    header.extend(columns.iter().map(|&(n, _, _)| n.to_string()));
    let mut table = Table::new(header);

    let mut totals = vec![0.0f64; columns.len()];
    for spec in opts.circuits() {
        let graph = spec.instantiate().expect("valid Table-1 spec");
        let mut row = vec![spec.name.to_string()];
        let mut outcomes: Vec<MethodOutcome> = Vec::new();
        for &(name, engine, paper_runs) in &columns {
            let runs = opts.scaled_runs(paper_runs);
            let outcome =
                methods::run(name, engine, &graph, (0.5, 0.5), runs, ParallelPolicy::Sequential);
            row.push(fmt_cut(outcome.cut));
            outcomes.push(outcome);
        }
        for (t, o) in totals.iter_mut().zip(&outcomes) {
            *t += o.cut;
        }
        table.push_row(row);
        eprintln!("  done: {}", spec.name);
    }
    let mut total_row = vec!["Total Cuts".to_string()];
    total_row.extend(totals.iter().map(|&t| fmt_cut(t)));
    table.push_row(total_row);
    print!("{}", table.render());

    println!();
    println!("PROP improvement over each method (paper convention, totals):");
    let prop_total = totals[columns.len() - 1];
    for (i, &(name, _, _)) in columns.iter().enumerate().take(columns.len() - 1) {
        println!(
            "  vs {:<7} {:>6}%   (paper: FM100 22.3, FM40 26.9, FM20 30.0, LA-2 27.3, LA-3 16.6, WINDOW 25.9)",
            name,
            fmt_pct(improvement_pct(prop_total, totals[i]))
        );
    }
}
