//! Regenerates Table 3 of the paper: cutset sizes under the 45-55%
//! balance criterion for MELO, PARABOLI, EIG1, and PROP (20 runs).

use prop_experiments::paper::{CutTable, TABLE3};
use prop_experiments::report::{fmt_pct, improvement_pct};
use prop_experiments::Options;

fn main() {
    let opts = Options::from_args();

    println!("Table 3 — 45-55% balance cutsets");
    println!();
    let cuts = CutTable::measure(&TABLE3, (0.45, 0.55), &opts);
    print!("{}", cuts.render("Total"));

    println!();
    println!("PROP improvement over each method (paper convention, totals):");
    let prop_total = cuts.prop_total();
    for (name, &total) in cuts.columns.iter().zip(&cuts.totals).take(cuts.columns.len() - 1) {
        println!(
            "  vs {:<9} {:>6}%   (paper: MELO 19.9, Paraboli 15.0, EIG1 57.1)",
            name,
            fmt_pct(improvement_pct(prop_total, total))
        );
    }
}
