//! Regenerates Table 2 of the paper: cutset sizes under the 50-50%
//! balance criterion for FM (100/40/20 runs), LA-2, LA-3, WINDOW, and
//! PROP (20 runs), with PROP's improvement percentages.

use prop_experiments::paper::{CutTable, TABLE2};
use prop_experiments::report::{fmt_pct, improvement_pct};
use prop_experiments::Options;

fn main() {
    let opts = Options::from_args();
    println!("Table 2 — 50-50% balance cutsets");
    println!();
    let cuts = CutTable::measure(&TABLE2, (0.5, 0.5), &opts);
    print!("{}", cuts.render("Total Cuts"));

    println!();
    println!("PROP improvement over each method (paper convention, totals):");
    let prop_total = cuts.prop_total();
    for (name, &total) in cuts.columns.iter().zip(&cuts.totals).take(cuts.columns.len() - 1) {
        println!(
            "  vs {:<7} {:>6}%   (paper: FM100 22.3, FM40 26.9, FM20 30.0, LA-2 27.3, LA-3 16.6, WINDOW 25.9)",
            name,
            fmt_pct(improvement_pct(prop_total, total))
        );
    }
}
