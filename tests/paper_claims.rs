//! The paper's comparative cut claims as a gate.
//!
//! * Table 2, 50-50%: PROP's total is below FM100, FM40, FM20, LA-2,
//!   LA-3 and WINDOW.
//! * Table 3, 45-55%: PROP's total is below MELO, PARABOLI and EIG1.
//! * PROP's totals are no worse than pinned ceilings, so a change that
//!   loses cut shows here even while PROP still wins.
//!
//! Totals are compared, not per-circuit wins: at quick size the margins
//! over MELO and EIG1 are thin and t4 ties across methods. The quick
//! suite (four circuits, a quarter of the runs) runs in tier-1; the full
//! 16-circuit suite is ignored by default and runs under
//! `scripts/check.sh --paper`:
//!
//! ```sh
//! cargo test --release --test paper_claims -- --ignored
//! ```
//!
//! The tables are the ones `table2` and `table3` print
//! (`prop_experiments::paper`). Lower a ceiling when a change improves
//! PROP's total; raise one only with a before/after table.

use prop_experiments::paper::{CutTable, Column, TABLE2, TABLE3};
use prop_experiments::Options;

fn assert_claims(name: &str, columns: &[Column], ratios: (f64, f64), quick: bool, ceiling: f64) {
    let opts = Options {
        quick,
        ..Options::default()
    };
    let table = CutTable::measure(columns, ratios, &opts);
    let failures = table.claim_failures(ceiling);
    assert!(
        failures.is_empty(),
        "{name} claim broken:\n{}\n{}",
        failures.join("\n"),
        table.render("Total")
    );
}

#[test]
fn table2_quick_prop_total_beats_every_method() {
    assert_claims("Table 2 (quick)", &TABLE2, (0.5, 0.5), true, 91.0);
}

#[test]
fn table3_quick_prop_total_beats_every_method() {
    assert_claims("Table 3 (quick)", &TABLE3, (0.45, 0.55), true, 88.0);
}

#[test]
#[ignore = "full suite: scripts/check.sh --paper"]
fn table2_full_prop_total_beats_every_method() {
    assert_claims("Table 2", &TABLE2, (0.5, 0.5), false, 1077.0);
}

#[test]
#[ignore = "full suite: scripts/check.sh --paper"]
fn table3_full_prop_total_beats_every_method() {
    assert_claims("Table 3", &TABLE3, (0.45, 0.55), false, 1008.0);
}
