//! The cut tables of the paper's comparisons (Tables 2 and 3), shared by
//! the `table2`/`table3` binaries and the paper-claims gate
//! (`tests/paper_claims.rs`), so the gate checks exactly what the
//! binaries print.

use crate::methods;
use crate::report::{fmt_cut, Table};
use crate::Options;
use prop_core::ParallelPolicy;
use prop_engines::EngineName;

/// One column of a cut table: display name, engine, and the paper's run
/// count (scaled by [`Options::scaled_runs`]).
pub type Column = (&'static str, EngineName, usize);

/// Table 2's columns, 50-50% balance. PROP is last.
pub const TABLE2: [Column; 7] = [
    ("FM100", EngineName::Fm, 100),
    ("FM40", EngineName::Fm, 40),
    ("FM20", EngineName::Fm, 20),
    ("LA-2", EngineName::La2, 20),
    ("LA-3", EngineName::La3, 20),
    ("WINDOW", EngineName::Window, 20),
    ("PROP", EngineName::Prop, 20),
];

/// Table 3's columns, 45-55% balance. PROP is last.
pub const TABLE3: [Column; 4] = [
    ("MELO", EngineName::Melo, 20),
    ("Paraboli", EngineName::Paraboli, 20),
    ("EIG1", EngineName::Eig1, 20),
    ("PROP", EngineName::Prop, 20),
];

/// Best cuts per circuit and column, plus the column totals.
#[derive(Clone, PartialEq, Debug)]
pub struct CutTable {
    /// Column display names, in column order.
    pub columns: Vec<&'static str>,
    /// One `(circuit, cuts)` row per circuit.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Per-column sums over the rows.
    pub totals: Vec<f64>,
}

impl CutTable {
    /// Runs every column on every circuit `opts` covers, sequentially at
    /// seed 0 under the `(r1, r2)` window, reporting each finished
    /// circuit on stderr.
    pub fn measure(columns: &[Column], ratios: (f64, f64), opts: &Options) -> CutTable {
        let mut rows = Vec::new();
        let mut totals = vec![0.0; columns.len()];
        for spec in opts.circuits() {
            let graph = spec.instantiate().expect("valid Table-1 spec");
            let cuts: Vec<f64> = columns
                .iter()
                .map(|&(name, engine, paper_runs)| {
                    let runs = opts.scaled_runs(paper_runs);
                    methods::run(name, engine, &graph, ratios, runs, ParallelPolicy::Sequential)
                        .cut
                })
                .collect();
            for (t, c) in totals.iter_mut().zip(&cuts) {
                *t += c;
            }
            rows.push((spec.name.to_string(), cuts));
            eprintln!("  done: {}", spec.name);
        }
        CutTable {
            columns: columns.iter().map(|&(name, _, _)| name).collect(),
            rows,
            totals,
        }
    }

    /// The table as the binaries print it: one row per circuit and a
    /// totals row labelled `total_label`.
    pub fn render(&self, total_label: &str) -> String {
        let mut table = Table::new(std::iter::once("Test Case").chain(self.columns.iter().copied()));
        for (circuit, cuts) in &self.rows {
            table.push_row(std::iter::once(circuit.clone()).chain(cuts.iter().map(|&c| fmt_cut(c))));
        }
        table.push_row(
            std::iter::once(total_label.to_string()).chain(self.totals.iter().map(|&t| fmt_cut(t))),
        );
        table.render()
    }

    /// PROP's total: the last column's.
    pub fn prop_total(&self) -> f64 {
        *self.totals.last().expect("a table has columns")
    }

    /// The paper's comparative claim on this table, as broken rules:
    /// PROP's total must be strictly below every other column's total
    /// and at most `ceiling`. Empty when the claim holds.
    pub fn claim_failures(&self, ceiling: f64) -> Vec<String> {
        let prop = self.prop_total();
        let mut failures: Vec<String> = self
            .columns
            .iter()
            .zip(&self.totals)
            .take(self.columns.len() - 1)
            .filter(|&(_, &total)| prop >= total)
            .map(|(name, total)| format!("PROP total {prop} is not below {name} total {total}"))
            .collect();
        if prop > ceiling {
            failures.push(format!("PROP total {prop} is above its ceiling {ceiling}"));
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(totals: Vec<f64>) -> CutTable {
        CutTable {
            columns: vec!["FM", "WINDOW", "PROP"],
            rows: Vec::new(),
            totals,
        }
    }

    #[test]
    fn claim_holds_only_below_every_column_and_the_ceiling() {
        assert!(table(vec![30.0, 20.0, 10.0]).claim_failures(10.0).is_empty());
        let tie = table(vec![30.0, 10.0, 10.0]).claim_failures(10.0);
        assert_eq!(tie.len(), 1, "a tie is not a win: {tie:?}");
        assert!(tie[0].contains("WINDOW"));
        let over = table(vec![30.0, 20.0, 11.0]).claim_failures(10.0);
        assert_eq!(over.len(), 1);
        assert!(over[0].contains("ceiling"));
    }
}
