//! Ablation study of PROP's design parameters (this suite's addition):
//! probability floor, refinement iterations, top-k refresh width, and the
//! probability-seeding method, then the grid of the two §3.4 refresh
//! steps (top-k refresh × refinement sweeps) at both balance windows.
//! Regenerates the sensitivity data behind `PropConfig::calibrated` (see
//! EXPERIMENTS.md).
//!
//! On the full suite (about 10 minutes) the grid's `(0, 0)` row
//! reproduces the PROP totals of `table2` and `table3`; `--quick` runs
//! everything on the four smallest circuits at 5 runs, too few to rank
//! the refresh settings (there top-k = 5 looks best; the full suite
//! contradicts it).

use prop_core::{BalanceConstraint, GainInit, ParallelPolicy, Partitioner, Prop, PropConfig};
use prop_engines::EngineName;
use prop_experiments::methods;
use prop_experiments::report::{fmt_cut, fmt_secs, Table};
use prop_experiments::Options;
use std::time::Instant;

fn main() {
    let opts = Options::from_args();
    let circuits = opts.circuits();
    let runs = opts.scaled_runs(20).max(5);

    let variants: Vec<(String, PropConfig)> = {
        let mut v = Vec::new();
        for p_min in [0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95] {
            v.push((
                format!("p_min={p_min}"),
                PropConfig {
                    p_min,
                    ..PropConfig::default()
                },
            ));
        }
        for refine in [0usize, 1, 2, 4] {
            v.push((
                format!("refine={refine}"),
                PropConfig {
                    refine_iterations: refine,
                    ..PropConfig::calibrated()
                },
            ));
        }
        for top_k in [0usize, 1, 5, 20] {
            v.push((
                format!("top_k={top_k}"),
                PropConfig {
                    top_k_refresh: top_k,
                    ..PropConfig::calibrated()
                },
            ));
        }
        v.push((
            "init=det".into(),
            PropConfig {
                init: GainInit::Deterministic,
                ..PropConfig::calibrated()
            },
        ));
        v
    };

    println!(
        "PROP ablation — total 50-50% cuts over {} circuits, {} runs each",
        circuits.len(),
        runs
    );
    println!();
    let mut baseline = 0.0;
    for spec in &circuits {
        let graph = spec.instantiate().expect("valid spec");
        baseline +=
            methods::run("FM20", EngineName::Fm, &graph, (0.5, 0.5), runs, ParallelPolicy::Sequential)
                .cut;
    }

    let mut table = Table::new(["variant", "total cut", "vs FM20 (%)"]);
    table.push_row(["FM20 baseline", &fmt_cut(baseline), "0.0"]);
    for (name, config) in variants {
        let prop = Prop::new(config);
        let mut total = 0.0;
        for spec in &circuits {
            let graph = spec.instantiate().expect("valid spec");
            let balance = BalanceConstraint::bisection(graph.num_nodes());
            total += prop
                .run_multi(&graph, balance, runs, 0)
                .expect("non-empty graph")
                .cut_cost;
        }
        let pct = prop_experiments::report::improvement_pct(total, baseline);
        table.push_row([
            name,
            fmt_cut(total),
            prop_experiments::report::fmt_pct(pct),
        ]);
        eprintln!("  done: {} variants so far", table.num_rows() - 1);
    }
    print!("{}", table.render());

    println!();
    println!(
        "§3.4 refresh grid — total PROP cuts at 50-50% and 45-55%, and the seconds those runs took"
    );
    println!();
    let mut grid = Table::new(["top_k_refresh", "refine_iterations", "50-50 total", "45-55 total", "secs"]);
    for (top_k, refine) in [(5usize, 2usize), (5, 0), (0, 2), (0, 0)] {
        let prop = Prop::new(PropConfig {
            top_k_refresh: top_k,
            refine_iterations: refine,
            ..PropConfig::calibrated()
        });
        let start = Instant::now();
        let mut totals = [0.0; 2];
        for spec in &circuits {
            let graph = spec.instantiate().expect("valid spec");
            for (total, (r1, r2)) in totals.iter_mut().zip([(0.5, 0.5), (0.45, 0.55)]) {
                let balance = BalanceConstraint::new(r1, r2, graph.num_nodes()).expect("valid ratios");
                *total += prop
                    .run_multi(&graph, balance, runs, 0)
                    .expect("non-empty graph")
                    .cut_cost;
            }
        }
        grid.push_row([
            top_k.to_string(),
            refine.to_string(),
            fmt_cut(totals[0]),
            fmt_cut(totals[1]),
            fmt_secs(start.elapsed().as_secs_f64()),
        ]);
    }
    print!("{}", grid.render());
}
