//! Ablation study of PROP's design parameters (this suite's addition):
//! probability floor, refinement iterations, top-k refresh width, and the
//! probability-seeding method. Regenerates the sensitivity data behind
//! `PropConfig::calibrated` (see EXPERIMENTS.md).

use prop_core::{BalanceConstraint, GainInit, ParallelPolicy, Partitioner, Prop, PropConfig};
use prop_engines::EngineName;
use prop_experiments::methods;
use prop_experiments::report::{fmt_cut, Table};
use prop_experiments::Options;

fn main() {
    let mut opts = Options::from_args();
    if !opts.quick && opts.circuit.is_none() {
        // The ablation sweeps many configurations; default to the small
        // suite unless a circuit was named explicitly.
        opts.quick = true;
    }
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
}
