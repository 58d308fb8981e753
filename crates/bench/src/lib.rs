//! Criterion benchmark crate for the PROP reproduction.
//!
//! One bench target per evaluation artefact of the paper:
//!
//! * `table2_iterative` — per-run time of the Table-2 iterative methods.
//! * `table3_clustering` — per-invocation time of the Table-3 methods.
//! * `table4_runtime` — the per-circuit method timings of Table 4.
//! * `scaling` — PROP pass time against circuit size (the §3.5
//!   Θ(m log n) claim).
//! * `ablation` — runtime effect of PROP's parameters.
//!
//! Benchmarks use the smaller proxy circuits and reduced run counts so a
//! full `cargo bench --workspace` finishes in minutes; the experiment
//! binaries in `prop-experiments` regenerate the *quality* numbers.

#![forbid(unsafe_code)]

use prop_netlist::suite;
use prop_netlist::Hypergraph;

/// Instantiates a named proxy circuit for benchmarking.
///
/// # Panics
///
/// Panics on an unknown circuit name.
pub fn circuit(name: &str) -> Hypergraph {
    suite::by_name(name)
        .unwrap_or_else(|| panic!("unknown circuit {name}"))
        .instantiate()
        .expect("Table-1 specs are valid")
}
