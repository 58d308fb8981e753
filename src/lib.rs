//! Umbrella crate for the PROP reproduction suite.
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests (and downstream users who want everything) can depend
//! on a single package:
//!
//! * [`netlist`] — hypergraph substrate, formats, synthetic benchmark suite.
//! * [`dstruct`] — gain containers (bucket list, AVL tree, prefix tracker).
//! * [`core`] — the PROP partitioner and the shared bipartition framework.
//! * [`fm`] — FM-bucket, FM-tree, LA-k, and KL baselines.
//! * [`linalg`] — sparse linear algebra for the spectral baselines.
//! * [`spectral`] — EIG1, MELO-, PARABOLI-, and WINDOW-style partitioners.
//! * [`multilevel`] — the clustering pre-phase the paper's conclusion
//!   anticipates: heavy-edge coarsening with PROP refinement per level.
//! * [`engines`] — the engine registry: every engine by its CLI/wire
//!   name, built with the configuration all surfaces share.
//! * [`verify`] — differential-oracle verification: naive reference
//!   oracles, per-move invariant auditors, and a from-scratch PROP
//!   mirror (build with `--features debug-audit` to install auditors
//!   into live engines).
//!
//! # Quickstart
//!
//! ```
//! use prop_suite::netlist::generate::{generate, GeneratorConfig};
//! use prop_suite::core::{BalanceConstraint, Prop, PropConfig, Partitioner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = generate(&GeneratorConfig::new(200, 220, 700))?;
//! let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes())?;
//! let result = Prop::new(PropConfig::default()).run_seeded(&graph, balance, 1)?;
//! assert!(result.cut_cost >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use prop_core as core;
pub use prop_dstruct as dstruct;
pub use prop_engines as engines;
pub use prop_fm as fm;
pub use prop_linalg as linalg;
pub use prop_multilevel as multilevel;
pub use prop_netlist as netlist;
pub use prop_spectral as spectral;
pub use prop_verify as verify;
