//! The PROP probabilistic-gain min-cut bipartitioner (Dutt & Deng,
//! DAC 1996) and the shared iterative-improvement framework.
//!
//! # Overview
//!
//! Iterative-improvement 2-way min-cut partitioning starts from a random
//! balanced bipartition of a circuit hypergraph and repeatedly runs
//! *passes*: every node is tentatively moved once (best-gain first, balance
//! permitting), the running sum of *immediate* cut gains is tracked, and
//! the best prefix of moves is committed. FM computes node gains from
//! purely local netlist information; PROP instead attaches to every node a
//! probability `p(u)` of actually being moved in the current pass and
//! computes *probabilistic gains* from per-net products of these
//! probabilities (Eqns. 3–4 of the paper), capturing global and future
//! implications of a move.
//!
//! This crate provides:
//!
//! * [`Bipartition`], [`BalanceConstraint`], [`CutState`] — the shared
//!   partition/cut bookkeeping, with exact incremental maintenance.
//! * [`fm_gain`] / [`fm_gains`] — the deterministic Eqn.-1 gain, used by
//!   FM-style baselines and by PROP's gain-seeded initialisation.
//! * [`Prop`] and [`PropConfig`] — the paper's partitioner.
//! * [`probabilistic_gains`] — a pure implementation of Eqns. 3–4 for
//!   arbitrary probability assignments, used for differential testing and
//!   for reproducing the paper's Figure-1 worked example ([`example`]).
//! * [`Partitioner`] — the trait shared by every iterative improver in
//!   this suite, with seeded single- and multi-run harnesses.
//!
//! # Quickstart
//!
//! ```
//! use prop_core::{BalanceConstraint, Partitioner, Prop, PropConfig};
//! use prop_netlist::generate::{generate, GeneratorConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = generate(&GeneratorConfig::new(120, 130, 420).with_seed(3))?;
//! let balance = BalanceConstraint::new(0.45, 0.55, graph.num_nodes())?;
//! let prop = Prop::new(PropConfig::default());
//! let best = prop.run_multi(&graph, balance, 4, 99)?;
//! assert!(balance.is_feasible_counts(best.partition.count(prop_core::Side::A),
//!                                    best.partition.count(prop_core::Side::B)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod balance;
pub mod cancel;
mod cut;
mod error;
pub mod example;
mod gain;
pub mod kway;
mod parallel;
mod partition;
mod partitioner;
pub mod prof;
pub mod prop;
pub mod seed;

pub use balance::BalanceConstraint;
pub use cancel::CancelToken;
pub use cut::{cut_cost, CutState};
pub use error::PartitionError;
pub use gain::{fm_gain, fm_gains, probabilistic_gains};
pub use kway::{
    partition_kway, partition_kway_cancellable, recursive_bisection, KwayConfig, KwayPartition,
    KwayReport,
};
pub use parallel::{check_job_rules, MultiRunReport, ParallelPolicy, RunStatus};
pub use partition::{assignment_hash, Bipartition, Side, SideWeights};
pub use partitioner::{GlobalPartitioner, ImproveStats, Partitioner, RunResult};
pub use prop::{GainInit, NetHot, PassTrace, Prop, PropConfig};
