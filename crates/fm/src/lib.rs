//! Deterministic iterative-improvement baselines from the DAC-96 paper's
//! comparison set.
//!
//! * [`FmBucket`] — the Fiduccia–Mattheyses partitioner with the classic
//!   gain bucket array (integral net costs; Θ(nd) per pass; fractional
//!   costs fall back to [`FmTree`]'s container).
//! * [`FmTree`] — FM with a balanced-tree gain structure, the variant the
//!   paper times for the non-unit-cost regime (Θ(nd log n) per pass,
//!   arbitrary net weights).
//! * [`La`] — Krishnamurthy's lookahead partitioner LA-k: gain *vectors*
//!   of depth `k`, compared lexicographically, with level 1 equal to the
//!   FM gain.
//! * [`Kl`] — the Kernighan–Lin pair-swap heuristic on the clique-expanded
//!   graph model, included as a classical reference point.
//! * [`SimulatedAnnealing`] — Metropolis annealing, the third class of
//!   approximate schemes §1 cites.
//! * [`SyncRoundFm`] — the deterministic intra-parallel variant of FM:
//!   synchronous rounds of parallel candidate collection followed by a
//!   sequential best-prefix commit, bit-identical at every thread count
//!   (the refinement engine of the intra-parallel multilevel V-cycle).
//!
//! All of them implement [`prop_core::Partitioner`], so the multi-run
//! protocol of the paper ("FM100" = best of 100 runs) is one call:
//!
//! ```
//! use prop_core::{BalanceConstraint, Partitioner};
//! use prop_fm::FmBucket;
//! use prop_netlist::generate::{generate, GeneratorConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = generate(&GeneratorConfig::new(100, 110, 360).with_seed(1))?;
//! let balance = BalanceConstraint::bisection(graph.num_nodes());
//! let fm20 = FmBucket::default().run_multi(&graph, balance, 20, 0)?;
//! assert!(fm20.partition.is_balanced(balance));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fm;
mod kl;
mod la;
mod pass;
mod sa;
mod sync;

pub use fm::{FmBucket, FmTree};
pub use kl::Kl;
pub use la::La;
pub use sa::SimulatedAnnealing;
pub use sync::SyncRoundFm;
