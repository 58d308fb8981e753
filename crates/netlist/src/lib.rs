//! Hypergraph netlist substrate for the PROP partitioning suite.
//!
//! A VLSI circuit is modelled as a hypergraph `G = (V, E)`: nodes are cells
//! or components, hyperedges ("nets") connect two or more nodes. This crate
//! provides:
//!
//! * [`Hypergraph`] — an immutable, cache-friendly CSR representation with
//!   both directions of the pin relation (node → nets, net → nodes),
//!   constructed through [`HypergraphBuilder`] or loaded from a `.hgb`
//!   snapshot, whose sections it then uses in place.
//! * [`Stats`] — the size parameters used throughout the DAC-96 paper
//!   (`n`, `e`, `p`, `q`, `d`, `m`).
//! * [`mod@format`] — parsing and writing of the hMETIS-style `.hgr` text format
//!   and a small named netlist format.
//! * [`hgb`] — the binary `.hgb` snapshot: writer, mmap loader, and
//!   validation.
//! * [`generate`] — a seeded synthetic circuit generator with planted
//!   hierarchical cluster structure, used as a stand-in for the ACM/SIGDA
//!   benchmark circuits (which are not redistributable).
//! * [`suite`] — the 16 circuit profiles of Table 1 of the paper, realised
//!   as deterministic synthetic proxies with identical node/net/pin counts.
//!
//! # Example
//!
//! ```
//! use prop_netlist::{HypergraphBuilder, NodeId};
//!
//! # fn main() -> Result<(), prop_netlist::NetlistError> {
//! let mut b = HypergraphBuilder::new(4);
//! b.add_net(1.0, [0, 1, 2])?;
//! b.add_net(1.0, [2, 3])?;
//! let g = b.build()?;
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_nets(), 2);
//! assert_eq!(g.num_pins(), 5);
//! assert_eq!(g.nets_of(NodeId::new(2)).len(), 2);
//! # Ok(())
//! # }
//! ```

// `deny`, not `forbid`: the one unsafe-containing module (`hgb::raw`:
// the mmap binding and the CSR `Array` that reads image sections in
// place) opts back in with a scoped `#[allow(unsafe_code)]`; everything
// else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod format;
pub mod generate;
pub mod hgb;
mod hypergraph;
mod ids;
mod stats;
pub mod suite;

pub use error::{HgbError, NetlistError};
pub use hgb::{HgbFile, HgbView, LoadMode};
pub use hypergraph::{Hypergraph, HypergraphBuilder, Neighbors};
pub use ids::{NetId, NodeId};
pub use stats::Stats;
