//! `prop-serve` — a std-only partitioning daemon over the PROP suite.
//!
//! The daemon turns the library's deterministic multi-start harness into
//! a long-running service: clients submit netlists over TCP, a bounded
//! priority queue applies admission control, a worker pool runs each
//! job through `prop_engines::Job::run` (the path the `prop` CLI takes),
//! and a `stats` endpoint exposes live counters and latency histograms.
//! Results are **bit-identical** to direct library calls — the workers
//! use the same multi-start protocol, and an untripped cancellation
//! token changes no control flow.
//!
//! The wire protocol is deliberately minimal (the build environment has
//! no registry access, so everything here is hand-rolled std): one
//! `\n`-terminated `verb key=value...` line per request, one line of
//! compact JSON per response. See [`wire`] for the codec and DESIGN.md
//! §11 for the full specification.
//!
//! ```no_run
//! use prop_engines::{EngineName, Job};
//! use prop_serve::{client::Client, server, wire::SubmitRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let handle = server::start(&server::ServerConfig::default())?;
//! let mut client = Client::connect(handle.addr())?;
//! let response = client.submit(&SubmitRequest {
//!     job: Job { runs: 4, ..Job::new(EngineName::Prop) },
//!     payload: "2 2\n1 2\n1 2\n".into(),
//!     wait: true,
//!     ..SubmitRequest::default()
//! })?;
//! println!("{}", response.render());
//! client.shutdown()?;
//! handle.join();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod client;
pub mod cluster;
pub mod engine;
pub mod job;
pub mod json;
pub mod metrics;
pub mod queue;
pub mod server;
pub mod store;
pub mod wire;

pub use batch::{BatchRequest, BatchResult, GroupResult, SubJob, SubJobOutcome};
pub use client::{Client, ClientError, ConnectRetry};
pub use cluster::{ClusterConfig, Coordinator};
pub use job::{JobOutcome, JobPhase, JobStatus, JobTable, JobView};
pub use json::Json;
pub use metrics::{LatencyHistogram, Metrics};
pub use queue::{JobQueue, PushError};
pub use server::{start, ServerConfig, ServerHandle};
pub use store::{CircuitStore, StoreError, StoredCircuit};
pub use wire::{Request, SubmitRequest, UploadRequest, WireError, DEFAULT_MAX_REQUEST_BYTES};
