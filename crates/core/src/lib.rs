//! # spbc-core
//!
//! SPBC — Scalable Pattern-Based Checkpointing (Ropars et al., SC'13) —
//! implemented against the `mini-mpi` fault-tolerance hook.
//!
//! The protocol combines, hierarchically:
//!
//! * **coordinated checkpointing** inside clusters of processes, and
//! * **sender-based message logging** between clusters,
//!
//! while logging **no delivery events at all**. Correct replay without event
//! logs is possible for *channel-deterministic* applications (Definition 2 of
//! the paper): per channel, every valid execution sends the same message
//! sequence. Where `MPI_ANY_SOURCE` could mismatch replayed messages across
//! pattern iterations, the programmer makes the application's
//! *always-happens-before* structure explicit with the 3-call
//! [`pattern`] API, and matching requires `(pattern_id, iteration_id)`
//! equality.
//!
//! Entry points:
//! * [`protocol::SpbcProvider`] — plug into [`mini_mpi::Runtime::builder`];
//! * [`pattern::Patterns`] — `DECLARE_PATTERN` / `BEGIN_ITERATION` /
//!   `END_ITERATION`;
//! * [`cluster::ClusterMap`] — how ranks group into clusters (use
//!   `spbc-clustering` to compute communication-aware maps).

#![warn(missing_docs)]

pub mod cluster;
pub mod ctrl;
pub mod env;
pub mod hist;
pub mod log;
pub mod metrics;
pub mod pattern;
pub mod protocol;
mod recovery;
pub mod replay;
pub mod sampler;
pub mod store;
mod wave;

pub use cluster::ClusterMap;
pub use hist::{Hist, HistSnapshot, Phase, PhaseHists, PhaseSnapshot};
pub use metrics::{Metrics, MetricsSnapshot};
pub use pattern::{PatternId, Patterns};
pub use protocol::{ReplayPolicy, SpbcConfig, SpbcLayer, SpbcProvider, Storage};
/// The rows of the recovery transition table: the failure sites
/// [`mini_mpi::failure::FailureTrigger::AtTransition`] plans name.
pub use recovery::ROWS as RECOVERY_ROWS;
pub use sampler::MetricsSampler;
/// The rows of the checkpoint-wave transition table, as [`RECOVERY_ROWS`].
pub use wave::ROWS as WAVE_ROWS;
