//! # mini-mpi
//!
//! A message-passing runtime with MPI semantics and a pluggable
//! fault-tolerance layer — the substrate of the SPBC reproduction.
//!
//! Why this exists: SPBC (SC'13) is implemented inside MPICH's matching
//! layer. Reproducing it in Rust against real MPI is impractical (bindings
//! expose no hook below the public API), so we built the message layer
//! itself. Ranks run as OS threads; channels are reliable and FIFO
//! (Section 3.1 of the paper); matching follows the MPI envelope rules with
//! posted/unexpected queues; large messages use an MPICH-style rendezvous
//! protocol, so match order and completion order can differ (footnote 1 of
//! the paper).
//!
//! Protocol integration happens through [`ft::FtLayer`]: every send, arrival,
//! match decision, control message and checkpoint flows through the hook.
//! SPBC itself lives in the `spbc-core` crate; baselines in `spbc-baselines`.
//!
//! ## Quick start
//!
//! ```
//! use mini_mpi::prelude::*;
//!
//! // Two ranks exchange a value and everyone returns a checksum.
//! let report = Runtime::run_native(2, |rank| {
//!     let me = rank.world_rank();
//!     if me == 0 {
//!         rank.send(COMM_WORLD, 1, 7, &[41.0f64])?;
//!         Ok(vec![])
//!     } else {
//!         let (data, st) = rank.recv::<f64>(COMM_WORLD, Source::Any, 7)?;
//!         assert_eq!(st.src, RankId(0));
//!         Ok(data[0].to_le_bytes().to_vec())
//!     }
//! })
//! .unwrap()
//! .ok()
//! .unwrap();
//! assert_eq!(report.outputs[1], 41.0f64.to_le_bytes().to_vec());
//! ```

#![warn(missing_docs)]

pub mod collectives;
pub mod config;
pub mod datatype;
pub mod envelope;
pub mod error;
pub mod failure;
pub mod ft;
pub mod hash;
pub(crate) mod inner;
pub mod matching;
pub mod rank;
pub mod recorder;
pub mod request;
pub mod router;
pub mod stats;
pub mod transport;
pub mod types;
pub mod util;
pub mod wire;

mod runtime;

pub use runtime::{AppFn, NodeOpts, RunBuilder, RunReport, Runtime};

/// The common imports workloads need.
pub mod prelude {
    pub use crate::config::{Perturb, RuntimeConfig, Topology, TransportKind};
    pub use crate::datatype::{ReduceOp, Scalar};
    pub use crate::error::{MpiError, Result};
    pub use crate::failure::{FailurePlan, FailureTrigger};
    pub use crate::rank::Rank;
    pub use crate::request::{RequestId, Status};
    pub use crate::runtime::{RunBuilder, RunReport, Runtime};
    pub use crate::types::{
        ChannelId, CommId, MatchIdent, RankId, Source, Tag, TagSel, COMM_WORLD,
    };
}
