//! # spbc-clustering
//!
//! The communication-aware clustering tool of the paper's evaluation
//! (reference \[30\]): given a profiled communication matrix, partition ranks
//! into `k` clusters so that the volume of inter-cluster traffic — which the
//! hierarchical protocol must log — is minimized, with all ranks of a node
//! kept together.
//!
//! Intentionally dependency-free: inputs are byte matrices, outputs are
//! per-rank cluster assignments, so the crate also serves standalone trace
//! analysis.

#![warn(missing_docs)]

pub mod graph;
pub mod partition;

pub use graph::CommGraph;
pub use partition::{partition, Objective, PartitionOpts};
