//! # spbc-harness
//!
//! Experiment drivers regenerating every table and figure of the SPBC
//! paper's evaluation (§6), plus the ablations called out in DESIGN.md.
//!
//! | Artifact | Module | Binary |
//! |---|---|---|
//! | Table 1 (log growth per process)        | [`table1`] | `spbc-table1` |
//! | Table 2 (failure-free overhead)         | [`table2`] | `spbc-table2` |
//! | Figure 5 (recovery performance)         | [`fig5`]   | `spbc-fig5` |
//! | Figure 6 (HydEE vs SPBC recovery)       | [`fig6`]   | `spbc-fig6` |
//! | A1/A2/A3 ablations                      | [`ablation`] | `spbc-ablation` |
//! | ckpt_delta (logical vs physical bytes)  | [`ckpt`]   | `spbc-ckpt` |
//! | metrics digest & regression gate        | [`analyze`] | `spbc-report` |
//!
//! Scale is controlled by environment variables (defaults in parentheses):
//! `SPBC_RANKS` (16), `SPBC_ITERS` (24), `SPBC_ELEMS` (512),
//! `SPBC_SLEEP_US` (400), `SPBC_NODE_SIZE` (ranks/8), `SPBC_REPS` (3).
//! `SPBC_RANKS=512` reproduces the paper's scale (slow on small machines).
//!
//! Observability (see [`obs`]): `SPBC_TRACE=path.json` records every
//! measured run with the flight recorder and writes the last run's Chrome
//! trace-event JSON to `path.json` (open in Perfetto); `SPBC_METRICS=path`
//! appends one machine-readable metrics line per measured run (stderr when
//! unset).

#![warn(missing_docs)]

pub mod ablation;
pub mod analyze;
pub mod chaos;
pub mod ckpt;
pub mod fig5;
pub mod fig6;
pub mod memory;
pub mod obs;
pub mod proc;
pub mod profile;
pub mod report;
pub mod table1;
pub mod table2;

use std::time::Duration;

/// Experiment scale knobs (see crate docs for the environment variables).
#[derive(Clone, Debug)]
pub struct Scale {
    /// Number of application ranks.
    pub world: usize,
    /// Iterations per run.
    pub iters: u64,
    /// Per-rank state elements.
    pub elems: usize,
    /// Virtual-compute sleep per unit (µs).
    pub sleep_us: u64,
    /// Ranks per simulated node.
    pub ranks_per_node: usize,
    /// Timing repetitions (median taken).
    pub reps: usize,
    /// Deadlock timeout for runs.
    pub timeout: Duration,
}

impl Default for Scale {
    fn default() -> Self {
        let world = 16;
        Scale {
            world,
            iters: 24,
            elems: 512,
            sleep_us: 400,
            ranks_per_node: (world / 8).max(2),
            reps: 3,
            timeout: Duration::from_secs(120),
        }
    }
}

impl Scale {
    /// Read the scale from the environment (the variables are registered in
    /// [`spbc_core::env::VARS`]).
    pub fn from_env() -> Self {
        use spbc_core::env::get_or as get;
        let world = get("SPBC_RANKS", 16usize);
        Scale {
            world,
            iters: get("SPBC_ITERS", 24u64),
            elems: get("SPBC_ELEMS", 512usize),
            sleep_us: get("SPBC_SLEEP_US", 400u64),
            ranks_per_node: get("SPBC_NODE_SIZE", (world / 8).max(2)),
            reps: get("SPBC_REPS", 3usize),
            timeout: Duration::from_secs(get("SPBC_TIMEOUT_SECS", 120u64)),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.world.div_ceil(self.ranks_per_node)
    }

    /// The default run shape at this scale — one cluster per node — with the
    /// environment's overrides applied (`SPBC_CLUSTERS`, `SPBC_TRANSPORT`;
    /// see [`spbc_core::env::topology`]). Experiments that sweep cluster
    /// counts replace `clusters` per configuration.
    pub fn topology(&self) -> mini_mpi::config::Topology {
        spbc_core::env::topology(mini_mpi::config::Topology::new(self.world, self.nodes()))
    }

    /// The cluster counts of a Table-1-style sweep: powers of two below the
    /// node count, then one-cluster-per-node, then one-cluster-per-rank
    /// (the paper's 2/4/8/16 … 64 … 512 progression, scaled).
    pub fn cluster_counts(&self) -> Vec<(usize, &'static str)> {
        let mut out = Vec::new();
        let mut k = 2;
        while k < self.nodes() {
            out.push((k, ""));
            k *= 2;
        }
        out.push((self.nodes(), "per-node"));
        if self.world > self.nodes() {
            out.push((self.world, "per-rank"));
        }
        out
    }

    /// Workload parameters at this scale.
    pub fn params(&self, w: spbc_apps::Workload) -> spbc_apps::AppParams {
        w.timed_params(self.iters, self.elems, self.sleep_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_consistent() {
        let s = Scale::default();
        assert_eq!(s.nodes(), 8);
        let counts = s.cluster_counts();
        assert_eq!(counts, vec![(2, ""), (4, ""), (8, "per-node"), (16, "per-rank")]);
    }

    #[test]
    fn cluster_counts_for_large_world() {
        let s = Scale { world: 512, ranks_per_node: 8, ..Default::default() };
        let counts: Vec<usize> = s.cluster_counts().iter().map(|&(k, _)| k).collect();
        assert_eq!(counts, vec![2, 4, 8, 16, 32, 64, 512]);
    }

    #[test]
    fn env_parsing_falls_back() {
        // No env set in tests: defaults apply.
        let s = Scale::from_env();
        assert!(s.world >= 1);
        assert!(s.reps >= 1);
    }
}
