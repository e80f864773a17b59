//! Shared experiment plumbing: profiled native runs and clustering
//! configurations (the paper's methodology, §6.1: "we ran each application
//! for a few iterations and collected its communication statistics data,
//! then use the clustering tool \[30\]").

use crate::Scale;
use mini_mpi::config::RuntimeConfig;
use mini_mpi::error::Result;
use mini_mpi::ft::{FtProvider, NativeProvider};
use mini_mpi::{AppFn, RunReport, Runtime};
use spbc_apps::Workload;
use spbc_clustering::{partition, CommGraph, PartitionOpts};
use spbc_core::ClusterMap;
use spbc_trace::IpmProfile;
use std::sync::Arc;
use std::time::Duration;

/// Outcome of a profiling (native) run.
pub struct Profile {
    /// Directed communication matrix (bytes).
    pub comm: CommGraph,
    /// Median native wall time.
    pub native_wall: Duration,
    /// Native wall time per iteration.
    pub per_iter: Duration,
    /// Communication/computation profile.
    pub ipm: IpmProfile,
}

/// The runtime configuration experiments use: shaped by the scale's
/// [`Scale::topology`] (so `SPBC_TRANSPORT` swings every experiment onto the chosen
/// fabric), with `SPBC_TRACE` enabling the flight recorder on every run
/// built from it.
pub fn runtime_cfg(scale: &Scale) -> RuntimeConfig {
    let topo = scale.topology();
    crate::obs::apply_env(
        RuntimeConfig::new(topo.ranks)
            .with_transport(topo.transport)
            .with_ranks_per_node(scale.ranks_per_node)
            .with_deadlock_timeout(scale.timeout),
    )
}

/// Run `app` once under `provider` and return the report.
pub fn run_with(
    scale: &Scale,
    provider: Arc<dyn FtProvider>,
    app: &Arc<AppFn>,
) -> Result<RunReport> {
    Runtime::builder(runtime_cfg(scale)).provider(provider).app(Arc::clone(app)).launch()?.ok()
}

/// Median wall time of `reps` native runs.
pub fn native_median(scale: &Scale, app: &Arc<AppFn>) -> Result<(Duration, RunReport)> {
    let mut times = Vec::with_capacity(scale.reps);
    let mut last = None;
    for _ in 0..scale.reps.max(1) {
        let report = run_with(scale, Arc::new(NativeProvider), app)?;
        times.push(report.wall_time);
        last = Some(report);
    }
    times.sort_unstable();
    Ok((times[times.len() / 2], last.expect("at least one run")))
}

/// Profile a workload: native timing + communication matrix.
pub fn profile(w: Workload, scale: &Scale) -> Result<Profile> {
    let app = w.build(scale.params(w));
    let (wall, report) = native_median(scale, &app)?;
    let comm = CommGraph::from_matrix(spbc_trace::comm_matrix(&report.stats));
    let ipm = IpmProfile::from_stats(&report.stats);
    Ok(Profile { comm, native_wall: wall, per_iter: wall / scale.iters.max(1) as u32, ipm })
}

/// The clustering configuration for `k` clusters, computed from the profiled
/// communication graph with the tool of \[30\] (node-granular, minimizing the
/// total logged volume).
pub fn clustering_for(profile: &Profile, k: usize, scale: &Scale) -> ClusterMap {
    if k >= scale.world {
        return ClusterMap::per_rank(scale.world);
    }
    if k == 1 {
        return ClusterMap::single(scale.world);
    }
    let opts = PartitionOpts {
        node_size: scale.ranks_per_node.min(scale.world),
        slack: 1,
        ..Default::default()
    };
    let assignment = partition(&profile.comm, k.min(scale.nodes()), &opts);
    ClusterMap::from_assignment(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scale() -> Scale {
        Scale {
            world: 8,
            iters: 4,
            elems: 128,
            sleep_us: 0,
            ranks_per_node: 2,
            reps: 1,
            ..Default::default()
        }
    }

    #[test]
    fn profile_produces_traffic_and_timing() {
        let scale = small_scale();
        let p = profile(Workload::MiniGhost, &scale).unwrap();
        assert_eq!(p.comm.len(), 8);
        assert!(p.comm.total() > 0);
        assert!(p.native_wall > Duration::ZERO);
    }

    #[test]
    fn clustering_respects_k_and_nodes() {
        let scale = small_scale();
        let p = profile(Workload::MiniGhost, &scale).unwrap();
        let m2 = clustering_for(&p, 2, &scale);
        assert_eq!(m2.cluster_count(), 2);
        assert!(m2.respects_nodes(2));
        let pr = clustering_for(&p, 8, &scale);
        assert_eq!(pr.cluster_count(), 8);
        let single = clustering_for(&p, 1, &scale);
        assert_eq!(single.cluster_count(), 1);
    }
}
