//! End-to-end SPBC protocol tests: failure-free equivalence, checkpointing,
//! and genuine crash-recovery (kill a cluster mid-run, restore, replay) with
//! bitwise output comparison against the native execution.

use mini_mpi::failure::FailurePlan;
use mini_mpi::prelude::*;
use mini_mpi::wire::to_bytes;
use spbc_core::{ClusterMap, SpbcConfig, SpbcProvider};
use std::sync::Arc;
use std::time::Duration;

/// An iterative SPMD workload: ring halo exchange + periodic allreduce, with
/// checkpoint opportunities at every iteration boundary. Deterministic,
/// channel-deterministic, restartable.
fn ring_app(iters: u64) -> impl Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync + 'static {
    move |rank: &mut Rank| {
        let me = rank.world_rank();
        let n = rank.world_size();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        // (step, accumulator)
        let mut state: (u64, f64) = rank.restore()?.unwrap_or((0, me as f64 + 1.0));
        while state.0 < iters {
            rank.failure_point()?;
            let rreq = rank.irecv(COMM_WORLD, prev as u32, 1)?;
            rank.send(COMM_WORLD, next, 1, &[state.1])?;
            let (_st, payload) = rank.wait(rreq)?;
            let got: Vec<f64> = mini_mpi::datatype::unpack(&payload.unwrap())?;
            state.1 = 0.5 * state.1 + 0.25 * got[0] + 0.1;
            if state.0 % 3 == 2 {
                let sum = rank.allreduce(COMM_WORLD, ReduceOp::Sum, &[state.1])?;
                state.1 += 1e-3 * sum[0];
            }
            state.0 += 1;
            rank.checkpoint_if_due(&state)?;
        }
        Ok(to_bytes(&state.1))
    }
}

fn run_native(world: usize, iters: u64) -> RunReport {
    Runtime::builder(RuntimeConfig::new(world).with_deadlock_timeout(Duration::from_secs(10)))
        .app(Arc::new(ring_app(iters)))
        .launch()
        .unwrap()
        .ok()
        .unwrap()
}

fn run_spbc(
    world: usize,
    iters: u64,
    clusters: ClusterMap,
    cfg: SpbcConfig,
    plans: Vec<FailurePlan>,
) -> (RunReport, Arc<SpbcProvider>) {
    let provider = Arc::new(SpbcProvider::new(clusters, cfg));
    let report =
        Runtime::builder(RuntimeConfig::new(world).with_deadlock_timeout(Duration::from_secs(10)))
            .provider(provider.clone())
            .app(Arc::new(ring_app(iters)))
            .plans(plans)
            .launch()
            .unwrap()
            .ok()
            .unwrap();
    (report, provider)
}

#[test]
fn failure_free_matches_native() {
    let native = run_native(8, 12);
    let (spbc, provider) = run_spbc(8, 12, ClusterMap::blocks(8, 4), SpbcConfig::default(), vec![]);
    assert_eq!(native.outputs, spbc.outputs);
    // Inter-cluster traffic was logged, intra was not.
    let m = provider.metrics();
    assert!(spbc_core::Metrics::get(&m.logged_msgs) > 0);
    assert_eq!(spbc_core::Metrics::get(&m.rollbacks), 0);
    assert_eq!(spbc_core::Metrics::get(&m.replayed_msgs), 0);
}

#[test]
fn single_cluster_logs_nothing() {
    let (_report, provider) = run_spbc(6, 9, ClusterMap::single(6), SpbcConfig::default(), vec![]);
    let m = provider.metrics();
    assert_eq!(spbc_core::Metrics::get(&m.logged_msgs), 0);
}

#[test]
fn per_rank_clusters_log_everything() {
    let native = run_native(6, 9);
    let (spbc, provider) = run_spbc(6, 9, ClusterMap::per_rank(6), SpbcConfig::default(), vec![]);
    assert_eq!(native.outputs, spbc.outputs);
    let m = provider.metrics();
    // Every rank sends 9 ring messages plus collective traffic; all logged.
    assert!(spbc_core::Metrics::get(&m.logged_msgs) >= 6 * 9);
}

#[test]
fn checkpoints_commit_on_schedule() {
    let cfg = SpbcConfig { ckpt_interval: 4, ..Default::default() };
    let (_report, provider) = run_spbc(8, 12, ClusterMap::blocks(8, 4), cfg, vec![]);
    let m = provider.metrics();
    // 12 iterations / interval 4 = 3 checkpoint waves × 8 members.
    assert_eq!(spbc_core::Metrics::get(&m.checkpoints), 3 * 8);
    let ranks: Vec<RankId> = (0..8).map(RankId).collect();
    assert_eq!(provider.ckptstore().common_epoch(&ranks).unwrap(), 3);
}

#[test]
fn recovery_with_checkpoint_matches_native() {
    let native = run_native(8, 15);
    let cfg = SpbcConfig { ckpt_interval: 5, ..Default::default() };
    // Rank 2 dies the 9th time it reaches a failure point (after the first
    // checkpoint wave at iteration 5).
    let plans = vec![FailurePlan::nth(RankId(2), 9)];
    let (spbc, provider) = run_spbc(8, 15, ClusterMap::blocks(8, 4), cfg, plans);
    assert_eq!(native.outputs, spbc.outputs, "recovered run must match bitwise");
    assert_eq!(spbc.failures_handled, 1);
    // blocks(8, 4) puts rank 2 in cluster {2, 3}: only that cluster restarts.
    assert_eq!(spbc.restarts, vec![0, 0, 1, 1, 0, 0, 0, 0]);
    let m = provider.metrics();
    assert!(spbc_core::Metrics::get(&m.rollbacks) >= 2);
    assert!(spbc_core::Metrics::get(&m.replayed_msgs) > 0, "logs were replayed");
}

#[test]
fn recovery_without_any_checkpoint_restarts_from_scratch() {
    let native = run_native(6, 8);
    // No checkpoints ever taken; failure forces re-execution from iteration 0.
    let plans = vec![FailurePlan::nth(RankId(5), 4)];
    let (spbc, _provider) = run_spbc(6, 8, ClusterMap::blocks(6, 3), SpbcConfig::default(), plans);
    assert_eq!(native.outputs, spbc.outputs);
    assert_eq!(spbc.failures_handled, 1);
    assert_eq!(&spbc.restarts[4..6], &[1, 1]);
}

#[test]
fn two_sequential_failures_different_clusters() {
    let native = run_native(8, 18);
    let cfg = SpbcConfig { ckpt_interval: 4, ..Default::default() };
    let plans = vec![FailurePlan::nth(RankId(1), 6), FailurePlan::nth(RankId(6), 14)];
    let (spbc, provider) = run_spbc(8, 18, ClusterMap::blocks(8, 4), cfg, plans);
    assert_eq!(native.outputs, spbc.outputs);
    assert_eq!(spbc.failures_handled, 2);
    let m = provider.metrics();
    assert!(spbc_core::Metrics::get(&m.rollbacks) >= 4);
}

#[test]
fn recovery_with_rendezvous_messages() {
    // Force rendezvous for everything: exchange large arrays.
    let app = |rank: &mut Rank| -> Result<Vec<u8>> {
        let me = rank.world_rank();
        let n = rank.world_size();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        let mut state: (u64, Vec<f64>) = rank.restore()?.unwrap_or((0, vec![me as f64; 512]));
        while state.0 < 8 {
            rank.failure_point()?;
            let rreq = rank.irecv(COMM_WORLD, prev as u32, 1)?;
            rank.send(COMM_WORLD, next, 1, &state.1)?;
            let (_s, payload) = rank.wait(rreq)?;
            let got: Vec<f64> = mini_mpi::datatype::unpack(&payload.unwrap())?;
            for (a, b) in state.1.iter_mut().zip(&got) {
                *a = 0.5 * *a + 0.5 * b;
            }
            state.0 += 1;
            rank.checkpoint_if_due(&state)?;
        }
        Ok(to_bytes(&state.1))
    };
    let mk_cfg = || {
        RuntimeConfig::new(4)
            .with_eager_threshold(256) // 512 f64 = 4 KiB >> 256 B: rendezvous
            .with_deadlock_timeout(Duration::from_secs(10))
    };
    let native = Runtime::builder(mk_cfg()).app(Arc::new(app)).launch().unwrap().ok().unwrap();
    let provider = Arc::new(SpbcProvider::new(
        ClusterMap::blocks(4, 2),
        SpbcConfig { ckpt_interval: 3, ..Default::default() },
    ));
    let spbc = Runtime::builder(mk_cfg())
        .provider(provider.clone())
        .app(Arc::new(app))
        .plans(vec![FailurePlan::nth(RankId(0), 5)])
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    assert_eq!(native.outputs, spbc.outputs);
    assert_eq!(spbc.failures_handled, 1);
}

#[test]
fn suppression_avoids_duplicate_sends() {
    let cfg = SpbcConfig { ckpt_interval: 5, ..Default::default() };
    let plans = vec![FailurePlan::nth(RankId(0), 9)];
    let (_spbc, provider) = run_spbc(8, 15, ClusterMap::blocks(8, 4), cfg, plans);
    let m = provider.metrics();
    // Re-executed inter-cluster sends whose receivers already had them must
    // have been suppressed (LS), and anything that slipped through dropped.
    assert!(
        spbc_core::Metrics::get(&m.suppressed_sends) > 0,
        "re-execution should suppress already-received messages"
    );
}

#[test]
fn failure_in_single_cluster_world_rolls_back_everyone() {
    let native = run_native(4, 10);
    let cfg = SpbcConfig { ckpt_interval: 4, ..Default::default() };
    let plans = vec![FailurePlan::nth(RankId(3), 7)];
    let (spbc, provider) = run_spbc(4, 10, ClusterMap::single(4), cfg, plans);
    assert_eq!(native.outputs, spbc.outputs);
    assert_eq!(spbc.restarts, vec![1, 1, 1, 1], "coordinated-only: global rollback");
    let m = provider.metrics();
    assert_eq!(spbc_core::Metrics::get(&m.replayed_msgs), 0, "nothing logged, nothing replayed");
}

#[test]
fn pure_logging_failure_containment_is_one_rank() {
    let native = run_native(4, 10);
    let cfg = SpbcConfig { ckpt_interval: 4, ..Default::default() };
    let plans = vec![FailurePlan::nth(RankId(2), 7)];
    let (spbc, _provider) = run_spbc(4, 10, ClusterMap::per_rank(4), cfg, plans);
    assert_eq!(native.outputs, spbc.outputs);
    assert_eq!(spbc.restarts, vec![0, 0, 1, 0], "only the failed rank restarts");
}
