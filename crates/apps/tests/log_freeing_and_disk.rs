//! §6.2's storage story, end to end: log memory is freed as checkpoints
//! commit (receiver-checkpoint log GC, at the wave itself: a member ACKs
//! only once its copy is durable), recovery still replays bitwise from the
//! pruned log, and committed checkpoints land in the on-disk store.

use mini_mpi::failure::FailurePlan;
use mini_mpi::prelude::*;
use mini_mpi::wire::from_bytes;
use spbc_apps::{AppParams, Workload};
use spbc_core::store::CheckpointData;
use spbc_core::{ClusterMap, Metrics, SpbcConfig, SpbcProvider, Storage};
use std::sync::Arc;
use std::time::Duration;

const WORLD: usize = 8;

fn params() -> AppParams {
    AppParams { iters: 9, elems: 256, compute: 1, seed: 77, sleep_us: 0 }
}

fn cfg() -> RuntimeConfig {
    RuntimeConfig::new(WORLD).with_deadlock_timeout(Duration::from_secs(60))
}

fn native(w: Workload) -> RunReport {
    Runtime::builder(cfg()).app(w.build(params())).launch().unwrap().ok().unwrap()
}

#[test]
fn gcd_log_still_recovers_bitwise_after_wave_3() {
    let w = Workload::MiniGhost;
    let base = native(w);
    let provider = Arc::new(SpbcProvider::new(
        ClusterMap::blocks(WORLD, 4),
        SpbcConfig { ckpt_interval: 2, ..Default::default() },
    ));
    // Fail after the third wave (iterations 2, 4, 6): by then every sender
    // has pruned its log three times, and the replay the recovering cluster
    // needs must still be there.
    let report = Runtime::builder(cfg())
        .provider(provider.clone())
        .app(w.build(params()))
        .plans(vec![FailurePlan::nth(RankId(2), 8)])
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    assert_eq!(report.failures_handled, 1);
    assert_eq!(base.outputs, report.outputs, "replay from the pruned log must be exact");
    let m = provider.metrics();
    assert!(Metrics::get(&m.log_pruned_msgs) > 0, "GC must have fired before the failure");
    assert!(Metrics::get(&m.replayed_msgs) > 0);
}

#[test]
fn live_log_stays_within_one_interval_of_traffic() {
    let w = Workload::MiniGhost;
    let every = 2;
    let provider = Arc::new(SpbcProvider::new(
        ClusterMap::blocks(WORLD, 4),
        SpbcConfig { ckpt_interval: every, ..Default::default() },
    ));
    let app = w.build(AppParams { iters: 20, ..params() });
    Runtime::builder(cfg()).provider(provider.clone()).app(app).launch().unwrap().ok().unwrap();
    let store = provider.store();
    let logged = store.appended_bytes_per_rank();
    // One interval, plus the iteration or two neighbouring clusters drift.
    for (r, (&peak, &total)) in store.peak_logged_bytes_per_rank().iter().zip(&logged).enumerate() {
        let bound = total * (every + 2) / 20;
        assert!(total > 0 && peak <= bound, "rank {r}: held {peak} B > {bound} B of {total} B");
    }
    let m = provider.metrics();
    assert_eq!(Metrics::get(&m.logged_bytes), logged.iter().sum::<u64>());
    let peak = store.peak_logged_bytes_per_rank().into_iter().max().unwrap();
    assert_eq!(Metrics::get(&m.log_live_bytes), peak);
    let held_or_pruned = store.total_logged_bytes() + Metrics::get(&m.log_pruned_bytes);
    assert_eq!(held_or_pruned, Metrics::get(&m.logged_bytes));
}

/// After RESUME(N), what cut N covers is gone: no sender holds an entry at
/// or below the `upto` its receiver's cut-N notice names, and each local
/// store holds only wave N. Nine iterations with a wave every four leave
/// one iteration after wave 2, and its halo exchange, which reaches every
/// sender after the receiver's notice on the same FIFO link, so the
/// notices have all been handled when the run ends.
fn assert_resume_frees_what_its_wave_covers(provider: &SpbcProvider) {
    const LAST: u64 = 2;
    let (store, logs) = (provider.ckptstore(), provider.store());
    let clusters = ClusterMap::blocks(WORLD, 4);
    let mut released = 0;
    for r in (0..WORLD as u32).map(RankId) {
        assert!(store.local_copy(r, LAST - 1).unwrap().is_none(), "rank {r} kept wave 1");
        assert!(store.local_copy(r, LAST).unwrap().is_some(), "rank {r} lacks wave 2");
        let (body, _) = store.load(r, LAST).unwrap().unwrap();
        let cut: CheckpointData = from_bytes(&body).unwrap();
        for (src, gc) in cut.log_gc_notices() {
            if clusters.cluster_of(src) == clusters.cluster_of(r) {
                continue;
            }
            let log = logs.slot(src);
            let log = log.lock();
            for (comm, upto) in gc.channels {
                let chan = ChannelId::new(src, r, CommId(comm));
                let held: Vec<u64> = (1..=upto).filter(|&s| log.find(chan, s).is_some()).collect();
                assert!(held.is_empty(), "{src}->{r} holds {held:?} at or below upto {upto}");
                released += upto;
            }
        }
    }
    assert!(released > 0, "wave 2 must have released some entries");
    let m = provider.metrics();
    assert!(Metrics::get(&m.log_pruned_msgs) > 0);
}

#[test]
fn resume_frees_exactly_what_its_wave_covers() {
    let w = Workload::MiniGhost;
    let provider = SpbcProvider::new(
        ClusterMap::blocks(WORLD, 4),
        SpbcConfig { ckpt_interval: 4, ..Default::default() },
    );
    let provider = Arc::new(provider);
    let app = w.build(params());
    Runtime::builder(cfg()).provider(provider.clone()).app(app).launch().unwrap().ok().unwrap();
    assert_resume_frees_what_its_wave_covers(&provider);

    let dir = std::env::temp_dir().join(format!("spbc-disk-free-{}", std::process::id()));
    let provider = on_disk(&dir, 4);
    let app = w.build(params());
    Runtime::builder(cfg()).provider(provider.clone()).app(app).launch().unwrap().ok().unwrap();
    assert_resume_frees_what_its_wave_covers(&provider);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A provider whose store service keeps local copies as files under `dir`.
fn on_disk(dir: &std::path::Path, ckpt_interval: u64) -> Arc<SpbcProvider> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = SpbcConfig { ckpt_interval, ..Default::default() };
    Arc::new(
        SpbcProvider::new(ClusterMap::blocks(WORLD, 4), cfg)
            .with_storage(Storage::disk_root(dir))
            .unwrap(),
    )
}

#[test]
fn checkpoints_are_committed_to_disk() {
    let dir = std::env::temp_dir().join(format!("spbc-disk-e2e-{}", std::process::id()));
    let w = Workload::Cm1;
    let provider = on_disk(&dir, 4);
    Runtime::builder(cfg())
        .provider(provider.clone())
        .app(w.build(params()))
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    // 9 iterations, waves at calls 4 and 8: wave 2's RESUME pruned wave 1,
    // so each rank's local store holds exactly wave 2, on disk.
    let store = provider.ckptstore();
    for r in 0..WORLD as u32 {
        assert!(store.local_copy(RankId(r), 1).unwrap().is_none(), "rank {r} kept wave 1");
        assert!(store.local_copy(RankId(r), 2).unwrap().is_some(), "rank {r} lacks wave 2");
        let (body, _) = store.load(RankId(r), 2).unwrap().unwrap();
        let ck: CheckpointData = from_bytes(&body).unwrap();
        assert!(!ck.app_state.is_empty());
    }
    let ranks: Vec<RankId> = (0..WORLD as u32).map(RankId).collect();
    assert_eq!(store.common_epoch(&ranks).unwrap(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_store_with_recovery_keeps_the_common_wave_consistent() {
    let dir = std::env::temp_dir().join(format!("spbc-disk-rec-{}", std::process::id()));
    let w = Workload::MiniGhost;
    let base = native(w);
    let provider = on_disk(&dir, 3);
    let report = Runtime::builder(cfg())
        .provider(provider.clone())
        .app(w.build(params()))
        .plans(vec![FailurePlan::nth(RankId(5), 5)])
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    assert_eq!(base.outputs, report.outputs);
    let ranks: Vec<RankId> = (0..WORLD as u32).map(RankId).collect();
    // All three waves (iterations 3, 6, 9) committed everywhere despite the
    // mid-run rollback of cluster {4,5}.
    assert_eq!(provider.ckptstore().common_epoch(&ranks).unwrap(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}
