//! §6.2's storage story, end to end: log memory is freed as checkpoints
//! commit (receiver-checkpoint log GC), recovery still replays bitwise from
//! the pruned log, and committed checkpoints can be mirrored to disk.

use mini_mpi::failure::FailurePlan;
use mini_mpi::prelude::*;
use spbc_apps::{AppParams, Workload};
use spbc_core::disk::DiskStore;
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
    // has pruned its log twice, and the replay the recovering cluster needs
    // must still be there.
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
fn live_log_stays_within_two_intervals_of_traffic() {
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
    // Two intervals, plus the iteration or two neighbouring clusters drift.
    for (r, (&peak, &total)) in store.peak_logged_bytes_per_rank().iter().zip(&logged).enumerate() {
        let bound = total * (2 * every + 2) / 20;
        assert!(total > 0 && peak <= bound, "rank {r}: held {peak} B > {bound} B of {total} B");
    }
    let m = provider.metrics();
    assert_eq!(Metrics::get(&m.logged_bytes), logged.iter().sum::<u64>());
    let peak = store.peak_logged_bytes_per_rank().into_iter().max().unwrap();
    assert_eq!(Metrics::get(&m.log_live_bytes), peak);
    let held_or_pruned = store.total_logged_bytes() + Metrics::get(&m.log_pruned_bytes);
    assert_eq!(held_or_pruned, Metrics::get(&m.logged_bytes));
}

#[test]
fn checkpoints_are_mirrored_to_disk() {
    let dir = std::env::temp_dir().join(format!("spbc-disk-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = Workload::Cm1;
    let provider = Arc::new(
        SpbcProvider::new(
            ClusterMap::blocks(WORLD, 4),
            SpbcConfig { ckpt_interval: 4, ..Default::default() },
        )
        .with_storage(Storage::memory().mirror_to(DiskStore::open(&dir).unwrap()))
        .unwrap(),
    );
    Runtime::builder(cfg())
        .provider(provider.clone())
        .app(w.build(params()))
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    // 9 iterations, wave at calls 4 and 8: two epochs per rank on disk.
    let disk = provider.disk().unwrap();
    for r in 0..WORLD as u32 {
        let epochs = disk.epochs_of(RankId(r)).unwrap();
        assert_eq!(epochs, vec![1, 2], "rank {r}");
        let ck = disk.load(RankId(r), 2).unwrap().unwrap();
        assert!(!ck.app_state.is_empty());
    }
    // The durable wave agreement matches the in-memory one.
    let ranks: Vec<RankId> = (0..WORLD as u32).map(RankId).collect();
    assert_eq!(disk.common_epoch(&ranks).unwrap(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_mirror_with_recovery_keeps_the_common_wave_consistent() {
    let dir = std::env::temp_dir().join(format!("spbc-disk-rec-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let w = Workload::MiniGhost;
    let base = native(w);
    let provider = Arc::new(
        SpbcProvider::new(
            ClusterMap::blocks(WORLD, 4),
            SpbcConfig { ckpt_interval: 3, ..Default::default() },
        )
        .with_storage(Storage::memory().mirror_to(DiskStore::open(&dir).unwrap()))
        .unwrap(),
    );
    let report = Runtime::builder(cfg())
        .provider(provider.clone())
        .app(w.build(params()))
        .plans(vec![FailurePlan::nth(RankId(5), 5)])
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    assert_eq!(base.outputs, report.outputs);
    let disk = provider.disk().unwrap();
    let ranks: Vec<RankId> = (0..WORLD as u32).map(RankId).collect();
    // All three waves (iterations 3, 6, 9) committed everywhere despite the
    // mid-run rollback of cluster {4,5}.
    assert_eq!(disk.common_epoch(&ranks).unwrap(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}
