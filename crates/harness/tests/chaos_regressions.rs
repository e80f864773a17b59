//! Fixed-seed chaos regression suite: the pinned schedules that exercise
//! the exact windows of races fixed in this repo's history, plus a small
//! fixed-seed campaign slice. These must stay green forever — a failure
//! here means a protocol regression, and the chaos minimizer will print a
//! reproducer.

use std::sync::Arc;

use mini_mpi::failure::FailurePlan;
use mini_mpi::prelude::*;
use spbc_apps::Workload;
use spbc_ckptstore::{CkptStoreService, EcScheme, SetMap, StoreConfig};
use spbc_harness::chaos::{self, ChaosConfig, Family, Oracle, Verdict};

/// The schedule restores bitwise, and every plan it names fires.
fn assert_passes(oracle: &mut Oracle, schedule: &chaos::Schedule) {
    let verdict = oracle.run(schedule);
    if verdict.failed() {
        let dump = match &verdict {
            Verdict::Fail { flight_dump: Some(d), .. } => d.as_str(),
            _ => "",
        };
        panic!(
            "pinned schedule {:?}/{} failed: {verdict}\n{dump}",
            schedule.workload, schedule.family
        );
    }
}

/// The commit-barrier race (member dying between CKPT_ACK and CKPT_RESUME)
/// stays fixed.
#[test]
fn pinned_commit_barrier_race() {
    let mut oracle = Oracle::new(ChaosConfig::short());
    assert_passes(&mut oracle, &chaos::pinned::commit_barrier());
}

/// The rendezvous-rebind race (replaying sender killed mid-replay while
/// its destination still recovers) stays fixed.
#[test]
fn pinned_rendezvous_rebind_race() {
    let mut oracle = Oracle::new(ChaosConfig::short());
    assert_passes(&mut oracle, &chaos::pinned::rendezvous_rebind());
}

/// The replay-resume hang found by the first chaos campaign (seed 1,
/// during-recovery, Amg): a cluster killed half-way through its replay
/// towards a still-recovering cluster (rank 2 dies after its third replayed
/// message); its restarted incarnation must resume the interrupted replay.
#[test]
fn pinned_replay_resume_after_replayer_death() {
    let mut oracle = Oracle::new(ChaosConfig::short());
    let schedule = chaos::Schedule {
        seed: 1,
        family: Family::DuringRecovery,
        workload: Workload::Amg,
        plans: vec![
            FailurePlan::nth(RankId(6), 3),
            FailurePlan::at_transition(RankId(2), "recovery/Sent", 3),
        ],
        kills: Vec::new(),
    };
    assert_passes(&mut oracle, &schedule);
}

/// The delta-chain restore window: the restored wave is an `SPBCCKP4`
/// manifest whose chunks earlier waves inserted, and it must materialize
/// bitwise (repaired from partners), with a second cluster dying
/// mid-replication of a later wave.
#[test]
fn pinned_delta_chain_restore() {
    let mut oracle = Oracle::new(ChaosConfig::short());
    assert_passes(&mut oracle, &chaos::pinned::delta_chain());
}

/// Same window with CDC off, so every wave is one full blob (the node-mode
/// format, here in-process): it must survive the identical schedule, so any
/// pinned_delta_chain failure isolates to the CDC path.
#[test]
fn pinned_delta_chain_restore_fulls_only() {
    let mut cfg = ChaosConfig::short();
    cfg.ckpt_cdc = false;
    let mut oracle = Oracle::new(cfg);
    assert_passes(&mut oracle, &chaos::pinned::delta_chain());
}

/// The CAS refcount window: a rank killed mid-commit (chunks inserted into
/// the content-addressed store, wave never resumed) while surviving ranks'
/// RESUME-time GC prunes earlier epochs; a much later kill then restores
/// from a `SPBCCKP4` manifest against the post-GC store. A shared chunk
/// dropped while still referenced fails this loudly and bitwise.
#[test]
fn pinned_cas_gc() {
    let mut oracle = Oracle::new(ChaosConfig::short());
    assert_passes(&mut oracle, &chaos::pinned::cas_gc());
}

/// The erasure-rebuild window (xor): node-loss kills inside one redundancy
/// set — each crashed rank loses its node-local checkpoints with it, so
/// restore must XOR-rebuild the lost blob from the set survivors plus
/// parity, one kill landing mid-parity-push. Bitwise against native.
#[test]
fn pinned_ec_rebuild_xor() {
    let mut oracle = Oracle::new(ChaosConfig::short());
    assert_passes(&mut oracle, &chaos::pinned::ec_rebuild());
}

/// The same window under `rs(2)`: Reed-Solomon decode instead of XOR, with
/// twice the parity budget, on the identical pinned schedule — isolating
/// any failure to the codec rather than the rebuild protocol.
#[test]
fn pinned_ec_rebuild_rs2() {
    let mut cfg = ChaosConfig::short();
    cfg.ec_scheme = "rs2".to_string();
    cfg.ec_m = 2;
    let mut oracle = Oracle::new(cfg);
    assert_passes(&mut oracle, &chaos::pinned::ec_rebuild());
}

/// Losses beyond the parity budget fail loudly (deterministic, service
/// level): commit a parity-protected wave, wipe `m + 1 = 2` members of a
/// 4-rank xor set, and the rebuild must refuse with the distinct
/// over-budget error — never return wrong bytes.
#[test]
fn ec_losses_beyond_budget_fail_loudly() {
    let clusters = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
    let cfg = StoreConfig {
        ec: EcScheme::Xor,
        sets: Some(Arc::new(SetMap::from_clusters(&clusters, 4))),
        ..Default::default()
    };
    let svc = CkptStoreService::in_memory(8, cfg);
    // One full wave with its replicas pushed, like the protocol does.
    let partners: Vec<RankId> = (4..8).map(RankId).collect();
    for r in 0..4u32 {
        let body: Vec<u8> = (0..256 + 32 * r as usize).map(|i| (r as u8) ^ (i as u8)).collect();
        let (blob, stats) = svc.encode_commit(RankId(r), 1, &body).unwrap();
        let blob = Arc::new(blob);
        svc.commit_local(RankId(r), 1, blob.to_vec(), None).unwrap();
        svc.flush_rank(RankId(r)).unwrap();
        let rep = svc.replicas(RankId(r), 1, &blob, stats.logical, &partners).unwrap();
        for push in &rep.pushes {
            svc.store_partner_copy(push.partner, push.owner, 1, &push.frame).unwrap();
        }
    }
    for r in [0u32, 1] {
        svc.wipe_local(RankId(r)).unwrap(); // xor budget is m = 1
    }
    let err = svc.load(RankId(0), 1).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("erasure budget exceeded"), "{msg}");
}

/// The process-kill window stays fixed: two nodes abort at planned failure
/// points and a third is SIGKILLed from outside; every death is a real OS
/// process, and recovery off shared disk must end bitwise-identical to the
/// in-process native baseline.
#[test]
fn pinned_proc_kill() {
    std::env::set_var("SPBC_NODE_BIN", env!("CARGO_BIN_EXE_spbc-node"));
    let mut oracle = Oracle::new(ChaosConfig::short());
    assert_passes(&mut oracle, &chaos::pinned::proc_kill());
}

/// The node-mode hang schedule (seed 7 `proc-kill` on AMG) ends bitwise
/// against native on every one of several repeats: it used to hang only
/// now and then, so one pass proves little.
#[test]
fn pinned_proc_kill_amg_repeated() {
    std::env::set_var("SPBC_NODE_BIN", env!("CARGO_BIN_EXE_spbc-node"));
    let mut oracle = Oracle::new(ChaosConfig::short());
    let schedule = chaos::pinned::proc_kill_amg();
    let generated = chaos::generate(7, Family::ProcKill, Workload::Amg, oracle.cfg());
    assert_eq!(format!("{schedule:?}"), format!("{generated:?}"), "the pin is the seed's schedule");
    for _ in 0..3 {
        assert_passes(&mut oracle, &schedule);
    }
}

/// The log-GC windows: a receiver cluster killed right after the RESUME
/// that sent its GC notices, another inside the commit barrier of the next
/// wave (a restart from the last resumed wave must still find its replay
/// suffix in logs pruned to exactly that wave), and a sender cluster killed
/// after pruning, with a receiver dying again while it re-executes.
#[test]
fn pinned_log_gc() {
    let mut oracle = Oracle::new(ChaosConfig::short());
    assert_passes(&mut oracle, &chaos::pinned::log_gc());
}

/// The first wave that prunes: a receiver cluster killed right after
/// RESUME(1) rolls back to wave 1 with its senders' logs pruned to exactly
/// that cut.
#[test]
fn pinned_log_gc_first_wave() {
    let mut oracle = Oracle::new(ChaosConfig::short());
    assert_passes(&mut oracle, &chaos::pinned::log_gc_first_wave());
}

/// A kill inside wave 2's commit barrier, beside a sibling that never
/// writes wave 2: the cluster restarts from wave 1, which every sender's
/// log is pruned to exactly, and still replays bitwise.
#[test]
fn pinned_log_gc_commit_barrier() {
    let mut oracle = Oracle::new(ChaosConfig::short());
    assert_passes(&mut oracle, &chaos::pinned::log_gc_commit_barrier());
}

/// A fixed-seed campaign slice: every seeded family on both workloads,
/// seeds 0-1, and the `transitions` family whole. Bitwise identical to
/// native on every schedule, every seeded plan fired, and every row no kill
/// landed in has a known reason.
#[test]
fn fixed_seed_campaign_slice() {
    std::env::set_var("SPBC_NODE_BIN", env!("CARGO_BIN_EXE_spbc-node"));
    let cfg = ChaosConfig::short();
    let report = chaos::run_campaign(2, cfg.clone());
    let rows = spbc_core::WAVE_ROWS.len() + spbc_core::RECOVERY_ROWS.len();
    assert_eq!(report.total, 2 * 6 * 2 + rows as u64 * 2 * 2);
    assert_eq!(report.matrix.unexplained(&cfg), [], "\n{}", report.matrix.render(&cfg));
    assert!(
        report.failures.is_empty(),
        "campaign failures:\n{}",
        report.failures.iter().map(chaos::FailureCase::reproducer).collect::<Vec<_>>().join("\n")
    );
    assert_eq!(report.passed, report.total);
}
