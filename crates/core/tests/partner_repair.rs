//! Fault-injection tests for replicated checkpoint storage: a rank whose
//! local on-disk checkpoint copies are destroyed (or silently corrupted)
//! mid-run must still restart from the correct wave, transparently repaired
//! from partner-held replicas in other clusters, and finish with exactly the
//! same application output as an undamaged native run.

use mini_mpi::failure::FailurePlan;
use mini_mpi::prelude::*;
use mini_mpi::wire::to_bytes;
use spbc_core::{ClusterMap, Metrics, Phase, SpbcConfig, SpbcProvider, Storage};
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORLD: usize = 8;
const ITERS: u64 = 12;
/// Iteration at which the saboteur strikes: after wave 2 (interval 3 →
/// epochs commit at iterations 3 and 6) and just before the victim dies.
const SABOTAGE_AT: u64 = 8;
const VICTIM: u32 = 2;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("spbc-repair-test-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

type Hook = Arc<dyn Fn(&mut Rank, u64) + Send + Sync>;

/// The ring workload from the end-to-end suite, with a per-iteration hook so
/// a test can sabotage storage from inside the run at a deterministic point.
fn ring_app(iters: u64, hook: Hook) -> impl Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync {
    move |rank: &mut Rank| {
        let me = rank.world_rank();
        let n = rank.world_size();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        let mut state: (u64, f64) = rank.restore()?.unwrap_or((0, me as f64 + 1.0));
        while state.0 < iters {
            hook(rank, state.0);
            rank.failure_point()?;
            let rreq = rank.irecv(COMM_WORLD, prev as u32, 1)?;
            rank.send(COMM_WORLD, next, 1, &[state.1])?;
            let (_st, payload) = rank.wait(rreq)?;
            let got: Vec<f64> = mini_mpi::datatype::unpack(&payload.unwrap())?;
            state.1 = 0.5 * state.1 + 0.25 * got[0] + 0.1;
            state.0 += 1;
            rank.checkpoint_if_due(&state)?;
        }
        Ok(to_bytes(&state.1))
    }
}

fn run_native() -> RunReport {
    let noop: Hook = Arc::new(|_, _| {});
    Runtime::builder(RuntimeConfig::new(WORLD).with_deadlock_timeout(Duration::from_secs(10)))
        .app(Arc::new(ring_app(ITERS, noop)))
        .launch()
        .unwrap()
        .ok()
        .unwrap()
}

fn damaged_provider(root: &PathBuf, cfg: SpbcConfig) -> Arc<SpbcProvider> {
    Arc::new(
        SpbcProvider::new(ClusterMap::blocks(WORLD, 4), cfg)
            .with_storage(Storage::disk_root(root))
            .unwrap(),
    )
}

/// Run SPBC over on-disk storage with the victim killed right after the
/// sabotage hook fires at iteration `sabotage_at`. `blocks(8, 4)` puts the
/// victim in cluster `{2, 3}`; its replica partners live in the other three
/// clusters and survive.
fn run_damaged(provider: Arc<SpbcProvider>, hook: Hook, sabotage_at: u64) -> RunReport {
    let plans = vec![FailurePlan::nth(RankId(VICTIM), sabotage_at + 1)];
    Runtime::builder(RuntimeConfig::new(WORLD).with_deadlock_timeout(Duration::from_secs(10)))
        .provider(provider)
        .app(Arc::new(ring_app(ITERS, hook)))
        .plans(plans)
        .launch()
        .unwrap()
        .ok()
        .unwrap()
}

fn ckpt_cfg() -> SpbcConfig {
    SpbcConfig { ckpt_interval: 3, replicas: 2, ..Default::default() }
}

#[test]
fn lost_local_files_are_repaired_from_partners() {
    let native = run_native();
    let root = tmpdir("lost");
    let provider = damaged_provider(&root, ckpt_cfg());
    let svc = provider.ckptstore();
    let svc_root = root.clone();
    let hook: Hook = Arc::new(move |rank, step| {
        // First incarnation only: the victim wipes its entire local store
        // (both committed waves) just before dying. Flush first so the
        // wave-2 background write cannot land after the wipe and resurrect
        // the directory.
        if rank.world_rank() as u32 == VICTIM && rank.epoch() == 0 && step == SABOTAGE_AT {
            svc.flush_rank(RankId(VICTIM)).unwrap();
            fs::remove_dir_all(svc_root.join(format!("rank-{VICTIM}")).join("own")).unwrap();
        }
    });
    let spbc = run_damaged(Arc::clone(&provider), hook, SABOTAGE_AT);

    assert_eq!(native.outputs, spbc.outputs, "repaired run must match bitwise");
    assert_eq!(spbc.failures_handled, 1);
    assert_eq!(spbc.restarts, vec![0, 0, 1, 1, 0, 0, 0, 0], "only the victim's cluster restarts");
    let m = provider.metrics();
    assert!(Metrics::get(&m.ckpt_repairs) >= 1, "restore must have used a partner copy");
    assert!(Metrics::get(&m.repl_pushes) > 0, "blobs were replicated at commit");
    assert!(Metrics::get(&m.repl_acks) > 0, "partners acknowledged the copies");
}

#[test]
fn released_partners_still_restore_the_last_committed_wave() {
    // Wave 2 resumes at iteration 6; the victim's next checkpoint call
    // tells its partners to drop its copies below wave 2. Once every
    // partner has applied that release, the victim dies and takes its
    // node-local copies with it. The cluster must restart from wave 2 as
    // the partners hold it: a release may drop only copies older than the
    // wave that resumed.
    const RELEASED: u64 = 7;
    let native = run_native();
    let cfg = SpbcConfig {
        ckpt_interval: 3,
        replicas: 2,
        ckpt_cdc: true,
        lose_local_on_failure: true,
        ..Default::default()
    };
    let provider = Arc::new(SpbcProvider::new(ClusterMap::blocks(WORLD, 4), cfg));
    let svc = provider.ckptstore();
    let hook: Hook = Arc::new(move |rank, step| {
        if rank.world_rank() as u32 == VICTIM && rank.epoch() == 0 && step == RELEASED {
            // Wave 1 is gone from the victim's local store (wave 2's GC)
            // and from every partner (the release) once only wave 2 is
            // left anywhere.
            let deadline = Instant::now() + Duration::from_secs(5);
            while svc.available_epochs(RankId(VICTIM)).unwrap() != [2] {
                assert!(Instant::now() < deadline, "the release never reached the partners");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    });
    let spbc = run_damaged(Arc::clone(&provider), hook, RELEASED);

    assert_eq!(native.outputs, spbc.outputs, "wave 2 restored from partners must match bitwise");
    assert_eq!(spbc.failures_handled, 1);
    assert_eq!(spbc.restarts, vec![0, 0, 1, 1, 0, 0, 0, 0], "only the victim's cluster restarts");
    let m = provider.metrics();
    assert!(Metrics::get(&m.ckpt_repairs) >= 1, "the victim's wave 2 came from a partner");
}

#[test]
fn corrupt_local_file_is_repaired_from_partners() {
    let native = run_native();
    let root = tmpdir("corrupt");
    let provider = damaged_provider(&root, ckpt_cfg());
    let svc = provider.ckptstore();
    let svc_root = root.clone();
    let hook: Hook = Arc::new(move |rank, step| {
        if rank.world_rank() as u32 == VICTIM && rank.epoch() == 0 && step == SABOTAGE_AT {
            // Flip one byte in the newest committed wave's file: the load
            // must fail its CRC and fall through to partner repair rather
            // than restoring silently-corrupt state.
            svc.flush_rank(RankId(VICTIM)).unwrap();
            let path = svc_root
                .join(format!("rank-{VICTIM}"))
                .join("own")
                .join(format!("rank-{VICTIM}.epoch-2.ckpt"));
            let mut bytes = fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
        }
    });
    let spbc = run_damaged(Arc::clone(&provider), hook, SABOTAGE_AT);

    assert_eq!(native.outputs, spbc.outputs, "corruption must not change the result");
    assert_eq!(spbc.failures_handled, 1);
    let m = provider.metrics();
    assert!(Metrics::get(&m.ckpt_repairs) >= 1, "CRC failure must trigger partner repair");
}

#[test]
fn replication_disabled_still_recovers_from_intact_storage() {
    // k = 0: single-copy storage, no pushes, no acks — recovery works off
    // the surviving local files exactly as before the subsystem existed.
    let native = run_native();
    let root = tmpdir("k0");
    let noop: Hook = Arc::new(|_, _| {});
    let cfg = SpbcConfig { ckpt_interval: 3, replicas: 0, ..Default::default() };
    let provider = damaged_provider(&root, cfg);
    let spbc = run_damaged(Arc::clone(&provider), noop, SABOTAGE_AT);

    assert_eq!(native.outputs, spbc.outputs);
    assert_eq!(spbc.failures_handled, 1);
    let m = provider.metrics();
    assert_eq!(Metrics::get(&m.repl_pushes), 0);
    assert_eq!(Metrics::get(&m.repl_acks), 0);
    assert_eq!(Metrics::get(&m.ckpt_repairs), 0);
}

#[test]
fn lost_store_copy_is_not_restored_from_memory() {
    // k = 0 and the victim wipes its only copy of wave 1 (iteration 3)
    // after wave 1's RESUME, which already released the senders' log
    // entries that wave covers. The store can no longer load wave 1 for the
    // victim, and no process-memory copy stands in for it: the cluster
    // restarts from the initial state, its rollback asks for entries below
    // the senders' GC floor, and the run ends at once with the floor error
    // instead of resurrecting wave 1 or waiting for the deadlock timeout.
    const LOST_AT: u64 = 4;
    let root = tmpdir("store-loss");
    let cfg = SpbcConfig { ckpt_interval: 3, replicas: 0, ..Default::default() };
    let provider = damaged_provider(&root, cfg);
    let svc = provider.ckptstore();
    let svc_root = root.clone();
    let hook: Hook = Arc::new(move |rank, step| {
        if rank.world_rank() as u32 == VICTIM && rank.epoch() == 0 && step == LOST_AT {
            svc.flush_rank(RankId(VICTIM)).unwrap();
            fs::remove_dir_all(svc_root.join(format!("rank-{VICTIM}")).join("own")).unwrap();
        }
    });
    let timeout = Duration::from_secs(10);
    let report = Runtime::builder(RuntimeConfig::new(WORLD).with_deadlock_timeout(timeout))
        .provider(provider.clone())
        .app(Arc::new(ring_app(ITERS, hook)))
        .plans(vec![FailurePlan::nth(RankId(VICTIM), LOST_AT + 1)])
        .launch()
        .unwrap();

    // Rank 1 logs the ring's channel into the victim; wave 1's notice
    // raised its floor to the 3 messages that wave holds.
    let (rank, err) = report.errors.first().expect("the run must fail loudly");
    assert_eq!(*rank, RankId(VICTIM - 1), "{err}");
    let want = format!("channel 1->{VICTIM} (comm 0) rolled back to lr 0, below its GC floor 3");
    assert!(err.contains(&want), "{err}");
    assert!(report.wall_time < timeout / 2, "took {:?}: {err}", report.wall_time);
    assert_eq!(report.restarts, vec![0, 0, 1, 1, 0, 0, 0, 0]);
    let m = provider.metrics();
    let loads = m.phase.hist(Phase::RestoreLoad).snapshot().count();
    assert_eq!(loads, 0, "cluster {{2, 3}} must not resurrect wave 1");
    assert_eq!(Metrics::get(&m.replayed_msgs), 0, "nothing replays around the hole");
}
