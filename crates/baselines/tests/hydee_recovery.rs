//! End-to-end HydEE tests: correct recovery through the centralized
//! coordinator, and the serialization cost relative to SPBC.

use mini_mpi::failure::FailurePlan;
use mini_mpi::prelude::*;
use mini_mpi::recorder::Event;
use mini_mpi::wire::to_bytes;
use spbc_baselines::{coordinator_service, HydeeConfig, HydeeProvider};
use spbc_core::{ClusterMap, Metrics, SpbcConfig, SpbcProvider};
use std::sync::Arc;
use std::time::Duration;

/// Ring + allreduce workload (send-deterministic: named receives only).
fn ring_app(iters: u64) -> impl Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync + 'static {
    move |rank: &mut Rank| {
        let me = rank.world_rank();
        let n = rank.world_size();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        let mut state: (u64, f64) = rank.restore()?.unwrap_or((0, me as f64 + 1.0));
        while state.0 < iters {
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

fn run_hydee(
    world: usize,
    iters: u64,
    ckpt_interval: u64,
    plans: Vec<FailurePlan>,
) -> (RunReport, Arc<HydeeProvider>) {
    let provider = Arc::new(HydeeProvider::new(
        ClusterMap::blocks(world, 2),
        HydeeConfig { ckpt_interval, ..Default::default() },
    ));
    let cfg = RuntimeConfig::new(world)
        .with_services(1)
        .with_deadlock_timeout(Duration::from_secs(10))
        .with_flight_recorder(1 << 14);
    let report = Runtime::builder(cfg)
        .provider(provider.clone())
        .app(Arc::new(ring_app(iters)))
        .plans(plans)
        .service(Arc::new(coordinator_service()))
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    (report, provider)
}

#[test]
fn hydee_failure_free_matches_native() {
    let native = Runtime::builder(RuntimeConfig::new(6))
        .app(Arc::new(ring_app(10)))
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    let (hydee, provider) = run_hydee(6, 10, 4, vec![]);
    assert_eq!(native.outputs, hydee.outputs);
    let m = provider.metrics();
    assert_eq!(Metrics::get(&m.coordinator_grants), 0, "coordinator idle without failures");
}

/// Rank 2's cluster {0, 1, 2} dies past its checkpoint at call 8 with a
/// replay owed whatever the timing. A ring rank finishes iteration `k` only
/// once its predecessor started it, so while that cluster waited in its
/// wave (all three had finished iteration 7), rank 5 could have sent rank 0
/// at most seqnum 11 (iteration 10's). When rank 2 starts iteration 15
/// (its 16th failure point) rank 0 has finished iteration 12, so it had
/// received seqnum 13: rank 5's log owes it at least 12 and 13.
#[test]
fn hydee_recovers_correctly_through_coordinator() {
    let native = Runtime::builder(RuntimeConfig::new(6))
        .app(Arc::new(ring_app(16)))
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    let (hydee, provider) = run_hydee(6, 16, 8, vec![FailurePlan::nth(RankId(2), 16)]);
    assert_eq!(native.outputs, hydee.outputs, "HydEE recovery must be correct");
    assert_eq!(hydee.failures_handled, 1);
    let m = provider.metrics();
    let (grants, replayed) = (Metrics::get(&m.coordinator_grants), Metrics::get(&m.replayed_msgs));
    assert!(replayed > 0, "rank 5 owes the restarted rank 0 a replay");
    assert!(grants > 0, "replay must go through the coordinator");
    // Every replay (from the log or the ordering fence) takes one grant;
    // stale grants after a re-rollback can add a few more.
    assert!(grants >= replayed);
    // Coordinated replays are recorded like windowed ones.
    let flight = hydee.flight.expect("flight recorder on");
    assert!(flight.iter().all(|t| t.dropped == 0), "the recorder evicted events");
    let events = flight.iter().flat_map(|t| &t.events);
    let replays = events.filter(|e| matches!(e.event, Event::Replay { .. })).count();
    assert_eq!(replays as u64, replayed, "one Event::Replay per replayed message");
}

#[test]
fn hydee_replay_is_serialized_spbc_is_not() {
    // Same failure under both protocols; compare coordinator involvement.
    // Rank 0 starts iteration 12 having received seqnum 12 from rank 5,
    // past the at most 11 its checkpoint at call 8 holds (see above): a
    // replay is owed under HydEE's clustering too.
    let plans = || vec![FailurePlan::nth(RankId(0), 13)];
    let (_, hydee_provider) = run_hydee(6, 16, 8, plans());

    let spbc_provider = Arc::new(SpbcProvider::new(
        ClusterMap::blocks(6, 3),
        SpbcConfig { ckpt_interval: 8, ..Default::default() },
    ));
    let report =
        Runtime::builder(RuntimeConfig::new(6).with_deadlock_timeout(Duration::from_secs(10)))
            .provider(spbc_provider.clone())
            .app(Arc::new(ring_app(16)))
            .plans(plans())
            .launch()
            .unwrap()
            .ok()
            .unwrap();
    assert_eq!(report.failures_handled, 1);

    let hm = hydee_provider.metrics();
    let sm = spbc_provider.metrics();
    assert!(Metrics::get(&hm.coordinator_grants) > 0);
    assert_eq!(Metrics::get(&sm.coordinator_grants), 0, "SPBC recovery is fully distributed");
    // HydEE pays at least 3 control messages per replayed message
    // (req + grant + done); SPBC pays none per message.
    assert!(
        Metrics::get(&hm.ctrl_msgs) > Metrics::get(&sm.ctrl_msgs),
        "HydEE control traffic must exceed SPBC's"
    );
}

#[test]
fn hydee_pure_logging_and_coordinated_baselines_run() {
    let native = Runtime::builder(RuntimeConfig::new(4))
        .app(Arc::new(ring_app(8)))
        .launch()
        .unwrap()
        .ok()
        .unwrap();
    for provider in
        [Arc::new(spbc_baselines::pure_logging(4, 3)), Arc::new(spbc_baselines::coordinated(4, 3))]
    {
        let report =
            Runtime::builder(RuntimeConfig::new(4).with_deadlock_timeout(Duration::from_secs(10)))
                .provider(provider)
                .app(Arc::new(ring_app(8)))
                .plans(vec![FailurePlan::nth(RankId(1), 5)])
                .launch()
                .unwrap()
                .ok()
                .unwrap();
        assert_eq!(native.outputs, report.outputs);
        assert_eq!(report.failures_handled, 1);
    }
}
