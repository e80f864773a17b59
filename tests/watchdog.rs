//! Hang watchdog: a forced quiescence stall must end in a flight-recorder
//! dump that names the stuck ranks and the last transition-table row each
//! took — not a bare timeout.
//!
//! The stall: a single 4-rank cluster with `ckpt_interval: 1`. Ranks 0–2
//! reach the coordinated checkpoint on their first boundary; rank 3 never
//! calls `checkpoint_if_due` (it blocks in a receive that can never be
//! satisfied), so the checkpoint wave can never quiesce and every rank
//! times out.

use spbc::core::{ClusterMap, SpbcConfig, SpbcProvider};
use spbc::mpi::prelude::*;
use spbc::mpi::AppFn;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn quiescence_stall_produces_flight_dump() {
    let world = 4;
    let cfg = RuntimeConfig::new(world)
        // Long enough for the stuck ranks to publish a status line (they do
        // so after ~1 s of waiting), short enough to keep the test quick.
        .with_deadlock_timeout(Duration::from_millis(2200))
        .with_flight_recorder(256);
    let provider = Arc::new(SpbcProvider::new(
        ClusterMap::single(world),
        SpbcConfig { ckpt_interval: 1, ..Default::default() },
    ));
    let app: Arc<AppFn> = Arc::new(|rank: &mut Rank| {
        if rank.world_rank() == 3 {
            // Never reaches the checkpoint boundary.
            let _ = rank.recv::<u8>(COMM_WORLD, 0u32, 99)?;
            return Ok(Vec::new());
        }
        rank.checkpoint_if_due(&0u64)?;
        Ok(Vec::new())
    });

    let report = Runtime::builder(cfg).provider(provider).app(app).launch().unwrap();

    assert!(!report.errors.is_empty(), "the stall must surface as rank errors");
    assert!(
        report.errors.iter().any(|(_, m)| m.contains("checkpoint coordination")),
        "errors name the stuck phase: {:?}",
        report.errors
    );

    let dump = report.flight_dump.as_deref().expect("watchdog dump captured in the report");
    // Every rank appears, stuck or not.
    for r in 0..world {
        assert!(dump.contains(&format!("-- rank {r}:")), "rank {r} missing from dump:\n{dump}");
    }
    // The ranks that entered the wave took its opening row last; the dump
    // surfaces the last row per rank.
    let rank = |r: usize| {
        let from = dump.find(&format!("-- rank {r}:")).unwrap();
        let to = dump[from + 1..].find("-- rank ").map_or(dump.len(), |i| from + 1 + i);
        &dump[from..to]
    };
    for r in 0..3 {
        let last = rank(r).lines().find(|l| l.trim_start().starts_with("last row:")).unwrap();
        assert!(last.ends_with("member/Idle/Call(open) e1"), "rank {r}'s last row:\n{dump}");
    }
    // Rank 3 never checkpointed.
    assert!(rank(3).contains("last row: none"), "rank 3 took no row:\n{dump}");
    // The stuck ranks published watermark status lines while waiting.
    assert!(
        dump.contains("checkpoint coordination"),
        "dump carries the stuck ranks' status lines:\n{dump}"
    );

    // The full event log also rides on the report for programmatic use.
    let flight = report.flight.expect("flight log present when the recorder is on");
    assert_eq!(flight.len(), world);
    let row_tracks = flight
        .iter()
        .filter(|t| {
            t.events.iter().any(|e| matches!(e.event, spbc::mpi::recorder::Event::Row { .. }))
        })
        .count();
    assert!(row_tracks >= 1, "at least the wave initiator recorded a row");
}
