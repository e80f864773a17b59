//! The replication barrier counts every pushed frame, not every partner:
//! with more parity shards than partners (`m > k`) one partner holds
//! several shards of a wave, and the encoder may only commit once each of
//! them is acknowledged — otherwise the `m`-loss guarantee silently shrinks.

use mini_mpi::prelude::*;
use mini_mpi::recorder::Event;
use mini_mpi::wire::to_bytes;
use spbc_core::{ClusterMap, SpbcConfig, SpbcProvider};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const WORLD: usize = 8;
const ITERS: u64 = 12;

/// A ring exchange that checkpoints every iteration it is due.
fn ring_app(rank: &mut Rank) -> Result<Vec<u8>> {
    let me = rank.world_rank();
    let n = rank.world_size();
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    let mut state: (u64, f64) = rank.restore()?.unwrap_or((0, me as f64 + 1.0));
    while state.0 < ITERS {
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

#[test]
fn encoder_commits_only_after_every_parity_ack() {
    // Two clusters of 4, one rs(2) set per cluster, one partner per rank:
    // each wave's encoder pushes both parity shards to the same partner.
    let cfg = SpbcConfig {
        ckpt_interval: 3,
        replicas: 1,
        ec_scheme: "rs".into(),
        ec_m: 2,
        ec_group: 4,
        ..Default::default()
    };
    let provider = Arc::new(SpbcProvider::new(ClusterMap::blocks(WORLD, 2), cfg));
    let report = Runtime::builder(
        RuntimeConfig::new(WORLD)
            .with_deadlock_timeout(Duration::from_secs(10))
            .with_flight_recorder(4096),
    )
    .provider(provider)
    .app(Arc::new(ring_app))
    .launch()
    .unwrap()
    .ok()
    .unwrap();

    let flight = report.flight.expect("flight recorder was on");
    let mut encoder_waves = 0;
    for trace in &flight {
        assert_eq!(trace.dropped, 0, "rank {}: ring too small", trace.rank);
        // Per wave: (pushes, acks seen before this rank's commit ACK).
        let mut waves: BTreeMap<u64, (u64, Option<u64>)> = BTreeMap::new();
        let mut acks: BTreeMap<u64, u64> = BTreeMap::new();
        for ev in &trace.events {
            match ev.event {
                Event::CkptReplPush { epoch, .. } => waves.entry(epoch).or_default().0 += 1,
                Event::CkptReplAck { epoch, .. } => *acks.entry(epoch).or_default() += 1,
                Event::Row { row: "member/Flushing/Flushed", epoch } => {
                    let seen = acks.get(&epoch).copied().unwrap_or(0);
                    waves.entry(epoch).or_default().1.get_or_insert(seen);
                }
                _ => {}
            }
        }
        for (epoch, (pushes, acked)) in waves.into_iter().filter(|(_, (p, _))| *p > 0) {
            encoder_waves += 1;
            let acked = acked.expect("every pushed wave commits");
            assert_eq!(
                acked, pushes,
                "rank {} committed wave {epoch} after {acked} of {pushes} parity acks",
                trace.rank
            );
        }
    }
    // Four waves, one encoder per set and wave.
    assert_eq!(encoder_waves, 8, "one encoder per set and wave");
}
