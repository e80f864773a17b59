//! One definition per phase: on a traced run, every phase sample the
//! histograms hold is one `CkptPhaseDone` event on some rank's track, and
//! every wave a rank resumed passed quiesce, replicate and the commit
//! barrier once each.

use mini_mpi::prelude::*;
use mini_mpi::recorder::Event;
use mini_mpi::wire::to_bytes;
use spbc_core::{ClusterMap, Phase, SpbcConfig, SpbcProvider};
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
        state.1 = 0.5 * state.1 + 0.1 * got[0];
        state.0 += 1;
        rank.checkpoint_if_due(&state)?;
    }
    Ok(to_bytes(&state.1))
}

#[test]
fn phase_histograms_and_events_agree() {
    // Four waves; k = 2 partners each, so every wave replicates.
    let cfg =
        SpbcConfig { ckpt_interval: 3, replicas: 2, ec_scheme: "off".into(), ..Default::default() };
    let provider = Arc::new(SpbcProvider::new(ClusterMap::blocks(WORLD, 2), cfg));
    let metrics = provider.metrics();
    let report = Runtime::builder(
        RuntimeConfig::new(WORLD)
            .with_deadlock_timeout(Duration::from_secs(10))
            .with_flight_recorder(1 << 14),
    )
    .provider(provider)
    .app(Arc::new(ring_app))
    .launch()
    .unwrap()
    .ok()
    .unwrap();

    let flight = report.flight.expect("flight recorder was on");
    let mut events: BTreeMap<&str, u64> = BTreeMap::new();
    let mut resumed_waves = 0;
    for trace in &flight {
        assert_eq!(trace.dropped, 0, "rank {}: ring too small", trace.rank);
        // Per wave: the phase events this rank recorded for it.
        let mut waves: BTreeMap<u64, BTreeMap<&str, u64>> = BTreeMap::new();
        let mut resumed = Vec::new();
        for ev in &trace.events {
            match ev.event {
                Event::CkptPhaseDone { epoch, phase, .. } => {
                    *waves.entry(epoch).or_default().entry(phase).or_default() += 1;
                    *events.entry(phase).or_default() += 1;
                }
                Event::Row { row: "member/AwaitingResume/Resume", epoch } => resumed.push(epoch),
                _ => {}
            }
        }
        assert_eq!(resumed, [1, 2, 3, 4], "rank {}", trace.rank);
        for epoch in resumed {
            let got = &waves[&epoch];
            for phase in ["quiesce", "replicate", "commit_barrier"] {
                assert_eq!(got.get(phase), Some(&1), "rank {} wave {epoch}: {got:?}", trace.rank);
            }
            resumed_waves += 1;
        }
    }
    assert_eq!(resumed_waves, 4 * WORLD);
    let hists = metrics.snapshot().phases;
    for phase in Phase::ALL {
        let want = events.get(phase.name()).copied().unwrap_or(0);
        assert_eq!(hists.get(phase).count(), want, "{}", phase.name());
    }
    assert!(hists.get(Phase::Encode).count() > 0 && hists.get(Phase::Write).count() > 0);
}
