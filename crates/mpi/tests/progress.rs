//! Blocking waits end on the packet that satisfies them, not on a timer.
//!
//! `pump(dur)` returns as soon as one packet is handled, and a blocking
//! `probe` re-probes on every handled packet. Neither test asserts on wall
//! time: a wait that ignored its packet would run into the 2 s deadlock
//! timeout (or the runtime backstop) and fail the run instead.

use bytes::Bytes;
use mini_mpi::ft::NativeProvider;
use mini_mpi::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn launch(
    world: usize,
    f: impl Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync + 'static,
) -> RunReport {
    let cfg = RuntimeConfig::new(world).with_deadlock_timeout(Duration::from_secs(2));
    Runtime::builder(cfg).provider(Arc::new(NativeProvider)).app_fn(f).launch().unwrap()
}

#[test]
fn pump_returns_on_the_first_handled_packet() {
    let report = launch(2, |rank| {
        if rank.world_rank() == 0 {
            // Far past the deadlock timeout: only the arrival can end it.
            rank.pump(Duration::from_secs(3600))?;
            let st = rank.iprobe(COMM_WORLD, 1u32, 4)?.expect("the arrival that ended the pump");
            assert_eq!(st.src, RankId(1));
            let (v, _) = rank.recv::<u8>(COMM_WORLD, 1u32, 4)?;
            Ok(v)
        } else {
            std::thread::sleep(Duration::from_millis(20));
            rank.send(COMM_WORLD, 0, 4, &[42u8])?;
            Ok(vec![42])
        }
    });
    let report = report.ok().unwrap();
    assert_eq!(report.outputs, vec![vec![42], vec![42]]);
}

#[test]
fn pump_with_nothing_arriving_returns_ok() {
    let report = launch(1, |rank| {
        rank.pump(Duration::from_millis(1))?;
        Ok(vec![1])
    });
    assert_eq!(report.ok().unwrap().outputs, vec![vec![1]]);
}

#[test]
fn probe_wakes_on_a_late_match_after_an_unrelated_arrival() {
    let report = launch(2, |rank| {
        if rank.world_rank() == 0 {
            let st = rank.probe(COMM_WORLD, 1u32, 8)?;
            assert_eq!((st.src, st.tag), (RankId(1), 8));
            let (v, _) = rank.recv::<u8>(COMM_WORLD, 1u32, 8)?;
            let (w, _) = rank.recv::<u8>(COMM_WORLD, 1u32, 7)?;
            Ok([v, w].concat())
        } else {
            // The tag-7 packet wakes the probe without satisfying it.
            rank.send(COMM_WORLD, 0, 7, &[7u8])?;
            std::thread::sleep(Duration::from_millis(20));
            rank.send(COMM_WORLD, 0, 8, &[8u8])?;
            Ok(Vec::new())
        }
    });
    assert_eq!(report.ok().unwrap().outputs[0], vec![8, 7]);
}

#[test]
fn probe_that_can_never_match_reports_a_deadlock() {
    let report = launch(2, |rank| {
        if rank.world_rank() == 0 {
            // Rank 1 only ever sends tag 1; the arrival wakes the probe,
            // which re-probes and keeps waiting for a tag-2 message.
            rank.probe(COMM_WORLD, 1u32, 2)?;
            Ok(Vec::new())
        } else {
            rank.send_bytes(COMM_WORLD, 0, 1, Bytes::from_static(b"x"))?;
            Ok(Vec::new())
        }
    });
    assert!(
        report.errors.iter().any(|(r, m)| *r == RankId(0) && m.contains("stuck in probe")),
        "the stuck probe names itself: {:?}",
        report.errors
    );
}
