//! Error-path behavior of the runtime API.

use bytes::Bytes;
use mini_mpi::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn run1(f: impl Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync + 'static) -> RunReport {
    Runtime::run_native(1, f).unwrap().ok().unwrap()
}

#[test]
fn waitany_on_empty_set_is_an_error() {
    run1(|rank| {
        assert!(rank.waitany(&[]).is_err());
        Ok(vec![])
    });
}

#[test]
fn double_wait_is_an_error() {
    run1(|rank| {
        let req = rank.isend(COMM_WORLD, 0, 1, &[1u8])?;
        let rr = rank.irecv(COMM_WORLD, 0u32, 1)?;
        rank.wait(req)?;
        assert!(rank.wait(req).is_err(), "request already consumed");
        rank.wait(rr)?;
        Ok(vec![])
    });
}

#[test]
fn unknown_communicator_is_an_error() {
    run1(|rank| {
        let bogus = CommId(0xDEAD_BEEF);
        assert!(rank.comm_size(bogus).is_err());
        assert!(rank.send(bogus, 0, 1, &[1u8]).is_err());
        assert!(rank.irecv(bogus, 0u32, 1).is_err());
        assert!(rank.barrier(bogus).is_err());
        Ok(vec![])
    });
}

#[test]
fn out_of_range_peer_is_an_error() {
    run1(|rank| {
        assert!(rank.send(COMM_WORLD, 5, 1, &[1u8]).is_err());
        assert!(rank.irecv(COMM_WORLD, 5u32, 1).is_err());
        assert!(rank.bcast(COMM_WORLD, 5, &[1u8]).is_err());
        assert!(rank.reduce(COMM_WORLD, 5, ReduceOp::Sum, &[1u8]).is_err());
        Ok(vec![])
    });
}

#[test]
fn checkpoint_with_live_request_is_an_error() {
    let report = Runtime::run_native(2, |rank| {
        if rank.world_rank() == 0 {
            // Outstanding receive that nothing will satisfy yet.
            let pending = rank.irecv(COMM_WORLD, 1u32, 9)?;
            let err = rank.checkpoint_if_due(&0u64);
            assert!(err.is_err(), "live requests must fail the checkpoint precondition");
            // Drain the pending request (rank 1 sends below).
            let _ = rank.wait(pending)?;
            Ok(vec![1])
        } else {
            std::thread::sleep(Duration::from_millis(20));
            rank.send_bytes(COMM_WORLD, 0, 9, Bytes::from_static(b"x"))?;
            Ok(vec![1])
        }
    })
    .unwrap()
    .ok()
    .unwrap();
    assert!(report.outputs.iter().all(|o| o == &[1]));
}

#[test]
fn app_error_is_reported_not_hung() {
    let report =
        Runtime::builder(RuntimeConfig::new(2).with_deadlock_timeout(Duration::from_secs(5)))
            .app(Arc::new(|rank: &mut Rank| {
                if rank.world_rank() == 0 {
                    Err(MpiError::app("synthetic application failure"))
                } else {
                    // Would block forever without the runtime teardown.
                    let _ = rank.recv_bytes(COMM_WORLD, 0u32, 1)?;
                    Ok(vec![])
                }
            }))
            .launch()
            .unwrap();
    assert!(!report.errors.is_empty());
    assert!(report.errors.iter().any(|(_, m)| m.contains("synthetic")));
}

#[test]
fn rank_panic_ends_the_run_with_its_message() {
    let start = std::time::Instant::now();
    let report =
        Runtime::builder(RuntimeConfig::new(2).with_deadlock_timeout(Duration::from_secs(30)))
            .app(Arc::new(|rank: &mut Rank| {
                rank.barrier(COMM_WORLD)?;
                if rank.world_rank() == 0 {
                    panic!("synthetic rank panic");
                }
                // Blocks until the run is torn down: nothing will send.
                let _ = rank.recv_bytes(COMM_WORLD, 0u32, 1)?;
                Ok(vec![])
            }))
            .launch()
            .unwrap();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(5), "the panic took {took:?} to end the run");
    let panicked =
        |(r, m): &(RankId, String)| *r == RankId(0) && m.contains("synthetic rank panic");
    assert!(report.errors.iter().any(panicked), "{:?}", report.errors);
}

#[test]
fn run_report_ok_propagates_errors() {
    let report = Runtime::builder(RuntimeConfig::new(1))
        .app(Arc::new(|_rank: &mut Rank| Err(MpiError::app("boom"))))
        .launch()
        .unwrap();
    assert!(report.ok().is_err());
}

#[test]
fn zero_ranks_is_rejected() {
    let err = Runtime::builder(RuntimeConfig::new(0))
        .app(Arc::new(|_rank: &mut Rank| Ok(Vec::new())))
        .launch();
    assert!(err.is_err());
}

#[test]
fn service_ranks_require_service_closure() {
    let err = Runtime::builder(RuntimeConfig::new(1).with_services(1))
        .app(Arc::new(|_rank: &mut Rank| Ok(Vec::new())))
        .launch();
    assert!(err.is_err());
}

#[test]
fn typed_unpack_rejects_misaligned_payload() {
    run1(|rank| {
        rank.send_bytes(COMM_WORLD, 0, 1, Bytes::from_static(b"123"))?;
        // 3 bytes is not a valid f64 payload.
        let got = rank.recv::<f64>(COMM_WORLD, 0u32, 1);
        assert!(got.is_err());
        Ok(vec![])
    });
}
