//! Transport conformance suite: every [`Transport`] implementation must
//! honor the contract documented in `mini_mpi::transport` — per-channel
//! FIFO, discard on dead slot, repoint on restart, wake on arrival. Each case
//! runs against both shipped fabrics, so a new transport only has to add a
//! factory line.

use bytes::Bytes;
use mini_mpi::envelope::{CtrlMsg, Packet};
use mini_mpi::transport::uds::UdsTransport;
use mini_mpi::transport::{InProcTransport, RecvTimeoutErr, Transport};
use mini_mpi::types::RankId;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECV: Duration = Duration::from_secs(10);

fn fabrics(n: usize) -> Vec<(&'static str, Arc<dyn Transport>)> {
    vec![
        ("inproc", Arc::new(InProcTransport::new(n))),
        ("uds", Arc::new(UdsTransport::loopback(n).expect("loopback"))),
    ]
}

fn ctrl(from: u32, kind: u16, data: &[u8]) -> Packet {
    Packet::Ctrl(CtrlMsg { from: RankId(from), kind, data: Bytes::copy_from_slice(data) })
}

fn parts(p: Packet) -> (u32, u16, Vec<u8>) {
    match p {
        Packet::Ctrl(c) => (c.from.0, c.kind, c.data.to_vec()),
        _ => panic!("expected ctrl packet"),
    }
}

#[test]
fn per_channel_fifo_under_concurrent_senders() {
    const PER_SENDER: u16 = 200;
    for (name, t) in fabrics(3) {
        let mb = t.open(RankId(2));
        let senders: Vec<_> = [0u32, 1]
            .into_iter()
            .map(|src| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for k in 0..PER_SENDER {
                        let payload = [src as u8, k as u8];
                        assert!(t.send(RankId(2), ctrl(src, k, &payload)), "{name}: send");
                    }
                })
            })
            .collect();
        let mut next = [0u16; 2];
        for _ in 0..(2 * PER_SENDER) {
            let (src, kind, data) = parts(mb.recv_timeout(RECV).unwrap_or_else(|e| {
                panic!("{name}: receiver starved: {e:?}");
            }));
            assert_eq!(kind, next[src as usize], "{name}: per-sender order violated");
            assert_eq!(data, vec![src as u8, kind as u8], "{name}: payload corrupted");
            next[src as usize] += 1;
        }
        for s in senders {
            s.join().unwrap();
        }
        assert_eq!(next, [PER_SENDER; 2], "{name}: lost packets");
    }
}

#[test]
fn unknown_rank_send_is_discarded() {
    for (name, t) in fabrics(2) {
        assert_eq!(t.ranks(), 2, "{name}");
        assert!(
            !t.send(RankId(7), ctrl(0, 1, &[])),
            "{name}: out-of-range send must report discard"
        );
    }
}

#[test]
fn sends_to_dropped_mailbox_are_discarded() {
    for (name, t) in fabrics(2) {
        let mb = t.open(RankId(1));
        assert!(t.send(RankId(1), ctrl(0, 1, &[])), "{name}: live send");
        drop(mb);
        assert!(
            !t.send(RankId(1), ctrl(0, 2, &[])),
            "{name}: send to dead slot must report discard"
        );
    }
}

#[test]
fn close_discards_until_replace() {
    for (name, t) in fabrics(2) {
        let _mb = t.open(RankId(1));
        t.close(RankId(1));
        assert!(!t.send(RankId(1), ctrl(0, 1, &[])), "{name}: closed slot must discard");
        let fresh = t.replace(RankId(1));
        assert!(t.send(RankId(1), ctrl(0, 2, &[])), "{name}: replaced slot must accept");
        assert_eq!(parts(fresh.recv_timeout(RECV).unwrap()).1, 2, "{name}");
    }
}

#[test]
fn replace_strands_old_traffic_and_repoints() {
    for (name, t) in fabrics(1) {
        let old = t.open(RankId(0));
        assert!(t.send(RankId(0), ctrl(0, 1, &[])), "{name}");
        let fresh = t.replace(RankId(0));
        assert!(t.send(RankId(0), ctrl(0, 2, &[])), "{name}");
        // Pre-replace traffic belongs to the old incarnation...
        assert_eq!(parts(old.recv_timeout(RECV).unwrap()).1, 1, "{name}: pre-replace packet");
        // ...which then reads as disconnected (its sender is gone).
        assert_eq!(
            old.recv_timeout(Duration::from_millis(100)),
            Err(RecvTimeoutErr::Disconnected),
            "{name}: old mailbox must disconnect"
        );
        // The new incarnation sees only post-replace traffic.
        assert_eq!(parts(fresh.recv_timeout(RECV).unwrap()).1, 2, "{name}: post-replace packet");
        assert_eq!(
            fresh.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutErr::Timeout),
            "{name}: no leakage across the restart"
        );
    }
}

#[test]
fn recv_timeout_wakes_on_arrival() {
    // `Rank::pump` and blocking `probe` end on the first handled packet, so a
    // blocked receive must return when a packet lands, not when it times out.
    const WAIT: Duration = Duration::from_secs(5);
    for (name, t) in fabrics(2) {
        let mb = t.open(RankId(1));
        let sender = {
            let t = Arc::clone(&t);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                assert!(t.send(RankId(1), ctrl(0, 3, &[])), "{name}: send");
            })
        };
        let t0 = Instant::now();
        let got = mb.recv_timeout(WAIT);
        let elapsed = t0.elapsed();
        sender.join().unwrap();
        assert_eq!(parts(got.expect("packet before the timeout")).1, 3, "{name}");
        assert!(elapsed < WAIT / 2, "{name}: woke after {elapsed:?}, not on arrival");
    }
}

#[test]
fn large_payload_integrity() {
    // Crosses any internal framing/buffer boundary: 1 MiB of patterned bytes.
    let blob: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
    for (name, t) in fabrics(2) {
        let mb = t.open(RankId(1));
        assert!(t.send(RankId(1), ctrl(0, 9, &blob)), "{name}");
        let (_, kind, data) = parts(mb.recv_timeout(RECV).unwrap());
        assert_eq!(kind, 9, "{name}");
        assert_eq!(data, blob, "{name}: large payload corrupted");
    }
}
