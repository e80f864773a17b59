//! The pluggable message fabric behind the [`crate::router::Router`].
//!
//! A [`Transport`] owns one *endpoint* per rank: a slot peers send through
//! and a [`Mailbox`] the owning rank receives from. The contract every
//! implementation must honor (the transport conformance suite in
//! `tests/transport_conformance.rs` checks it against each one):
//!
//! * **Per-channel FIFO** — packets from one sender to one destination are
//!   delivered in send order (MPI's ordering guarantee, Section 3.1).
//! * **Drop on dead slot** — once a rank's mailbox is dropped (the rank
//!   died), packets sent to it are discarded, like packets on a wire to a
//!   crashed node. [`Transport::send`] reports the discard with `false`.
//! * **Repoint on restart** — [`Transport::replace`] atomically repoints a
//!   rank's slot at a fresh mailbox. Everything still queued for the old
//!   incarnation (conceptually "in flight at the moment of the crash") dies
//!   with it; the protocol layer regenerates lost traffic from its
//!   sender-side logs.
//! * **Wake on arrival** — a blocked [`Mailbox::recv_timeout`] returns as
//!   soon as a packet lands, not when its timeout expires: `Rank::pump` and
//!   blocking `probe` end on the first handled packet.
//!
//! Two implementations ship: [`InProcTransport`] (crossbeam channels, every
//! rank a thread — the allocation-lean fast path every existing test runs
//! on) and [`uds::UdsTransport`] (length-prefixed frames over Unix-domain
//! sockets — the wire path `spbc-node` processes talk over).

use crate::envelope::Packet;
use crate::types::RankId;
use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Mutex, RwLock};
use std::time::Duration;

pub mod frame;
pub mod uds;

/// Why a timed mailbox receive returned without a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvTimeoutErr {
    /// Nothing arrived within the timeout; the endpoint is still live.
    Timeout,
    /// The endpoint was torn down underneath the receiver: its slot was
    /// repointed (this incarnation is being restarted) or the transport is
    /// shutting down. Blocking waits translate this to `MpiError::Killed`.
    Disconnected,
}

/// The receiving end of one rank's endpoint.
pub trait Mailbox: Send {
    /// Take one packet if one is immediately available.
    fn try_recv(&self) -> Option<Packet>;

    /// Wait up to `timeout` for one packet; return as soon as one arrives.
    fn recv_timeout(&self, timeout: Duration) -> Result<Packet, RecvTimeoutErr>;
}

/// A message fabric: one endpoint per rank, slots repointable on restart.
pub trait Transport: Send + Sync {
    /// Number of endpoints (world + service ranks).
    fn ranks(&self) -> usize;

    /// Deliver `pkt` to `dst`'s mailbox, preserving per-sender FIFO order.
    /// Returns `false` when the packet was discarded: `dst` is unknown, or
    /// its endpoint is known (locally) to be dead. A wire transport may
    /// return `true` for a remote destination that already died — the
    /// discard then happens at the far end, as on a real network.
    fn send(&self, dst: RankId, pkt: Packet) -> bool;

    /// Take the initial mailbox of `rank`.
    ///
    /// # Panics
    /// Panics if called twice for the same rank without an intervening
    /// [`Transport::replace`], or for a rank this endpoint does not host.
    fn open(&self, rank: RankId) -> Box<dyn Mailbox>;

    /// Repoint `rank`'s slot at a fresh mailbox (restart), returning the new
    /// receiving end. Anything queued for the old incarnation is dropped.
    fn replace(&self, rank: RankId) -> Box<dyn Mailbox>;

    /// Tear down `rank`'s endpoint: subsequent sends to it are discarded
    /// until [`Transport::replace`] revives it.
    fn close(&self, rank: RankId);
}

/// A crossbeam receiver as a [`Mailbox`].
pub(crate) struct ChanMailbox(pub(crate) Receiver<Packet>);

impl Mailbox for ChanMailbox {
    fn try_recv(&self) -> Option<Packet> {
        self.0.try_recv().ok()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Packet, RecvTimeoutErr> {
        self.0.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvTimeoutErr::Timeout,
            RecvTimeoutError::Disconnected => RecvTimeoutErr::Disconnected,
        })
    }
}

/// A mailbox whose endpoint is already dead (test scaffolding).
#[cfg(test)]
pub(crate) fn dead_mailbox() -> Box<dyn Mailbox> {
    Box::new(ChanMailbox(unbounded().1))
}

/// The in-process transport: one unbounded crossbeam channel per rank.
///
/// This is the seed implementation the trait was extracted from — the slot
/// table is exactly the old `Router`'s, so every existing test and chaos
/// schedule behaves bit-identically through the seam. Channel semantics give
/// the contract for free: crossbeam preserves per-producer order, a dropped
/// `Receiver` fails sends, and swapping the `Sender` strands old traffic in
/// the old channel.
pub struct InProcTransport {
    slots: Vec<RwLock<Sender<Packet>>>,
    /// Initial receivers, handed out once by [`Transport::open`].
    pending: Vec<Mutex<Option<Receiver<Packet>>>>,
}

impl InProcTransport {
    /// A transport with `n` endpoints.
    pub fn new(n: usize) -> Self {
        let mut slots = Vec::with_capacity(n);
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            slots.push(RwLock::new(tx));
            pending.push(Mutex::new(Some(rx)));
        }
        InProcTransport { slots, pending }
    }
}

impl Transport for InProcTransport {
    fn ranks(&self) -> usize {
        self.slots.len()
    }

    fn send(&self, dst: RankId, pkt: Packet) -> bool {
        let Some(slot) = self.slots.get(dst.idx()) else {
            return false;
        };
        slot.read().send(pkt).is_ok()
    }

    fn open(&self, rank: RankId) -> Box<dyn Mailbox> {
        let rx = self.pending[rank.idx()].lock().take().expect("endpoint already opened");
        Box::new(ChanMailbox(rx))
    }

    fn replace(&self, rank: RankId) -> Box<dyn Mailbox> {
        let (tx, rx) = unbounded();
        *self.slots[rank.idx()].write() = tx;
        Box::new(ChanMailbox(rx))
    }

    fn close(&self, rank: RankId) {
        // Point the slot at a channel whose receiver is already gone: the
        // endpoint reads as dead until `replace` revives it.
        let (tx, _rx) = unbounded();
        *self.slots[rank.idx()].write() = tx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::CtrlMsg;
    use bytes::Bytes;

    fn ctrl(kind: u16) -> Packet {
        Packet::Ctrl(CtrlMsg { from: RankId(0), kind, data: Bytes::new() })
    }

    #[test]
    fn open_twice_panics() {
        let t = InProcTransport::new(1);
        let _mb = t.open(RankId(0));
        assert!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.open(RankId(0)))).is_err()
        );
    }

    #[test]
    fn close_discards_until_replace() {
        let t = InProcTransport::new(2);
        let _mb = t.open(RankId(0));
        assert!(t.send(RankId(0), ctrl(1)));
        t.close(RankId(0));
        assert!(!t.send(RankId(0), ctrl(2)));
        let fresh = t.replace(RankId(0));
        assert!(t.send(RankId(0), ctrl(3)));
        match fresh.try_recv().unwrap() {
            Packet::Ctrl(c) => assert_eq!(c.kind, 3),
            _ => panic!("wrong packet"),
        }
    }

    #[test]
    fn recv_timeout_maps_disconnect() {
        let t = InProcTransport::new(1);
        let mb = t.open(RankId(0));
        assert_eq!(mb.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutErr::Timeout));
        let _fresh = t.replace(RankId(0));
        // The old mailbox's channel lost its only sender: disconnected.
        assert_eq!(mb.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutErr::Disconnected));
    }
}
