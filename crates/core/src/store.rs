//! Per-rank protocol state that outlives a layer incarnation: the
//! sender-side message log ("node memory"), and the record a committed
//! checkpoint is encoded from.
//!
//! The logs live *outside* the `FtLayer` instance: layers are recreated on
//! every restart, while logs survive — just like node memory survives a
//! process crash in the real system. Committed checkpoints ("stable
//! storage") have exactly one home, the replicated store service
//! (`spbc_ckptstore::CkptStoreService`); a restart reads them only from
//! there.

use crate::ctrl::LogGc;
use crate::log::MessageLog;
use mini_mpi::envelope::Message;
use mini_mpi::error::Result;
use mini_mpi::types::{ChannelId, CommId, RankId};
use mini_mpi::wire::{decode_map, encode_map, Decode, Encode, Reader};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A committed coordinated checkpoint of one rank (Algorithm 1 line 15:
/// `(State_i, Logs_i)` — we record the log *cut* rather than copying it).
#[derive(Clone, Debug, Default)]
pub struct CheckpointData {
    /// Which coordinated checkpoint this is (1-based epoch within the
    /// cluster).
    pub ckpt_epoch: u64,
    /// Serialized application state.
    pub app_state: Vec<u8>,
    /// Outgoing per-channel sequence counters at the cut.
    pub send_seq: HashMap<(RankId, CommId), u64>,
    /// Incoming per-channel watermarks (`LR`) at the cut.
    pub recv_seen: HashMap<(RankId, CommId), u64>,
    /// Fully-arrived but unmatched messages at the cut (restored verbatim
    /// into the unexpected queue).
    pub unexpected_full: Vec<Message>,
    /// Envelope-arrived but payload-pending (rendezvous) inter-cluster
    /// messages at the cut: their seqnums are below the watermark yet the
    /// payload must still be replayed after a rollback.
    pub missing: Vec<(ChannelId, u64)>,
    /// Per-channel log lengths at the cut (rollback truncates to these).
    pub log_lens: HashMap<ChannelId, usize>,
    /// Global send-order counter at the cut.
    pub log_order: u64,
    /// `checkpoint_if_due` call counter at the cut (so the "due" cadence
    /// stays aligned across re-execution).
    pub ckpt_calls: u64,
    /// Intra-cluster messages sent / arrived at the cut (quiescence
    /// counters).
    pub intra_sent: u64,
    /// See `intra_sent`.
    pub intra_arrived: u64,
    /// Communicator table at the cut: `(id, members, my_pos, split_seq,
    /// coll_seq)` — sub-communicators and collective counters must survive
    /// rollback.
    pub comms: Vec<(u64, Vec<RankId>, u64, u64, u64)>,
    /// Lamport clock at the cut.
    pub lamport: u64,
}

impl CheckpointData {
    /// The log GC notices this cut justifies, per sender: on each incoming
    /// channel, the highest seqnum a restart from here can never ask the
    /// sender's log for — everything up to the cut's `LR`, stopping short
    /// of the first payload still owed. Valid for as long as this is the
    /// oldest checkpoint the store retains.
    pub fn log_gc_notices(&self) -> BTreeMap<RankId, LogGc> {
        let mut out: BTreeMap<RankId, LogGc> = BTreeMap::new();
        for (&(src, comm), &seen) in &self.recv_seen {
            let owed = self.missing.iter().filter(|(c, _)| c.src == src && c.comm == comm);
            let first_owed = owed.map(|&(_, s)| s).min();
            let upto = first_owed.map_or(seen, |s| seen.min(s.saturating_sub(1)));
            if upto > 0 {
                out.entry(src).or_default().channels.push((comm.0, upto));
            }
        }
        out.values_mut().for_each(|gc| gc.channels.sort_unstable());
        out
    }
}

impl CheckpointData {
    /// Append the head of a checkpoint body to `out`: `epoch`, then the
    /// application state as `app` encodes it, under the same `u64` length
    /// prefix the `app_state` field carries (written as a placeholder and
    /// patched once `app` is done). This is how a layer serializes the
    /// application state once, straight into the body; [`encode_tail`]
    /// appends the rest.
    ///
    /// [`encode_tail`]: Self::encode_tail
    pub fn encode_head(epoch: u64, app: &mut dyn FnMut(&mut Vec<u8>), out: &mut Vec<u8>) {
        epoch.encode(out);
        let at = out.len();
        0u64.encode(out);
        app(out);
        let len = (out.len() - at - 8) as u64;
        out[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Append every field after `app_state` to `out`, in encoding order.
    /// After [`encode_head`](Self::encode_head) this completes a body
    /// byte-identical to encoding the whole record.
    ///
    /// `out` grows by exactly the tail's length: the tail (a few hundred
    /// bytes) is encoded apart first, so a full MiB-sized head is not
    /// doubled to make room for it.
    pub fn encode_tail(&self, out: &mut Vec<u8>) {
        let mut tail = Vec::new();
        encode_map(&self.send_seq, &mut tail);
        encode_map(&self.recv_seen, &mut tail);
        self.unexpected_full.encode(&mut tail);
        self.missing.encode(&mut tail);
        encode_map(&self.log_lens, &mut tail);
        self.log_order.encode(&mut tail);
        self.ckpt_calls.encode(&mut tail);
        self.intra_sent.encode(&mut tail);
        self.intra_arrived.encode(&mut tail);
        self.comms.encode(&mut tail);
        self.lamport.encode(&mut tail);
        out.reserve_exact(tail.len());
        out.extend_from_slice(&tail);
    }
}

impl Encode for CheckpointData {
    fn encode(&self, out: &mut Vec<u8>) {
        Self::encode_head(self.ckpt_epoch, &mut |o| o.extend_from_slice(&self.app_state), out);
        self.encode_tail(out);
    }
}

impl Decode for CheckpointData {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(CheckpointData {
            ckpt_epoch: Decode::decode(r)?,
            app_state: Decode::decode(r)?,
            send_seq: decode_map(r)?,
            recv_seen: decode_map(r)?,
            unexpected_full: Decode::decode(r)?,
            missing: Decode::decode(r)?,
            log_lens: decode_map(r)?,
            log_order: Decode::decode(r)?,
            ckpt_calls: Decode::decode(r)?,
            intra_sent: Decode::decode(r)?,
            intra_arrived: Decode::decode(r)?,
            comms: Decode::decode(r)?,
            lamport: Decode::decode(r)?,
        })
    }
}

/// Every rank's sender-side log, shared across layer incarnations.
pub struct SharedStore {
    slots: Vec<Arc<Mutex<MessageLog>>>,
}

impl SharedStore {
    /// A store for `world` ranks.
    pub fn new(world: usize) -> Self {
        SharedStore { slots: (0..world).map(|_| Arc::default()).collect() }
    }

    /// The log of `rank` (cheap clone of the `Arc`).
    pub fn slot(&self, rank: RankId) -> Arc<Mutex<MessageLog>> {
        Arc::clone(&self.slots[rank.idx()])
    }

    /// Number of ranks covered.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn per_rank(&self, stat: impl Fn(&MessageLog) -> u64) -> Vec<u64> {
        self.slots.iter().map(|s| stat(&s.lock())).collect()
    }

    /// Total bytes currently held in the logs of all ranks.
    pub fn total_logged_bytes(&self) -> u64 {
        self.logged_bytes_per_rank().iter().sum()
    }

    /// Bytes currently held in each rank's log (saw-tooths with log GC).
    pub fn logged_bytes_per_rank(&self) -> Vec<u64> {
        self.per_rank(MessageLog::total_bytes)
    }

    /// The most bytes each rank's log ever held at once.
    pub fn peak_logged_bytes_per_rank(&self) -> Vec<u64> {
        self.per_rank(MessageLog::peak_bytes)
    }

    /// Cumulative bytes each rank ever appended to its log (Table 1's
    /// log-growth metric).
    pub fn appended_bytes_per_rank(&self) -> Vec<u64> {
        self.per_rank(MessageLog::appended_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::make_msg;
    use mini_mpi::wire::{from_bytes, to_bytes};

    #[test]
    fn checkpoint_data_roundtrip() {
        let mut c = CheckpointData {
            ckpt_epoch: 3,
            app_state: vec![1, 2, 3],
            log_order: 17,
            ckpt_calls: 5,
            intra_sent: 9,
            intra_arrived: 9,
            ..Default::default()
        };
        c.send_seq.insert((RankId(1), mini_mpi::types::COMM_WORLD), 42);
        c.recv_seen.insert((RankId(2), mini_mpi::types::COMM_WORLD), 7);
        c.unexpected_full.push(make_msg(2, 0, 7, b"pending"));
        c.missing.push((ChannelId::new(RankId(3), RankId(0), mini_mpi::types::COMM_WORLD), 4));
        c.log_lens.insert(ChannelId::new(RankId(0), RankId(1), mini_mpi::types::COMM_WORLD), 2);
        let back: CheckpointData = from_bytes(&to_bytes(&c)).unwrap();
        assert_eq!(back.ckpt_epoch, 3);
        assert_eq!(back.app_state, vec![1, 2, 3]);
        assert_eq!(back.send_seq, c.send_seq);
        assert_eq!(back.recv_seen, c.recv_seen);
        assert_eq!(back.unexpected_full, c.unexpected_full);
        assert_eq!(back.missing, c.missing);
        assert_eq!(back.log_lens, c.log_lens);
        assert_eq!(back.intra_sent, 9);
    }

    /// The body a layer builds in place — head with the application state
    /// encoded straight into it, then the tail — is byte-for-byte the
    /// encoding of the whole record, so the stored format is unchanged.
    #[test]
    fn in_place_body_is_byte_identical_to_the_record() {
        let world = mini_mpi::types::COMM_WORLD;
        let app: (u64, Vec<f64>) = (11, vec![0.5, -2.25, 1e300]);
        let mut c = CheckpointData {
            ckpt_epoch: 4,
            app_state: to_bytes(&app),
            log_order: 19,
            ckpt_calls: 8,
            intra_sent: 3,
            intra_arrived: 2,
            lamport: 77,
            ..Default::default()
        };
        c.send_seq.insert((RankId(1), world), 42);
        c.recv_seen.insert((RankId(2), world), 7);
        c.unexpected_full.push(make_msg(2, 0, 7, b"pending"));
        c.unexpected_full.push(make_msg(3, 0, 1, b""));
        c.missing.push((ChannelId::new(RankId(3), RankId(0), world), 4));
        c.log_lens.insert(ChannelId::new(RankId(0), RankId(1), world), 2);
        c.comms.push((0, vec![RankId(0), RankId(1)], 0, 1, 5));
        c.comms.push((9, vec![RankId(1)], 0, 0, 2));
        let mut body = vec![0xEE; 3]; // a reused buffer is cleared first
        body.clear();
        CheckpointData::encode_head(c.ckpt_epoch, &mut |out| app.encode(out), &mut body);
        let tail = CheckpointData { app_state: Vec::new(), ..c.clone() };
        tail.encode_tail(&mut body);
        assert_eq!(body, to_bytes(&c));
        let back: CheckpointData = from_bytes(&body).unwrap();
        assert_eq!(back.app_state, c.app_state);
        assert_eq!(back.comms, c.comms);
        // An empty application state still carries its length prefix.
        let mut empty = Vec::new();
        CheckpointData::encode_head(1, &mut |_| {}, &mut empty);
        let bare = CheckpointData { ckpt_epoch: 1, ..Default::default() };
        bare.encode_tail(&mut empty);
        assert_eq!(empty, to_bytes(&bare));
    }

    /// A MiB-sized body is held in an allocation of its own size: the
    /// tail appended after a full head reserves exactly what it needs
    /// instead of doubling the head's buffer.
    #[test]
    fn body_with_a_large_app_state_is_allocated_exactly() {
        let state = vec![0x5Au8; 2 << 20];
        let mut c =
            CheckpointData { ckpt_epoch: 1, log_order: 3, lamport: 9, ..Default::default() };
        c.send_seq.insert((RankId(1), mini_mpi::types::COMM_WORLD), 42);
        c.recv_seen.insert((RankId(2), mini_mpi::types::COMM_WORLD), 7);
        c.comms.push((0, (0..8).map(RankId).collect(), 0, 1, 5));
        let mut body = Vec::new();
        CheckpointData::encode_head(1, &mut |out| out.extend_from_slice(&state), &mut body);
        assert_eq!(body.capacity(), body.len(), "the head alone is exact");
        c.encode_tail(&mut body);
        assert!(body.len() > state.len() + 16, "the tail was appended");
        assert_eq!(body.capacity(), body.len(), "the tail reserved exactly its length");
        let back: CheckpointData = from_bytes(&body).unwrap();
        assert_eq!(back.app_state, state);
        assert_eq!(back.comms, c.comms);
    }

    #[test]
    fn log_gc_notices_stop_below_the_first_owed_payload() {
        let world = mini_mpi::types::COMM_WORLD;
        let mut c = CheckpointData::default();
        c.recv_seen.insert((RankId(2), world), 7);
        c.recv_seen.insert((RankId(2), mini_mpi::types::CommId(5)), 0);
        c.recv_seen.insert((RankId(3), world), 9);
        c.missing.push((ChannelId::new(RankId(3), RankId(0), world), 6));
        c.missing.push((ChannelId::new(RankId(3), RankId(0), world), 4));
        let notices: Vec<_> = c.log_gc_notices().into_iter().collect();
        assert_eq!(
            notices,
            vec![
                (RankId(2), LogGc { channels: vec![(0, 7)] }),
                (RankId(3), LogGc { channels: vec![(0, 3)] }),
            ],
            "nothing to release on a channel that has seen nothing"
        );
    }

    #[test]
    fn store_slots_are_shared() {
        let store = SharedStore::new(2);
        store.slot(RankId(0)).lock().append(make_msg(0, 1, 1, b"xyz"));
        assert_eq!(store.total_logged_bytes(), 3);
        assert_eq!(store.logged_bytes_per_rank(), vec![3, 0]);
        assert_eq!(store.appended_bytes_per_rank(), vec![3, 0]);
        assert_eq!(store.peak_logged_bytes_per_rank(), vec![3, 0]);
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
    }
}
