//! Per-rank persistent protocol state: the sender-side log ("node memory")
//! and the latest committed checkpoint ("stable storage").
//!
//! This state intentionally lives *outside* the `FtLayer` instance: layers
//! are recreated on every restart, while logs and checkpoints survive — just
//! like node memory and the PFS survive a process crash in the real system.

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
    /// Serialize and frame as a sealed storage blob (`SPBCCKP2` magic +
    /// CRC32 over the wire encoding) — the unit spbc-ckptstore stores,
    /// replicates, and verifies.
    pub fn to_blob(&self) -> Vec<u8> {
        spbc_ckptstore::seal(&mini_mpi::wire::to_bytes(self))
    }

    /// Parse a sealed storage blob (V2 checksum-verified; legacy `SPBCCKP1`
    /// accepted for read-compat).
    pub fn from_blob(bytes: &[u8]) -> Result<Self> {
        mini_mpi::wire::from_bytes(spbc_ckptstore::unseal(bytes)?)
    }

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

impl Encode for CheckpointData {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ckpt_epoch.encode(out);
        self.app_state.encode(out);
        encode_map(&self.send_seq, out);
        encode_map(&self.recv_seen, out);
        self.unexpected_full.encode(out);
        self.missing.encode(out);
        encode_map(&self.log_lens, out);
        self.log_order.encode(out);
        self.ckpt_calls.encode(out);
        self.intra_sent.encode(out);
        self.intra_arrived.encode(out);
        self.comms.encode(out);
        self.lamport.encode(out);
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

/// Mutable persistent state of one rank.
#[derive(Default)]
pub struct PersistentState {
    /// The sender-side message log.
    pub log: MessageLog,
    /// Committed checkpoints, oldest first. The last **two** are kept: a
    /// crash can interrupt a commit wave after some members stored epoch
    /// `N+1` but before others did; restart then agrees on the newest epoch
    /// *every* member holds, which is at worst `N`.
    pub checkpoints: Vec<CheckpointData>,
}

impl PersistentState {
    /// Epoch of the newest stored checkpoint (0 = none).
    pub fn latest_epoch(&self) -> u64 {
        self.checkpoints.last().map_or(0, |c| c.ckpt_epoch)
    }

    /// Store a committed checkpoint, keeping at most the last two.
    pub fn push_checkpoint(&mut self, ck: CheckpointData) {
        self.checkpoints.push(ck);
        if self.checkpoints.len() > 2 {
            self.checkpoints.remove(0);
        }
    }

    /// The cached checkpoint with exactly `epoch`, if still held.
    pub fn checkpoint(&self, epoch: u64) -> Option<&CheckpointData> {
        self.checkpoints.iter().find(|c| c.ckpt_epoch == epoch)
    }

    /// The checkpoint with exactly `epoch`, discarding any newer ones
    /// (restart converged on an older wave — newer partial waves are void).
    pub fn restore_epoch(&mut self, epoch: u64) -> Option<CheckpointData> {
        self.checkpoints.retain(|c| c.ckpt_epoch <= epoch);
        self.checkpoint(epoch).cloned()
    }
}

/// Shared store of every rank's persistent state.
pub struct SharedStore {
    slots: Vec<Arc<Mutex<PersistentState>>>,
}

impl SharedStore {
    /// A store for `world` ranks.
    pub fn new(world: usize) -> Self {
        SharedStore { slots: (0..world).map(|_| Arc::default()).collect() }
    }

    /// The slot of `rank` (cheap clone of the `Arc`).
    pub fn slot(&self, rank: RankId) -> Arc<Mutex<PersistentState>> {
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
        self.slots.iter().map(|s| stat(&s.lock().log)).collect()
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

    /// Number of ranks holding a committed checkpoint.
    pub fn checkpointed_ranks(&self) -> usize {
        self.slots.iter().filter(|s| !s.lock().checkpoints.is_empty()).count()
    }

    /// The newest checkpoint epoch that *every* listed rank holds (0 when
    /// any of them has none) — the wave a cluster restarts from.
    pub fn common_epoch(&self, ranks: &[RankId]) -> u64 {
        ranks.iter().map(|&r| self.slots[r.idx()].lock().latest_epoch()).min().unwrap_or(0)
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
        let a = store.slot(RankId(0));
        a.lock().log.append(make_msg(0, 1, 1, b"xyz"));
        assert_eq!(store.total_logged_bytes(), 3);
        assert_eq!(store.logged_bytes_per_rank(), vec![3, 0]);
        assert_eq!(store.appended_bytes_per_rank(), vec![3, 0]);
        assert_eq!(store.peak_logged_bytes_per_rank(), vec![3, 0]);
        assert_eq!(store.checkpointed_ranks(), 0);
        a.lock().push_checkpoint(CheckpointData { ckpt_epoch: 1, ..Default::default() });
        assert_eq!(store.checkpointed_ranks(), 1);
        assert_eq!(store.common_epoch(&[RankId(0), RankId(1)]), 0);
        store
            .slot(RankId(1))
            .lock()
            .push_checkpoint(CheckpointData { ckpt_epoch: 2, ..Default::default() });
        assert_eq!(store.common_epoch(&[RankId(0), RankId(1)]), 1);
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
    }
}

#[cfg(test)]
mod history_tests {
    use super::*;

    #[test]
    fn history_keeps_last_two() {
        let mut p = PersistentState::default();
        for e in 1..=4 {
            p.push_checkpoint(CheckpointData { ckpt_epoch: e, ..Default::default() });
        }
        assert_eq!(p.checkpoints.len(), 2);
        assert_eq!(p.latest_epoch(), 4);
    }

    #[test]
    fn restore_epoch_discards_newer_waves() {
        let mut p = PersistentState::default();
        p.push_checkpoint(CheckpointData { ckpt_epoch: 3, ..Default::default() });
        p.push_checkpoint(CheckpointData { ckpt_epoch: 4, ..Default::default() });
        let got = p.restore_epoch(3).unwrap();
        assert_eq!(got.ckpt_epoch, 3);
        assert_eq!(p.latest_epoch(), 3, "partial wave 4 voided");
        assert!(p.restore_epoch(9).is_none());
    }
}
