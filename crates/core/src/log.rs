//! The sender-side message log (Algorithm 1 line 6).
//!
//! Every inter-cluster message's payload is kept in the sender's memory,
//! keyed by channel and ordered by sequence number. A global append index
//! additionally records the total order in which send requests were posted —
//! the §5.2.2 "send-order log" that replay follows.
//!
//! The log is bounded by checkpoint retention, not by run length (§6.2):
//! each channel is a ring pruned at the front by [`MessageLog::gc`] — the
//! receiver's cluster has committed a checkpoint and can never again ask for
//! those messages — and at the back by [`MessageLog::truncate_to`], the
//! rollback of the *logging* rank to the lengths recorded in its own
//! checkpoint; channel-determinism guarantees re-execution re-appends the
//! identical entries.

use mini_mpi::envelope::{Envelope, Message};
use mini_mpi::types::{ChannelId, RankId};
use std::collections::{HashMap, VecDeque};

/// One logged message.
#[derive(Clone, Debug)]
pub struct LogEntry {
    /// Full message (envelope + payload; `Bytes` payload is shared, so
    /// logging does not copy).
    pub msg: Message,
    /// Position in this rank's global send order (§5.2.2).
    pub order: u64,
}

/// The retained window of one outgoing channel. Entries are strictly
/// seqnum-ordered (debug-asserted in [`MessageLog::append`]), so every
/// lookup is a binary search, never a scan.
struct Ring {
    chan: ChannelId,
    /// Highest seqnum a GC notice has released: the receiver's cluster can
    /// only restart from checkpoints that already hold everything at or
    /// below it. Monotone — it survives every truncation.
    floor: u64,
    /// Logical entries no longer held at the front, so the channel's
    /// *logical* length — what checkpoints record and `truncate_to` takes —
    /// is `pruned + entries.len()` whatever GC has dropped.
    pruned: usize,
    entries: VecDeque<LogEntry>,
}

impl Ring {
    /// First index with `seqnum > watermark`.
    fn cut_above(&self, watermark: u64) -> usize {
        self.entries.partition_point(|e| e.msg.env.seqnum <= watermark)
    }

    /// The entry with exactly `seqnum`, if retained.
    fn get(&self, seqnum: u64) -> Option<&LogEntry> {
        let i = self.entries.partition_point(|e| e.msg.env.seqnum < seqnum);
        self.entries.get(i).filter(|e| e.msg.env.seqnum == seqnum)
    }
}

/// Per-rank sender-side log: a dense per-destination table of per-channel
/// rings, so an append is an index plus a probe of that destination's few
/// communicators, and `replay_set` touches only the channels that can
/// contribute.
#[derive(Default)]
pub struct MessageLog {
    /// `by_dst[d]` holds the rings of the channels to rank `d`.
    by_dst: Vec<Vec<Ring>>,
    next_order: u64,
    bytes: u64,
    peak_bytes: u64,
    appended_bytes: u64,
}

/// Payload size of one entry, as tracked by the byte counters.
fn payload_len(e: &LogEntry) -> u64 {
    e.msg.payload.len() as u64
}

impl MessageLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn ring_mut(&mut self, chan: ChannelId) -> &mut Ring {
        let d = chan.dst.idx();
        if d >= self.by_dst.len() {
            self.by_dst.resize_with(d + 1, Vec::new);
        }
        let rings = &mut self.by_dst[d];
        let i = rings.iter().position(|r| r.chan == chan).unwrap_or_else(|| {
            rings.push(Ring { chan, floor: 0, pruned: 0, entries: VecDeque::new() });
            rings.len() - 1
        });
        &mut rings[i]
    }

    /// Append a message (called at send time for inter-cluster messages).
    /// A seqnum at or below the channel's GC floor — a rolled-back sender
    /// re-executing sends its receiver can never ask for again — is counted
    /// (logical length, send order) but not retained.
    pub fn append(&mut self, msg: Message) {
        let order = self.next_order;
        self.next_order += 1;
        let len = msg.payload.len() as u64;
        self.appended_bytes += len;
        let ring = self.ring_mut(msg.env.channel());
        if msg.env.seqnum <= ring.floor {
            debug_assert!(ring.entries.is_empty(), "retained entries below the GC floor");
            ring.pruned += 1;
            return;
        }
        debug_assert!(
            ring.entries.back().is_none_or(|e| e.msg.env.seqnum < msg.env.seqnum),
            "log must stay seqnum-ordered per channel"
        );
        ring.entries.push_back(LogEntry { msg, order });
        self.bytes += len;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }

    /// Receiver-checkpoint GC: the receiver of `chan` will never roll back
    /// below `upto` again, so drop every entry with `seqnum <= upto` and
    /// raise the channel's floor. Returns the entries and payload bytes
    /// freed. Stale or repeated notices are harmless (the floor is monotone).
    pub fn gc(&mut self, chan: ChannelId, upto: u64) -> (u64, u64) {
        let ring = self.ring_mut(chan);
        ring.floor = ring.floor.max(upto);
        let n = ring.cut_above(upto);
        let freed = ring.entries.drain(..n).map(|e| payload_len(&e)).sum::<u64>();
        ring.pruned += n;
        self.bytes -= freed;
        (n as u64, freed)
    }

    /// Payload bytes currently held in node memory.
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// High-water mark of [`total_bytes`](Self::total_bytes).
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Cumulative payload bytes ever appended (the Table-1 log-growth
    /// metric; unlike `total_bytes` it does not saw-tooth with GC).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Number of entries currently retained.
    pub fn total_entries(&self) -> usize {
        self.by_dst.iter().flatten().map(|r| r.entries.len()).sum()
    }

    /// Entries destined to rank `dst` that must be replayed: those with
    /// `seqnum > lr` on any channel to `dst`, plus the explicitly `missing`
    /// seqnums (payload-less rendezvous announcements the receiver had seen
    /// but never completed). Sorted by the global send order (§5.2.2).
    /// Panics if `lr` is below a channel's GC floor; a rollback handler
    /// takes [`try_replay_set`](Self::try_replay_set) and reports it.
    pub fn replay_set(
        &self,
        dst: RankId,
        lr: &dyn Fn(ChannelId) -> u64,
        missing: &dyn Fn(ChannelId) -> Vec<u64>,
    ) -> Vec<Message> {
        self.try_replay_set(dst, lr, missing).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`replay_set`](Self::replay_set), or the first channel whose `lr`
    /// is below its GC floor: the receiver restarted from a checkpoint
    /// older than the cut it released this log with, so the entries it
    /// needs are gone and replaying around the hole would diverge.
    ///
    /// Cost: O(log n) per channel for the watermark cut plus O(log n) per
    /// missing seqnum, plus the size of the output — never a scan of the
    /// retained prefix.
    pub fn try_replay_set(
        &self,
        dst: RankId,
        lr: &dyn Fn(ChannelId) -> u64,
        missing: &dyn Fn(ChannelId) -> Vec<u64>,
    ) -> Result<Vec<Message>, BelowFloor> {
        let mut picked: Vec<&LogEntry> = Vec::new();
        for ring in self.by_dst.get(dst.idx()).into_iter().flatten() {
            let watermark = lr(ring.chan);
            if watermark < ring.floor {
                return Err(BelowFloor { chan: ring.chan, floor: ring.floor, lr: watermark });
            }
            // Suffix above the receiver's watermark: replay wholesale.
            picked.extend(ring.entries.range(ring.cut_above(watermark)..));
            // Owed seqnums at or below the watermark: point lookups in the
            // retained prefix.
            let owed = missing(ring.chan);
            picked.extend(owed.iter().filter(|&&s| s <= watermark).filter_map(|&s| ring.get(s)));
        }
        picked.sort_by_key(|e| e.order);
        Ok(picked.iter().map(|e| e.msg.clone()).collect())
    }

    /// Current per-channel *logical* lengths (pruned prefix + retained;
    /// recorded into checkpoints).
    pub fn lengths(&self) -> HashMap<ChannelId, usize> {
        let logical = |r: &Ring| (r.chan, r.pruned + r.entries.len());
        self.by_dst.iter().flatten().map(logical).filter(|&(_, len)| len > 0).collect()
    }

    /// The global order counter (recorded into checkpoints).
    pub fn order_counter(&self) -> u64 {
        self.next_order
    }

    /// Roll the log back to a checkpointed cut: truncate each channel to its
    /// recorded logical length (unknown channels to zero) and restore the
    /// order counter; `(&HashMap::new(), 0)` empties the log. A cut below the
    /// pruned prefix empties the ring and lowers the prefix count with it;
    /// GC floors always survive — they describe the receivers. Re-execution
    /// will regenerate the truncated suffix identically
    /// (channel-determinism).
    pub fn truncate_to(&mut self, lengths: &HashMap<ChannelId, usize>, order_counter: u64) {
        // The byte counter is maintained incrementally: subtract exactly the
        // dropped suffix of each channel instead of rescanning the survivors.
        for ring in self.by_dst.iter_mut().flatten() {
            let keep = lengths.get(&ring.chan).copied().unwrap_or(0);
            let held = keep.saturating_sub(ring.pruned).min(ring.entries.len());
            self.bytes -= ring.entries.range(held..).map(payload_len).sum::<u64>();
            ring.entries.truncate(held);
            ring.pruned = ring.pruned.min(keep);
        }
        self.next_order = order_counter;
        debug_assert_eq!(
            self.bytes,
            self.by_dst.iter().flatten().flat_map(|r| &r.entries).map(payload_len).sum::<u64>(),
            "incremental byte counter out of sync after truncate"
        );
    }

    /// Look up a retained message by channel and seqnum (replay of
    /// individual owed payloads, tests).
    pub fn find(&self, chan: ChannelId, seqnum: u64) -> Option<&Message> {
        let ring = self.by_dst.get(chan.dst.idx())?.iter().find(|r| r.chan == chan)?;
        ring.get(seqnum).map(|e| &e.msg)
    }
}

/// A rollback below a channel's GC floor ([`MessageLog::try_replay_set`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BelowFloor {
    /// The channel whose retained window no longer reaches `lr`.
    pub chan: ChannelId,
    /// The highest seqnum a GC notice released on it.
    pub floor: u64,
    /// The receiver's announced rollback watermark.
    pub lr: u64,
}

impl std::fmt::Display for BelowFloor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let BelowFloor { chan, floor, lr } = self;
        write!(
            f,
            "channel {}->{} (comm {}) rolled back to lr {lr}, below its GC floor {floor}: \
             the receiver lost the checkpoint it released this log with",
            chan.src, chan.dst, chan.comm.0
        )
    }
}

/// Helper to fabricate a message (tests in this crate and dependents).
pub fn make_msg(src: u32, dst: u32, seq: u64, payload: &[u8]) -> Message {
    let env = Envelope {
        src: RankId(src),
        dst: RankId(dst),
        comm: mini_mpi::types::COMM_WORLD,
        tag: 1,
        seqnum: seq,
        plen: payload.len() as u64,
        lamport: seq,
        ident: mini_mpi::types::MatchIdent::DEFAULT,
    };
    Message { env, payload: bytes::Bytes::copy_from_slice(payload) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_tracks_bytes_and_order() {
        let mut log = MessageLog::new();
        log.append(make_msg(0, 1, 1, b"abc"));
        log.append(make_msg(0, 2, 1, b"defgh"));
        log.append(make_msg(0, 1, 2, b"i"));
        assert_eq!(log.total_bytes(), 9);
        assert_eq!(log.total_entries(), 3);
        assert_eq!(log.order_counter(), 3);
    }

    #[test]
    fn replay_set_filters_by_lr_and_orders_globally() {
        let mut log = MessageLog::new();
        log.append(make_msg(0, 1, 1, b"a")); // order 0
        log.append(make_msg(0, 2, 1, b"b")); // order 1 (other dst)
        log.append(make_msg(0, 1, 2, b"c")); // order 2
        log.append(make_msg(0, 1, 3, b"d")); // order 3
        let set = log.replay_set(RankId(1), &|_| 1, &|_| Vec::new());
        let seqs: Vec<u64> = set.iter().map(|m| m.env.seqnum).collect();
        assert_eq!(seqs, vec![2, 3], "seq 1 already received, dst 2 excluded");
    }

    #[test]
    fn replay_set_includes_missing_list() {
        let mut log = MessageLog::new();
        for s in 1..=4 {
            log.append(make_msg(0, 1, s, b"x"));
        }
        // Receiver saw envelopes up to 4 but never got payload of 2.
        let set = log.replay_set(RankId(1), &|_| 4, &|_| vec![2]);
        let seqs: Vec<u64> = set.iter().map(|m| m.env.seqnum).collect();
        assert_eq!(seqs, vec![2]);
    }

    #[test]
    fn truncate_restores_checkpoint_cut() {
        let mut log = MessageLog::new();
        log.append(make_msg(0, 1, 1, b"aa"));
        log.append(make_msg(0, 2, 1, b"bb"));
        let cut = log.lengths();
        let order = log.order_counter();
        log.append(make_msg(0, 1, 2, b"cc"));
        log.append(make_msg(0, 3, 1, b"dd"));
        assert_eq!(log.total_entries(), 4);
        log.truncate_to(&cut, order);
        assert_eq!(log.total_entries(), 2);
        assert_eq!(log.total_bytes(), 4);
        assert_eq!(log.order_counter(), 2);
        assert!(log
            .find(ChannelId::new(RankId(0), RankId(3), mini_mpi::types::COMM_WORLD), 1)
            .is_none());
        // Re-execution appends the same suffix; order indices line up again.
        log.append(make_msg(0, 1, 2, b"cc"));
        assert_eq!(log.order_counter(), 3);
    }

    #[test]
    fn truncate_to_empty() {
        let mut log = MessageLog::new();
        log.append(make_msg(0, 1, 1, b"x"));
        log.truncate_to(&HashMap::new(), 0);
        assert_eq!(log.total_entries(), 0);
        assert_eq!(log.total_bytes(), 0);
        assert_eq!(log.order_counter(), 0);
    }

    #[test]
    fn replay_preserves_post_order_across_channels() {
        // Interleaved channels: replay must follow global post order, not
        // channel-by-channel order (§5.2.2).
        let mut log = MessageLog::new();
        log.append(make_msg(0, 1, 1, b"a")); // comm world chan A
        let mut m = make_msg(0, 1, 1, b"b");
        m.env.comm = mini_mpi::types::CommId(9); // chan B
        log.append(m);
        log.append(make_msg(0, 1, 2, b"c")); // chan A again
        let set = log.replay_set(RankId(1), &|_| 0, &|_| Vec::new());
        let payloads: Vec<&[u8]> = set.iter().map(|m| m.payload.as_ref()).collect();
        assert_eq!(payloads, vec![b"a".as_ref(), b"b".as_ref(), b"c".as_ref()]);
    }

    #[test]
    fn gc_frees_the_prefix_but_not_the_logical_length() {
        let mut log = MessageLog::new();
        for s in 1..=5 {
            log.append(make_msg(0, 1, s, b"xy"));
        }
        let chan = make_msg(0, 1, 1, b"").env.channel();
        assert_eq!(log.gc(chan, 3), (3, 6));
        assert_eq!(log.gc(chan, 2), (0, 0), "stale notice: the floor is monotone");
        assert_eq!((log.total_entries(), log.total_bytes(), log.peak_bytes()), (2, 4, 10));
        assert_eq!(log.lengths()[&chan], 5, "checkpoints record logical lengths");
        assert!(log.find(chan, 3).is_none() && log.find(chan, 4).is_some());
        assert_eq!(log.appended_bytes(), 10);
    }

    #[test]
    fn rollback_below_the_floor_names_the_channel() {
        let mut log = MessageLog::new();
        for s in 1..=5 {
            log.append(make_msg(0, 1, s, b"xy"));
        }
        let chan = make_msg(0, 1, 1, b"").env.channel();
        log.gc(chan, 3);
        let err = log.try_replay_set(RankId(1), &|_| 2, &|_| Vec::new()).unwrap_err();
        assert_eq!(err, BelowFloor { chan, floor: 3, lr: 2 });
        assert!(err.to_string().contains("channel 0->1 (comm 0) rolled back to lr 2"), "{err}");
        assert!(err.to_string().contains("GC floor 3"), "{err}");
        let seqs = |set: Vec<Message>| set.iter().map(|m| m.env.seqnum).collect::<Vec<_>>();
        let at_floor = log.try_replay_set(RankId(1), &|_| 3, &|_| Vec::new()).unwrap();
        assert_eq!(seqs(at_floor), vec![4, 5]);
    }
}
