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
//!
//! # What a logged message costs beyond its payload
//!
//! The log holds bytes, not messages. A ring stores its channel's
//! `(src, dst, comm)` once and one 48-byte record per message (seqnum, send
//! order, tag, ident, lamport, length, payload location) in chunks of about
//! a [`SEGMENT`]; replay rebuilds the [`Envelope`]. Where the payload lives
//! depends on its size:
//!
//! - **Up to [`COPY_MAX`] bytes it is copied** into the channel's payload
//!   segments of [`SEGMENT`] bytes, one byte stream cut into fixed pieces,
//!   so a payload may straddle two. `gc` and `truncate_to` free whole
//!   segments and record chunks: one `free` per segment, not one per
//!   message. Held by refcount, a 1 KiB halo face cost its own 1,056-byte
//!   heap block (the payload, two refcounts and the allocator's header)
//!   and an 80-byte entry repeating the whole `Envelope` in a doubling
//!   deque.
//!   On `ff-halo` (`spbc-perf`) copying took `peak_rss_mb` from 13.90 to
//!   13.13 MB, and `KIND_LOG_GC` handling from about 410 to about 55
//!   cycles per freed entry.
//! - **Above it the application's shared `Bytes` is pinned** by refcount:
//!   copying `ckpt-store`'s 256 KiB halo faces would put a 256 KiB memcpy on
//!   every logged send, and the per-message overhead is noise at that size.
//!
//! Both are constants, not options. [`MessageLog::held`] reports what a log
//! holds of each kind. Replay and [`MessageLog::find`] return owned
//! messages: a copied payload is copied out once more, which only recovery
//! pays.

use bytes::Bytes;
use mini_mpi::envelope::{Envelope, Message};
use mini_mpi::types::{ChannelId, MatchIdent, RankId, Tag};
use std::collections::{HashMap, VecDeque};

/// Largest payload copied into a channel's segments; larger ones are pinned.
pub const COPY_MAX: usize = 4 * 1024;

/// Size of one payload segment.
pub const SEGMENT: usize = 16 * 1024;

// A copied payload spans at most two segments.
const _: () = assert!(COPY_MAX <= SEGMENT);

/// One logged message without its channel.
#[derive(Clone, Copy, Debug)]
struct Rec {
    seqnum: u64,
    /// Position in this rank's global send order (§5.2.2).
    order: u64,
    lamport: u64,
    /// Stream position of a copied payload's first byte in the ring's
    /// segments; for a pinned payload, the stream's end when it was logged.
    /// Either way non-decreasing along the ring.
    at: u64,
    ident: MatchIdent,
    tag: Tag,
    /// Payload length, saturated at `u32::MAX`: pinned payloads (longer
    /// than [`COPY_MAX`]) carry their own length.
    len: u32,
}

const _: () = assert!(std::mem::size_of::<Rec>() == 48);

impl Rec {
    fn copied(&self) -> bool {
        self.len as usize <= COPY_MAX
    }
}

/// Records per record chunk: one chunk is about a [`SEGMENT`].
const REC_CHUNK: usize = SEGMENT / std::mem::size_of::<Rec>();

/// A deque of `T` in chunks of `N` elements, each allocated whole: no
/// doubling slack, an element never moves once pushed, and dropping a
/// prefix or a suffix frees whole chunks. Every chunk but the first and the
/// last is full.
struct Chunked<T, const N: usize> {
    chunks: VecDeque<Vec<T>>,
    /// Elements already dropped from the front of `chunks[0]`.
    head: usize,
    len: usize,
}

/// A copy (for tests that explore recovery orders) keeps each chunk
/// allocated whole.
#[cfg(test)]
impl<T: Copy, const N: usize> Clone for Chunked<T, N> {
    fn clone(&self) -> Self {
        let chunks = self.chunks.iter().map(|c| {
            let mut copy = Vec::with_capacity(N);
            copy.extend_from_slice(c);
            copy
        });
        Chunked { chunks: chunks.collect(), head: self.head, len: self.len }
    }
}

impl<T: Copy, const N: usize> Chunked<T, N> {
    fn new() -> Self {
        Chunked { chunks: VecDeque::new(), head: 0, len: 0 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn get(&self, i: usize) -> Option<&T> {
        let j = self.head + i;
        (i < self.len).then(|| &self.chunks[j / N][j % N])
    }

    fn front(&self) -> Option<&T> {
        self.get(0)
    }

    fn back(&self) -> Option<&T> {
        self.len.checked_sub(1).and_then(|i| self.get(i))
    }

    fn iter(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = &T> {
        range.filter_map(|i| self.get(i))
    }

    /// First index whose element fails `pred` (elements satisfying it come
    /// first).
    fn partition_point(&self, pred: impl Fn(&T) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.get(mid).is_some_and(&pred) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn extend_from_slice(&mut self, mut src: &[T]) {
        self.len += src.len();
        while !src.is_empty() {
            if self.chunks.back().is_none_or(|c| c.len() == N) {
                self.chunks.push_back(Vec::with_capacity(N));
            }
            let chunk = self.chunks.back_mut().expect("a chunk with room");
            let n = (N - chunk.len()).min(src.len());
            chunk.extend_from_slice(&src[..n]);
            src = &src[n..];
        }
    }

    fn push(&mut self, x: T) {
        self.extend_from_slice(std::slice::from_ref(&x));
    }

    /// The `n <= N` elements from index `i`, as at most two slices.
    fn slices(&self, i: usize, n: usize) -> (&[T], &[T]) {
        let j = self.head + i;
        let first = &self.chunks[j / N][j % N..];
        if first.len() >= n {
            (&first[..n], &[])
        } else {
            (first, &self.chunks[j / N + 1][..n - first.len()])
        }
    }

    /// Drop the first `n` elements.
    fn drop_front(&mut self, n: usize) {
        self.len -= n;
        self.head += n;
        if self.len == 0 {
            self.chunks.clear();
            self.head = 0;
        } else {
            self.chunks.drain(..self.head / N);
            self.head %= N;
        }
    }

    /// Keep the first `n` elements.
    fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        if n == 0 {
            return self.drop_front(self.len);
        }
        self.len = n;
        let used = self.head + n;
        let keep = used.div_ceil(N);
        self.chunks.truncate(keep);
        self.chunks[keep - 1].truncate(used - (keep - 1) * N);
    }

    /// Bytes allocated to chunks.
    fn held(&self) -> usize {
        self.chunks.len() * N * std::mem::size_of::<T>()
    }
}

/// The retained window of one outgoing channel. Records are strictly
/// seqnum-ordered (debug-asserted in [`MessageLog::append`]), so every
/// lookup is a binary search, never a scan.
#[cfg_attr(test, derive(Clone))]
struct Ring {
    chan: ChannelId,
    /// Highest seqnum a GC notice has released: the receiver's cluster can
    /// only restart from checkpoints that already hold everything at or
    /// below it. Monotone — it survives every truncation.
    floor: u64,
    /// Logical entries no longer held at the front, so the channel's
    /// *logical* length — what checkpoints record and `truncate_to` takes —
    /// is `pruned + recs.len()` whatever GC has dropped.
    pruned: usize,
    recs: Chunked<Rec, REC_CHUNK>,
    /// The copied payloads of the retained records, back to back: one byte
    /// stream in [`SEGMENT`]-byte segments, so a payload may straddle two.
    bytes: Chunked<u8, SEGMENT>,
    /// Stream position of `bytes[0]`: the first record's `at`, or the
    /// stream's end when the ring is empty.
    start: u64,
    /// Pinned payloads with their seqnums, in ring order.
    pinned: VecDeque<(u64, Bytes)>,
}

impl Ring {
    fn new(chan: ChannelId) -> Self {
        Ring {
            chan,
            floor: 0,
            pruned: 0,
            recs: Chunked::new(),
            bytes: Chunked::new(),
            start: 0,
            pinned: VecDeque::new(),
        }
    }

    /// First index with `seqnum > watermark`.
    fn cut_above(&self, watermark: u64) -> usize {
        self.recs.partition_point(|r| r.seqnum <= watermark)
    }

    /// The record with exactly `seqnum`, if retained.
    fn get(&self, seqnum: u64) -> Option<&Rec> {
        let i = self.recs.partition_point(|r| r.seqnum < seqnum);
        self.recs.get(i).filter(|r| r.seqnum == seqnum)
    }

    fn push(&mut self, env: &Envelope, payload: &Bytes, order: u64) {
        let at = self.start + self.bytes.len() as u64;
        if payload.len() <= COPY_MAX {
            self.bytes.extend_from_slice(payload);
        } else {
            self.pinned.push_back((env.seqnum, payload.clone()));
        }
        let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
        let (seqnum, lamport, ident, tag) = (env.seqnum, env.lamport, env.ident, env.tag);
        self.recs.push(Rec { seqnum, order, lamport, at, ident, tag, len });
    }

    /// Index of the first pinned entry at or above `seqnum`.
    fn pinned_index(&self, seqnum: u64) -> usize {
        self.pinned.partition_point(|p| p.0 < seqnum)
    }

    fn payload(&self, r: &Rec) -> Bytes {
        if !r.copied() {
            return self.pinned[self.pinned_index(r.seqnum)].1.clone();
        }
        let len = r.len as usize;
        if len == 0 {
            return Bytes::new();
        }
        match self.bytes.slices((r.at - self.start) as usize, len) {
            (whole, []) => Bytes::copy_from_slice(whole),
            (head, tail) => {
                let mut buf = [0u8; COPY_MAX];
                buf[..head.len()].copy_from_slice(head);
                buf[head.len()..len].copy_from_slice(tail);
                Bytes::copy_from_slice(&buf[..len])
            }
        }
    }

    /// Rebuild the logged message of record `r`.
    fn message(&self, r: &Rec) -> Message {
        let payload = self.payload(r);
        let env = Envelope {
            src: self.chan.src,
            dst: self.chan.dst,
            comm: self.chan.comm,
            tag: r.tag,
            seqnum: r.seqnum,
            plen: payload.len() as u64,
            lamport: r.lamport,
            ident: r.ident,
        };
        Message { env, payload }
    }

    /// Payload bytes of the records in `recs[range]`.
    fn payload_bytes(&self, range: std::ops::Range<usize>) -> u64 {
        let pinned = |r: &Rec| self.pinned[self.pinned_index(r.seqnum)].1.len() as u64;
        self.recs.iter(range).map(|r| if r.copied() { u64::from(r.len) } else { pinned(r) }).sum()
    }

    /// Drop the first `n` records and their payloads; returns the payload
    /// bytes freed.
    fn drop_front(&mut self, n: usize) -> u64 {
        let Some(&last) = n.checked_sub(1).and_then(|i| self.recs.get(i)) else { return 0 };
        let freed = self.payload_bytes(0..n);
        self.pinned.drain(..self.pinned_index(last.seqnum + 1));
        self.recs.drop_front(n);
        let end = self.start + self.bytes.len() as u64;
        let start = self.recs.front().map_or(end, |r| r.at);
        self.bytes.drop_front((start - self.start) as usize);
        self.start = start;
        self.pruned += n;
        freed
    }

    /// Keep the first `n` records; returns the payload bytes freed.
    fn keep_front(&mut self, n: usize) -> u64 {
        let Some(&first) = self.recs.get(n) else { return 0 };
        let freed = self.payload_bytes(n..self.recs.len());
        self.pinned.truncate(self.pinned_index(first.seqnum));
        self.recs.truncate(n);
        self.bytes.truncate((first.at - self.start) as usize);
        freed
    }
}

/// The memory a [`MessageLog`] holds, in bytes, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Held {
    /// Record chunks, and the pinned payloads' seqnum index.
    pub records: usize,
    /// Payload segments, [`SEGMENT`] bytes each, the copied payloads inside.
    pub segments: usize,
    /// Application buffers pinned by refcount.
    pub pinned: usize,
}

/// Per-rank sender-side log: a dense per-destination table of per-channel
/// rings, so an append is an index plus a probe of that destination's few
/// communicators, and `replay_set` touches only the channels that can
/// contribute.
#[derive(Default)]
#[cfg_attr(test, derive(Clone))]
pub struct MessageLog {
    /// `by_dst[d]` holds the rings of the channels to rank `d`.
    by_dst: Vec<Vec<Ring>>,
    next_order: u64,
    bytes: u64,
    peak_bytes: u64,
    appended_bytes: u64,
}

impl MessageLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    fn ring(&self, chan: ChannelId) -> Option<&Ring> {
        self.by_dst.get(chan.dst.idx())?.iter().find(|r| r.chan == chan)
    }

    fn ring_mut(&mut self, chan: ChannelId) -> &mut Ring {
        let d = chan.dst.idx();
        if d >= self.by_dst.len() {
            self.by_dst.resize_with(d + 1, Vec::new);
        }
        let rings = &mut self.by_dst[d];
        let i = rings.iter().position(|r| r.chan == chan).unwrap_or_else(|| {
            rings.push(Ring::new(chan));
            rings.len() - 1
        });
        &mut rings[i]
    }

    /// Append a message (called at send time for inter-cluster messages).
    /// A seqnum at or below the channel's GC floor — a rolled-back sender
    /// re-executing sends its receiver can never ask for again — is counted
    /// (logical length, send order) but not retained.
    pub fn append(&mut self, msg: Message) {
        self.append_send(&msg.env, &msg.payload);
    }

    /// [`append`](Self::append) from the send hook's borrowed parts: a
    /// copied payload is never referenced, a pinned one is cloned.
    pub(crate) fn append_send(&mut self, env: &Envelope, payload: &Bytes) {
        debug_assert_eq!(env.plen, payload.len() as u64, "replay rebuilds plen from the payload");
        let order = self.next_order;
        self.next_order += 1;
        let len = payload.len() as u64;
        self.appended_bytes += len;
        let ring = self.ring_mut(env.channel());
        if env.seqnum <= ring.floor {
            debug_assert!(ring.recs.len() == 0, "retained entries below the GC floor");
            ring.pruned += 1;
            return;
        }
        debug_assert!(
            ring.recs.back().is_none_or(|r| r.seqnum < env.seqnum),
            "log must stay seqnum-ordered per channel"
        );
        ring.push(env, payload, order);
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
        let freed = ring.drop_front(n);
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
        self.by_dst.iter().flatten().map(|r| r.recs.len()).sum()
    }

    /// What the log's rings hold in memory, beyond the rings themselves:
    /// unlike [`total_bytes`](Self::total_bytes), this counts whole record
    /// chunks and payload segments.
    pub fn held(&self) -> Held {
        let mut h = Held::default();
        for r in self.by_dst.iter().flatten() {
            h.records += r.recs.held() + r.pinned.capacity() * std::mem::size_of::<(u64, Bytes)>();
            h.segments += r.bytes.held();
            h.pinned += r.pinned.iter().map(|p| p.1.len()).sum::<usize>();
        }
        h
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
        let mut picked: Vec<(&Ring, &Rec)> = Vec::new();
        for ring in self.by_dst.get(dst.idx()).into_iter().flatten() {
            let watermark = lr(ring.chan);
            if watermark < ring.floor {
                return Err(BelowFloor { chan: ring.chan, floor: ring.floor, lr: watermark });
            }
            // Suffix above the receiver's watermark: replay wholesale.
            let above = ring.cut_above(watermark)..ring.recs.len();
            picked.extend(ring.recs.iter(above).map(|r| (ring, r)));
            // Owed seqnums at or below the watermark: point lookups in the
            // retained prefix.
            let owed = missing(ring.chan);
            let owed = owed.iter().filter(|&&s| s <= watermark).filter_map(|&s| ring.get(s));
            picked.extend(owed.map(|r| (ring, r)));
        }
        picked.sort_by_key(|(_, r)| r.order);
        Ok(picked.into_iter().map(|(ring, r)| ring.message(r)).collect())
    }

    /// Current per-channel *logical* lengths (pruned prefix + retained;
    /// recorded into checkpoints).
    pub fn lengths(&self) -> HashMap<ChannelId, usize> {
        let logical = |r: &Ring| (r.chan, r.pruned + r.recs.len());
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
            let held = keep.saturating_sub(ring.pruned).min(ring.recs.len());
            self.bytes -= ring.keep_front(held);
            ring.pruned = ring.pruned.min(keep);
        }
        self.next_order = order_counter;
        debug_assert_eq!(
            self.bytes,
            self.by_dst.iter().flatten().map(|r| r.payload_bytes(0..r.recs.len())).sum::<u64>(),
            "incremental byte counter out of sync after truncate"
        );
    }

    /// The retained message with `seqnum` on `chan`, rebuilt (replay of
    /// individual owed payloads, tests).
    pub fn find(&self, chan: ChannelId, seqnum: u64) -> Option<Message> {
        let ring = self.ring(chan)?;
        ring.get(seqnum).map(|r| ring.message(r))
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
        ident: MatchIdent::DEFAULT,
    };
    Message { env, payload: Bytes::copy_from_slice(payload) }
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
    fn the_log_frees_what_it_no_longer_holds() {
        let mut log = MessageLog::new();
        let chan = make_msg(0, 1, 1, b"").env.channel();
        // Small payloads share segments: the log holds the payload bytes,
        // one 48-byte record per message, and at most one partial payload
        // segment and one partial record chunk (a segment's worth).
        let n = 1_000u64;
        for s in 1..=n {
            log.append(make_msg(0, 1, s, &[s as u8; 100]));
        }
        let held = log.held();
        let payload = 100 * n as usize;
        assert_eq!(held.pinned, 0, "small payloads are copied");
        assert!(held.segments < payload + SEGMENT, "{held:?}");
        assert!(held.records < 48 * n as usize + SEGMENT, "{held:?}");
        // Large payloads are pinned, not copied.
        let big = make_msg(0, 1, n + 1, &[7; COPY_MAX + 1]);
        log.append(big.clone());
        assert_eq!((log.held().pinned, log.held().segments), (COPY_MAX + 1, held.segments));
        assert_eq!(log.find(chan, n + 1), Some(big));
        // GC past every entry releases every segment and pinned buffer.
        assert_eq!(log.gc(chan, n + 1), (n + 1, payload as u64 + COPY_MAX as u64 + 1));
        assert_eq!((log.held().segments, log.held().pinned, log.total_bytes()), (0, 0, 0));
        // So does a rollback to the empty cut.
        for s in n + 2..=n + 60 {
            log.append(make_msg(0, 1, s, &[s as u8; 1_000]));
        }
        log.append(make_msg(0, 1, n + 61, &[1; 2 * COPY_MAX]));
        assert!(log.held().segments >= 4 * SEGMENT && log.held().pinned > 0);
        log.truncate_to(&HashMap::new(), 0);
        assert_eq!((log.held().segments, log.held().pinned, log.total_bytes()), (0, 0, 0));
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
