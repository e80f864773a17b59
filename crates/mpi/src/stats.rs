//! Per-rank communication statistics and determinism chains.

use crate::hash::FxHashMap;
use crate::types::{ChannelId, RankId};
use crate::util::hash128;
use std::time::Duration;

/// Rolling hash + count capturing the ordered sequence of sends somewhere
/// (per channel or per process). Two executions produced the same send
/// sequence iff both `hash` and `count` agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SendChain {
    /// Folded hash over `(tag, plen, payload digest, ident)` tuples.
    pub hash: u64,
    /// Number of sends folded in.
    pub count: u64,
}

/// Fold one word into a chain state. For a fixed state it is a bijection of
/// the word (xor, odd multiply and rotate are each invertible), and for a
/// fixed word a bijection of the state, so a chain that differs in any one
/// word stays different through every later fold.
#[inline(always)]
fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

impl SendChain {
    /// Fold one send into the chain.
    pub fn push(&mut self, tag: u32, plen: u64, payload_digest: u64, ident: (u32, u32)) {
        let mut h = if self.count == 0 { 0xcbf29ce484222325 } else { self.hash };
        h = fold(h, tag as u64);
        h = fold(h, plen);
        h = fold(h, payload_digest);
        h = fold(h, ((ident.0 as u64) << 32) | ident.1 as u64);
        self.hash = h;
        self.count += 1;
    }
}

/// Statistics collected by one rank during one execution.
///
/// Byte/message counters are indexed by *peer world rank* (dense vectors —
/// the clustering tool consumes them as a communication matrix). Determinism
/// chains are per channel and per process (Definitions 1 and 2 of the paper).
#[derive(Clone, Debug)]
pub struct RankStats {
    /// This rank.
    pub me: RankId,
    /// Bytes sent to each peer (application payloads, incl. collectives).
    pub sent_bytes: Vec<u64>,
    /// Messages sent to each peer.
    pub sent_msgs: Vec<u64>,
    /// Bytes received from each peer.
    pub recv_bytes: Vec<u64>,
    /// Messages received from each peer.
    pub recv_msgs: Vec<u64>,
    /// Time spent inside blocking communication calls.
    pub comm_time: Duration,
    /// Wall-clock of the rank's whole execution (filled by the runtime).
    pub total_time: Duration,
    /// Per-channel send chains (channel-determinism witness).
    pub channel_chains: FxHashMap<ChannelId, SendChain>,
    /// Per-process send chain over all channels in program order
    /// (send-determinism witness).
    pub process_chain: SendChain,
    /// Number of times this rank was restarted by recovery.
    pub restarts: u32,
}

impl RankStats {
    /// Fresh statistics for rank `me` in a world of `world` ranks.
    pub fn new(me: RankId, world: usize) -> Self {
        RankStats {
            me,
            sent_bytes: vec![0; world],
            sent_msgs: vec![0; world],
            recv_bytes: vec![0; world],
            recv_msgs: vec![0; world],
            comm_time: Duration::ZERO,
            total_time: Duration::ZERO,
            channel_chains: FxHashMap::default(),
            process_chain: SendChain::default(),
            restarts: 0,
        }
    }

    /// Record a send of `payload` on `chan` with the given tag and ident.
    pub fn on_send(&mut self, chan: ChannelId, tag: u32, payload: &[u8], ident: (u32, u32)) {
        let peer = chan.dst.idx();
        if peer < self.sent_bytes.len() {
            self.sent_bytes[peer] += payload.len() as u64;
            self.sent_msgs[peer] += 1;
        }
        // Digest once, fold into both chains. The digest is the low word of
        // the hash that also addresses checkpoint chunks.
        let digest = hash128(payload) as u64;
        self.channel_chains.entry(chan).or_default().push(tag, payload.len() as u64, digest, ident);
        self.process_chain.push(tag, payload.len() as u64, digest, ident);
    }

    /// Record delivery of a message of `len` bytes from `src`.
    pub fn on_recv(&mut self, src: RankId, len: usize) {
        let peer = src.idx();
        if peer < self.recv_bytes.len() {
            self.recv_bytes[peer] += len as u64;
            self.recv_msgs[peer] += 1;
        }
    }

    /// Total bytes sent to any peer.
    pub fn total_sent_bytes(&self) -> u64 {
        self.sent_bytes.iter().sum()
    }

    /// Total messages sent.
    pub fn total_sent_msgs(&self) -> u64 {
        self.sent_msgs.iter().sum()
    }

    /// Fraction of total time spent communicating (0 when total unknown).
    pub fn comm_ratio(&self) -> f64 {
        if self.total_time.is_zero() {
            0.0
        } else {
            self.comm_time.as_secs_f64() / self.total_time.as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ChannelId, COMM_WORLD};

    fn chan(src: u32, dst: u32) -> ChannelId {
        ChannelId::new(RankId(src), RankId(dst), COMM_WORLD)
    }

    #[test]
    fn chains_detect_reorder() {
        let mut a = SendChain::default();
        a.push(1, 4, 0xAA, (0, 0));
        a.push(2, 4, 0xBB, (0, 0));
        let mut b = SendChain::default();
        b.push(2, 4, 0xBB, (0, 0));
        b.push(1, 4, 0xAA, (0, 0));
        assert_ne!(a, b);
        assert_eq!(a.count, b.count);
    }

    #[test]
    fn chains_equal_for_equal_sequences() {
        let mut a = SendChain::default();
        let mut b = SendChain::default();
        for i in 0..10 {
            a.push(i, 8, i as u64 * 3, (1, i));
            b.push(i, 8, i as u64 * 3, (1, i));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn per_channel_vs_per_process() {
        // Same per-channel sequences, different global interleaving:
        // channel chains equal, process chains differ (the AMG situation).
        let mut s1 = RankStats::new(RankId(0), 4);
        s1.on_send(chan(0, 1), 1, b"x", (0, 0));
        s1.on_send(chan(0, 2), 1, b"y", (0, 0));
        let mut s2 = RankStats::new(RankId(0), 4);
        s2.on_send(chan(0, 2), 1, b"y", (0, 0));
        s2.on_send(chan(0, 1), 1, b"x", (0, 0));
        assert_eq!(s1.channel_chains, s2.channel_chains);
        assert_ne!(s1.process_chain, s2.process_chain);
    }

    #[test]
    fn counters_accumulate() {
        let mut s = RankStats::new(RankId(0), 2);
        s.on_send(chan(0, 1), 9, &[0u8; 100], (0, 0));
        s.on_send(chan(0, 1), 9, &[0u8; 50], (0, 0));
        s.on_recv(RankId(1), 25);
        assert_eq!(s.sent_bytes[1], 150);
        assert_eq!(s.sent_msgs[1], 2);
        assert_eq!(s.recv_bytes[1], 25);
        assert_eq!(s.total_sent_bytes(), 150);
        assert_eq!(s.total_sent_msgs(), 2);
    }

    #[test]
    fn comm_ratio_zero_when_no_total() {
        let s = RankStats::new(RankId(0), 1);
        assert_eq!(s.comm_ratio(), 0.0);
    }

    #[test]
    fn payload_bytes_change_chain_but_not_counts() {
        let mut a = RankStats::new(RankId(0), 2);
        let mut b = RankStats::new(RankId(0), 2);
        a.on_send(chan(0, 1), 1, b"payload", (0, 0));
        b.on_send(chan(0, 1), 1, b"paYload", (0, 0));
        assert_ne!(a.process_chain, b.process_chain);
        assert_ne!(a.channel_chains, b.channel_chains);
        assert_eq!(a.process_chain.count, b.process_chain.count);
        assert_eq!(a.sent_bytes, b.sent_bytes);
    }
}
