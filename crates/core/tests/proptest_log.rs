//! Differential property test of the bounded sender log.
//!
//! Random streams of append / GC-prune / checkpoint-cut / `truncate_to` /
//! `replay_set` / `find` drive [`MessageLog`] beside a naive reference that
//! never prunes anything and is only *filtered* by the per-channel GC floor
//! when read. After every operation both must agree on the logical lengths
//! checkpoints record, the retained entry and byte counts, the send-order
//! counter, every lookup and every replay set — so pruning is invisible
//! except as freed memory, including across a rollback that cuts below the
//! pruned prefix and the re-execution that re-appends it.
//!
//! Payload lengths straddle both storage forms — empty, small, exactly
//! [`COPY_MAX`] (copied into segments), one byte more and larger (pinned) —
//! and fill segments fast enough that payloads straddle segment boundaries
//! and cuts land inside segments; payload bytes depend on their position,
//! so a payload read from the wrong offset cannot compare equal.

use mini_mpi::envelope::Message;
use mini_mpi::types::{ChannelId, CommId, RankId, COMM_WORLD};
use proptest::prelude::*;
use spbc_core::log::{make_msg, MessageLog, COPY_MAX, SEGMENT};
use std::collections::HashMap;

const DSTS: u32 = 3;
const COMMS: [CommId; 2] = [COMM_WORLD, CommId(9)];
const CHANNELS: usize = DSTS as usize * COMMS.len();

fn chan(i: usize) -> ChannelId {
    ChannelId::new(RankId(0), RankId(1 + i as u32 % DSTS), COMMS[i / DSTS as usize])
}

/// Payload length of `(channel, seqnum)`: every storage form and both
/// sides of the copy bound.
fn payload_len(i: usize, seq: u64) -> usize {
    let k = seq as usize * 7 + i;
    match k % 8 {
        0 => 0,
        1 => COPY_MAX,
        2 => COPY_MAX + 1,
        3 => 2 * COPY_MAX + 5,
        4 | 5 => 2_900 + k % 97,
        _ => 1 + k % 13,
    }
}

/// The message `(channel, seqnum)` always carries: re-execution after a
/// rollback regenerates it identically (channel-determinism).
fn message(i: usize, seq: u64) -> Message {
    let payload: Vec<u8> =
        (0..payload_len(i, seq)).map(|b| (b as u64 * 31 + seq * 7 + i as u64) as u8).collect();
    let mut m = make_msg(0, chan(i).dst.0, seq, &payload);
    m.env.comm = chan(i).comm;
    m
}

/// SplitMix64 — the op stream is a pure function of the case's seed.
struct Rng(u64);
impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// A checkpointed cut: what `CheckpointData` records of the log.
#[derive(Clone)]
struct Cut {
    lens: HashMap<ChannelId, usize>,
    order: u64,
}

/// Never-pruning reference: every logical entry in append order, plus the
/// GC floors that filter reads.
#[derive(Default)]
struct Reference {
    /// `(channel index, seqnum, send order)`.
    entries: Vec<(usize, u64, u64)>,
    floor: [u64; CHANNELS],
    order: u64,
    appended_bytes: u64,
}

impl Reference {
    fn last_seq(&self, i: usize) -> u64 {
        self.entries.iter().rev().find(|e| e.0 == i).map_or(0, |e| e.1)
    }

    fn live(&self) -> impl Iterator<Item = &(usize, u64, u64)> {
        self.entries.iter().filter(|e| e.1 > self.floor[e.0])
    }

    fn lengths(&self) -> HashMap<ChannelId, usize> {
        let mut out = HashMap::new();
        for e in &self.entries {
            *out.entry(chan(e.0)).or_default() += 1;
        }
        out
    }

    fn truncate_to(&mut self, cut: &Cut) {
        let mut seen = [0usize; CHANNELS];
        self.entries.retain(|e| {
            seen[e.0] += 1;
            seen[e.0] <= cut.lens.get(&chan(e.0)).copied().unwrap_or(0)
        });
        self.order = cut.order;
    }
}

fn check_agreement(log: &MessageLog, model: &Reference) {
    prop_assert_eq!(log.lengths(), model.lengths(), "logical lengths ignore pruning");
    prop_assert_eq!(log.order_counter(), model.order);
    prop_assert_eq!(log.total_entries(), model.live().count());
    let live_bytes: usize = model.live().map(|e| payload_len(e.0, e.1)).sum();
    prop_assert_eq!(log.total_bytes(), live_bytes as u64, "bytes held = retained payload sum");
    // Memory: pinned payloads exactly; segments only around copied bytes,
    // at most one partial segment at each end of a channel's window.
    let (mut pinned, mut copied) = (0, [0usize; CHANNELS]);
    for e in model.live() {
        match payload_len(e.0, e.1) {
            len if len > COPY_MAX => pinned += len,
            len => copied[e.0] += len,
        }
    }
    let held = log.held();
    prop_assert_eq!(held.pinned, pinned);
    let bound: usize =
        copied.iter().filter(|&&c| c > 0).map(|c| (c.div_ceil(SEGMENT) + 1) * SEGMENT).sum();
    prop_assert!(held.segments <= bound, "{} segment bytes for {:?}", held.segments, copied);
    prop_assert_eq!(log.appended_bytes(), model.appended_bytes);
    prop_assert!(log.peak_bytes() >= log.total_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn pruned_log_matches_never_pruning_reference(seed: u64, ops in 40usize..400) {
        let mut rng = Rng(seed);
        let mut log = MessageLog::new();
        let mut model = Reference::default();
        let mut cuts: Vec<Cut> = Vec::new();
        for _ in 0..ops {
            let i = rng.below(CHANNELS as u64) as usize;
            match rng.below(16) {
                0..=8 => {
                    // Mostly contiguous seqnums, occasionally a gap.
                    let seq = model.last_seq(i) + 1 + u64::from(rng.below(9) == 0);
                    let m = message(i, seq);
                    model.appended_bytes += m.payload.len() as u64;
                    model.entries.push((i, seq, model.order));
                    model.order += 1;
                    log.append(m);
                }
                9..=10 => {
                    // GC notice: anywhere from stale to beyond the log's end.
                    let upto = rng.below(model.last_seq(i) + 3);
                    let before = (log.total_entries(), log.total_bytes());
                    let (entries, bytes) = log.gc(chan(i), upto);
                    model.floor[i] = model.floor[i].max(upto);
                    prop_assert_eq!(before.0 - entries as usize, log.total_entries());
                    prop_assert_eq!(before.1 - bytes, log.total_bytes());
                }
                11 => cuts.push(Cut { lens: log.lengths(), order: log.order_counter() }),
                12 => {
                    // Roll back to a recorded cut (possibly below the pruned
                    // prefix); newer cuts are void, like newer checkpoints.
                    if !cuts.is_empty() {
                        cuts.truncate(1 + rng.below(cuts.len() as u64) as usize);
                        let cut = cuts.last().expect("non-empty");
                        log.truncate_to(&cut.lens, cut.order);
                        model.truncate_to(cut);
                    }
                }
                13 => {
                    let seq = rng.below(model.last_seq(i) + 2);
                    let want = model.live().any(|e| e.0 == i && e.1 == seq);
                    let got = log.find(chan(i), seq);
                    prop_assert_eq!(got, want.then(|| message(i, seq)), "find {:?} s{}", chan(i), seq);
                }
                _ => {
                    // A receiver's Rollback: per channel an `lr` at or above
                    // the floor (the protocol invariant) and a few owed
                    // seqnums at or below it.
                    let dst = chan(i).dst;
                    let mut lr = [0u64; CHANNELS];
                    let mut owed: [Vec<u64>; CHANNELS] = Default::default();
                    for c in 0..CHANNELS {
                        lr[c] = model.floor[c] + rng.below(model.last_seq(c) + 2);
                        for _ in 0..rng.below(3) {
                            owed[c].push(rng.below(lr[c] + 1));
                        }
                        owed[c].sort_unstable();
                        owed[c].dedup(); // the protocol's owed lists are sets
                    }
                    let index_of = |ch: ChannelId| (0..CHANNELS).find(|&c| chan(c) == ch).unwrap();
                    let got = log.replay_set(
                        dst,
                        &|ch| lr[index_of(ch)],
                        &|ch| owed[index_of(ch)].clone(),
                    );
                    let mut want: Vec<&(usize, u64, u64)> = model
                        .live()
                        .filter(|e| chan(e.0).dst == dst)
                        .filter(|e| e.1 > lr[e.0] || owed[e.0].contains(&e.1))
                        .collect();
                    want.sort_by_key(|e| e.2);
                    let want: Vec<Message> = want.iter().map(|e| message(e.0, e.1)).collect();
                    prop_assert_eq!(got, want, "replay set to {:?}", dst);
                }
            }
            check_agreement(&log, &model);
        }
    }
}

#[test]
fn truncate_below_the_pruned_prefix_then_reexecute_restores_lengths() {
    let mut log = MessageLog::new();
    let c = chan(0);
    for s in 1..=3 {
        log.append(message(0, s));
    }
    let (cut, order) = (log.lengths(), log.order_counter());
    for s in 4..=10 {
        log.append(message(0, s));
    }
    let full = log.lengths();
    assert_eq!(log.gc(c, 8).0, 8);
    assert_eq!(log.lengths(), full, "GC leaves logical lengths alone");
    // The sender rolls back to a checkpoint older than what GC pruned.
    log.truncate_to(&cut, order);
    assert_eq!(log.lengths(), cut);
    assert_eq!((log.total_entries(), log.total_bytes()), (0, 0));
    let below_floor = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        log.replay_set(c.dst, &|_| 7, &|_| Vec::new())
    }));
    assert!(below_floor.is_err(), "a receiver rollback below the floor must fail loudly");
    // Re-execution regenerates 4..=10; only what the receiver can still ask
    // for is retained, yet the logical lengths line up again.
    for s in 4..=10 {
        log.append(message(0, s));
    }
    assert_eq!(log.lengths(), full);
    assert_eq!(log.order_counter(), 10);
    let kept: Vec<u64> =
        log.replay_set(c.dst, &|_| 8, &|_| Vec::new()).iter().map(|m| m.env.seqnum).collect();
    assert_eq!(kept, vec![9, 10]);
    let kept_bytes: usize = (9..=10).map(|s| payload_len(0, s)).sum();
    assert_eq!(log.total_bytes(), kept_bytes as u64);
    // The floor describes the receiver, so it survives even the empty cut.
    log.truncate_to(&HashMap::new(), 0);
    log.append(message(0, 1));
    assert_eq!((log.total_entries(), log.lengths()[&c]), (0, 1));
}

#[test]
fn rollback_inside_a_segment_then_reexecute_rebuilds_every_payload() {
    // 3,000-byte payloads: five fill most of a segment, the sixth straddles
    // into the next one.
    let msg = |seq: u64| {
        let payload: Vec<u8> = (0..3_000u64).map(|b| (b * 13 + seq) as u8).collect();
        make_msg(0, 1, seq, &payload)
    };
    let c = msg(1).env.channel();
    let mut log = MessageLog::new();
    for s in 1..=4 {
        log.append(msg(s));
    }
    let (cut, order) = (log.lengths(), log.order_counter());
    for s in 5..=16 {
        log.append(msg(s));
    }
    assert_eq!(log.held().segments, 3 * SEGMENT, "48,000 bytes in three segments");
    // Roll back into the first segment, then regenerate across two boundaries.
    log.truncate_to(&cut, order);
    assert_eq!((log.held().segments, log.total_bytes()), (SEGMENT, 12_000));
    for s in 5..=16 {
        log.append(msg(s));
    }
    for s in 1..=16 {
        assert_eq!(log.find(c, s), Some(msg(s)), "seqnum {s}");
    }
    // GC past the first segment's payloads releases it, and only it.
    log.gc(c, 6);
    assert_eq!(log.held().segments, 2 * SEGMENT);
    let set = log.replay_set(c.dst, &|_| 6, &|_| Vec::new());
    assert_eq!(set, (7..=16).map(msg).collect::<Vec<_>>());
}
