//! `spbc-core` sender-side message log: append, truncate, find, replay set.
//!
//! The protocol's own phase sums and counters (`core.protocol.*`,
//! `core.replay.*`) are read from the traced reps, not driven here.

use super::{median_secs, ns_per_op, Drive};
use bytes::Bytes;
use mini_mpi::envelope::{Envelope, Message};
use mini_mpi::types::{ChannelId, MatchIdent, RankId, COMM_WORLD};
use spbc_core::log::MessageLog;
use std::hint::black_box;
use std::time::Instant;

/// Entries the log holds in steady state, spread over this many channels.
const STEADY: u64 = 1000;
const CHANNELS: u64 = 8;

fn message(dst: u64, seq: u64, payload: &Bytes) -> Message {
    let env = Envelope {
        src: RankId(0),
        dst: RankId(dst as u32 + 1),
        comm: COMM_WORLD,
        tag: 1,
        seqnum: seq,
        plen: payload.len() as u64,
        lamport: seq,
        ident: MatchIdent::DEFAULT,
    };
    Message { env, payload: payload.clone() }
}

/// Append entries `from..from + n` round-robin over the channels.
fn append(log: &mut MessageLog, from: u64, n: u64, payload: &Bytes) {
    for i in from..from + n {
        log.append(message(i % CHANNELS, i / CHANNELS + 1, payload));
    }
}

pub fn run(d: &mut Drive<'_>) {
    d.layer("core.log", |d| {
        let payload = Bytes::from(vec![7u8; 1024]);
        let mut log = MessageLog::new();
        append(&mut log, 0, STEADY, &payload);
        let cut = (log.lengths(), log.order_counter());

        // The log oscillates between 1000 and 2000 entries: each round
        // appends 1000 (timed as appends) and rolls back to the 1000-entry
        // cut (timed as one truncate).
        let rounds = (d.ops as u64 / STEADY).max(2);
        let (mut append_ns, mut truncate_us) = (Vec::new(), Vec::new());
        for _ in 0..rounds {
            let t = Instant::now();
            append(&mut log, STEADY, STEADY, &payload);
            append_ns.push(t.elapsed().as_nanos() as f64 / STEADY as f64);
            let t = Instant::now();
            log.truncate_to(&cut.0, cut.1);
            truncate_us.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        d.checks.check(
            "truncate_to restores the checkpointed cut",
            log.total_entries() == STEADY as usize && log.total_bytes() == STEADY * 1024,
        );
        d.metric("core.log.append_ns", |_| crate::stats::median(&append_ns));
        d.metric("core.log.truncate_us", |_| crate::stats::median(&truncate_us));

        let ops = d.ops;
        d.metric("core.log.find_ns", |d| {
            let mut i = 0u64;
            let mut found = 0usize;
            let ns = ns_per_op(ops, |n| {
                for _ in 0..n {
                    let chan =
                        ChannelId::new(RankId(0), RankId((i % CHANNELS) as u32 + 1), COMM_WORLD);
                    found += usize::from(log.find(chan, i / CHANNELS + 1).is_some());
                    i = (i + 7) % STEADY;
                }
            });
            d.checks.check("find sees every logged seqnum", found == (ops / 10).max(1) * 10);
            ns
        });
        let passes = d.passes;
        d.metric("core.log.replay_set_us", |d| {
            // A receiver that rolled back to half of what it had seen.
            let watermark = STEADY / CHANNELS / 2;
            let mut replayed = 0;
            let secs = median_secs(20 * passes, || {
                let set = log.replay_set(RankId(1), &|_| watermark, &|_| Vec::new());
                replayed = set.len();
                black_box(set);
            });
            d.checks.check(
                "replay_set returns the suffix above the watermark",
                replayed as u64 == STEADY / CHANNELS - watermark,
            );
            secs * 1e6
        });
    });
}
