//! The protocol flight recorder: a fixed-capacity ring of typed, timestamped
//! events per rank.
//!
//! Aggregate counters (`stats`, `spbc-core`'s `Metrics`) say *how much* the
//! protocol did; they cannot say *in what order*. When a recovery goes wrong
//! the interleaving is the bug, so every rank records its protocol decisions
//! — sends (and suppressions), arrival dispositions, control messages, log
//! appends and truncations, the transition-table rows it takes, phase
//! latencies, rollback and replay progress —
//! into a ring buffer the runtime can dump when quiescence stalls
//! ([`FlightRecorder::dump`]) or export as a Chrome trace after the run
//! (`spbc-trace`).
//!
//! Cost model: recording is a single branch when disabled (the default); the
//! event value is built lazily, so a disabled recorder evaluates nothing.
//! When enabled, one `parking_lot` mutex lock plus a ring push per event —
//! the lock is uncontended (only the owning rank writes; readers appear only
//! at dump/export time).

use crate::types::RankId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// What the matching layer did with an arriving envelope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Matched a posted receive.
    Matched,
    /// Queued as unexpected.
    Unexpected,
    /// Dropped by the protocol (duplicate or out-of-order suppression).
    Dropped,
}

/// One recorded protocol event. Field widths mirror the envelope
/// (`comm` is the raw `CommId` value).
#[derive(Clone, Debug)]
pub enum Event {
    /// Rank (re)started with the given restart epoch.
    RankStart {
        /// Restart epoch (0 = initial execution).
        epoch: u32,
    },
    /// Application closure returned successfully.
    RankDone,
    /// Rank was killed (crash injection / cluster rollback).
    RankKilled,
    /// Rank reported an error to the runtime.
    RankError,
    /// Application send decision (records suppressed re-sends too — the send
    /// *event* exists regardless of transmission).
    Send {
        /// Destination world rank.
        dst: RankId,
        /// Communicator id.
        comm: u64,
        /// Message tag.
        tag: u32,
        /// Per-channel sequence number.
        seqnum: u64,
        /// Payload bytes.
        bytes: u64,
        /// True when the protocol suppressed the transmission (`seq <= LS`).
        suppressed: bool,
    },
    /// Envelope arrival and its matching disposition.
    Arrival {
        /// Source world rank.
        src: RankId,
        /// Communicator id.
        comm: u64,
        /// Message tag.
        tag: u32,
        /// Per-channel sequence number.
        seqnum: u64,
        /// What happened to it.
        disposition: Disposition,
    },
    /// Control message sent.
    CtrlSent {
        /// Receiver.
        to: RankId,
        /// Protocol kind code.
        kind: u16,
    },
    /// Control message received.
    CtrlRecv {
        /// Sender.
        from: RankId,
        /// Protocol kind code.
        kind: u16,
    },
    /// Inter-cluster message appended to the sender-side log.
    LogAppend {
        /// Destination world rank.
        dst: RankId,
        /// Communicator id.
        comm: u64,
        /// Per-channel sequence number.
        seqnum: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// Log rolled back to a checkpointed cut.
    LogTruncate {
        /// Entries surviving the truncation.
        entries: u64,
        /// Restored global send-order counter.
        order: u64,
    },
    /// Log pruned at the front on a receiver's GC notice.
    LogGc {
        /// Destination world rank of the pruned channel (the notice's sender).
        dst: RankId,
        /// Communicator id.
        comm: u64,
        /// Highest seqnum the receiver released.
        upto: u64,
        /// Entries dropped.
        entries: u64,
    },
    /// The protocol layer took a row of its transition table (a wave or a
    /// recovery step that emitted actions).
    Row {
        /// The row, `side/state/input`.
        row: &'static str,
        /// The wave's epoch, or the incarnation's restart epoch for a
        /// recovery row.
        epoch: u64,
    },
    /// This rank restarted and announced Rollback to its peers.
    Rollback {
        /// Restart epoch of this incarnation.
        epoch: u32,
        /// Checkpoint wave restored (0 = initial state).
        restored_ckpt: u64,
    },
    /// A peer's Rollback announcement arrived.
    RollbackRecv {
        /// The restarted peer.
        from: RankId,
        /// The peer's restart epoch.
        epoch: u32,
    },
    /// LastMessage reply set the suppression watermark for a channel.
    LsSet {
        /// Peer the watermark applies to.
        peer: RankId,
        /// Communicator id.
        comm: u64,
        /// Last seqnum the peer confirmed having.
        ls: u64,
    },
    /// A replay queue towards `dst` was (re)filled from the log.
    ReplayQueued {
        /// Recovering destination.
        dst: RankId,
        /// Messages queued.
        msgs: u64,
    },
    /// One logged message re-sent during recovery.
    Replay {
        /// Recovering destination.
        dst: RankId,
        /// Communicator id.
        comm: u64,
        /// Per-channel sequence number (the replay watermark).
        seqnum: u64,
    },
    /// The replay queue towards `dst` drained.
    ReplayDrained {
        /// Recovering destination.
        dst: RankId,
    },
    /// A blocking wait exceeded the deadlock timeout.
    Stall {
        /// The operation that stalled ("wait", "checkpoint", ...).
        what: String,
    },
    /// A wave's local checkpoint write was submitted to the store; its
    /// duration is the wave's `write` phase.
    CkptWrite {
        /// Checkpoint wave epoch.
        epoch: u64,
        /// Sealed size written: a CDC manifest with its new chunks, or a
        /// full blob.
        bytes: u64,
        /// Serialized checkpoint body size (what a full write would cost;
        /// `bytes < logical` means CDC deduplicated chunks).
        logical: u64,
    },
    /// Checkpoint blob pushed to a partner rank for replicated storage.
    CkptReplPush {
        /// Partner holding the copy.
        partner: RankId,
        /// Checkpoint wave epoch.
        epoch: u64,
        /// Sealed blob size.
        bytes: u64,
    },
    /// A partner stored a pushed checkpoint copy (receiver side).
    CkptReplStore {
        /// Rank owning the checkpoint.
        owner: RankId,
        /// Checkpoint wave epoch.
        epoch: u64,
        /// Sealed blob size.
        bytes: u64,
    },
    /// A partner acknowledged a stored copy (owner side; closes the span
    /// opened by [`Event::CkptReplPush`]).
    CkptReplAck {
        /// The acknowledging partner.
        partner: RankId,
        /// Checkpoint wave epoch.
        epoch: u64,
    },
    /// A lost/corrupt local checkpoint was repaired from a partner copy.
    CkptRepair {
        /// Checkpoint wave epoch restored.
        epoch: u64,
        /// Partner rank whose copy survived.
        from: RankId,
    },
    /// A lost local checkpoint was reconstructed from redundancy-set
    /// parity (erasure decode over the set's survivors).
    CkptRebuild {
        /// Checkpoint wave epoch restored.
        epoch: u64,
        /// Redundancy set the parity belonged to.
        set_id: u32,
    },
    /// Automatic storage GC pruned old checkpoint copies.
    CkptGc {
        /// Copies removed.
        pruned: u64,
        /// Oldest epoch retained.
        keep_from: u64,
    },
    /// A partner holder dropped an owner's replica copies on the owner's
    /// release (its wave `keep_from` resumed).
    CkptRelease {
        /// The rank whose copies were dropped.
        owner: RankId,
        /// Copies removed.
        pruned: u64,
        /// Oldest epoch of the owner's retained.
        keep_from: u64,
    },
    /// A timed checkpoint-lifecycle phase completed with the given measured
    /// latency (the same sample the protocol's per-phase histograms record).
    /// A stuck wave is diagnosed by the newest of these: it names the last
    /// phase that *finished*, so the hang is in whatever comes next.
    CkptPhaseDone {
        /// Checkpoint wave epoch (for restore phases: the restored wave).
        epoch: u64,
        /// Stable phase key ("quiesce", "encode", "write", ...).
        phase: &'static str,
        /// Measured phase latency in microseconds.
        us: u64,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::RankStart { epoch } => write!(f, "start e{epoch}"),
            Event::RankDone => write!(f, "done"),
            Event::RankKilled => write!(f, "killed"),
            Event::RankError => write!(f, "error"),
            Event::Send { dst, comm, tag, seqnum, bytes, suppressed } => write!(
                f,
                "send ->{dst} c{comm} t{tag} s{seqnum} {bytes}B{}",
                if *suppressed { " (suppressed)" } else { "" }
            ),
            Event::Arrival { src, comm, tag, seqnum, disposition } => {
                write!(f, "arrival <-{src} c{comm} t{tag} s{seqnum} {disposition:?}")
            }
            Event::CtrlSent { to, kind } => write!(f, "ctrl ->{to} k{kind}"),
            Event::CtrlRecv { from, kind } => write!(f, "ctrl <-{from} k{kind}"),
            Event::LogAppend { dst, comm, seqnum, bytes } => {
                write!(f, "log-append ->{dst} c{comm} s{seqnum} {bytes}B")
            }
            Event::LogTruncate { entries, order } => {
                write!(f, "log-truncate keep={entries} order={order}")
            }
            Event::LogGc { dst, comm, upto, entries } => {
                write!(f, "log-gc ->{dst} c{comm} upto=s{upto} dropped={entries}")
            }
            Event::Row { row, epoch } => write!(f, "{row} e{epoch}"),
            Event::Rollback { epoch, restored_ckpt } => {
                write!(f, "rollback e{epoch} restored-ckpt={restored_ckpt}")
            }
            Event::RollbackRecv { from, epoch } => write!(f, "rollback-recv <-{from} e{epoch}"),
            Event::LsSet { peer, comm, ls } => write!(f, "ls {peer}/c{comm}={ls}"),
            Event::ReplayQueued { dst, msgs } => write!(f, "replay-queued ->{dst} {msgs} msgs"),
            Event::Replay { dst, comm, seqnum } => write!(f, "replay ->{dst} c{comm} s{seqnum}"),
            Event::ReplayDrained { dst } => write!(f, "replay-drained ->{dst}"),
            Event::Stall { what } => write!(f, "STALL in {what}"),
            Event::CkptWrite { epoch, bytes, logical } => {
                write!(f, "ckpt-write e{epoch} {bytes}B/{logical}B")
            }
            Event::CkptReplPush { partner, epoch, bytes } => {
                write!(f, "repl-push ->{partner} e{epoch} {bytes}B")
            }
            Event::CkptReplStore { owner, epoch, bytes } => {
                write!(f, "repl-store for {owner} e{epoch} {bytes}B")
            }
            Event::CkptReplAck { partner, epoch } => {
                write!(f, "repl-ack <-{partner} e{epoch}")
            }
            Event::CkptRepair { epoch, from } => {
                write!(f, "ckpt-repair e{epoch} from {from}")
            }
            Event::CkptRebuild { epoch, set_id } => {
                write!(f, "ckpt-rebuild e{epoch} set {set_id}")
            }
            Event::CkptGc { pruned, keep_from } => {
                write!(f, "ckpt-gc pruned={pruned} keep-from=e{keep_from}")
            }
            Event::CkptRelease { owner, pruned, keep_from } => {
                write!(f, "ckpt-release <-{owner} pruned={pruned} keep-from=e{keep_from}")
            }
            Event::CkptPhaseDone { epoch, phase, us } => {
                write!(f, "ckpt-phase e{epoch} {phase} {us}us")
            }
        }
    }
}

/// An event with its recording order and wall-clock offset.
#[derive(Clone, Debug)]
pub struct TimedEvent {
    /// Microseconds since the run started (the [`FlightRecorder`]'s epoch).
    pub t_us: u64,
    /// Per-rank monotone sequence number (counts evicted events too).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// The drained events of one rank's ring.
#[derive(Clone, Debug, Default)]
pub struct RankTrace {
    /// World (or service) rank id.
    pub rank: u32,
    /// Events evicted by ring wraparound (total recorded = dropped + len).
    pub dropped: u64,
    /// Last stall-status line the rank published (`t_us`, text).
    pub status: Option<(u64, String)>,
    /// Retained events, oldest first.
    pub events: Vec<TimedEvent>,
}

/// A full run's recorded events, one trace per rank.
pub type FlightLog = Vec<RankTrace>;

struct Ring {
    cap: usize,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<TimedEvent>,
}

struct RecorderShared {
    start: Instant,
    ring: Mutex<Ring>,
    status: Mutex<Option<(u64, String)>>,
}

impl RecorderShared {
    fn new(start: Instant, cap: usize) -> Self {
        RecorderShared {
            start,
            ring: Mutex::new(Ring {
                cap: cap.max(1),
                next_seq: 0,
                dropped: 0,
                buf: VecDeque::with_capacity(cap.max(1)),
            }),
            status: Mutex::new(None),
        }
    }

    fn t_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn push(&self, event: Event) {
        let t_us = self.t_us();
        let mut ring = self.ring.lock();
        if ring.buf.len() == ring.cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.buf.push_back(TimedEvent { t_us, seq, event });
    }

    fn trace(&self, rank: u32) -> RankTrace {
        let ring = self.ring.lock();
        RankTrace {
            rank,
            dropped: ring.dropped,
            status: self.status.lock().clone(),
            events: ring.buf.iter().cloned().collect(),
        }
    }
}

/// Per-rank recording handle. Cheap to clone and to query; all methods are
/// no-ops on a disabled handle (the default configuration).
#[derive(Clone)]
pub struct Recorder {
    shared: Option<Arc<RecorderShared>>,
}

impl Recorder {
    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Recorder { shared: None }
    }

    /// Is this handle actually recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Record one event. The closure runs only when recording is enabled, so
    /// a disabled recorder costs a single branch and builds nothing.
    #[inline]
    pub fn record(&self, f: impl FnOnce() -> Event) {
        if let Some(s) = &self.shared {
            s.push(f());
        }
    }

    /// Publish a status line (current watermarks / queue state) for the
    /// watchdog dump. Called from slow blocking waits, never the hot path.
    pub fn set_status(&self, line: impl FnOnce() -> String) {
        if let Some(s) = &self.shared {
            let t = s.t_us();
            *s.status.lock() = Some((t, line()));
        }
    }
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Recorder({})", if self.is_enabled() { "on" } else { "off" })
    }
}

/// Run-wide collector: owns one ring per rank and produces handles, the
/// post-run [`FlightLog`], and the watchdog dump.
pub struct FlightRecorder {
    rings: Vec<Arc<RecorderShared>>,
}

impl FlightRecorder {
    /// Recorder for `ranks` ranks with `capacity` events retained per rank.
    pub fn new(ranks: usize, capacity: usize) -> Self {
        let start = Instant::now();
        FlightRecorder {
            rings: (0..ranks).map(|_| Arc::new(RecorderShared::new(start, capacity))).collect(),
        }
    }

    /// A collector that records nothing and hands out disabled handles.
    pub fn disabled() -> Self {
        FlightRecorder { rings: Vec::new() }
    }

    /// Is recording active?
    pub fn enabled(&self) -> bool {
        !self.rings.is_empty()
    }

    /// The recording handle for `rank` (shared across its incarnations — a
    /// restarted rank keeps appending to the same track).
    pub fn handle(&self, rank: RankId) -> Recorder {
        Recorder { shared: self.rings.get(rank.idx()).map(Arc::clone) }
    }

    /// Snapshot every rank's retained events (oldest first per rank).
    pub fn snapshot(&self) -> FlightLog {
        self.rings.iter().enumerate().map(|(i, r)| r.trace(i as u32)).collect()
    }

    /// Human-readable dump for hang diagnostics: per rank of `ranks` (a
    /// node's hosted ranks, or the whole world), the last transition-table
    /// row it took, the last phase it completed, the published stall status
    /// (channel watermarks), and the newest `tail` events.
    pub fn dump(&self, tail: usize, ranks: std::ops::Range<u32>) -> String {
        let log = self.snapshot();
        let mut out = String::new();
        out.push_str("=== flight recorder dump ===\n");
        if log.is_empty() {
            out.push_str("(recorder disabled)\n");
            return out;
        }
        for t in log.iter().filter(|t| ranks.contains(&t.rank)) {
            let total = t.dropped + t.events.len() as u64;
            out.push_str(&format!(
                "-- rank {}: {} events recorded ({} evicted)\n",
                t.rank, total, t.dropped
            ));
            // The last row names the wave or recovery transition a wedged
            // rank took last; the last completed phase, the timed stage
            // before it.
            let last = |what: &str, is: fn(&Event) -> bool| {
                let found = t.events.iter().rev().find(|e| is(&e.event));
                let at = found.map_or("none".into(), |e| format!("[{}us] {}", e.t_us, e.event));
                format!("   last {what}: {at}\n")
            };
            out.push_str(&last("row", |e| matches!(e, Event::Row { .. })));
            out.push_str(&last("completed phase", |e| matches!(e, Event::CkptPhaseDone { .. })));
            if let Some((t_us, line)) = &t.status {
                out.push_str(&format!("   status @{t_us}us: {line}\n"));
            }
            let skip = t.events.len().saturating_sub(tail);
            for e in &t.events[skip..] {
                out.push_str(&format!("   [{:>10}us #{:>6}] {}\n", e.t_us, e.seq, e.event));
            }
        }
        out
    }
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FlightRecorder({})", if self.enabled() { "on" } else { "off" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(seq: u64) -> Event {
        Event::Send { dst: RankId(1), comm: 0, tag: 1, seqnum: seq, bytes: 8, suppressed: false }
    }

    #[test]
    fn wraparound_keeps_newest() {
        let fr = FlightRecorder::new(1, 8);
        let rec = fr.handle(RankId(0));
        for s in 0..20u64 {
            rec.record(|| send(s));
        }
        let log = fr.snapshot();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].events.len(), 8);
        assert_eq!(log[0].dropped, 12);
        let seqs: Vec<u64> = log[0].events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (12..20).collect::<Vec<_>>());
        match &log[0].events.last().unwrap().event {
            Event::Send { seqnum, .. } => assert_eq!(*seqnum, 19),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn drain_is_per_rank_monotone() {
        let fr = FlightRecorder::new(2, 64);
        let (a, b) = (fr.handle(RankId(0)), fr.handle(RankId(1)));
        for s in 0..40u64 {
            a.record(|| send(s));
            if s % 2 == 0 {
                b.record(|| Event::Row { row: "member/Idle/Call(open)", epoch: s });
            }
        }
        for t in fr.snapshot() {
            for w in t.events.windows(2) {
                assert!(w[0].seq < w[1].seq, "seq monotone");
                assert!(w[0].t_us <= w[1].t_us, "time monotone");
            }
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let fr = FlightRecorder::disabled();
        assert!(!fr.enabled());
        let rec = fr.handle(RankId(0));
        assert!(!rec.is_enabled());
        rec.record(|| panic!("closure must not run when disabled"));
        assert!(fr.snapshot().is_empty());
        assert!(fr.dump(8, 0..2).contains("disabled"));
    }

    #[test]
    fn dump_names_last_row_phase_and_status() {
        let fr = FlightRecorder::new(2, 16);
        let rec = fr.handle(RankId(0));
        rec.record(|| Event::Row { row: "member/Idle/Call(open)", epoch: 3 });
        rec.record(|| Event::CkptPhaseDone { epoch: 3, phase: "encode", us: 42 });
        rec.record(|| Event::Stall { what: "checkpoint".into() });
        rec.set_status(|| "send_seq=[1/c0=>5]".into());
        let dump = fr.dump(8, 0..2);
        assert!(dump.contains("rank 0"));
        assert!(
            dump.contains("last row: [") && dump.contains("member/Idle/Call(open) e3"),
            "{dump}"
        );
        assert!(dump.contains("last row: none"), "idle rank took no row: {dump}");
        assert!(dump.contains("last completed phase:"), "{dump}");
        assert!(dump.contains("ckpt-phase e3 encode 42us"), "{dump}");
        assert!(dump.contains("STALL in checkpoint"));
        assert!(dump.contains("send_seq=[1/c0=>5]"));
        assert!(dump.contains("rank 1"), "every rank appears, even if idle");
        assert!(dump.contains("last completed phase: none"), "idle rank has no phase: {dump}");
        let hosted = fr.dump(8, 1..2);
        assert!(hosted.contains("rank 1") && !hosted.contains("rank 0"), "{hosted}");
    }

    #[test]
    fn storage_events_render() {
        let cases: Vec<(Event, &str)> = vec![
            (Event::CkptWrite { epoch: 2, bytes: 24, logical: 64 }, "ckpt-write e2 24B/64B"),
            (
                Event::CkptReplPush { partner: RankId(5), epoch: 2, bytes: 64 },
                "repl-push ->5 e2 64B",
            ),
            (
                Event::CkptReplStore { owner: RankId(1), epoch: 2, bytes: 64 },
                "repl-store for 1 e2 64B",
            ),
            (Event::CkptReplAck { partner: RankId(5), epoch: 2 }, "repl-ack <-5 e2"),
            (Event::CkptRepair { epoch: 2, from: RankId(5) }, "ckpt-repair e2 from 5"),
            (Event::CkptRebuild { epoch: 2, set_id: 1 }, "ckpt-rebuild e2 set 1"),
            (Event::CkptGc { pruned: 3, keep_from: 4 }, "ckpt-gc pruned=3 keep-from=e4"),
            (
                Event::CkptRelease { owner: RankId(5), pruned: 1, keep_from: 4 },
                "ckpt-release <-5 pruned=1 keep-from=e4",
            ),
            (
                Event::LogGc { dst: RankId(5), comm: 0, upto: 40, entries: 12 },
                "log-gc ->5 c0 upto=s40 dropped=12",
            ),
            (
                Event::CkptPhaseDone { epoch: 2, phase: "commit_barrier", us: 1500 },
                "ckpt-phase e2 commit_barrier 1500us",
            ),
            (Event::Row { row: "member/Flushing/Flushed", epoch: 2 }, "member/Flushing/Flushed e2"),
        ];
        for (ev, want) in cases {
            assert_eq!(ev.to_string(), want);
        }
    }

    #[test]
    fn handle_out_of_range_is_disabled() {
        let fr = FlightRecorder::new(1, 4);
        assert!(!fr.handle(RankId(7)).is_enabled());
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let fr = FlightRecorder::disabled();
        assert!(!fr.enabled());
        let rec = fr.handle(RankId(0));
        assert!(!rec.is_enabled());
        rec.record(|| panic!("a disabled recorder builds no event"));
        rec.set_status(|| panic!("nor a status line"));
        assert!(fr.snapshot().is_empty());
        assert!(fr.dump(8, 0..2).contains("disabled"));
    }
}
