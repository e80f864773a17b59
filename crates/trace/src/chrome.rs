//! Chrome trace-event exporter for flight-recorder logs.
//!
//! Converts a [`FlightLog`] into the Chrome trace-event JSON format (the
//! `{"traceEvents":[...]}` object form), loadable in Perfetto or
//! `chrome://tracing`. Each rank is a named thread track (`tid` = rank);
//! checkpoint rounds are synchronous duration spans (`ph` `B`/`E`), while
//! replay windows, asynchronous checkpoint writes, and replication
//! push→ack exchanges are async spans (`ph` `b`/`e`, one id per logical
//! flow, so overlapping flows don't fight over the thread stack), and every
//! other protocol event is a thread-scoped instant (`ph` `i`) carrying its
//! fields as `args`. The write/replication spans make the storage overlap
//! visible: a `ckpt-write` span stretching past the `ckpt` round is exactly
//! the disk latency the async writer hid from the commit barrier.

use crate::json::escape;
use mini_mpi::recorder::{CkptPhase, Event, FlightLog, RankTrace, TimedEvent, WritePhase};

/// One emitted trace-event line.
struct Emit {
    t_us: u64,
    body: String,
}

/// Render `log` as Chrome trace-event JSON.
pub fn chrome_trace(log: &FlightLog) -> String {
    let mut events: Vec<Emit> = Vec::new();
    for trace in log {
        emit_rank(trace, &mut events);
    }
    // Chrome sorts by ts, but emitting sorted keeps diffs and tests stable.
    events.sort_by_key(|e| e.t_us);
    let body: Vec<String> = events.into_iter().map(|e| e.body).collect();
    format!("{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}", body.join(","))
}

fn emit_rank(trace: &RankTrace, out: &mut Vec<Emit>) {
    let tid = trace.rank;
    // Pre-scan the whole event list for per-epoch phase latencies so they
    // can ride as args on the wave's `ckpt-write` span even though most
    // phases (replicate, commit-barrier) finish *after* that span opens.
    // BTreeMaps keep the rendered arg order deterministic; a re-committed
    // epoch overwrites, keeping the newest sample.
    let mut phase_us: std::collections::BTreeMap<u64, std::collections::BTreeMap<&str, u64>> =
        std::collections::BTreeMap::new();
    for ev in &trace.events {
        if let Event::CkptPhaseDone { epoch, phase, us } = &ev.event {
            phase_us.entry(*epoch).or_default().insert(phase, *us);
        }
    }
    out.push(Emit {
        t_us: 0,
        body: format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            escape(&format!("rank {tid}"))
        ),
    });

    // Open synchronous span (checkpoint round), if any: (name, begin ts).
    let mut open_ckpt: Option<String> = None;
    // Open async spans (replay windows, checkpoint writes, replication
    // exchanges): (id, name, cat) tuples still awaiting their end.
    let mut open_async: Vec<(String, String, &'static str)> = Vec::new();
    let mut last_ts = 0u64;

    for ev in &trace.events {
        last_ts = last_ts.max(ev.t_us);
        match &ev.event {
            Event::Ckpt { epoch, phase } => {
                let name = format!("ckpt e{epoch}");
                match phase {
                    CkptPhase::Init => {
                        // A re-entered round (previous one never resumed)
                        // must close the stale span first — `B` events on one
                        // tid form a stack.
                        if open_ckpt.take().is_some() {
                            out.push(end_sync(tid, ev.t_us));
                        }
                        open_ckpt = Some(name.clone());
                        out.push(begin_sync(tid, ev.t_us, &name, "ckpt"));
                    }
                    CkptPhase::Resume => {
                        if open_ckpt.take().is_some() {
                            out.push(end_sync(tid, ev.t_us));
                        }
                        out.push(instant(tid, ev, "ckpt-resume", "ckpt"));
                    }
                    CkptPhase::Written | CkptPhase::Ack => {
                        out.push(instant(
                            tid,
                            ev,
                            if *phase == CkptPhase::Written { "ckpt-written" } else { "ckpt-ack" },
                            "ckpt",
                        ));
                    }
                }
            }
            Event::ReplayQueued { dst, .. } => {
                let id = format!("replay r{tid}->r{dst}");
                let name = format!("replay->r{dst}");
                // A fresh Rollback supersedes the active window for the same
                // destination: close it before opening the new one.
                open_span(&mut open_async, out, tid, ev.t_us, id, name, "replay");
                out.push(instant(tid, ev, "replay-queued", "replay"));
            }
            Event::ReplayDrained { dst } => {
                let id = format!("replay r{tid}->r{dst}");
                close_span(&mut open_async, out, tid, ev.t_us, &id);
                out.push(instant(tid, ev, "replay-drained", "replay"));
            }
            Event::CkptWrite { epoch, bytes, logical, phase } => {
                // One write in flight per rank: the double-buffered writer
                // holds at most one queued + one running job, and a second
                // Submitted before Completed means coalescing replaced the
                // older job (the superseding open_span closes its span).
                let id = format!("ckpt-write r{tid}");
                match phase {
                    WritePhase::Submitted => {
                        let name = format!("ckpt-write e{epoch}");
                        // Dedup accounting on the span itself: bytes written
                        // vs full-write equivalent.
                        let dedup = if *bytes > 0 { *logical as f64 / *bytes as f64 } else { 1.0 };
                        let mut args = format!(
                            "{{\"physical\":{bytes},\"logical\":{logical},\"dedup\":{dedup:.2}"
                        );
                        if let Some(phases) = phase_us.get(epoch) {
                            for (phase, us) in phases {
                                args.push_str(&format!(",\"{phase}_us\":{us}"));
                            }
                        }
                        args.push('}');
                        open_span_with_args(
                            &mut open_async,
                            out,
                            tid,
                            ev.t_us,
                            id,
                            name,
                            "ckptstore",
                            Some(&args),
                        );
                        out.push(instant(tid, ev, "ckpt-write-submit", "ckptstore"));
                    }
                    WritePhase::Completed => {
                        close_span(&mut open_async, out, tid, ev.t_us, &id);
                        out.push(instant(tid, ev, "ckpt-write-done", "ckptstore"));
                    }
                }
            }
            Event::CkptReplPush { partner, .. } => {
                // Push→ack flow per partner; a retry re-push supersedes the
                // unacked span for that partner.
                let id = format!("repl r{tid}->r{partner}");
                let name = format!("repl->r{partner}");
                open_span(&mut open_async, out, tid, ev.t_us, id, name, "ckptstore");
                out.push(instant(tid, ev, "repl-push", "ckptstore"));
            }
            Event::CkptReplAck { partner, .. } => {
                let id = format!("repl r{tid}->r{partner}");
                close_span(&mut open_async, out, tid, ev.t_us, &id);
                out.push(instant(tid, ev, "repl-ack", "ckptstore"));
            }
            other => {
                let (name, cat) = classify(other);
                out.push(instant(tid, ev, name, cat));
            }
        }
    }

    // Balance: close anything still open at the trace's end.
    let close_ts = last_ts + 1;
    if open_ckpt.take().is_some() {
        out.push(end_sync(tid, close_ts));
    }
    for (id, name, cat) in open_async {
        out.push(end_async(tid, close_ts, &id, &name, cat));
    }
}

/// Open async span bookkeeping: (id, name, category).
type OpenAsync = Vec<(String, String, &'static str)>;

/// Begin an async span, superseding any still-open span with the same id (a
/// re-queued replay window, a coalesced write, a re-pushed replica) — Chrome
/// requires `b`/`e` balance per id.
fn open_span(
    open: &mut OpenAsync,
    out: &mut Vec<Emit>,
    tid: u32,
    ts: u64,
    id: String,
    name: String,
    cat: &'static str,
) {
    open_span_with_args(open, out, tid, ts, id, name, cat, None);
}

/// [`open_span`] with an optional pre-rendered JSON `args` object attached
/// to the begin event (e.g. the ckpt-write span's dedup accounting).
#[allow(clippy::too_many_arguments)]
fn open_span_with_args(
    open: &mut OpenAsync,
    out: &mut Vec<Emit>,
    tid: u32,
    ts: u64,
    id: String,
    name: String,
    cat: &'static str,
    args: Option<&str>,
) {
    close_span(open, out, tid, ts, &id);
    out.push(begin_async(tid, ts, &id, &name, cat, args));
    open.push((id, name, cat));
}

/// Close the async span with `id`, if one is open.
fn close_span(open: &mut OpenAsync, out: &mut Vec<Emit>, tid: u32, ts: u64, id: &str) {
    if let Some(i) = open.iter().position(|(oid, _, _)| oid == id) {
        let (oid, oname, ocat) = open.remove(i);
        out.push(end_async(tid, ts, &oid, &oname, ocat));
    }
}

fn begin_sync(tid: u32, ts: u64, name: &str, cat: &str) -> Emit {
    Emit {
        t_us: ts,
        body: format!(
            "{{\"ph\":\"B\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"name\":{},\"cat\":{}}}",
            escape(name),
            escape(cat)
        ),
    }
}

fn end_sync(tid: u32, ts: u64) -> Emit {
    Emit { t_us: ts, body: format!("{{\"ph\":\"E\",\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}") }
}

fn begin_async(tid: u32, ts: u64, id: &str, name: &str, cat: &str, args: Option<&str>) -> Emit {
    let args = args.map(|a| format!(",\"args\":{a}")).unwrap_or_default();
    Emit {
        t_us: ts,
        body: format!(
            "{{\"ph\":\"b\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"id\":{},\"name\":{},\"cat\":{}{args}}}",
            escape(id),
            escape(name),
            escape(cat)
        ),
    }
}

fn end_async(tid: u32, ts: u64, id: &str, name: &str, cat: &str) -> Emit {
    Emit {
        t_us: ts,
        body: format!(
            "{{\"ph\":\"e\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"id\":{},\"name\":{},\"cat\":{}}}",
            escape(id),
            escape(name),
            escape(cat)
        ),
    }
}

fn instant(tid: u32, ev: &TimedEvent, name: &str, cat: &str) -> Emit {
    Emit {
        t_us: ev.t_us,
        body: format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"name\":{},\"cat\":{},\"args\":{{\"seq\":{},\"detail\":{}}}}}",
            ev.t_us,
            escape(name),
            escape(cat),
            ev.seq,
            escape(&ev.event.to_string())
        ),
    }
}

/// Instant-event name and category for the remaining event kinds.
fn classify(ev: &Event) -> (&'static str, &'static str) {
    match ev {
        Event::RankStart { .. } => ("rank-start", "lifecycle"),
        Event::RankDone => ("rank-done", "lifecycle"),
        Event::RankKilled => ("rank-killed", "lifecycle"),
        Event::RankError => ("rank-error", "lifecycle"),
        Event::Send { suppressed: true, .. } => ("send-suppressed", "msg"),
        Event::Send { .. } => ("send", "msg"),
        Event::Arrival { .. } => ("arrival", "msg"),
        Event::CtrlSent { .. } => ("ctrl-sent", "ctrl"),
        Event::CtrlRecv { .. } => ("ctrl-recv", "ctrl"),
        Event::LogAppend { .. } => ("log-append", "log"),
        Event::LogTruncate { .. } => ("log-truncate", "log"),
        Event::LogGc { .. } => ("log-gc", "log"),
        Event::Rollback { .. } => ("rollback", "recovery"),
        Event::RollbackRecv { .. } => ("rollback-recv", "recovery"),
        Event::LsSet { .. } => ("ls-set", "recovery"),
        Event::Replay { .. } => ("replay-msg", "replay"),
        Event::Stall { .. } => ("stall", "watchdog"),
        Event::CkptReplStore { .. } => ("repl-store", "ckptstore"),
        Event::CkptRepair { .. } => ("ckpt-repair", "ckptstore"),
        Event::CkptRebuild { .. } => ("ckpt-rebuild", "ckptstore"),
        Event::CkptGc { .. } => ("ckpt-gc", "ckptstore"),
        Event::CkptRelease { .. } => ("ckpt-release", "ckptstore"),
        Event::CkptPhaseDone { .. } => ("ckpt-phase", "ckpt"),
        // Span-forming kinds are handled by the caller; keep a fallback so
        // the match stays exhaustive.
        Event::Ckpt { .. }
        | Event::ReplayQueued { .. }
        | Event::ReplayDrained { .. }
        | Event::CkptWrite { .. }
        | Event::CkptReplPush { .. }
        | Event::CkptReplAck { .. } => ("event", "misc"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use mini_mpi::recorder::{Disposition, RankTrace};
    use mini_mpi::types::RankId;
    use std::collections::HashMap;

    fn te(t_us: u64, seq: u64, event: Event) -> TimedEvent {
        TimedEvent { t_us, seq, event }
    }

    /// A synthetic two-rank timeline exercising every span kind: a complete
    /// checkpoint round, an interrupted one, a drained replay window and a
    /// superseded one, an async checkpoint write overlapping the resume, and
    /// a replication push→ack exchange (one acked, one left hanging).
    fn synthetic_log() -> FlightLog {
        vec![
            RankTrace {
                rank: 0,
                dropped: 0,
                status: None,
                events: vec![
                    te(1, 0, Event::RankStart { epoch: 0 }),
                    te(
                        5,
                        1,
                        Event::Send {
                            dst: RankId(1),
                            comm: 0,
                            tag: 3,
                            seqnum: 1,
                            bytes: 64,
                            suppressed: false,
                        },
                    ),
                    te(6, 2, Event::LogAppend { dst: RankId(1), comm: 0, seqnum: 1, bytes: 64 }),
                    te(10, 3, Event::Ckpt { epoch: 1, phase: CkptPhase::Init }),
                    te(12, 19, Event::CkptPhaseDone { epoch: 1, phase: "encode", us: 7 }),
                    te(
                        13,
                        14,
                        Event::CkptWrite {
                            epoch: 1,
                            bytes: 32,
                            logical: 96,
                            phase: WritePhase::Submitted,
                        },
                    ),
                    te(14, 4, Event::Ckpt { epoch: 1, phase: CkptPhase::Written }),
                    te(14, 15, Event::CkptReplPush { partner: RankId(1), epoch: 1, bytes: 96 }),
                    te(16, 16, Event::CkptReplAck { partner: RankId(1), epoch: 1 }),
                    te(15, 5, Event::Ckpt { epoch: 1, phase: CkptPhase::Ack }),
                    te(20, 6, Event::Ckpt { epoch: 1, phase: CkptPhase::Resume }),
                    // Recorded *after* the write span opened: the pre-scan
                    // must still attach it to the e1 span args.
                    te(21, 20, Event::CkptPhaseDone { epoch: 1, phase: "commit_barrier", us: 5 }),
                    // The background write outlives the checkpoint round —
                    // the hidden-latency overlap the trace must show.
                    te(
                        25,
                        17,
                        Event::CkptWrite {
                            epoch: 1,
                            bytes: 32,
                            logical: 96,
                            phase: WritePhase::Completed,
                        },
                    ),
                    te(26, 18, Event::CkptGc { pruned: 1, keep_from: 1 }),
                    te(27, 21, Event::LogGc { dst: RankId(1), comm: 0, upto: 1, entries: 1 }),
                    te(30, 7, Event::ReplayQueued { dst: RankId(1), msgs: 2 }),
                    te(31, 8, Event::Replay { dst: RankId(1), comm: 0, seqnum: 1 }),
                    te(32, 9, Event::Replay { dst: RankId(1), comm: 0, seqnum: 2 }),
                    te(33, 10, Event::ReplayDrained { dst: RankId(1) }),
                    // Superseded window: re-queued, never drained.
                    te(40, 11, Event::ReplayQueued { dst: RankId(1), msgs: 1 }),
                    te(41, 12, Event::ReplayQueued { dst: RankId(1), msgs: 3 }),
                    te(50, 13, Event::RankDone),
                ],
            },
            RankTrace {
                rank: 1,
                dropped: 2,
                status: Some((60, "stuck in wait".into())),
                events: vec![
                    te(2, 2, Event::RankStart { epoch: 1 }),
                    te(3, 3, Event::Rollback { epoch: 1, restored_ckpt: 1 }),
                    te(4, 7, Event::CkptRepair { epoch: 1, from: RankId(0) }),
                    te(
                        7,
                        4,
                        Event::Arrival {
                            src: RankId(0),
                            comm: 0,
                            tag: 3,
                            seqnum: 1,
                            disposition: Disposition::Matched,
                        },
                    ),
                    te(15, 8, Event::CkptReplStore { owner: RankId(0), epoch: 1, bytes: 96 }),
                    // Rank 0's wave resumed: its older copy here goes.
                    te(22, 10, Event::CkptRelease { owner: RankId(0), pruned: 1, keep_from: 1 }),
                    // Interrupted checkpoint: Init with no Resume, and a
                    // replica push the dead partner never acked.
                    te(45, 5, Event::Ckpt { epoch: 2, phase: CkptPhase::Init }),
                    te(46, 9, Event::CkptReplPush { partner: RankId(0), epoch: 2, bytes: 96 }),
                    te(58, 6, Event::Stall { what: "wait".into() }),
                ],
            },
        ]
    }

    fn trace_events(doc: &Json) -> &[Json] {
        doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array")
    }

    #[test]
    fn exporter_emits_valid_json() {
        let out = chrome_trace(&synthetic_log());
        let doc = parse(&out).expect("exporter output must parse");
        let evs = trace_events(&doc);
        assert!(!evs.is_empty());
        for e in evs {
            assert!(e.get("ph").is_some(), "every event has a phase: {e:?}");
        }
        // Both ranks have named tracks.
        let names: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, vec!["rank 0", "rank 1"]);
    }

    #[test]
    fn spans_are_balanced() {
        let out = chrome_trace(&synthetic_log());
        let doc = parse(&out).unwrap();
        // Synchronous B/E: per tid, stack discipline — depth never negative,
        // zero at the end.
        let mut depth: HashMap<u64, i64> = HashMap::new();
        // Async b/e: per id, open exactly balances close.
        let mut async_open: HashMap<String, i64> = HashMap::new();
        for e in trace_events(&doc) {
            let ph = e.get("ph").and_then(Json::as_str).unwrap();
            match ph {
                "B" => {
                    let tid = e.get("tid").and_then(Json::as_num).unwrap() as u64;
                    *depth.entry(tid).or_default() += 1;
                }
                "E" => {
                    let tid = e.get("tid").and_then(Json::as_num).unwrap() as u64;
                    let d = depth.entry(tid).or_default();
                    *d -= 1;
                    assert!(*d >= 0, "E without matching B on tid {tid}");
                }
                "b" => {
                    let id = e.get("id").and_then(Json::as_str).unwrap().to_string();
                    *async_open.entry(id).or_default() += 1;
                }
                "e" => {
                    let id = e.get("id").and_then(Json::as_str).unwrap().to_string();
                    let d = async_open.entry(id.clone()).or_default();
                    *d -= 1;
                    assert!(*d >= 0, "async end without begin for {id}");
                }
                _ => {}
            }
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced B/E: {depth:?}");
        assert!(async_open.values().all(|&d| d == 0), "unbalanced b/e: {async_open:?}");
    }

    #[test]
    fn timestamps_are_sorted_and_spans_named() {
        let out = chrome_trace(&synthetic_log());
        let doc = parse(&out).unwrap();
        let evs = trace_events(&doc);
        let ts: Vec<f64> = evs.iter().filter_map(|e| e.get("ts")?.as_num()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "events sorted by ts");
        let span_names: Vec<&str> = evs
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(Json::as_str), Some("B" | "b")))
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        assert!(span_names.contains(&"ckpt e1"), "{span_names:?}");
        assert!(span_names.contains(&"ckpt e2"), "interrupted round still opens");
        assert!(span_names.contains(&"replay->r1"), "{span_names:?}");
        assert!(span_names.contains(&"ckpt-write e1"), "{span_names:?}");
        assert!(span_names.contains(&"repl->r1"), "{span_names:?}");
        assert!(span_names.contains(&"repl->r0"), "unacked push still opens");
        let instants: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(instants.contains(&"log-gc"), "{instants:?}");
        assert!(instants.contains(&"ckpt-release"), "{instants:?}");
    }

    #[test]
    fn ckpt_write_span_carries_dedup_args() {
        let out = chrome_trace(&synthetic_log());
        let doc = parse(&out).unwrap();
        let span = trace_events(&doc)
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("b")
                    && e.get("name").and_then(Json::as_str) == Some("ckpt-write e1")
            })
            .expect("ckpt-write span present");
        let args = span.get("args").expect("span has args");
        assert_eq!(args.get("physical").and_then(Json::as_num), Some(32.0));
        assert_eq!(args.get("logical").and_then(Json::as_num), Some(96.0));
        assert_eq!(args.get("dedup").and_then(Json::as_num), Some(3.0));
        // Phase latencies ride on the same span — including the commit
        // barrier, which completed after the span opened.
        assert_eq!(args.get("encode_us").and_then(Json::as_num), Some(7.0));
        assert_eq!(args.get("commit_barrier_us").and_then(Json::as_num), Some(5.0));
    }

    #[test]
    fn empty_log_is_still_valid() {
        let out = chrome_trace(&Vec::new());
        let doc = parse(&out).unwrap();
        assert_eq!(trace_events(&doc).len(), 0);
    }
}
