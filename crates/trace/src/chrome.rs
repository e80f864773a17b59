//! Chrome trace-event exporter for flight-recorder logs.
//!
//! Converts a [`FlightLog`] into the Chrome trace-event JSON format (the
//! `{"traceEvents":[...]}` object form), loadable in Perfetto or
//! `chrome://tracing`. Each rank is a named thread track (`tid` = rank).
//! Every span is async (`ph` `b`/`e`, one id per flow), so overlapping
//! flows don't fight over the thread stack:
//! * each `CkptPhaseDone` is one span `"<phase> e<epoch>"` (cat `phase`)
//!   ending at its record and as long as its sample: the wave's quiesce,
//!   replicate and commit-barrier spans tile it, and a disk store's `write`
//!   runs beside replicate;
//! * replay windows per destination, and replication push→ack exchanges
//!   per partner.
//!
//! Every other event is a thread-scoped instant (`ph` `i`) carrying its
//! display text as `args`: a transition-table row is named by its row, and
//! a `ckpt-write` submit carries its physical and logical bytes and dedup.

use crate::json::escape;
use mini_mpi::recorder::{Event, FlightLog, RankTrace, TimedEvent};

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
    out.push(Emit {
        t_us: 0,
        body: format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
            escape(&format!("rank {tid}"))
        ),
    });

    // Open async spans (replay windows, replication exchanges): (id, name,
    // cat) tuples still awaiting their end.
    let mut open_async: OpenAsync = Vec::new();
    let mut last_ts = 0u64;

    for ev in &trace.events {
        last_ts = last_ts.max(ev.t_us);
        match &ev.event {
            Event::CkptPhaseDone { epoch, phase, us } => {
                let (id, name) =
                    (format!("{phase} r{tid} #{}", ev.seq), format!("{phase} e{epoch}"));
                out.push(edge("b", tid, ev.t_us.saturating_sub(*us), &id, &name, "phase"));
                out.push(edge("e", tid, ev.t_us, &id, &name, "phase"));
            }
            Event::Row { row, .. } => out.push(instant(tid, ev, row, "row", "")),
            Event::CkptWrite { bytes, logical, .. } => {
                let dedup = if *bytes > 0 { *logical as f64 / *bytes as f64 } else { 1.0 };
                let args =
                    format!(",\"physical\":{bytes},\"logical\":{logical},\"dedup\":{dedup:.2}");
                out.push(instant(tid, ev, "ckpt-write", "ckptstore", &args));
            }
            Event::ReplayQueued { dst, .. } => {
                let id = format!("replay r{tid}->r{dst}");
                let name = format!("replay->r{dst}");
                // A fresh Rollback supersedes the active window for the same
                // destination: close it before opening the new one.
                open_span(&mut open_async, out, tid, ev.t_us, id, name, "replay");
                out.push(instant(tid, ev, "replay-queued", "replay", ""));
            }
            Event::ReplayDrained { dst } => {
                let id = format!("replay r{tid}->r{dst}");
                close_span(&mut open_async, out, tid, ev.t_us, &id);
                out.push(instant(tid, ev, "replay-drained", "replay", ""));
            }
            Event::CkptReplPush { partner, .. } => {
                // Push→ack flow per partner; a retry re-push supersedes the
                // unacked span for that partner.
                let id = format!("repl r{tid}->r{partner}");
                let name = format!("repl->r{partner}");
                open_span(&mut open_async, out, tid, ev.t_us, id, name, "ckptstore");
                out.push(instant(tid, ev, "repl-push", "ckptstore", ""));
            }
            Event::CkptReplAck { partner, .. } => {
                let id = format!("repl r{tid}->r{partner}");
                close_span(&mut open_async, out, tid, ev.t_us, &id);
                out.push(instant(tid, ev, "repl-ack", "ckptstore", ""));
            }
            other => {
                let (name, cat) = classify(other);
                out.push(instant(tid, ev, name, cat, ""));
            }
        }
    }

    // Balance: close anything still open at the trace's end.
    for (id, name, cat) in open_async {
        out.push(edge("e", tid, last_ts + 1, &id, &name, cat));
    }
}

/// Open async span bookkeeping: (id, name, category).
type OpenAsync = Vec<(String, String, &'static str)>;

/// Begin an async span, superseding any still-open span with the same id (a
/// re-queued replay window, a re-pushed replica) — Chrome requires `b`/`e`
/// balance per id.
fn open_span(
    open: &mut OpenAsync,
    out: &mut Vec<Emit>,
    tid: u32,
    ts: u64,
    id: String,
    name: String,
    cat: &'static str,
) {
    close_span(open, out, tid, ts, &id);
    out.push(edge("b", tid, ts, &id, &name, cat));
    open.push((id, name, cat));
}

/// Close the async span with `id`, if one is open.
fn close_span(open: &mut OpenAsync, out: &mut Vec<Emit>, tid: u32, ts: u64, id: &str) {
    if let Some(i) = open.iter().position(|(oid, _, _)| oid == id) {
        let (oid, oname, ocat) = open.remove(i);
        out.push(edge("e", tid, ts, &oid, &oname, ocat));
    }
}

/// An async span's begin (`ph` `b`) or end (`e`).
fn edge(ph: &str, tid: u32, ts: u64, id: &str, name: &str, cat: &str) -> Emit {
    Emit {
        t_us: ts,
        body: format!(
            "{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":{tid},\"ts\":{ts},\"id\":{},\"name\":{},\"cat\":{}}}",
            escape(id),
            escape(name),
            escape(cat)
        ),
    }
}

/// A thread-scoped instant; `args` are extra pre-rendered `,"key":value`
/// pairs after the event's sequence number and display text.
fn instant(tid: u32, ev: &TimedEvent, name: &str, cat: &str, args: &str) -> Emit {
    Emit {
        t_us: ev.t_us,
        body: format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"name\":{},\"cat\":{},\"args\":{{\"seq\":{},\"detail\":{}{args}}}}}",
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
        // Span-forming and argument-carrying kinds are handled by the
        // caller; keep a fallback so the match stays exhaustive.
        Event::Row { .. }
        | Event::CkptPhaseDone { .. }
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

    fn row(row: &'static str, epoch: u64) -> Event {
        Event::Row { row, epoch }
    }

    fn done(epoch: u64, phase: &'static str, us: u64) -> Event {
        Event::CkptPhaseDone { epoch, phase, us }
    }

    /// A synthetic two-rank timeline exercising every span kind: a complete
    /// wave whose phase spans tile it, with a disk write that ends inside
    /// its replicate span, an interrupted wave, a drained replay window and
    /// a superseded one, and a replication push→ack exchange (one acked, one
    /// left hanging).
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
                    te(10, 3, row("member/Idle/Call(open)", 1)),
                    te(12, 4, row("member/Quiescing/Commit", 1)),
                    te(12, 5, done(1, "quiesce", 2)),
                    te(13, 6, done(1, "encode", 1)),
                    te(13, 7, Event::CkptWrite { epoch: 1, bytes: 32, logical: 96 }),
                    te(13, 8, row("member/Writing/Encoded", 1)),
                    te(14, 9, row("member/Writing/Replicas", 1)),
                    te(14, 10, Event::CkptReplPush { partner: RankId(1), epoch: 1, bytes: 96 }),
                    // The disk write, submitted at 13, is done inside the
                    // replicate span.
                    te(15, 11, done(1, "write", 2)),
                    te(16, 12, Event::CkptReplAck { partner: RankId(1), epoch: 1 }),
                    te(16, 13, row("member/Replicating/BlobAck", 1)),
                    te(16, 14, done(1, "replicate", 2)),
                    te(17, 15, row("member/Flushing/Flushed", 1)),
                    te(20, 16, row("member/AwaitingResume/Resume", 1)),
                    te(20, 17, done(1, "commit_barrier", 4)),
                    te(26, 18, Event::CkptGc { pruned: 1, keep_from: 1 }),
                    te(27, 19, Event::LogGc { dst: RankId(1), comm: 0, upto: 1, entries: 1 }),
                    te(30, 20, Event::ReplayQueued { dst: RankId(1), msgs: 2 }),
                    te(31, 21, Event::Replay { dst: RankId(1), comm: 0, seqnum: 1 }),
                    te(32, 22, Event::Replay { dst: RankId(1), comm: 0, seqnum: 2 }),
                    te(33, 23, Event::ReplayDrained { dst: RankId(1) }),
                    // Superseded window: re-queued, never drained.
                    te(40, 24, Event::ReplayQueued { dst: RankId(1), msgs: 1 }),
                    te(41, 25, Event::ReplayQueued { dst: RankId(1), msgs: 3 }),
                    te(50, 26, Event::RankDone),
                ],
            },
            RankTrace {
                rank: 1,
                dropped: 2,
                status: Some((60, "stuck in wait".into())),
                events: vec![
                    te(2, 2, Event::RankStart { epoch: 1 }),
                    te(3, 3, Event::Rollback { epoch: 1, restored_ckpt: 1 }),
                    te(4, 4, Event::CkptRepair { epoch: 1, from: RankId(0) }),
                    te(4, 5, done(1, "restore_load", 1)),
                    te(5, 6, row("recovery/Start", 1)),
                    te(
                        7,
                        7,
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
                    te(22, 9, Event::CkptRelease { owner: RankId(0), pruned: 1, keep_from: 1 }),
                    // Interrupted wave: opened, never resumed, and a replica
                    // push the dead partner never acked.
                    te(45, 10, row("member/Idle/Call(open)", 2)),
                    te(46, 11, Event::CkptReplPush { partner: RankId(0), epoch: 2, bytes: 96 }),
                    te(58, 12, Event::Stall { what: "wait".into() }),
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

    /// `(begin, end)` of the async span named `name`.
    fn span(doc: &Json, name: &str) -> (f64, f64) {
        let ts = |ph: &str| {
            trace_events(doc)
                .iter()
                .find(|e| {
                    e.get("ph").and_then(Json::as_str) == Some(ph)
                        && e.get("name").and_then(Json::as_str) == Some(name)
                })
                .and_then(|e| e.get("ts")?.as_num())
                .unwrap_or_else(|| panic!("no {ph} of {name}"))
        };
        (ts("b"), ts("e"))
    }

    #[test]
    fn spans_are_balanced() {
        let out = chrome_trace(&synthetic_log());
        let doc = parse(&out).unwrap();
        // The disk write ends inside the replicate span: spans overlap.
        let (write, replicate) = (span(&doc, "write e1"), span(&doc, "replicate e1"));
        assert!(replicate.0 < write.1 && write.1 < replicate.1, "{write:?} {replicate:?}");
        // Async b/e: per id, open exactly balances close, and an end never
        // precedes its begin.
        let mut async_open: HashMap<String, i64> = HashMap::new();
        for e in trace_events(&doc) {
            let ph = e.get("ph").and_then(Json::as_str).unwrap();
            // Every span is async: the thread stack holds none.
            assert!(!matches!(ph, "B" | "E"), "a synchronous span: {e:?}");
            match ph {
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
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("b"))
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        for phase in ["quiesce", "encode", "write", "replicate", "commit_barrier", "restore_load"] {
            let name = format!("{phase} e1");
            assert!(span_names.contains(&name.as_str()), "{name}: {span_names:?}");
        }
        assert!(span_names.contains(&"replay->r1"), "{span_names:?}");
        assert!(span_names.contains(&"repl->r1"), "{span_names:?}");
        assert!(span_names.contains(&"repl->r0"), "unacked push still opens");
        let instants: Vec<&str> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(instants.contains(&"log-gc"), "{instants:?}");
        assert!(instants.contains(&"ckpt-release"), "{instants:?}");
        // Rows are instants named by their row, an interrupted wave's too.
        let opened = instants.iter().filter(|&&i| i == "member/Idle/Call(open)").count();
        assert_eq!(opened, 2, "{instants:?}");
        assert!(instants.contains(&"recovery/Start"), "{instants:?}");
    }

    #[test]
    fn ckpt_write_instant_carries_dedup_args() {
        let out = chrome_trace(&synthetic_log());
        let doc = parse(&out).unwrap();
        let submit = trace_events(&doc)
            .iter()
            .find(|e| {
                e.get("ph").and_then(Json::as_str) == Some("i")
                    && e.get("name").and_then(Json::as_str) == Some("ckpt-write")
            })
            .expect("ckpt-write instant present");
        assert_eq!(submit.get("ts").and_then(Json::as_num), Some(13.0));
        let args = submit.get("args").expect("instant has args");
        assert_eq!(args.get("physical").and_then(Json::as_num), Some(32.0));
        assert_eq!(args.get("logical").and_then(Json::as_num), Some(96.0));
        assert_eq!(args.get("dedup").and_then(Json::as_num), Some(3.0));
        // Each phase span ends at its record and is as long as its sample:
        // the commit barrier runs from the last BLOB_ACK to RESUME.
        assert_eq!(span(&doc, "commit_barrier e1"), (16.0, 20.0));
        assert_eq!(span(&doc, "quiesce e1"), (10.0, 12.0));
        assert_eq!(span(&doc, "replicate e1"), (14.0, 16.0));
    }

    #[test]
    fn empty_log_is_still_valid() {
        let out = chrome_trace(&Vec::new());
        let doc = parse(&out).unwrap();
        assert_eq!(trace_events(&doc).len(), 0);
    }
}
