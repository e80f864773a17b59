//! Metrics-file ingestion and regression analysis behind `spbc-report`.
//!
//! A metrics JSONL file (`SPBC_METRICS`) interleaves two row shapes:
//!
//! * **run summaries** — one per measured run, emitted by
//!   [`crate::obs::emit_metrics`]; keyed by `"label"`, counters are
//!   cumulative for that run.
//! * **sampler deltas** — periodic rows from the background sampler
//!   ([`spbc_core::sampler`]); keyed by `"sample"`, counters are deltas
//!   since the previous row.
//!
//! Aggregation prefers summaries (each is a complete run); when a file
//! holds only sampler rows, their deltas are summed — histogram merge is
//! additive, so both paths land in the same [`PhaseSnapshot`].
//!
//! [`compare`] implements `spbc-report --compare`: per-phase p99 against a
//! baseline metrics file, with a percentage threshold and an absolute floor
//! below which differences are noise (adjacent histogram buckets are 2×
//! apart, so thresholds under ~100% are only meaningful against a baseline
//! recorded on the same host).

use spbc_core::hist::{HistSnapshot, Phase, PhaseSnapshot, BUCKETS};
use spbc_trace::json::{parse, Json};
use std::collections::BTreeMap;

/// Everything `spbc-report` prints, folded out of one metrics file.
#[derive(Debug, Default)]
pub struct RunAggregate {
    /// Merged per-phase latency histograms.
    pub phases: PhaseSnapshot,
    /// Summed counters (every numeric top-level field except row keys).
    pub counters: BTreeMap<String, u64>,
    /// Labels of the run-summary rows, in file order.
    pub labels: Vec<String>,
    /// Run-summary rows seen.
    pub summary_rows: usize,
    /// Sampler delta rows seen.
    pub sampler_rows: usize,
}

impl RunAggregate {
    /// A summed counter, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Parse one phase-histogram object (`{"buckets":[...],"sum":N,"max":N}`).
fn hist_of(v: &Json) -> Option<HistSnapshot> {
    let arr = v.get("buckets")?.as_arr()?;
    let mut h = HistSnapshot::default();
    for (i, b) in arr.iter().take(BUCKETS).enumerate() {
        h.buckets[i] = b.as_num()? as u64;
    }
    h.sum = v.get("sum")?.as_num()? as u64;
    h.max = v.get("max")?.as_num()? as u64;
    Some(h)
}

/// Fold a row's `"phases"` object into `out` (unknown phase names are
/// ignored so old reports survive taxonomy growth).
fn merge_phases(out: &mut PhaseSnapshot, row: &Json) {
    let Some(Json::Obj(map)) = row.get("phases") else { return };
    for phase in Phase::ALL {
        if let Some(h) = map.get(phase.name()).and_then(hist_of) {
            out.get_mut(phase).merge(&h);
        }
    }
}

/// Fold every numeric top-level field of `row` into `counters` (row-shape
/// keys and the object-valued `phases` are skipped; gauges — occupancy
/// readings, not event counts — take the max rather than the sum).
fn merge_counters(counters: &mut BTreeMap<String, u64>, row: &Json) {
    let Json::Obj(map) = row else { return };
    for (k, v) in map {
        if matches!(k.as_str(), "label" | "sample" | "t_us") {
            continue;
        }
        let Some(n) = v.as_num() else { continue };
        let n = n as u64;
        let slot = counters.entry(k.clone()).or_insert(0);
        if matches!(k.as_str(), "cas_unique_bytes" | "log_live_bytes") {
            *slot = (*slot).max(n);
        } else {
            *slot += n;
        }
    }
}

/// Aggregate a metrics JSONL body. Returns an error naming the first
/// malformed line (torn rows are a sampler bug the CI gate must surface).
pub fn parse_jsonl(body: &str) -> Result<RunAggregate, String> {
    let mut summaries = RunAggregate::default();
    let mut samples = RunAggregate::default();
    for (lineno, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row = parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if let Some(label) = row.get("label").and_then(Json::as_str) {
            summaries.labels.push(label.to_string());
            summaries.summary_rows += 1;
            merge_phases(&mut summaries.phases, &row);
            merge_counters(&mut summaries.counters, &row);
        } else if row.get("sample").is_some() {
            samples.sampler_rows += 1;
            merge_phases(&mut samples.phases, &row);
            merge_counters(&mut samples.counters, &row);
        } else {
            return Err(format!("line {}: neither a summary nor a sampler row", lineno + 1));
        }
    }
    // Summaries are authoritative when present: sampler rows of the same
    // run would double-count every event.
    if summaries.summary_rows > 0 {
        summaries.sampler_rows = samples.sampler_rows;
        Ok(summaries)
    } else {
        Ok(samples)
    }
}

/// One phase whose p99 regressed past the gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The regressed phase.
    pub phase: Phase,
    /// Baseline p99 (µs).
    pub baseline_p99: u64,
    /// Current p99 (µs).
    pub current_p99: u64,
    /// Observed regression in percent (already past the threshold).
    pub pct: f64,
}

/// Gate `current` against `baseline`: a phase regresses when its p99
/// exceeds the baseline p99 by more than `max_regress_pct` percent AND
/// exceeds `floor_us` (absolute noise floor — sub-floor latencies never
/// fail the gate). Phases the baseline never recorded are skipped: no
/// baseline, no gate.
pub fn compare(
    current: &RunAggregate,
    baseline: &RunAggregate,
    max_regress_pct: f64,
    floor_us: u64,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for phase in Phase::ALL {
        let base = baseline.phases.get(phase);
        let cur = current.phases.get(phase);
        if base.is_empty() || cur.is_empty() {
            continue;
        }
        let (b, c) = (base.p99(), cur.p99());
        if c <= floor_us {
            continue;
        }
        let limit = b as f64 * (1.0 + max_regress_pct / 100.0);
        if c as f64 > limit {
            let pct = if b == 0 { f64::INFINITY } else { (c as f64 / b as f64 - 1.0) * 100.0 };
            out.push(Regression { phase, baseline_p99: b, current_p99: c, pct });
        }
    }
    out
}

/// The slowest checkpoint wave in a Chrome trace, with its per-phase
/// breakdown: the durations of one rank's `phase` spans of one wave.
#[derive(Debug, Default)]
pub struct SlowestWave {
    /// Epoch of the slowest wave.
    pub epoch: u64,
    /// Rank (trace tid) that took it.
    pub tid: u64,
    /// Phase durations, slowest first.
    pub phases: Vec<(String, u64)>,
    /// Total of the phase durations (µs).
    pub total_us: u64,
}

/// Scan a Chrome trace for the wave with the largest summed phase time.
/// A wave is one rank's epoch in one incarnation (counted by the track's
/// `rank-start` instants), so a wave re-taken after a restart is its own,
/// and a restore phase belongs to no wave. `None` when the trace holds no
/// wave phase spans.
pub fn slowest_wave(trace_json: &str) -> Option<SlowestWave> {
    let doc = parse(trace_json).ok()?;
    let events = doc.get("traceEvents")?.as_arr()?;
    let mut starts: BTreeMap<u64, u32> = BTreeMap::new();
    let mut begun: BTreeMap<&str, f64> = BTreeMap::new();
    let mut waves: BTreeMap<(u64, u32, u64), BTreeMap<String, u64>> = BTreeMap::new();
    for ev in events {
        let field = |key| ev.get(key).and_then(Json::as_str).unwrap_or("");
        let tid = ev.get("tid").and_then(Json::as_num).unwrap_or(0.0) as u64;
        let ts = ev.get("ts").and_then(Json::as_num).unwrap_or(0.0);
        match (field("ph"), field("cat")) {
            ("i", _) if field("name") == "rank-start" => *starts.entry(tid).or_default() += 1,
            ("b", "phase") => _ = begun.insert(field("id"), ts),
            ("e", "phase") => {
                let Some(begin) = begun.remove(field("id")) else { continue };
                let Some((phase, epoch)) = field("name").rsplit_once(" e") else { continue };
                let Ok(epoch) = epoch.parse() else { continue };
                if phase.starts_with("restore_") {
                    continue;
                }
                let wave = (tid, starts.get(&tid).copied().unwrap_or(0), epoch);
                *waves.entry(wave).or_default().entry(phase.into()).or_default() +=
                    (ts - begin) as u64;
            }
            _ => {}
        }
    }
    let mut best: Option<SlowestWave> = None;
    for ((tid, _, epoch), phases) in waves {
        let mut phases: Vec<(String, u64)> = phases.into_iter().collect();
        phases.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let total_us = phases.iter().map(|&(_, us)| us).sum();
        if best.as_ref().is_none_or(|b| total_us > b.total_us) {
            best = Some(SlowestWave { epoch, tid, phases, total_us });
        }
    }
    best
}

/// Render the per-phase latency table (phases with data only).
pub fn phase_table(agg: &RunAggregate) -> String {
    let mut t = crate::report::TextTable::new(&[
        "phase", "count", "p50_us", "p90_us", "p99_us", "max_us", "mean_us",
    ]);
    for phase in Phase::ALL {
        let h = agg.phases.get(phase);
        if h.is_empty() {
            continue;
        }
        let mean = h.sum as f64 / h.count() as f64;
        t.row(vec![
            phase.name().to_string(),
            h.count().to_string(),
            h.p50().to_string(),
            h.p90().to_string(),
            h.p99().to_string(),
            h.max().to_string(),
            crate::report::f2(mean),
        ]);
    }
    if t.is_empty() {
        "  (no phase histograms in this file)\n".to_string()
    } else {
        t.render()
    }
}

/// Render the dedup / replication byte breakdown.
pub fn bytes_table(agg: &RunAggregate) -> String {
    let logical = agg.counter("ckpt_bytes_logical");
    let physical = agg.counter("ckpt_bytes_physical");
    let repl_logical = agg.counter("repl_bytes_logical");
    let repl = agg.counter("repl_bytes");
    let ratio = |l: u64, p: u64| {
        if p == 0 {
            "-".to_string()
        } else {
            crate::report::f2(l as f64 / p as f64)
        }
    };
    let mut t = TextTableBytes::new();
    t.push("checkpoint", logical, physical, ratio(logical, physical));
    t.push("replication", repl_logical, repl, ratio(repl_logical, repl));
    t.push(
        "cas store",
        agg.counter("cas_hit_bytes") + agg.counter("cas_unique_bytes"),
        agg.counter("cas_unique_bytes"),
        ratio(
            agg.counter("cas_hit_bytes") + agg.counter("cas_unique_bytes"),
            agg.counter("cas_unique_bytes"),
        ),
    );
    t.render()
}

/// Render the sender-log section: what was logged, what receiver-checkpoint
/// GC released, and the most any one rank held at once (`log_live_bytes`).
/// Empty for metrics files that predate log GC.
pub fn log_table(agg: &RunAggregate) -> String {
    if !agg.counters.contains_key("log_gc_notices") {
        return String::new();
    }
    let mut t = crate::report::TextTable::new(&["sender log", "value"]);
    for key in [
        "logged_msgs",
        "logged_bytes",
        "log_gc_notices",
        "log_pruned_msgs",
        "log_pruned_bytes",
        "log_live_bytes",
    ] {
        t.row(vec![key.into(), agg.counter(key).to_string()]);
    }
    t.render()
}

/// Tiny adapter keeping the byte rows uniform.
struct TextTableBytes(crate::report::TextTable);

impl TextTableBytes {
    fn new() -> Self {
        TextTableBytes(crate::report::TextTable::new(&[
            "path",
            "logical_B",
            "physical_B",
            "dedup_x",
        ]))
    }
    fn push(&mut self, name: &str, logical: u64, physical: u64, ratio: String) {
        self.0.row(vec![name.to_string(), logical.to_string(), physical.to_string(), ratio]);
    }
    fn render(&self) -> String {
        self.0.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_mpi::recorder::{Event, RankTrace, TimedEvent};
    use spbc_core::Metrics;

    /// A summary row with phase data, rendered exactly like the harness
    /// does it (via `MetricsSnapshot::append_to`).
    fn summary_row(label: &str, encode_us: &[u64]) -> String {
        let m = Metrics::new();
        Metrics::add(&m.ckpt_bytes_logical, 1000);
        Metrics::add(&m.ckpt_bytes_physical, 250);
        for &us in encode_us {
            m.phase.record(Phase::Encode, us);
            m.phase.record(Phase::CommitBarrier, us / 2);
        }
        let mut obj = spbc_trace::JsonObj::new();
        obj.field_str("label", label);
        obj.field("wall_us", 5000);
        obj.field("failures_handled", 0);
        m.snapshot().append_to(&mut obj);
        obj.finish()
    }

    #[test]
    fn summaries_win_over_sampler_rows() {
        let body = format!(
            "{}\n{{\"sample\":0,\"t_us\":10,\"checkpoints\":7}}\n",
            summary_row("run/a", &[100, 200])
        );
        let agg = parse_jsonl(&body).expect("parses");
        assert_eq!(agg.summary_rows, 1);
        assert_eq!(agg.sampler_rows, 1);
        assert_eq!(agg.labels, vec!["run/a"]);
        assert_eq!(agg.phases.get(Phase::Encode).count(), 2, "sampler row not double-counted");
        assert_eq!(agg.counter("ckpt_bytes_logical"), 1000);
    }

    #[test]
    fn sampler_only_files_sum_deltas() {
        let body = "{\"sample\":0,\"t_us\":10,\"checkpoints\":3}\n\
                    {\"sample\":1,\"t_us\":20,\"checkpoints\":4}\n";
        let agg = parse_jsonl(body).expect("parses");
        assert_eq!(agg.summary_rows, 0);
        assert_eq!(agg.counter("checkpoints"), 7);
    }

    #[test]
    fn torn_line_is_an_error() {
        let err = parse_jsonl("{\"sample\":0,\"t_us\":1,\"che").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn compare_flags_synthetic_2x_regression() {
        let base = parse_jsonl(&summary_row("base", &[1000, 1000, 1000])).expect("base");
        // Same shape, but encode latencies shifted 2 buckets up (4x).
        let cur = parse_jsonl(&summary_row("cur", &[4000, 4000, 4000])).expect("cur");
        let regs = compare(&cur, &base, 50.0, 100);
        assert!(
            regs.iter().any(|r| r.phase == Phase::Encode),
            "2x+ regression must trip a 50% gate: {regs:?}"
        );
        for r in &regs {
            assert!(r.current_p99 > r.baseline_p99);
            assert!(r.pct > 50.0);
        }
        // The same data against itself passes.
        assert!(compare(&base, &base, 50.0, 100).is_empty());
        // A sky-high floor silences everything.
        assert!(compare(&cur, &base, 50.0, u64::MAX).is_empty());
    }

    #[test]
    fn phases_missing_from_baseline_are_skipped() {
        let base = parse_jsonl("{\"sample\":0,\"t_us\":1,\"checkpoints\":1}\n").expect("base");
        let cur = parse_jsonl(&summary_row("cur", &[4000])).expect("cur");
        assert!(compare(&cur, &base, 50.0, 0).is_empty(), "no baseline, no gate");
    }

    fn te(t_us: u64, seq: u64, event: Event) -> TimedEvent {
        TimedEvent { t_us, seq, event }
    }

    fn done(t_us: u64, seq: u64, epoch: u64, phase: &'static str, us: u64) -> TimedEvent {
        te(t_us, seq, Event::CkptPhaseDone { epoch, phase, us })
    }

    #[test]
    fn slowest_wave_sums_phase_spans() {
        let log = vec![
            RankTrace {
                rank: 3,
                events: vec![done(20, 0, 1, "encode", 7), done(30, 1, 1, "commit_barrier", 5)],
                ..RankTrace::default()
            },
            RankTrace {
                rank: 4,
                events: vec![done(80, 0, 2, "encode", 70), done(90, 1, 2, "write", 30)],
                ..RankTrace::default()
            },
        ];
        let w = slowest_wave(&spbc_trace::chrome_trace(&log)).expect("wave found");
        assert_eq!(w.epoch, 2);
        assert_eq!(w.tid, 4);
        assert_eq!(w.total_us, 100);
        assert_eq!(w.phases[0], ("encode".to_string(), 70));
        assert!(slowest_wave(&spbc_trace::chrome_trace(&Vec::new())).is_none());
    }

    /// A rank takes wave 2, restarts, restores wave 2 and re-takes wave 3.
    /// The restore is no wave's, and the first incarnation's wave 3 (cut
    /// short by the kill) is not the second's.
    #[test]
    fn restore_and_restart_split_waves() {
        let log = vec![RankTrace {
            rank: 2,
            events: vec![
                te(0, 0, Event::RankStart { epoch: 0 }),
                done(100, 1, 2, "quiesce", 40),
                done(120, 2, 2, "commit_barrier", 20),
                done(150, 3, 3, "quiesce", 30),
                te(160, 4, Event::RankKilled),
                te(200, 5, Event::RankStart { epoch: 1 }),
                done(300, 6, 2, "restore_load", 90),
                done(310, 7, 2, "restore_materialize", 10),
                done(400, 8, 3, "quiesce", 35),
                done(430, 9, 3, "commit_barrier", 30),
            ],
            ..RankTrace::default()
        }];
        let w = slowest_wave(&spbc_trace::chrome_trace(&log)).expect("wave found");
        assert_eq!((w.epoch, w.total_us), (3, 65), "{w:?}");
        assert_eq!(w.phases, [("quiesce".to_string(), 35), ("commit_barrier".to_string(), 30)]);
    }

    #[test]
    fn log_section_sums_counters_and_keeps_the_live_peak() {
        let row = |live: u64| {
            let m = Metrics::new();
            Metrics::add(&m.log_gc_notices, 4);
            Metrics::add(&m.log_pruned_bytes, 1000);
            Metrics::max(&m.log_live_bytes, live);
            let mut obj = spbc_trace::JsonObj::new();
            obj.field_str("label", "run");
            m.snapshot().append_to(&mut obj);
            obj.finish()
        };
        let agg = parse_jsonl(&format!("{}\n{}\n", row(700), row(300))).expect("parses");
        assert_eq!(agg.counter("log_pruned_bytes"), 2000);
        assert_eq!(agg.counter("log_live_bytes"), 700, "a gauge takes the max across rows");
        let section = log_table(&agg);
        assert!(section.contains("log_gc_notices"), "{section}");
        assert!(section.contains("log_live_bytes"), "{section}");
        let old = parse_jsonl("{\"sample\":0,\"t_us\":1,\"checkpoints\":1}\n").expect("parses");
        assert!(log_table(&old).is_empty());
    }

    #[test]
    fn tables_render_for_real_rows() {
        let agg = parse_jsonl(&summary_row("run", &[100, 900, 2000])).expect("parses");
        let pt = phase_table(&agg);
        assert!(pt.contains("encode"), "{pt}");
        assert!(pt.contains("commit_barrier"), "{pt}");
        let bt = bytes_table(&agg);
        assert!(bt.contains("checkpoint"), "{bt}");
        assert!(bt.contains("4.00"), "1000/250 dedup ratio renders: {bt}");
    }
}
