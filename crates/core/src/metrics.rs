//! Run-wide protocol metrics (lock-free counters shared across rank layers).

use crate::hist::{PhaseHists, PhaseSnapshot};
use spbc_trace::json::JsonObj;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters a protocol run accumulates; read by the experiment harness.
#[derive(Default, Debug)]
pub struct Metrics {
    /// Payload bytes appended to sender-side logs.
    pub logged_bytes: AtomicU64,
    /// Messages appended to sender-side logs.
    pub logged_msgs: AtomicU64,
    /// Messages re-sent from logs during recovery.
    pub replayed_msgs: AtomicU64,
    /// Payload bytes re-sent from logs during recovery.
    pub replayed_bytes: AtomicU64,
    /// Sends suppressed because the receiver already had them (`seq <= LS`).
    pub suppressed_sends: AtomicU64,
    /// Duplicate arrivals dropped by the receiver-side seqnum check.
    pub dropped_duplicates: AtomicU64,
    /// Out-of-order arrivals dropped because a predecessor on the channel
    /// was lost in a crash window (replay re-delivers the whole gap in
    /// order).
    pub dropped_out_of_order: AtomicU64,
    /// Coordinated checkpoints committed (counted per member).
    pub checkpoints: AtomicU64,
    /// Rank restarts performed.
    pub rollbacks: AtomicU64,
    /// Control messages exchanged by the protocol.
    pub ctrl_msgs: AtomicU64,
    /// Replay grants issued by a central coordinator (HydEE only).
    pub coordinator_grants: AtomicU64,
    /// Checkpoint blobs pushed to partner ranks (replicated storage).
    pub repl_pushes: AtomicU64,
    /// Bytes of sealed checkpoint data pushed to partners.
    pub repl_bytes: AtomicU64,
    /// Partner-store acknowledgements received by committing ranks.
    pub repl_acks: AtomicU64,
    /// Checkpoints repaired from a partner copy (local copy lost/corrupt).
    pub ckpt_repairs: AtomicU64,
    /// Local checkpoint writes completed by the background writer (disk
    /// stores; an in-memory put runs on the rank thread).
    pub ckpt_writes_async: AtomicU64,
    /// Microseconds of checkpoint write latency hidden behind the
    /// application by asynchronous writes (submit-to-durable, summed).
    pub ckpt_write_hidden_us: AtomicU64,
    /// Checkpoint copies removed by automatic storage GC.
    pub ckpt_gc_pruned: AtomicU64,
    /// Bytes of serialized checkpoint state (what a full write would cost;
    /// the numerator of the dedup ratio).
    pub ckpt_bytes_logical: AtomicU64,
    /// Bytes of sealed checkpoint blobs actually written locally (full
    /// blob or CDC manifest; the denominator of the dedup ratio).
    pub ckpt_bytes_physical: AtomicU64,
    /// Bytes partner replication *would* have pushed as full blobs
    /// (serialized body × pushes; `repl_bytes` stays the physical count).
    pub repl_bytes_logical: AtomicU64,
    /// CDC chunks found already in the content-addressed store under the
    /// same owner rank (cross-epoch dedup: unchanged data between waves).
    pub cas_hits_cross_epoch: AtomicU64,
    /// CDC chunks first inserted by a *different* rank (cross-rank dedup:
    /// replicated read-only state shared across the job).
    pub cas_hits_cross_rank: AtomicU64,
    /// Bytes of checkpoint state deduplicated by CAS hits (either kind).
    pub cas_hit_bytes: AtomicU64,
    /// Bytes of unique chunk payloads resident in the content-addressed
    /// store (a gauge: last observed value, not a running sum).
    pub cas_unique_bytes: AtomicU64,
    /// Bytes of erasure-coded parity shards sealed and pushed to parity
    /// holders (the physical cost of redundancy-set protection).
    pub ec_parity_bytes: AtomicU64,
    /// Checkpoints reconstructed from redundancy-set parity (erasure
    /// decode), as opposed to `ckpt_repairs` from a full partner copy.
    pub ec_rebuilds: AtomicU64,
    /// Log GC notices sent by receivers at checkpoint resume (each is also
    /// one of `ctrl_msgs`).
    pub log_gc_notices: AtomicU64,
    /// Log entries senders dropped on GC notices.
    pub log_pruned_msgs: AtomicU64,
    /// Payload bytes of those entries.
    pub log_pruned_bytes: AtomicU64,
    /// Largest payload byte count any one rank's log held at once (a
    /// high-water gauge, published at wave boundaries and at exit).
    pub log_live_bytes: AtomicU64,
    /// Per-checkpoint-phase latency histograms (lock-free, power-of-two
    /// buckets): where a wave's latency goes, not just how much of it.
    pub phase: PhaseHists,
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Read a counter.
    #[inline]
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Overwrite a gauge-style counter with its latest observed value
    /// (used for `cas_unique_bytes`, which tracks store residency rather
    /// than a running sum).
    #[inline]
    pub fn set(counter: &AtomicU64, v: u64) {
        counter.store(v, Ordering::Relaxed);
    }

    /// Raise a high-water gauge to at least `v`.
    #[inline]
    pub fn max(gauge: &AtomicU64, v: u64) {
        gauge.fetch_max(v, Ordering::Relaxed);
    }

    /// Human-readable one-line summary. Duplicate drops and out-of-order
    /// drops are distinct failure signatures (a healthy replay produces the
    /// former, a crash-window gap the latter), so they are reported apart.
    pub fn summary(&self) -> String {
        format!(
            "logged {} msgs / {} B; replayed {} msgs / {} B; suppressed {}; dup-dropped {}; ooo-dropped {}; ckpts {}; rollbacks {}; ctrl {}; grants {}; repl {} pushes / {} B / {} acks; repairs {}; async-writes {} ({} us hidden); gc-pruned {}; ckpt-bytes {} logical / {} physical; repl-logical {} B; cas-hits {} epoch / {} rank / {} B; cas-unique {} B; ec-parity {} B / {} rebuilds; log-gc {} notices / {} msgs / {} B pruned / {} B live-peak",
            Self::get(&self.logged_msgs),
            Self::get(&self.logged_bytes),
            Self::get(&self.replayed_msgs),
            Self::get(&self.replayed_bytes),
            Self::get(&self.suppressed_sends),
            Self::get(&self.dropped_duplicates),
            Self::get(&self.dropped_out_of_order),
            Self::get(&self.checkpoints),
            Self::get(&self.rollbacks),
            Self::get(&self.ctrl_msgs),
            Self::get(&self.coordinator_grants),
            Self::get(&self.repl_pushes),
            Self::get(&self.repl_bytes),
            Self::get(&self.repl_acks),
            Self::get(&self.ckpt_repairs),
            Self::get(&self.ckpt_writes_async),
            Self::get(&self.ckpt_write_hidden_us),
            Self::get(&self.ckpt_gc_pruned),
            Self::get(&self.ckpt_bytes_logical),
            Self::get(&self.ckpt_bytes_physical),
            Self::get(&self.repl_bytes_logical),
            Self::get(&self.cas_hits_cross_epoch),
            Self::get(&self.cas_hits_cross_rank),
            Self::get(&self.cas_hit_bytes),
            Self::get(&self.cas_unique_bytes),
            Self::get(&self.ec_parity_bytes),
            Self::get(&self.ec_rebuilds),
            Self::get(&self.log_gc_notices),
            Self::get(&self.log_pruned_msgs),
            Self::get(&self.log_pruned_bytes),
            Self::get(&self.log_live_bytes),
        )
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            logged_bytes: Self::get(&self.logged_bytes),
            logged_msgs: Self::get(&self.logged_msgs),
            replayed_msgs: Self::get(&self.replayed_msgs),
            replayed_bytes: Self::get(&self.replayed_bytes),
            suppressed_sends: Self::get(&self.suppressed_sends),
            dropped_duplicates: Self::get(&self.dropped_duplicates),
            dropped_out_of_order: Self::get(&self.dropped_out_of_order),
            checkpoints: Self::get(&self.checkpoints),
            rollbacks: Self::get(&self.rollbacks),
            ctrl_msgs: Self::get(&self.ctrl_msgs),
            coordinator_grants: Self::get(&self.coordinator_grants),
            repl_pushes: Self::get(&self.repl_pushes),
            repl_bytes: Self::get(&self.repl_bytes),
            repl_acks: Self::get(&self.repl_acks),
            ckpt_repairs: Self::get(&self.ckpt_repairs),
            ckpt_writes_async: Self::get(&self.ckpt_writes_async),
            ckpt_write_hidden_us: Self::get(&self.ckpt_write_hidden_us),
            ckpt_gc_pruned: Self::get(&self.ckpt_gc_pruned),
            ckpt_bytes_logical: Self::get(&self.ckpt_bytes_logical),
            ckpt_bytes_physical: Self::get(&self.ckpt_bytes_physical),
            repl_bytes_logical: Self::get(&self.repl_bytes_logical),
            cas_hits_cross_epoch: Self::get(&self.cas_hits_cross_epoch),
            cas_hits_cross_rank: Self::get(&self.cas_hits_cross_rank),
            cas_hit_bytes: Self::get(&self.cas_hit_bytes),
            cas_unique_bytes: Self::get(&self.cas_unique_bytes),
            ec_parity_bytes: Self::get(&self.ec_parity_bytes),
            ec_rebuilds: Self::get(&self.ec_rebuilds),
            log_gc_notices: Self::get(&self.log_gc_notices),
            log_pruned_msgs: Self::get(&self.log_pruned_msgs),
            log_pruned_bytes: Self::get(&self.log_pruned_bytes),
            log_live_bytes: Self::get(&self.log_live_bytes),
            phases: self.phase.snapshot(),
        }
    }
}

/// Plain-value copy of [`Metrics`], the unit the harness serializes so BENCH
/// trajectories can track protocol counters, not just wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Payload bytes appended to sender-side logs.
    pub logged_bytes: u64,
    /// Messages appended to sender-side logs.
    pub logged_msgs: u64,
    /// Messages re-sent from logs during recovery.
    pub replayed_msgs: u64,
    /// Payload bytes re-sent from logs during recovery.
    pub replayed_bytes: u64,
    /// Sends suppressed because the receiver already had them.
    pub suppressed_sends: u64,
    /// Duplicate arrivals dropped by the receiver-side seqnum check.
    pub dropped_duplicates: u64,
    /// Out-of-order arrivals dropped (crash-window gap on the channel).
    pub dropped_out_of_order: u64,
    /// Coordinated checkpoints committed (counted per member).
    pub checkpoints: u64,
    /// Rank restarts performed.
    pub rollbacks: u64,
    /// Control messages exchanged by the protocol.
    pub ctrl_msgs: u64,
    /// Replay grants issued by a central coordinator (HydEE only).
    pub coordinator_grants: u64,
    /// Checkpoint blobs pushed to partner ranks (replicated storage).
    pub repl_pushes: u64,
    /// Bytes of sealed checkpoint data pushed to partners.
    pub repl_bytes: u64,
    /// Partner-store acknowledgements received by committing ranks.
    pub repl_acks: u64,
    /// Checkpoints repaired from a partner copy (local copy lost/corrupt).
    pub ckpt_repairs: u64,
    /// Local checkpoint writes completed by the background writer.
    pub ckpt_writes_async: u64,
    /// Microseconds of write latency hidden by asynchronous writes.
    pub ckpt_write_hidden_us: u64,
    /// Checkpoint copies removed by automatic storage GC.
    pub ckpt_gc_pruned: u64,
    /// Bytes of serialized checkpoint state (full-write equivalent).
    pub ckpt_bytes_logical: u64,
    /// Bytes of sealed checkpoint blobs actually written (full blob or CDC
    /// manifest).
    pub ckpt_bytes_physical: u64,
    /// Bytes replication would have pushed as full blobs.
    pub repl_bytes_logical: u64,
    /// CDC chunks deduplicated against an earlier epoch of the same rank.
    pub cas_hits_cross_epoch: u64,
    /// CDC chunks deduplicated against another rank's chunks.
    pub cas_hits_cross_rank: u64,
    /// Bytes of checkpoint state deduplicated by CAS hits.
    pub cas_hit_bytes: u64,
    /// Unique chunk payload bytes resident in the CAS (gauge).
    pub cas_unique_bytes: u64,
    /// Bytes of erasure-coded parity shards sealed and pushed.
    pub ec_parity_bytes: u64,
    /// Checkpoints reconstructed from redundancy-set parity.
    pub ec_rebuilds: u64,
    /// Log GC notices sent by receivers at checkpoint resume.
    pub log_gc_notices: u64,
    /// Log entries senders dropped on GC notices.
    pub log_pruned_msgs: u64,
    /// Payload bytes of those entries.
    pub log_pruned_bytes: u64,
    /// Largest payload byte count any one rank's log held at once (gauge).
    pub log_live_bytes: u64,
    /// Per-checkpoint-phase latency histograms at snapshot time.
    pub phases: PhaseSnapshot,
}

impl MetricsSnapshot {
    /// The counters as `(name, value)` pairs, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 31] {
        [
            ("logged_bytes", self.logged_bytes),
            ("logged_msgs", self.logged_msgs),
            ("replayed_msgs", self.replayed_msgs),
            ("replayed_bytes", self.replayed_bytes),
            ("suppressed_sends", self.suppressed_sends),
            ("dropped_duplicates", self.dropped_duplicates),
            ("dropped_out_of_order", self.dropped_out_of_order),
            ("checkpoints", self.checkpoints),
            ("rollbacks", self.rollbacks),
            ("ctrl_msgs", self.ctrl_msgs),
            ("coordinator_grants", self.coordinator_grants),
            ("repl_pushes", self.repl_pushes),
            ("repl_bytes", self.repl_bytes),
            ("repl_acks", self.repl_acks),
            ("ckpt_repairs", self.ckpt_repairs),
            ("ckpt_writes_async", self.ckpt_writes_async),
            ("ckpt_write_hidden_us", self.ckpt_write_hidden_us),
            ("ckpt_gc_pruned", self.ckpt_gc_pruned),
            ("ckpt_bytes_logical", self.ckpt_bytes_logical),
            ("ckpt_bytes_physical", self.ckpt_bytes_physical),
            ("repl_bytes_logical", self.repl_bytes_logical),
            ("cas_hits_cross_epoch", self.cas_hits_cross_epoch),
            ("cas_hits_cross_rank", self.cas_hits_cross_rank),
            ("cas_hit_bytes", self.cas_hit_bytes),
            ("cas_unique_bytes", self.cas_unique_bytes),
            ("ec_parity_bytes", self.ec_parity_bytes),
            ("ec_rebuilds", self.ec_rebuilds),
            ("log_gc_notices", self.log_gc_notices),
            ("log_pruned_msgs", self.log_pruned_msgs),
            ("log_pruned_bytes", self.log_pruned_bytes),
            ("log_live_bytes", self.log_live_bytes),
        ]
    }

    /// Dedup ratio of the checkpoint write path: logical bytes per physical
    /// byte (1.0 = no savings). A run whose checkpointed state was empty has
    /// nothing to deduplicate and reports a clean 1.0 — never NaN or
    /// infinity. `None` only when logical bytes exist but no physical write
    /// has been counted yet (writes still in flight).
    pub fn dedup_ratio(&self) -> Option<f64> {
        match (self.ckpt_bytes_logical, self.ckpt_bytes_physical) {
            (0, _) => Some(1.0),
            (_, 0) => None,
            (l, p) => Some(l as f64 / p as f64),
        }
    }

    /// CAS chunk-level dedup ratio: bytes the store was asked to hold per
    /// unique byte it actually holds. Same zero-wave guard as
    /// [`dedup_ratio`](Self::dedup_ratio): an empty store that was never
    /// offered a chunk reports 1.0, never NaN or infinity.
    pub fn cas_dedup_ratio(&self) -> Option<f64> {
        match (self.cas_hit_bytes, self.cas_unique_bytes) {
            (0, 0) => Some(1.0),
            (_, 0) => None,
            (h, u) => Some((h + u) as f64 / u as f64),
        }
    }

    /// Append every counter plus the `"phases"` object to a JSON object
    /// under construction — the one serialization path for snapshots,
    /// whether the object starts with a run label (harness metrics lines),
    /// a sample index (the background sampler), or nothing (`to_json`).
    pub fn append_to(&self, obj: &mut JsonObj) {
        for (name, v) in self.fields() {
            obj.field(name, v);
        }
        obj.field_raw("phases", &self.phases.to_json());
    }

    /// Serialize as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObj::new();
        self.append_to(&mut obj);
        obj.finish()
    }

    /// Counter-wise difference `self - prev` for delta sampling. Counters
    /// subtract (saturating); histogram buckets subtract bucket-wise with
    /// `max` kept cumulative; the `cas_unique_bytes` gauge keeps its
    /// current (absolute) value since a gauge delta is meaningless.
    pub fn delta_since(&self, prev: &MetricsSnapshot) -> MetricsSnapshot {
        let mut d = *self;
        d.logged_bytes = d.logged_bytes.saturating_sub(prev.logged_bytes);
        d.logged_msgs = d.logged_msgs.saturating_sub(prev.logged_msgs);
        d.replayed_msgs = d.replayed_msgs.saturating_sub(prev.replayed_msgs);
        d.replayed_bytes = d.replayed_bytes.saturating_sub(prev.replayed_bytes);
        d.suppressed_sends = d.suppressed_sends.saturating_sub(prev.suppressed_sends);
        d.dropped_duplicates = d.dropped_duplicates.saturating_sub(prev.dropped_duplicates);
        d.dropped_out_of_order = d.dropped_out_of_order.saturating_sub(prev.dropped_out_of_order);
        d.checkpoints = d.checkpoints.saturating_sub(prev.checkpoints);
        d.rollbacks = d.rollbacks.saturating_sub(prev.rollbacks);
        d.ctrl_msgs = d.ctrl_msgs.saturating_sub(prev.ctrl_msgs);
        d.coordinator_grants = d.coordinator_grants.saturating_sub(prev.coordinator_grants);
        d.repl_pushes = d.repl_pushes.saturating_sub(prev.repl_pushes);
        d.repl_bytes = d.repl_bytes.saturating_sub(prev.repl_bytes);
        d.repl_acks = d.repl_acks.saturating_sub(prev.repl_acks);
        d.ckpt_repairs = d.ckpt_repairs.saturating_sub(prev.ckpt_repairs);
        d.ckpt_writes_async = d.ckpt_writes_async.saturating_sub(prev.ckpt_writes_async);
        d.ckpt_write_hidden_us = d.ckpt_write_hidden_us.saturating_sub(prev.ckpt_write_hidden_us);
        d.ckpt_gc_pruned = d.ckpt_gc_pruned.saturating_sub(prev.ckpt_gc_pruned);
        d.ckpt_bytes_logical = d.ckpt_bytes_logical.saturating_sub(prev.ckpt_bytes_logical);
        d.ckpt_bytes_physical = d.ckpt_bytes_physical.saturating_sub(prev.ckpt_bytes_physical);
        d.repl_bytes_logical = d.repl_bytes_logical.saturating_sub(prev.repl_bytes_logical);
        d.cas_hits_cross_epoch = d.cas_hits_cross_epoch.saturating_sub(prev.cas_hits_cross_epoch);
        d.cas_hits_cross_rank = d.cas_hits_cross_rank.saturating_sub(prev.cas_hits_cross_rank);
        d.cas_hit_bytes = d.cas_hit_bytes.saturating_sub(prev.cas_hit_bytes);
        d.ec_parity_bytes = d.ec_parity_bytes.saturating_sub(prev.ec_parity_bytes);
        d.ec_rebuilds = d.ec_rebuilds.saturating_sub(prev.ec_rebuilds);
        d.log_gc_notices = d.log_gc_notices.saturating_sub(prev.log_gc_notices);
        d.log_pruned_msgs = d.log_pruned_msgs.saturating_sub(prev.log_pruned_msgs);
        d.log_pruned_bytes = d.log_pruned_bytes.saturating_sub(prev.log_pruned_bytes);
        // log_live_bytes is a high-water gauge: keep absolute.
        d.phases = d.phases.delta_since(&prev.phases);
        d
    }

    /// Render as an OpenMetrics / Prometheus text exposition: every counter
    /// as `spbc_<name>_total` and every non-empty phase histogram as a
    /// cumulative-bucket `spbc_phase_<name>_us` histogram family.
    pub fn to_openmetrics(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, v) in self.fields() {
            let _ = writeln!(out, "# TYPE spbc_{name} counter");
            let _ = writeln!(out, "spbc_{name}_total {v}");
        }
        for (phase, h) in self.phases.iter() {
            if h.is_empty() {
                continue;
            }
            let family = format!("spbc_phase_{}_us", phase.name());
            let _ = writeln!(out, "# TYPE {family} histogram");
            let mut cum = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                cum += n;
                if n > 0 || i + 1 == h.buckets.len() {
                    let _ = writeln!(
                        out,
                        "{family}_bucket{{le=\"{}\"}} {cum}",
                        crate::hist::bucket_upper(i)
                    );
                }
            }
            let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {cum}");
            let _ = writeln!(out, "{family}_sum {}", h.sum);
            let _ = writeln!(out, "{family}_count {cum}");
        }
        out.push_str("# EOF\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        Metrics::add(&m.logged_bytes, 10);
        Metrics::add(&m.logged_bytes, 5);
        assert_eq!(Metrics::get(&m.logged_bytes), 15);
        assert!(m.summary().contains("15 B"));
    }

    #[test]
    fn summary_separates_drop_kinds() {
        let m = Metrics::new();
        Metrics::add(&m.dropped_duplicates, 3);
        Metrics::add(&m.dropped_out_of_order, 7);
        let s = m.summary();
        assert!(s.contains("dup-dropped 3"), "{s}");
        assert!(s.contains("ooo-dropped 7"), "{s}");
    }

    #[test]
    fn dedup_ratio_tracks_byte_counters() {
        let m = Metrics::new();
        Metrics::add(&m.ckpt_bytes_logical, 800);
        assert!(m.snapshot().dedup_ratio().is_none(), "logical bytes but no write yet");
        Metrics::add(&m.ckpt_bytes_physical, 200);
        assert_eq!(m.snapshot().dedup_ratio(), Some(4.0));
        assert!(m.summary().contains("ckpt-bytes 800 logical / 200 physical"), "{}", m.summary());
    }

    #[test]
    fn zero_byte_waves_report_ratio_one_not_nan() {
        // A run whose checkpointed state is empty (zero-length serialized
        // bodies) must not poison dedup reporting with NaN or infinity.
        let empty = MetricsSnapshot::default();
        assert_eq!(empty.dedup_ratio(), Some(1.0));
        assert_eq!(empty.cas_dedup_ratio(), Some(1.0));
        // Physical bytes with zero logical bytes (framing overhead only)
        // still reads as "no savings", not a division blowup.
        let framing_only = MetricsSnapshot { ckpt_bytes_physical: 32, ..Default::default() };
        assert_eq!(framing_only.dedup_ratio(), Some(1.0));
        for snap in [empty, framing_only] {
            let r = snap.dedup_ratio().unwrap();
            assert!(r.is_finite() && !r.is_nan());
        }
    }

    #[test]
    fn cas_dedup_ratio_counts_hit_and_unique_bytes() {
        let m = Metrics::new();
        Metrics::add(&m.cas_hit_bytes, 3000);
        Metrics::add(&m.cas_unique_bytes, 1000);
        assert_eq!(m.snapshot().cas_dedup_ratio(), Some(4.0));
        // Hits recorded while the unique gauge is still zero: not yet
        // meaningful, but never NaN/inf.
        let inflight = MetricsSnapshot { cas_hit_bytes: 10, ..Default::default() };
        assert!(inflight.cas_dedup_ratio().is_none());
        assert!(m.summary().contains("cas-unique 1000 B"), "{}", m.summary());
    }

    #[test]
    fn snapshot_copies_every_counter() {
        let m = Metrics::new();
        Metrics::add(&m.logged_bytes, 1);
        Metrics::add(&m.logged_msgs, 2);
        Metrics::add(&m.replayed_msgs, 3);
        Metrics::add(&m.replayed_bytes, 4);
        Metrics::add(&m.suppressed_sends, 5);
        Metrics::add(&m.dropped_duplicates, 6);
        Metrics::add(&m.dropped_out_of_order, 7);
        Metrics::add(&m.checkpoints, 8);
        Metrics::add(&m.rollbacks, 9);
        Metrics::add(&m.ctrl_msgs, 10);
        Metrics::add(&m.coordinator_grants, 11);
        Metrics::add(&m.repl_pushes, 12);
        Metrics::add(&m.repl_bytes, 13);
        Metrics::add(&m.repl_acks, 14);
        Metrics::add(&m.ckpt_repairs, 15);
        Metrics::add(&m.ckpt_writes_async, 16);
        Metrics::add(&m.ckpt_write_hidden_us, 17);
        Metrics::add(&m.ckpt_gc_pruned, 18);
        Metrics::add(&m.ckpt_bytes_logical, 19);
        Metrics::add(&m.ckpt_bytes_physical, 20);
        Metrics::add(&m.repl_bytes_logical, 21);
        Metrics::add(&m.cas_hits_cross_epoch, 22);
        Metrics::add(&m.cas_hits_cross_rank, 23);
        Metrics::add(&m.cas_hit_bytes, 24);
        Metrics::add(&m.cas_unique_bytes, 25);
        Metrics::add(&m.ec_parity_bytes, 26);
        Metrics::add(&m.ec_rebuilds, 27);
        Metrics::add(&m.log_gc_notices, 28);
        Metrics::add(&m.log_pruned_msgs, 29);
        Metrics::add(&m.log_pruned_bytes, 30);
        Metrics::max(&m.log_live_bytes, 31);
        let s = m.snapshot();
        for (i, (_, v)) in s.fields().iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"dropped_out_of_order\":7"), "{json}");
        assert!(json.contains("\"coordinator_grants\":11"), "{json}");
        spbc_trace::json::parse(&json).expect("snapshot json parses");
    }

    #[test]
    fn json_carries_phase_histograms() {
        let m = Metrics::new();
        m.phase.record(crate::hist::Phase::CommitBarrier, 900);
        let json = m.snapshot().to_json();
        let v = spbc_trace::json::parse(&json).expect("valid json");
        let cb = v.get("phases").and_then(|p| p.get("commit_barrier")).expect("phase present");
        assert_eq!(cb.get("sum").and_then(|s| s.as_num()), Some(900.0));
    }

    #[test]
    fn openmetrics_renders_counters_and_histograms() {
        let m = Metrics::new();
        Metrics::add(&m.checkpoints, 4);
        m.phase.record(crate::hist::Phase::Encode, 3); // bucket 1, le=3
        m.phase.record(crate::hist::Phase::Encode, 100); // bucket 6, le=127
        let om = m.snapshot().to_openmetrics();
        assert!(om.contains("spbc_checkpoints_total 4"), "{om}");
        assert!(om.contains("# TYPE spbc_phase_encode_us histogram"), "{om}");
        assert!(om.contains("spbc_phase_encode_us_bucket{le=\"3\"} 1"), "{om}");
        assert!(om.contains("spbc_phase_encode_us_bucket{le=\"127\"} 2"), "{om}");
        assert!(om.contains("spbc_phase_encode_us_bucket{le=\"+Inf\"} 2"), "{om}");
        assert!(om.contains("spbc_phase_encode_us_sum 103"), "{om}");
        assert!(om.contains("spbc_phase_encode_us_count 2"), "{om}");
        assert!(!om.contains("spbc_phase_quiesce"), "empty phases omitted: {om}");
        assert!(om.ends_with("# EOF\n"), "{om}");
    }

    #[test]
    fn delta_since_subtracts_counters() {
        let m = Metrics::new();
        Metrics::add(&m.ctrl_msgs, 10);
        Metrics::set(&m.cas_unique_bytes, 512);
        let prev = m.snapshot();
        Metrics::add(&m.ctrl_msgs, 7);
        let d = m.snapshot().delta_since(&prev);
        assert_eq!(d.ctrl_msgs, 7);
        assert_eq!(d.cas_unique_bytes, 512, "gauges stay absolute");
        assert_eq!(d.checkpoints, 0);
    }

    #[test]
    fn log_gc_counters_delta_but_live_bytes_is_a_high_water_gauge() {
        let m = Metrics::new();
        Metrics::add(&m.log_pruned_msgs, 5);
        Metrics::max(&m.log_live_bytes, 4096);
        Metrics::max(&m.log_live_bytes, 1024);
        let prev = m.snapshot();
        Metrics::add(&m.log_pruned_msgs, 2);
        let d = m.snapshot().delta_since(&prev);
        assert_eq!(d.log_pruned_msgs, 2);
        assert_eq!(d.log_live_bytes, 4096, "high-water mark, kept absolute");
        assert!(m.summary().contains("7 msgs / 0 B pruned / 4096 B live-peak"), "{}", m.summary());
    }
}
