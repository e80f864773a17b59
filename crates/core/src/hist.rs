//! Lock-free power-of-two-bucketed latency histograms and the checkpoint
//! phase taxonomy they are keyed by.
//!
//! A [`Hist`] is a fixed array of 32 atomic buckets: bucket `i` counts
//! samples whose value (in microseconds) lies in `[2^i, 2^(i+1))`, with
//! bucket 0 also absorbing 0. Thirty-two buckets cover `[0, 2^32)` µs —
//! over 71 minutes — far beyond any phase this repo times. Recording is a
//! single relaxed fetch-add plus a relaxed max update, so hot protocol
//! paths can record without a lock; percentiles are computed from a
//! [`HistSnapshot`], which is plain data and mergeable across ranks.
//!
//! Percentile queries return the *upper bound* of the bucket holding the
//! requested rank (clamped to the exact recorded maximum), so the reported
//! value is always `>=` the true percentile and `<= 2x` it — a one-bucket
//! error bound pinned by `tests/proptest_hist.rs`.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets. 32 is also the largest array length
/// with a derived `Default`, which keeps the snapshot types plain data.
pub const BUCKETS: usize = 32;

/// Bucket index for a microsecond value: `floor(log2(v))` clamped to the
/// table, with 0 and 1 both landing in bucket 0.
#[inline]
fn bucket_of(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        (63 - us.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`: the largest value it can hold.
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// A lock-free latency histogram with power-of-two buckets.
///
/// All updates are relaxed atomics: totals are exact, but a `snapshot()`
/// taken concurrently with writers may be torn between counters (the same
/// contract as [`crate::metrics::Metrics`]).
#[derive(Debug, Default)]
pub struct Hist {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Hist {
    /// New, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample, in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// Fold another histogram's snapshot into this one (rank merge).
    pub fn merge(&self, other: &HistSnapshot) {
        for (b, &n) in self.buckets.iter().zip(other.buckets.iter()) {
            if n > 0 {
                b.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(other.sum, Ordering::Relaxed);
        self.max.fetch_max(other.max, Ordering::Relaxed);
    }

    /// Copy the current counts into plain data.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut s = HistSnapshot::default();
        for (dst, src) in s.buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        s.sum = self.sum.load(Ordering::Relaxed);
        s.max = self.max.load(Ordering::Relaxed);
        s
    }
}

/// Plain-data copy of a [`Hist`]: mergeable, comparable, serializable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket sample counts; bucket `i` covers `[2^i, 2^(i+1))` µs.
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values (µs) — for means and rate math.
    pub sum: u64,
    /// Exact largest recorded value (µs).
    pub max: u64,
}

impl HistSnapshot {
    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), reported as the upper bound of
    /// the bucket containing that rank, clamped to the exact recorded
    /// maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median latency (µs), to one-bucket precision.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile latency (µs), to one-bucket precision.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile latency (µs), to one-bucket precision.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact maximum recorded latency (µs).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Fold another snapshot into this one. Addition is commutative and
    /// associative, so merge order never matters (pinned by proptest).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (dst, &src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Bucket-wise difference `self - prev` for delta sampling. Counts and
    /// sums subtract (saturating, in case `prev` is from a different run);
    /// `max` stays cumulative — a high-water mark, not a rate.
    pub fn delta_since(&self, prev: &HistSnapshot) -> HistSnapshot {
        let mut d = *self;
        for (dst, &p) in d.buckets.iter_mut().zip(prev.buckets.iter()) {
            *dst = dst.saturating_sub(p);
        }
        d.sum = d.sum.saturating_sub(prev.sum);
        d
    }
}

/// Checkpoint-lifecycle phases timed by the protocol layer.
///
/// The write-side phases cover one wave in protocol order; the
/// restore-side phases cover one rollback. `Quiesce`, `Replicate` and
/// `CommitBarrier` are the time a member spends in a wave state
/// (`wave::Member::phase`); the others are times measured inside
/// one step (store stats, and the per-peer replay drain). Names (from
/// [`Phase::name`]) are the stable keys used in JSONL, OpenMetrics,
/// chrome-trace span names, and `spbc-report` tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variants are documented by the name table below
pub enum Phase {
    Quiesce,
    Encode,
    /// Inert: nothing records it since the write queue lost its bound.
    /// Kept only until `spbc-perf`'s phase table drops it.
    Admission,
    Write,
    Fsync,
    EncodeParity,
    Replicate,
    CommitBarrier,
    RestoreLoad,
    RestoreMaterialize,
    RestoreRepair,
    RestoreReplay,
}

/// Number of phases (and histograms in a [`PhaseHists`]).
pub const PHASES: usize = 12;

impl Phase {
    /// Every phase, in protocol order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Quiesce,
        Phase::Encode,
        Phase::Admission,
        Phase::Write,
        Phase::Fsync,
        Phase::EncodeParity,
        Phase::Replicate,
        Phase::CommitBarrier,
        Phase::RestoreLoad,
        Phase::RestoreMaterialize,
        Phase::RestoreRepair,
        Phase::RestoreReplay,
    ];

    /// Stable snake_case key for serialization and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Quiesce => "quiesce",
            Phase::Encode => "encode",
            Phase::Admission => "admission",
            Phase::Write => "write",
            Phase::Fsync => "fsync",
            Phase::EncodeParity => "encode_parity",
            Phase::Replicate => "replicate",
            Phase::CommitBarrier => "commit_barrier",
            Phase::RestoreLoad => "restore_load",
            Phase::RestoreMaterialize => "restore_materialize",
            Phase::RestoreRepair => "restore_repair",
            Phase::RestoreReplay => "restore_replay",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// One lock-free histogram per checkpoint phase; lives on
/// [`crate::metrics::Metrics`] next to the flat counters.
#[derive(Debug, Default)]
pub struct PhaseHists {
    hists: [Hist; PHASES],
}

impl PhaseHists {
    /// Record one phase latency sample, in microseconds.
    pub fn record(&self, phase: Phase, us: u64) {
        self.hists[phase.idx()].record_us(us);
    }

    /// The histogram backing one phase.
    pub fn hist(&self, phase: Phase) -> &Hist {
        &self.hists[phase.idx()]
    }

    /// Plain-data copy of every phase histogram.
    pub fn snapshot(&self) -> PhaseSnapshot {
        let mut s = PhaseSnapshot::default();
        for (dst, src) in s.phases.iter_mut().zip(self.hists.iter()) {
            *dst = src.snapshot();
        }
        s
    }
}

/// Plain-data copy of a [`PhaseHists`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// One snapshot per phase, indexed in [`Phase::ALL`] order.
    pub phases: [HistSnapshot; PHASES],
}

impl PhaseSnapshot {
    /// The snapshot for one phase.
    pub fn get(&self, phase: Phase) -> &HistSnapshot {
        &self.phases[phase.idx()]
    }

    /// Mutable access to one phase's snapshot (external aggregators fold
    /// parsed histograms back in with [`HistSnapshot::merge`]).
    pub fn get_mut(&mut self, phase: Phase) -> &mut HistSnapshot {
        &mut self.phases[phase.idx()]
    }

    /// Iterate `(phase, snapshot)` pairs in protocol order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, &HistSnapshot)> {
        Phase::ALL.iter().map(move |&p| (p, &self.phases[p.idx()]))
    }

    /// Fold another snapshot into this one, phase by phase.
    pub fn merge(&mut self, other: &PhaseSnapshot) {
        for (dst, src) in self.phases.iter_mut().zip(other.phases.iter()) {
            dst.merge(src);
        }
    }

    /// Phase-wise [`HistSnapshot::delta_since`].
    pub fn delta_since(&self, prev: &PhaseSnapshot) -> PhaseSnapshot {
        let mut d = *self;
        for (dst, p) in d.phases.iter_mut().zip(prev.phases.iter()) {
            *dst = dst.delta_since(p);
        }
        d
    }

    /// Render as a JSON object (`{"<phase>": {"buckets": [...], "sum": N,
    /// "max": N}, ...}`), omitting phases with no samples.
    pub fn to_json(&self) -> String {
        let mut obj = spbc_trace::json::JsonObj::new();
        for (phase, h) in self.iter() {
            if h.is_empty() {
                continue;
            }
            let mut inner = spbc_trace::json::JsonObj::new();
            inner.field_arr_u64("buckets", &h.buckets);
            inner.field("sum", h.sum);
            inner.field("max", h.max);
            obj.field_raw(phase.name(), &inner.finish());
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_power_of_two_ranges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 1);
        assert_eq!(bucket_upper(9), 1023);
    }

    #[test]
    fn quantiles_clamp_to_exact_max() {
        let h = Hist::new();
        h.record_us(100); // bucket 6, upper bound 127
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.p50(), 100, "single sample: every quantile is the max");
        assert_eq!(s.p99(), 100);
        assert_eq!(s.max(), 100);
    }

    #[test]
    fn quantiles_are_within_one_bucket() {
        let h = Hist::new();
        for v in 1..=1000u64 {
            h.record_us(v);
        }
        let s = h.snapshot();
        // True p50 is 500 (bucket 8, upper 511); true p99 is 990.
        assert_eq!(s.p50(), 511);
        assert!(s.p99() >= 990 && s.p99() <= 1000);
        assert_eq!(s.max(), 1000);
        assert_eq!(s.sum, (1..=1000u64).sum::<u64>());
    }

    #[test]
    fn empty_hist_reports_zero() {
        let s = Hist::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = Hist::new();
        a.record_us(10);
        let b = Hist::new();
        b.record_us(10_000);
        a.merge(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.max(), 10_000);
        assert_eq!(s.sum, 10_010);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "quiesce",
                "encode",
                "admission",
                "write",
                "fsync",
                "encode_parity",
                "replicate",
                "commit_barrier",
                "restore_load",
                "restore_materialize",
                "restore_repair",
                "restore_replay"
            ]
        );
    }

    #[test]
    fn phase_json_omits_empty_phases() {
        let ph = PhaseHists::default();
        ph.record(Phase::Encode, 250);
        ph.record(Phase::Encode, 300);
        let json = ph.snapshot().to_json();
        assert!(json.contains("\"encode\""));
        assert!(!json.contains("\"quiesce\""));
        let parsed = spbc_trace::json::parse(&json).expect("phase json parses");
        let enc = parsed.get("encode").expect("encode object present");
        assert_eq!(enc.get("sum").and_then(|v| v.as_num()), Some(550.0));
        assert_eq!(enc.get("buckets").and_then(|v| v.as_arr()).map(|a| a.len()), Some(BUCKETS));
    }

    #[test]
    fn snapshot_delta_subtracts_counts_keeps_max() {
        let h = Hist::new();
        h.record_us(5);
        let prev = h.snapshot();
        h.record_us(700);
        let d = h.snapshot().delta_since(&prev);
        assert_eq!(d.count(), 1);
        assert_eq!(d.sum, 700);
        assert_eq!(d.max, 700, "max is cumulative");
    }
}
