//! Bounded asynchronous write pipeline with per-owner coalescing,
//! shard-parallel workers, small-blob batching, and explicit backpressure.
//!
//! The commit barrier must not pay fsync latency (ISSUE 3 / Section 5 of the
//! paper measures this as the dominant synchronous cost), but "never block"
//! alone is a memory bomb: a device that falls behind would buffer blobs
//! without bound. This writer is therefore a *bounded* pipeline:
//!
//! * **Shards.** `shards` worker threads, each with its own queue and lock;
//!   a submission is routed by its `(job, owner)` key (a
//!   [`crate::CkptStoreService`] is one job, id 0), so concurrent ranks
//!   never contend on a global lock and per-key write order is still total
//!   (a key always lands on one shard).
//! * **Double-buffering, per `(job, owner)` key:** at most one blob is
//!   *queued* — a newer submission for the same key replaces an unstarted
//!   older one (coalescing: only the newest wave matters once it supersedes
//!   the previous) — and at most one write is *in flight*.
//! * **Batching.** A worker drains up to `batch_bytes` of queued jobs into
//!   one backend `put_batch`, so one durability barrier covers the whole
//!   batch (group commit). When the queue runs dry below the byte target and
//!   `linger_us > 0`, the worker waits once, briefly, for stragglers — the
//!   classic group-commit linger window.
//! * **Backpressure.** Each shard's queue has a hard depth. A submission
//!   that would exceed it *blocks* until the device catches up and reports
//!   [`Admission::Delayed`] with the time it waited, so the commit barrier
//!   observes real device lag instead of silently buffering unbounded
//!   memory. Coalescing submissions are always admitted immediately — they
//!   replace a queued blob, so memory does not grow.
//!
//! The protocol calls `flush_owner` once a wave's replicas are acked and
//! before the member acknowledges the commit (so the write overlaps
//! replication, and an acknowledged wave is durable: its RESUME may free
//! everything older), and at shutdown/restart (so durability is guaranteed
//! before the process exits or a restored rank trusts the store's epoch
//! inventory).
//!
//! Uses `std::sync::{Mutex, Condvar}` rather than `parking_lot`: the
//! vendored parking_lot stand-in has no condition variables.

use crate::backend::{BatchItem, CheckpointBackend, PutStats};
use mini_mpi::error::{MpiError, Result};
use mini_mpi::types::RankId;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Completion callback: write result (with backend timing facts on
/// success) and the time the write spent hidden behind the application
/// (submit-to-durable latency).
pub type OnDone = Box<dyn FnOnce(&Result<PutStats>, Duration) + Send>;

/// How a submission was admitted into the pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The queue had room (or the submission coalesced into a queued job);
    /// the caller never waited.
    Accepted,
    /// The shard's queue was full; the caller blocked for `waited_us`
    /// microseconds until the device drained enough to admit the blob.
    Delayed {
        /// Microseconds the submitter spent blocked on the full queue.
        waited_us: u64,
    },
}

impl Admission {
    /// Whether this submission observed backpressure.
    pub fn is_delayed(&self) -> bool {
        matches!(self, Admission::Delayed { .. })
    }

    /// Microseconds spent waiting for admission (0 when accepted).
    pub fn waited_us(&self) -> u64 {
        match self {
            Admission::Accepted => 0,
            Admission::Delayed { waited_us } => *waited_us,
        }
    }
}

/// Writer progress counters, named so call sites cannot transpose fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Writes completed successfully.
    pub completed: u64,
    /// Jobs replaced before their write started (superseded waves).
    pub coalesced: u64,
    /// Blob bytes durably written — in CDC mode this is *physical* bytes
    /// (manifest + only-new chunk payloads), the number dedup shrinks.
    pub bytes_written: u64,
    /// Durability barriers paid by the pipeline (one per group-committed
    /// batch, rather than one per blob — the `store_batched_fsyncs` metric).
    pub batched_fsyncs: u64,
    /// Submissions that hit a full queue and blocked for admission.
    pub admission_waits: u64,
    /// Blobs currently queued across all shards (a gauge, not a counter).
    pub queue_depth: u64,
}

/// Pipeline shape knobs; see [`crate::StoreConfig`] for the mapping
/// (`SPBC_STORE_SHARDS` and `SPBC_WRITE_QUEUE` set the first two).
#[derive(Clone, Copy, Debug)]
pub struct WriterConfig {
    /// Worker threads / submission queues (rounded up to a power of two).
    pub shards: usize,
    /// Hard per-shard queue depth; submissions beyond it block.
    pub queue_depth: usize,
    /// A worker drains queued jobs into one batch until it holds at least
    /// this many bytes (so one fsync covers the batch).
    pub batch_bytes: usize,
    /// With a non-empty batch below `batch_bytes` and an empty queue, wait
    /// once this long for stragglers before writing (0 = no linger).
    pub linger_us: u64,
}

impl Default for WriterConfig {
    fn default() -> Self {
        WriterConfig { shards: 8, queue_depth: 64, batch_bytes: 1 << 20, linger_us: 0 }
    }
}

/// Submission key: `(job, rank)`. Two jobs' rank 0 must never coalesce into
/// each other, so the job id is part of the key.
type Key = (u32, u32);

struct Job {
    epoch: u64,
    blob: Arc<Vec<u8>>,
    backend: Arc<dyn CheckpointBackend>,
    submitted: Instant,
    on_done: Option<OnDone>,
}

#[derive(Default)]
struct ShardState {
    /// Keys with a queued job, FIFO.
    queue: VecDeque<Key>,
    /// The queued job per key (at most one: double buffer).
    pending: HashMap<Key, Job>,
    /// Keys whose write is currently in flight.
    writing: HashSet<Key>,
    /// Sticky per-key error from the last failed write, surfaced at flush.
    errors: HashMap<Key, String>,
    stop: bool,
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
}

/// Global counters shared by every shard (atomics: read paths never lock).
#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    coalesced: AtomicU64,
    bytes_written: AtomicU64,
    batched_fsyncs: AtomicU64,
    admission_waits: AtomicU64,
}

/// Background writer service, shared by every rank of a store service.
/// Dropping the writer drains every queue and joins the worker threads.
pub struct AsyncWriter {
    shards: Vec<Arc<Shard>>,
    counters: Arc<Counters>,
    cfg: WriterConfig,
    handles: Vec<JoinHandle<()>>,
}

impl Default for AsyncWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl AsyncWriter {
    /// Spawn a writer with the default pipeline shape.
    pub fn new() -> Self {
        Self::with_config(WriterConfig::default())
    }

    /// Spawn `cfg.shards` worker threads (rounded up to a power of two).
    pub fn with_config(cfg: WriterConfig) -> Self {
        let mut cfg = cfg;
        cfg.shards = cfg.shards.max(1).next_power_of_two();
        cfg.queue_depth = cfg.queue_depth.max(1);
        cfg.batch_bytes = cfg.batch_bytes.max(1);
        let counters = Arc::new(Counters::default());
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut handles = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let shard =
                Arc::new(Shard { state: Mutex::new(ShardState::default()), cv: Condvar::new() });
            shards.push(Arc::clone(&shard));
            let worker_counters = Arc::clone(&counters);
            let handle = std::thread::Builder::new()
                .name(format!("spbc-ckpt-writer-{i}"))
                .spawn(move || Self::run(&shard, &worker_counters, cfg))
                .expect("spawn checkpoint writer thread");
            handles.push(handle);
        }
        AsyncWriter { shards, counters, cfg, handles }
    }

    /// Which shard a key routes to (multiply-shift hash over a power-of-two
    /// shard count — cheap and uniform for dense job/rank ids).
    fn shard_of(&self, key: Key) -> &Shard {
        let k = ((key.0 as u64) << 32) | key.1 as u64;
        let idx = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize & (self.cfg.shards - 1);
        &self.shards[idx]
    }

    fn run(shard: &Shard, counters: &Counters, cfg: WriterConfig) {
        loop {
            // Drain a batch under the shard lock.
            let mut batch: Vec<(Key, Job)> = Vec::new();
            {
                let mut st = shard.state.lock().unwrap();
                loop {
                    if !st.queue.is_empty() {
                        break;
                    }
                    if st.stop {
                        return;
                    }
                    st = shard.cv.wait(st).unwrap();
                }
                let mut bytes = 0usize;
                let mut lingered = false;
                loop {
                    while bytes < cfg.batch_bytes {
                        let Some(key) = st.queue.pop_front() else { break };
                        let job = st.pending.remove(&key).expect("queued key has a job");
                        bytes += job.blob.len();
                        st.writing.insert(key);
                        batch.push((key, job));
                    }
                    // Group-commit linger: the queue ran dry below the byte
                    // target — wait once, briefly, for stragglers so their
                    // fsync rides this batch instead of paying its own.
                    if bytes < cfg.batch_bytes && cfg.linger_us > 0 && !lingered && !st.stop {
                        lingered = true;
                        let (g, _) = shard
                            .cv
                            .wait_timeout(st, Duration::from_micros(cfg.linger_us))
                            .unwrap();
                        st = g;
                        if !st.queue.is_empty() {
                            continue;
                        }
                    }
                    break;
                }
                // Queue space freed: wake submitters blocked on admission.
                shard.cv.notify_all();
            }
            let outcomes = Self::write_batch(batch, counters);
            let mut st = shard.state.lock().unwrap();
            for (key, err) in outcomes {
                st.writing.remove(&key);
                if let Some(e) = err {
                    st.errors.insert(key, e);
                }
            }
            shard.cv.notify_all();
        }
    }

    /// Write one drained batch outside any shard lock, grouping members by
    /// backend identity so each group pays one durability barrier. Errors
    /// fall back to per-item writes for precise per-owner attribution.
    /// Returns each key with its sticky error, if any.
    fn write_batch(batch: Vec<(Key, Job)>, counters: &Counters) -> Vec<(Key, Option<String>)> {
        // Group indices by backend identity, preserving submission order.
        let mut groups: Vec<(Arc<dyn CheckpointBackend>, Vec<usize>)> = Vec::new();
        for (i, (_, job)) in batch.iter().enumerate() {
            if let Some(g) = groups.iter_mut().find(|(b, _)| Arc::ptr_eq(b, &job.backend)) {
                g.1.push(i);
            } else {
                groups.push((Arc::clone(&job.backend), vec![i]));
            }
        }
        let mut results: Vec<Option<Result<PutStats>>> = Vec::new();
        results.resize_with(batch.len(), || None);
        for (backend, idxs) in &groups {
            if idxs.len() == 1 {
                let i = idxs[0];
                let (key, job) = &batch[i];
                let res = backend.put_shared(RankId(key.1), job.epoch, &job.blob);
                if matches!(&res, Ok(s) if s.fsync_us > 0) {
                    counters.batched_fsyncs.fetch_add(1, Ordering::Relaxed);
                }
                results[i] = Some(res);
                continue;
            }
            let items: Vec<BatchItem<'_>> = idxs
                .iter()
                .map(|&i| {
                    let (key, job) = &batch[i];
                    BatchItem { owner: RankId(key.1), epoch: job.epoch, blob: &job.blob }
                })
                .collect();
            match backend.put_batch(&items) {
                Ok(stats) => {
                    counters.batched_fsyncs.fetch_add(stats.fsyncs, Ordering::Relaxed);
                    for (slot, &i) in idxs.iter().enumerate() {
                        let per = stats.per_item.get(slot).copied().unwrap_or_default();
                        results[i] = Some(Ok(per));
                    }
                }
                Err(_) => {
                    // The batch call cannot say which member failed; retry
                    // each individually so sticky errors name the right key.
                    for &i in idxs {
                        let (key, job) = &batch[i];
                        let res = backend.put_shared(RankId(key.1), job.epoch, &job.blob);
                        if matches!(&res, Ok(s) if s.fsync_us > 0) {
                            counters.batched_fsyncs.fetch_add(1, Ordering::Relaxed);
                        }
                        results[i] = Some(res);
                    }
                }
            }
        }
        let mut outcomes = Vec::with_capacity(batch.len());
        for ((key, mut job), res) in batch.into_iter().zip(results) {
            let res = res.expect("every batch member has a result");
            let hidden = job.submitted.elapsed();
            if let Some(cb) = job.on_done.take() {
                cb(&res, hidden);
            }
            match res {
                Ok(_) => {
                    counters.completed.fetch_add(1, Ordering::Relaxed);
                    counters.bytes_written.fetch_add(job.blob.len() as u64, Ordering::Relaxed);
                    outcomes.push((key, None));
                }
                Err(e) => outcomes.push((key, Some(e.to_string()))),
            }
        }
        outcomes
    }

    /// Enqueue a write of `blob` as `(job, owner)`'s checkpoint at `epoch`
    /// on `backend`. The blob is shared, not copied: pass the `Arc` the
    /// caller already holds (or a `Vec`, which moves in), and a memory
    /// backend keeps that same allocation.
    ///
    /// If an older job for the same key is still queued (not yet started),
    /// it is replaced — its write never happens and its completion
    /// callback is dropped — and the submission is admitted immediately
    /// (memory did not grow). Otherwise, a full shard queue blocks the
    /// caller until the device drains, reported as [`Admission::Delayed`].
    pub fn submit(
        &self,
        job: u32,
        owner: RankId,
        epoch: u64,
        blob: impl Into<Arc<Vec<u8>>>,
        backend: Arc<dyn CheckpointBackend>,
        on_done: Option<OnDone>,
    ) -> Admission {
        let key = (job, owner.0);
        let shard = self.shard_of(key);
        let rec = Job { epoch, blob: blob.into(), backend, submitted: Instant::now(), on_done };
        let mut st = shard.state.lock().unwrap();
        let mut admission = Admission::Accepted;
        if !st.pending.contains_key(&key) && st.pending.len() >= self.cfg.queue_depth {
            let wait_start = Instant::now();
            while st.pending.len() >= self.cfg.queue_depth
                && !st.pending.contains_key(&key)
                && !st.stop
            {
                st = shard.cv.wait(st).unwrap();
            }
            self.counters.admission_waits.fetch_add(1, Ordering::Relaxed);
            admission =
                Admission::Delayed { waited_us: wait_start.elapsed().as_micros().max(1) as u64 };
        }
        if st.pending.insert(key, rec).is_some() {
            // Key already queued: job replaced in place, queue entry reused.
            self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
        } else {
            st.queue.push_back(key);
        }
        shard.cv.notify_all();
        admission
    }

    /// Block until `(job, owner)` has no queued or in-flight write, then
    /// surface (and clear) any sticky write error for that key.
    pub fn flush_owner(&self, job: u32, owner: RankId) -> Result<()> {
        let key = (job, owner.0);
        let shard = self.shard_of(key);
        let mut st = shard.state.lock().unwrap();
        while st.pending.contains_key(&key) || st.writing.contains(&key) {
            st = shard.cv.wait(st).unwrap();
        }
        match st.errors.remove(&key) {
            Some(e) => Err(MpiError::app(format!("checkpoint write for rank {owner} failed: {e}"))),
            None => Ok(()),
        }
    }

    /// Block until every key belonging to `job` is drained across all
    /// shards; the first sticky error for that job wins.
    pub fn flush_job(&self, job: u32) -> Result<()> {
        let mut first: Option<(Key, String)> = None;
        for shard in &self.shards {
            let mut st = shard.state.lock().unwrap();
            while st.pending.keys().any(|k| k.0 == job) || st.writing.iter().any(|k| k.0 == job) {
                st = shard.cv.wait(st).unwrap();
            }
            let doomed: Vec<Key> = st.errors.keys().filter(|k| k.0 == job).copied().collect();
            for k in doomed {
                let e = st.errors.remove(&k).unwrap();
                first.get_or_insert((k, e));
            }
        }
        match first {
            Some(((_, owner), e)) => {
                Err(MpiError::app(format!("checkpoint write for rank {owner} failed: {e}")))
            }
            None => Ok(()),
        }
    }

    /// Block until every queue is fully drained; first sticky error wins.
    pub fn flush_all(&self) -> Result<()> {
        let mut first: Option<(Key, String)> = None;
        for shard in &self.shards {
            let mut st = shard.state.lock().unwrap();
            while !st.pending.is_empty() || !st.writing.is_empty() {
                st = shard.cv.wait(st).unwrap();
            }
            if first.is_none() {
                if let Some(k) = st.errors.keys().next().copied() {
                    let e = st.errors.remove(&k).unwrap();
                    first = Some((k, e));
                }
            }
        }
        match first {
            Some(((_, owner), e)) => {
                Err(MpiError::app(format!("checkpoint write for rank {owner} failed: {e}")))
            }
            None => Ok(()),
        }
    }

    /// Progress counters plus the current queue-depth gauge.
    pub fn stats(&self) -> WriterStats {
        let queue_depth: u64 =
            self.shards.iter().map(|s| s.state.lock().unwrap().pending.len() as u64).sum();
        WriterStats {
            completed: self.counters.completed.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
            batched_fsyncs: self.counters.batched_fsyncs.load(Ordering::Relaxed),
            admission_waits: self.counters.admission_waits.load(Ordering::Relaxed),
            queue_depth,
        }
    }
}

impl Drop for AsyncWriter {
    fn drop(&mut self) {
        for shard in &self.shards {
            let mut st = shard.state.lock().unwrap();
            st.stop = true;
            shard.cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BatchStats, MemBackend};

    /// One worker, one-job batches: the legacy double-buffer shape, used
    /// where tests need deterministic queue occupancy.
    fn serial() -> WriterConfig {
        WriterConfig { shards: 1, queue_depth: 64, batch_bytes: 1, linger_us: 0 }
    }

    #[test]
    fn submit_then_flush_is_durable() {
        let w = AsyncWriter::new();
        let backend: Arc<MemBackend> = Arc::new(MemBackend::new());
        let dyn_backend: Arc<dyn CheckpointBackend> = Arc::clone(&backend) as _;
        let adm = w.submit(0, RankId(0), 1, vec![1, 2, 3], Arc::clone(&dyn_backend), None);
        assert_eq!(adm, Admission::Accepted);
        w.flush_owner(0, RankId(0)).unwrap();
        assert_eq!(backend.get(RankId(0), 1).unwrap().unwrap(), vec![1, 2, 3]);
    }

    struct Slow(MemBackend, Duration);
    impl CheckpointBackend for Slow {
        fn put(&self, owner: RankId, epoch: u64, blob: &[u8]) -> Result<PutStats> {
            std::thread::sleep(self.1);
            self.0.put(owner, epoch, blob)
        }
        fn get(&self, owner: RankId, epoch: u64) -> Result<Option<Vec<u8>>> {
            self.0.get(owner, epoch)
        }
        fn epochs_of(&self, owner: RankId) -> Result<Vec<u64>> {
            self.0.epochs_of(owner)
        }
        fn remove(&self, owner: RankId, epoch: u64) -> Result<bool> {
            self.0.remove(owner, epoch)
        }
    }

    #[test]
    fn newer_submission_supersedes_queued_older_one() {
        // Saturate a single-shard writer with a slow backend so the second
        // submit for rank 1 lands while the first is still queued.
        let w = AsyncWriter::with_config(serial());
        let backend = Arc::new(Slow(MemBackend::new(), Duration::from_millis(20)));
        let dyn_backend: Arc<dyn CheckpointBackend> = Arc::clone(&backend) as _;
        // Rank 0's slow write occupies the worker...
        w.submit(0, RankId(0), 1, vec![0], Arc::clone(&dyn_backend), None);
        // ...while rank 1 submits twice; the epoch-1 job must be replaced.
        w.submit(0, RankId(1), 1, vec![1], Arc::clone(&dyn_backend), None);
        w.submit(0, RankId(1), 2, vec![2], Arc::clone(&dyn_backend), None);
        w.flush_all().unwrap();
        assert_eq!(backend.0.get(RankId(1), 2).unwrap().unwrap(), vec![2]);
        let stats = w.stats();
        assert!(stats.coalesced >= 1, "expected a coalesced submission: {stats:?}");
        assert_eq!(stats.completed + stats.coalesced, 3);
        assert_eq!(stats.bytes_written, stats.completed, "each completed write was one byte");
    }

    #[test]
    fn same_rank_of_two_jobs_never_coalesces() {
        // The double-buffer key is (job, owner): two jobs' rank 0 must
        // both land, even when submitted back-to-back against a slow device.
        let w = AsyncWriter::with_config(serial());
        let backend = Arc::new(Slow(MemBackend::new(), Duration::from_millis(10)));
        let dyn_backend: Arc<dyn CheckpointBackend> = Arc::clone(&backend) as _;
        w.submit(7, RankId(0), 1, vec![7], Arc::clone(&dyn_backend), None);
        w.submit(8, RankId(0), 1, vec![8], Arc::clone(&dyn_backend), None);
        w.flush_job(7).unwrap();
        w.flush_job(8).unwrap();
        let stats = w.stats();
        assert_eq!(stats.coalesced, 0, "{stats:?}");
        assert_eq!(stats.completed, 2, "{stats:?}");
        // Both jobs' blobs are present under the same (owner, epoch) —
        // distinct backends in real deployments; here the payloads differ.
        assert!(backend.0.get(RankId(0), 1).unwrap().is_some());
    }

    #[test]
    fn write_errors_are_sticky_until_flush() {
        struct Failing;
        impl CheckpointBackend for Failing {
            fn put(&self, _: RankId, _: u64, _: &[u8]) -> Result<PutStats> {
                Err(MpiError::app("disk full"))
            }
            fn get(&self, _: RankId, _: u64) -> Result<Option<Vec<u8>>> {
                Ok(None)
            }
            fn epochs_of(&self, _: RankId) -> Result<Vec<u64>> {
                Ok(Vec::new())
            }
            fn remove(&self, _: RankId, _: u64) -> Result<bool> {
                Ok(false)
            }
        }
        let w = AsyncWriter::new();
        w.submit(0, RankId(3), 1, vec![9], Arc::new(Failing), None);
        let err = w.flush_owner(0, RankId(3)).unwrap_err();
        assert!(err.to_string().contains("disk full"), "unexpected error: {err}");
        // Error was consumed; the next flush is clean.
        w.flush_owner(0, RankId(3)).unwrap();
    }

    #[test]
    fn completion_callback_reports_hidden_latency() {
        let w = AsyncWriter::new();
        let seen = Arc::new(Mutex::new(None));
        let seen2 = Arc::clone(&seen);
        w.submit(
            0,
            RankId(0),
            7,
            vec![1],
            Arc::new(MemBackend::new()),
            Some(Box::new(move |res, hidden| {
                *seen2.lock().unwrap() = Some((res.is_ok(), hidden));
            })),
        );
        w.flush_owner(0, RankId(0)).unwrap();
        let (ok, _hidden) = seen.lock().unwrap().take().expect("callback ran");
        assert!(ok);
    }

    #[test]
    fn drop_joins_cleanly_with_queued_work() {
        let backend: Arc<MemBackend> = Arc::new(MemBackend::new());
        {
            let w = AsyncWriter::new();
            for e in 1..=8u64 {
                w.submit(0, RankId(0), e, vec![e as u8], Arc::clone(&backend) as _, None);
            }
            w.flush_all().unwrap();
        } // drop joins the worker threads
        assert!(backend.get(RankId(0), 8).unwrap().unwrap() == vec![8]);
    }

    /// Satellite: the bounded queue really bounds memory. A slow device
    /// fills a depth-2 queue; further distinct-owner submissions must block
    /// (Admission::Delayed with a real wait), the admission-wait counter
    /// must increment, and queued jobs never exceed the configured depth.
    #[test]
    fn backpressure_blocks_and_bounds_the_queue() {
        let cfg = WriterConfig { shards: 1, queue_depth: 2, batch_bytes: 1, linger_us: 0 };
        let w = AsyncWriter::with_config(cfg);
        let backend = Arc::new(Slow(MemBackend::new(), Duration::from_millis(10)));
        let dyn_backend: Arc<dyn CheckpointBackend> = Arc::clone(&backend) as _;
        let mut delayed = 0u32;
        for r in 0..6u32 {
            let adm = w.submit(0, RankId(r), 1, vec![r as u8], Arc::clone(&dyn_backend), None);
            if adm.is_delayed() {
                assert!(adm.waited_us() > 0, "{adm:?}");
                delayed += 1;
            }
            assert!(w.stats().queue_depth <= 2, "queue grew past its bound: {:?}", w.stats());
        }
        w.flush_all().unwrap();
        assert!(delayed >= 1, "a 10ms-per-write device must push back on 6 rapid submits");
        let stats = w.stats();
        assert_eq!(stats.completed, 6);
        assert!(stats.admission_waits >= delayed as u64, "{stats:?}");
        for r in 0..6u32 {
            assert!(backend.0.get(RankId(r), 1).unwrap().is_some(), "rank {r} blob lost");
        }
    }

    /// Small blobs group-commit: with a worker pinned behind one slow write,
    /// the backlog drains as one `put_batch`, so the batch pays one
    /// durability barrier for many completed blobs (fsyncs/blob < 1).
    #[test]
    fn batching_amortizes_durability_barriers() {
        struct SlowBatch(MemBackend);
        impl CheckpointBackend for SlowBatch {
            fn put(&self, owner: RankId, epoch: u64, blob: &[u8]) -> Result<PutStats> {
                std::thread::sleep(Duration::from_millis(30));
                self.0.put(owner, epoch, blob)?;
                Ok(PutStats { fsync_us: 1 })
            }
            fn put_batch(&self, items: &[BatchItem<'_>]) -> Result<BatchStats> {
                let mut stats = self.0.put_batch(items)?;
                stats.fsyncs = 1;
                for s in &mut stats.per_item {
                    s.fsync_us = 1;
                }
                Ok(stats)
            }
            fn get(&self, owner: RankId, epoch: u64) -> Result<Option<Vec<u8>>> {
                self.0.get(owner, epoch)
            }
            fn epochs_of(&self, owner: RankId) -> Result<Vec<u64>> {
                self.0.epochs_of(owner)
            }
            fn remove(&self, owner: RankId, epoch: u64) -> Result<bool> {
                self.0.remove(owner, epoch)
            }
        }
        let cfg = WriterConfig { shards: 1, queue_depth: 64, batch_bytes: 1 << 20, linger_us: 0 };
        let w = AsyncWriter::with_config(cfg);
        let backend = Arc::new(SlowBatch(MemBackend::new()));
        let dyn_backend: Arc<dyn CheckpointBackend> = Arc::clone(&backend) as _;
        // The first write pins the worker for 30ms...
        w.submit(0, RankId(100), 1, vec![0], Arc::clone(&dyn_backend), None);
        std::thread::sleep(Duration::from_millis(5));
        // ...so these eight queue up and drain as one batch.
        for r in 0..8u32 {
            w.submit(0, RankId(r), 1, vec![r as u8], Arc::clone(&dyn_backend), None);
        }
        w.flush_all().unwrap();
        let stats = w.stats();
        assert_eq!(stats.completed, 9, "{stats:?}");
        assert!(
            stats.batched_fsyncs < stats.completed,
            "batching must beat one barrier per blob: {stats:?}"
        );
        for r in 0..8u32 {
            assert_eq!(backend.0.get(RankId(r), 1).unwrap().unwrap(), vec![r as u8]);
        }
    }

    /// The linger window pulls stragglers into the current batch instead of
    /// letting each pay its own barrier.
    #[test]
    fn linger_window_extends_a_batch() {
        struct CountBatches(MemBackend, AtomicU64);
        impl CheckpointBackend for CountBatches {
            fn put(&self, owner: RankId, epoch: u64, blob: &[u8]) -> Result<PutStats> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.put(owner, epoch, blob)
            }
            fn put_batch(&self, items: &[BatchItem<'_>]) -> Result<BatchStats> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.put_batch(items)
            }
            fn get(&self, owner: RankId, epoch: u64) -> Result<Option<Vec<u8>>> {
                self.0.get(owner, epoch)
            }
            fn epochs_of(&self, owner: RankId) -> Result<Vec<u64>> {
                self.0.epochs_of(owner)
            }
            fn remove(&self, owner: RankId, epoch: u64) -> Result<bool> {
                self.0.remove(owner, epoch)
            }
        }
        let cfg =
            WriterConfig { shards: 1, queue_depth: 64, batch_bytes: 1 << 20, linger_us: 200_000 };
        let w = AsyncWriter::with_config(cfg);
        let backend = Arc::new(CountBatches(MemBackend::new(), AtomicU64::new(0)));
        let dyn_backend: Arc<dyn CheckpointBackend> = Arc::clone(&backend) as _;
        w.submit(0, RankId(0), 1, vec![1], Arc::clone(&dyn_backend), None);
        // Straggler arrives within the linger window.
        std::thread::sleep(Duration::from_millis(20));
        w.submit(0, RankId(1), 1, vec![2], Arc::clone(&dyn_backend), None);
        w.flush_all().unwrap();
        let stats = w.stats();
        assert_eq!(stats.completed, 2, "{stats:?}");
        assert_eq!(
            backend.1.load(Ordering::Relaxed),
            1,
            "both writes should share one lingered batch"
        );
    }
}
