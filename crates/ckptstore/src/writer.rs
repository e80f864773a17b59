//! The one background writer of a disk-rooted service: a worker thread
//! over a FIFO of `DirBackend` puts.
//!
//! The commit barrier must not pay a file's write and fsync latency
//! (Section 5 of the paper measures it as the dominant synchronous cost),
//! so a disk store's put runs here while the rank replicates, and the
//! member's [`flush_owner`](AsyncWriter::flush_owner) before it
//! acknowledges the commit is the one point that waits for it: an
//! acknowledged wave is durable. The same flush runs before GC, at restart
//! and at shutdown.
//!
//! The queue needs no bound of its own: a rank flushes its write before it
//! acknowledges the wave, and it cannot start the next wave before the
//! leader's RESUME, so each rank has at most one write outstanding and the
//! queue holds at most one blob per rank. A store that keeps its waves in
//! memory never comes here; its put is an `Arc` move on the rank's thread.
//!
//! Uses `std::sync::{Mutex, Condvar}` rather than `parking_lot`: the
//! vendored parking_lot stand-in has no condition variables.

use crate::backend::{CheckpointBackend, PutStats};
use mini_mpi::error::{MpiError, Result};
use mini_mpi::types::RankId;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a lock can fail: a thread panicked while holding it, a bug.
const POISONED: &str = "writer lock poisoned: a thread panicked holding it";

/// Completion callback: write result (with backend timing facts on
/// success) and the time from submission to durable.
pub type OnDone = Box<dyn FnOnce(&Result<PutStats>, Duration) + Send>;

/// Writer progress counters, named so call sites cannot transpose fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriterStats {
    /// Writes completed successfully.
    pub completed: u64,
    /// Completed writes that paid a durability barrier (a `DirBackend`
    /// put's file and directory fsync).
    pub batched_fsyncs: u64,
}

struct Job {
    owner: u32,
    epoch: u64,
    blob: Arc<Vec<u8>>,
    backend: Arc<dyn CheckpointBackend>,
    submitted: Instant,
    on_done: Option<OnDone>,
}

#[derive(Default)]
struct State {
    queue: VecDeque<Job>,
    /// Writes submitted and not yet finished, per owner rank.
    outstanding: HashMap<u32, usize>,
    /// Sticky per-owner error from the last failed write, surfaced at flush.
    errors: HashMap<u32, String>,
    stats: WriterStats,
    stop: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// Background writer, shared by every rank of a disk-rooted store service.
/// Dropping the writer drains the queue and joins the worker thread.
pub struct AsyncWriter {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl Default for AsyncWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl AsyncWriter {
    /// Spawn the worker thread.
    pub fn new() -> Self {
        let shared = Arc::new(Shared::default());
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("spbc-ckpt-writer".into())
            .spawn(move || Self::run(&worker))
            .expect("spawn checkpoint writer thread");
        AsyncWriter { shared, handle: Some(handle) }
    }

    fn run(shared: &Shared) {
        loop {
            let job = {
                let mut st = shared.state.lock().expect(POISONED);
                loop {
                    if let Some(job) = st.queue.pop_front() {
                        break job;
                    }
                    if st.stop {
                        return;
                    }
                    st = shared.cv.wait(st).expect(POISONED);
                }
            };
            let res = job.backend.put_shared(RankId(job.owner), job.epoch, &job.blob);
            if let Some(cb) = job.on_done {
                cb(&res, job.submitted.elapsed());
            }
            let mut st = shared.state.lock().expect(POISONED);
            let n = st.outstanding.get_mut(&job.owner).expect("a queued write is outstanding");
            *n -= 1;
            if *n == 0 {
                st.outstanding.remove(&job.owner);
            }
            match res {
                Ok(put) => {
                    st.stats.completed += 1;
                    st.stats.batched_fsyncs += u64::from(put.fsync_us > 0);
                }
                Err(e) => {
                    st.errors.insert(job.owner, e.to_string());
                }
            }
            shared.cv.notify_all();
        }
    }

    /// Enqueue a write of `blob` as `owner`'s checkpoint at `epoch` on
    /// `backend`. The blob is shared, not copied: pass the `Arc` the caller
    /// already holds (or a `Vec`, which moves in). `job` is ignored: a
    /// writer serves one run. Kept only until `spbc-perf`'s calls drop it.
    pub fn submit(
        &self,
        _job: u32,
        owner: RankId,
        epoch: u64,
        blob: impl Into<Arc<Vec<u8>>>,
        backend: Arc<dyn CheckpointBackend>,
        on_done: Option<OnDone>,
    ) {
        let job = Job {
            owner: owner.0,
            epoch,
            blob: blob.into(),
            backend,
            submitted: Instant::now(),
            on_done,
        };
        let mut st = self.shared.state.lock().expect(POISONED);
        *st.outstanding.entry(owner.0).or_default() += 1;
        st.queue.push_back(job);
        self.shared.cv.notify_all();
    }

    /// Block until `owner` has no queued or in-flight write, then surface
    /// (and clear) its sticky write error, if any. `job` is ignored, as in
    /// [`submit`](Self::submit).
    pub fn flush_owner(&self, _job: u32, owner: RankId) -> Result<()> {
        let mut st = self.shared.state.lock().expect(POISONED);
        while st.outstanding.contains_key(&owner.0) {
            st = self.shared.cv.wait(st).expect(POISONED);
        }
        match st.errors.remove(&owner.0) {
            Some(e) => Err(MpiError::app(format!("checkpoint write for rank {owner} failed: {e}"))),
            None => Ok(()),
        }
    }

    /// Block until every write is durable; clears every sticky error and
    /// reports the lowest rank's.
    pub fn flush_all(&self) -> Result<()> {
        let mut st = self.shared.state.lock().expect(POISONED);
        while !st.outstanding.is_empty() {
            st = self.shared.cv.wait(st).expect(POISONED);
        }
        match st.errors.drain().min_by_key(|&(owner, _)| owner) {
            Some((owner, e)) => {
                Err(MpiError::app(format!("checkpoint write for rank {owner} failed: {e}")))
            }
            None => Ok(()),
        }
    }

    /// Progress counters.
    pub fn stats(&self) -> WriterStats {
        self.shared.state.lock().expect(POISONED).stats
    }
}

impl Drop for AsyncWriter {
    fn drop(&mut self) {
        // Drop must not panic: a poisoned lock still takes the stop flag.
        self.shared.state.lock().unwrap_or_else(PoisonError::into_inner).stop = true;
        self.shared.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn submit_then_flush_is_durable() {
        let w = AsyncWriter::new();
        let backend: Arc<MemBackend> = Arc::new(MemBackend::new());
        w.submit(0, RankId(0), 1, vec![1, 2, 3], Arc::clone(&backend) as _, None);
        w.flush_owner(0, RankId(0)).unwrap();
        assert_eq!(backend.get(RankId(0), 1).unwrap().unwrap(), vec![1, 2, 3]);
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
        w.submit(0, RankId(5), 1, vec![9], Arc::new(Failing), None);
        let err = w.flush_all().unwrap_err();
        assert!(err.to_string().contains("rank 5"), "unexpected error: {err}");
        w.flush_all().unwrap();
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

    /// Every submitted write lands, in order, and dropping the writer joins
    /// its thread.
    #[test]
    fn drop_joins_cleanly_with_queued_work() {
        let backend: Arc<MemBackend> = Arc::new(MemBackend::new());
        {
            let w = AsyncWriter::new();
            for e in 1..=8u64 {
                w.submit(0, RankId(0), e, vec![e as u8], Arc::clone(&backend) as _, None);
            }
            w.flush_all().unwrap();
            assert_eq!(w.stats().completed, 8);
        } // drop joins the worker thread
        assert_eq!(backend.epochs_of(RankId(0)).unwrap(), (1..=8).collect::<Vec<_>>());
    }
}
