//! `spbc-storm` — multi-tenant saturation benchmark for the sharded,
//! batching checkpoint service.
//!
//! N concurrent jobs (tenants of one [`ShardedStore`] hub) commit waves of
//! CDC-encoded checkpoints against a shared simulated device whose latency
//! model makes the pipeline's economics visible:
//!
//! * **Shard scaling** — with one store shard every write serializes
//!   through one worker; with many shards the device waits overlap, so
//!   aggregate commit throughput scales until the device itself saturates.
//! * **Fsync amortization** — small blobs that queue behind a slow device
//!   drain as one group-committed `put_batch`, pushing fsyncs-per-blob
//!   below 1.0; the unbatched control row stays at 1.0.
//! * **Backpressure** — the bounded submission queue pushes back on
//!   oversubscribed jobs ([`spbc_ckptstore::Admission::Delayed`]); admission delays land in
//!   the p99 commit latency instead of unbounded buffering.
//! * **GC interference** — concurrent `gc_local` sweeps contend with
//!   committers on the CAS shard locks and the shared device; the `gc`
//!   rows measure what that does to commit latency.
//!
//! `spbc-storm` renders the table and writes the rows as
//! `BENCH_storm.json`.

use crate::report::{f2, TextTable};
use mini_mpi::error::Result;
use mini_mpi::types::RankId;
use spbc_ckptstore::backend::{BatchItem, BatchStats, CheckpointBackend, MemBackend, PutStats};
use spbc_ckptstore::{CkptStoreService, ShardedStore, StoreConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared "parallel filesystem" with a latency model: every put pays a
/// per-blob media cost, every durability barrier a fixed fsync cost, and a
/// batched put pays the media cost per member but the barrier **once** —
/// the device-side fact that makes group commit worth anything. Blob bytes
/// land in a [`MemBackend`]; all tenants share one device, so keys may
/// collide across jobs (storm measures the write path, never restores).
pub struct SimDisk {
    mem: MemBackend,
    media_us: u64,
    fsync_us: u64,
}

impl SimDisk {
    /// A device paying `media_us` per blob and `fsync_us` per barrier.
    pub fn new(media_us: u64, fsync_us: u64) -> Self {
        SimDisk { mem: MemBackend::new(), media_us, fsync_us }
    }
}

impl CheckpointBackend for SimDisk {
    fn put(&self, owner: RankId, epoch: u64, blob: &[u8]) -> Result<PutStats> {
        std::thread::sleep(Duration::from_micros(self.media_us + self.fsync_us));
        self.mem.put(owner, epoch, blob)?;
        Ok(PutStats { fsync_us: self.fsync_us, drain_us: 0 })
    }

    fn put_batch(&self, items: &[BatchItem<'_>]) -> Result<BatchStats> {
        if items.is_empty() {
            return Ok(BatchStats::default());
        }
        let n = items.len() as u64;
        std::thread::sleep(Duration::from_micros(self.media_us * n + self.fsync_us));
        let mut stats = self.mem.put_batch(items)?;
        stats.fsyncs = 1;
        for s in &mut stats.per_item {
            s.fsync_us = self.fsync_us / n;
        }
        Ok(stats)
    }

    fn get(&self, owner: RankId, epoch: u64) -> Result<Option<Vec<u8>>> {
        self.mem.get(owner, epoch)
    }

    fn epochs_of(&self, owner: RankId) -> Result<Vec<u64>> {
        self.mem.epochs_of(owner)
    }

    fn remove(&self, owner: RankId, epoch: u64) -> Result<bool> {
        self.mem.remove(owner, epoch)
    }
}

/// One storm scenario: pipeline shape plus load shape.
#[derive(Clone, Debug)]
pub struct StormConfig {
    /// Scenario label for the report row.
    pub scenario: String,
    /// Store shards / writer workers (`SPBC_STORE_SHARDS`).
    pub shards: usize,
    /// Hard per-shard submission-queue depth (`SPBC_WRITE_QUEUE`).
    pub write_queue: usize,
    /// Batch byte target; 1 disables coalescing (`SPBC_BATCH_BYTES`).
    pub batch_bytes: usize,
    /// Group-commit linger window (`SPBC_BATCH_LINGER_US`).
    pub linger_us: u64,
    /// Concurrent tenant jobs.
    pub jobs: usize,
    /// Ranks per job (each wave commits every rank, so keys-per-shard and
    /// batch opportunity grow with this).
    pub ranks: usize,
    /// Checkpoint waves per job.
    pub waves: u64,
    /// Per-rank body bytes (small blobs are the batching regime).
    pub body_bytes: usize,
    /// Run a concurrent GC sweeper thread per job.
    pub gc: bool,
    /// Simulated per-blob media microseconds.
    pub media_us: u64,
    /// Simulated per-barrier fsync microseconds.
    pub fsync_us: u64,
}

impl StormConfig {
    /// The baseline shape every scenario starts from.
    pub fn base(jobs: usize, waves: u64) -> Self {
        StormConfig {
            scenario: "sharded".into(),
            shards: 8,
            write_queue: 4,
            batch_bytes: 1 << 20,
            linger_us: 0,
            jobs,
            ranks: 4,
            waves,
            body_bytes: 2 << 10,
            gc: false,
            // The regime batching targets: the barrier dwarfs the media
            // cost, so one fsync over a batch is the whole ballgame.
            media_us: 50,
            fsync_us: 3000,
        }
    }
}

/// One report row: aggregate throughput and commit-latency shape of a run.
#[derive(Clone, Debug)]
pub struct StormRow {
    /// Scenario label.
    pub scenario: String,
    /// Store shards the hub ran with.
    pub shards: usize,
    /// Concurrent jobs.
    pub jobs: usize,
    /// Whether small-blob batching was enabled.
    pub batched: bool,
    /// Whether concurrent GC sweepers ran.
    pub gc: bool,
    /// Total commits across all jobs.
    pub commits: u64,
    /// Wall time from first commit to full drain (ms).
    pub wall_ms: u64,
    /// Aggregate commit throughput (commits per second).
    pub throughput: f64,
    /// Median synchronous commit latency (µs): flush + encode + admission.
    pub p50_us: u64,
    /// Tail synchronous commit latency (µs).
    pub p99_us: u64,
    /// Durability barriers per committed blob (< 1.0 when batching works).
    pub fsyncs_per_blob: f64,
    /// Submissions that hit a full queue and blocked for admission.
    pub admission_delays: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Run one storm scenario: build a fresh hub, attach `cfg.jobs` tenants on
/// one shared [`SimDisk`], and drive every job from its own thread — each
/// wave pays the protocol's synchronous commit section (previous-wave
/// flush, CDC encode, pipeline admission) while the device drains behind
/// it. GC sweepers, when enabled, prune each job's old epochs concurrently.
pub fn run_storm(cfg: &StormConfig) -> StormRow {
    let store_cfg = StoreConfig {
        cdc: true,
        async_writes: true,
        shards: cfg.shards,
        write_queue: cfg.write_queue,
        batch_bytes: cfg.batch_bytes,
        batch_linger_us: cfg.linger_us,
        ..StoreConfig::default()
    };
    let hub = ShardedStore::new(store_cfg);
    let disk = Arc::new(SimDisk::new(cfg.media_us, cfg.fsync_us));
    let tenants: Vec<Arc<CkptStoreService>> = (0..cfg.jobs)
        .map(|_| {
            let d = Arc::clone(&disk);
            Arc::new(CkptStoreService::tenant_with(&hub, cfg.ranks, |_| d.clone() as _))
        })
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let mut workers = Vec::new();
    let mut sweepers = Vec::new();
    for (j, svc) in tenants.iter().enumerate() {
        let committed = Arc::new(AtomicU64::new(0));
        if cfg.gc {
            let svc = Arc::clone(svc);
            let committed = Arc::clone(&committed);
            let stop = Arc::clone(&stop);
            let ranks = cfg.ranks;
            sweepers.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let e = committed.load(Ordering::Relaxed);
                    if e > 2 {
                        for r in 0..ranks {
                            let _ = svc.gc_local(RankId(r as u32), e - 2);
                        }
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
            }));
        }
        let svc = Arc::clone(svc);
        let waves = cfg.waves;
        let ranks = cfg.ranks;
        let body_bytes = cfg.body_bytes;
        workers.push(std::thread::spawn(move || {
            // Stable per-rank bodies with a small dirty region per wave:
            // the CDC regime the batching path targets (small physical
            // blobs riding a mostly-unchanged working set).
            let mut bodies: Vec<Vec<u8>> = (0..ranks)
                .map(|r| {
                    let mut body = vec![0u8; body_bytes];
                    let mut x = 0x5bd1_e995_u64 ^ ((j as u64) << 16) ^ r as u64;
                    for b in body.iter_mut() {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        *b = (x >> 56) as u8;
                    }
                    body
                })
                .collect();
            let mut lats = Vec::with_capacity((waves as usize) * ranks);
            let mut delays = 0u64;
            for epoch in 1..=waves {
                for (r, body) in bodies.iter_mut().enumerate() {
                    let rank = RankId(r as u32);
                    body[0] = (epoch % 251) as u8 + 1;
                    body[body_bytes / 2] = (epoch % 239) as u8 + 1;
                    let t = Instant::now();
                    svc.flush_rank(rank).expect("previous wave durable");
                    let (blob, _) = svc.encode_commit(rank, epoch, body).expect("encode");
                    let adm = svc.commit_local(rank, epoch, blob, None).expect("commit");
                    lats.push(t.elapsed().as_micros() as u64);
                    if adm.is_delayed() {
                        delays += 1;
                    }
                }
                committed.store(epoch, Ordering::Relaxed);
            }
            svc.flush_all().expect("drain");
            (lats, delays)
        }));
    }
    let mut lats = Vec::new();
    let mut delays = 0u64;
    for w in workers {
        let (l, d) = w.join().expect("storm job thread");
        lats.extend(l);
        delays += d;
    }
    let wall = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    for s in sweepers {
        s.join().expect("storm gc thread");
    }
    let ws = hub.writer_stats();
    lats.sort_unstable();
    let commits = cfg.jobs as u64 * cfg.waves * cfg.ranks as u64;
    StormRow {
        scenario: cfg.scenario.clone(),
        shards: cfg.shards,
        jobs: cfg.jobs,
        batched: cfg.batch_bytes > 1,
        gc: cfg.gc,
        commits,
        wall_ms: wall.as_millis() as u64,
        throughput: commits as f64 / wall.as_secs_f64(),
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        fsyncs_per_blob: if ws.completed == 0 {
            0.0
        } else {
            ws.batched_fsyncs as f64 / ws.completed as f64
        },
        admission_delays: delays,
    }
}

/// The full sweep: shard scaling (single-shard vs sharded, both batched),
/// the unbatched fsync control, and GC interference at both shard counts.
pub fn run(jobs: usize, waves: u64) -> Vec<StormRow> {
    let base = StormConfig::base(jobs, waves);
    let scenarios = [
        StormConfig { scenario: "single-shard".into(), shards: 1, ..base.clone() },
        StormConfig { scenario: "sharded".into(), ..base.clone() },
        StormConfig { scenario: "sharded/unbatched".into(), batch_bytes: 1, ..base.clone() },
        StormConfig { scenario: "single-shard/gc".into(), shards: 1, gc: true, ..base.clone() },
        StormConfig { scenario: "sharded/gc".into(), gc: true, ..base },
    ];
    scenarios.iter().map(run_storm).collect()
}

/// Render the rows with aligned columns.
pub fn render(rows: &[StormRow]) -> String {
    let mut t = TextTable::new(&[
        "Scenario",
        "Shards",
        "Jobs",
        "Batch",
        "GC",
        "Commits",
        "Wall ms",
        "Commits/s",
        "p50 us",
        "p99 us",
        "Fsyncs/blob",
        "Delays",
    ]);
    for r in rows {
        t.row(vec![
            r.scenario.clone(),
            r.shards.to_string(),
            r.jobs.to_string(),
            if r.batched { "yes" } else { "no" }.into(),
            if r.gc { "yes" } else { "no" }.into(),
            r.commits.to_string(),
            r.wall_ms.to_string(),
            f2(r.throughput),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            f2(r.fsyncs_per_blob),
            r.admission_delays.to_string(),
        ]);
    }
    format!("storm: multi-tenant saturation (shared simulated device)\n{}", t.render())
}

/// Machine-readable rows — the `BENCH_storm.json` baseline format.
pub fn to_json(rows: &[StormRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"storm\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"shards\": {}, \"jobs\": {}, \"batched\": {}, \
             \"gc\": {}, \"commits\": {}, \"wall_ms\": {}, \"throughput\": {}, \
             \"p50_us\": {}, \"p99_us\": {}, \"fsyncs_per_blob\": {}, \
             \"admission_delays\": {}}}{}\n",
            r.scenario,
            r.shards,
            r.jobs,
            r.batched,
            r.gc,
            r.commits,
            r.wall_ms,
            f2(r.throughput),
            r.p50_us,
            r.p99_us,
            f2(r.fsyncs_per_blob),
            r.admission_delays,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reduced scale: the shard-scaling acceptance target must already show
    /// on an unbatched device sweep (pure worker parallelism, no batch
    /// shape to confound it).
    #[test]
    fn sharded_store_scales_aggregate_throughput() {
        let base = StormConfig { batch_bytes: 1, waves: 8, ..StormConfig::base(4, 8) };
        let single =
            run_storm(&StormConfig { scenario: "single".into(), shards: 1, ..base.clone() });
        let sharded = run_storm(&StormConfig { scenario: "sharded".into(), ..base });
        assert!(
            sharded.throughput >= 1.5 * single.throughput,
            "sharded {sharded:?} vs single {single:?}"
        );
    }

    /// Small blobs against a slow shared device group-commit: fsyncs per
    /// committed blob must drop below 1.0, while the unbatched control pays
    /// one barrier per blob exactly.
    #[test]
    fn batching_cuts_fsyncs_per_blob_below_one() {
        let base = StormConfig { waves: 10, ..StormConfig::base(4, 10) };
        let batched = run_storm(&base);
        assert!(batched.fsyncs_per_blob < 1.0, "{batched:?}");
        let unbatched =
            run_storm(&StormConfig { scenario: "unbatched".into(), batch_bytes: 1, ..base });
        assert!(unbatched.fsyncs_per_blob >= 0.99, "{unbatched:?}");
    }

    /// Oversubscribing a depth-1 queue must surface backpressure as
    /// admission delays, and the GC sweeper must not break commits.
    #[test]
    fn oversubscription_surfaces_admission_delays() {
        let cfg = StormConfig {
            scenario: "storm/backpressure".into(),
            shards: 1,
            write_queue: 1,
            gc: true,
            waves: 8,
            ..StormConfig::base(4, 8)
        };
        let row = run_storm(&cfg);
        assert_eq!(row.commits, 128, "4 jobs x 8 waves x 4 ranks");
        assert!(row.admission_delays >= 1, "{row:?}");
        assert!(row.p99_us >= row.p50_us, "{row:?}");
    }

    #[test]
    fn render_and_json_carry_every_row() {
        let rows = vec![
            StormRow {
                scenario: "single-shard".into(),
                shards: 1,
                jobs: 8,
                batched: true,
                gc: false,
                commits: 240,
                wall_ms: 100,
                throughput: 2400.0,
                p50_us: 50,
                p99_us: 900,
                fsyncs_per_blob: 0.4,
                admission_delays: 12,
            },
            StormRow {
                scenario: "sharded/gc".into(),
                shards: 8,
                jobs: 8,
                batched: true,
                gc: true,
                commits: 240,
                wall_ms: 30,
                throughput: 8000.0,
                p50_us: 40,
                p99_us: 500,
                fsyncs_per_blob: 0.5,
                admission_delays: 2,
            },
        ];
        let table = render(&rows);
        let json = to_json(&rows);
        for r in &rows {
            assert!(table.contains(&r.scenario));
            assert!(json.contains(&r.scenario));
        }
        assert!(json.contains("\"bench\": \"storm\""));
        assert!(json.contains("\"fsyncs_per_blob\": 0.40"), "{json}");
        assert!(json.contains("\"admission_delays\": 12"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
