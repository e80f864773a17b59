//! Log memory footprint over time (§6.2's motivation: "for some
//! applications, logs can grow very fast leading to a huge memory use").
//!
//! A sampler thread polls the shared store while the application runs,
//! producing a per-rank time series of the bytes the logs *hold* — the data
//! a deployment would use to pick a checkpoint interval. The run
//! checkpoints every `ckpt_every` iterations, and each committed wave lets
//! the receivers release what that wave covers (log GC: a member ACKs only
//! once its copy is durable, so storage keeps nothing older), so the curve
//! is a saw-tooth bounded by about one interval of traffic, not the
//! integral of the run.

use crate::profile::{clustering_for, profile, runtime_cfg};
use crate::report::{f2, TextTable};
use crate::Scale;
use mini_mpi::error::Result;
use mini_mpi::Runtime;
use spbc_apps::Workload;
use spbc_core::{SpbcConfig, SpbcProvider};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One sample of the footprint time series.
#[derive(Clone, Debug)]
pub struct MemorySample {
    /// Milliseconds since the run started.
    pub at_ms: u64,
    /// Total logged bytes across ranks.
    pub total: u64,
    /// Largest per-rank logged bytes.
    pub max_per_rank: u64,
}

/// Result of a footprint run.
#[derive(Clone, Debug)]
pub struct MemoryProfile {
    /// Workload name.
    pub app: &'static str,
    /// Cluster count used.
    pub clusters: usize,
    /// Checkpoint interval (iterations) the run used.
    pub ckpt_every: u64,
    /// Iterations the run executed.
    pub iters: u64,
    /// The samples, in time order.
    pub samples: Vec<MemorySample>,
    /// Exact per-rank high-water mark of held log bytes (the sampler can
    /// miss a peak; the log itself cannot).
    pub peak_per_rank: Vec<u64>,
    /// Cumulative bytes each rank logged over the whole run.
    pub appended_per_rank: Vec<u64>,
}

/// Run `w` under SPBC with `k` clusters, checkpointing every `ckpt_every`
/// iterations and sampling the log footprint every `interval`.
pub fn run_workload(
    w: Workload,
    scale: &Scale,
    k: usize,
    ckpt_every: u64,
    interval: Duration,
) -> Result<MemoryProfile> {
    let prof = profile(w, scale)?;
    let clusters = clustering_for(&prof, k, scale);
    let cfg = SpbcConfig { ckpt_interval: ckpt_every, ..SpbcConfig::default() };
    let provider = Arc::new(SpbcProvider::new(clusters, cfg));
    let store = provider.store();
    let sampled = Arc::clone(&store);

    let stop = Arc::new(AtomicBool::new(false));
    let sampler_stop = Arc::clone(&stop);
    let sampler = std::thread::spawn(move || {
        let t0 = Instant::now();
        let mut samples = Vec::new();
        while !sampler_stop.load(Ordering::Relaxed) {
            let per_rank = sampled.logged_bytes_per_rank();
            samples.push(MemorySample {
                at_ms: t0.elapsed().as_millis() as u64,
                total: per_rank.iter().sum(),
                max_per_rank: per_rank.iter().copied().max().unwrap_or(0),
            });
            std::thread::sleep(interval);
        }
        samples
    });

    let report = Runtime::builder(runtime_cfg(scale))
        .provider(provider.clone())
        .app(w.build(scale.params(w)))
        .launch();
    stop.store(true, Ordering::Relaxed);
    let samples = sampler.join().expect("sampler thread");
    let report = report?.ok()?;
    let run_label = format!("memory/{}/k={k}", w.name());
    crate::obs::write_trace(&run_label, &report);
    crate::obs::emit_metrics(&run_label, &provider.metrics(), &report);
    Ok(MemoryProfile {
        app: w.name(),
        clusters: k,
        ckpt_every,
        iters: scale.iters,
        samples,
        peak_per_rank: store.peak_logged_bytes_per_rank(),
        appended_per_rank: store.appended_bytes_per_rank(),
    })
}

/// Render the time series (sampled down to at most 12 rows).
pub fn render(p: &MemoryProfile) -> String {
    let mut t = TextTable::new(&["t (ms)", "total MB", "max/rank MB"]);
    let stride = (p.samples.len() / 12).max(1);
    for s in p.samples.iter().step_by(stride) {
        t.row(vec![s.at_ms.to_string(), f2(s.total as f64 / 1e6), f2(s.max_per_rank as f64 / 1e6)]);
    }
    format!(
        "Log memory footprint: {} at {} clusters, checkpoint every {} of {} iterations\n{}\
         peak held per rank {} MB of {} MB logged per rank (max over ranks)\n",
        p.app,
        p.clusters,
        p.ckpt_every,
        p.iters,
        t.render(),
        f2(p.peak_per_rank.iter().copied().max().unwrap_or(0) as f64 / 1e6),
        f2(p.appended_per_rank.iter().copied().max().unwrap_or(0) as f64 / 1e6),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_is_bounded_by_one_checkpoint_interval() {
        let scale = Scale {
            world: 8,
            iters: 24,
            elems: 256,
            sleep_us: 50,
            ranks_per_node: 2,
            reps: 1,
            ..Default::default()
        };
        let every = 3;
        let p =
            run_workload(Workload::MiniGhost, &scale, 4, every, Duration::from_millis(1)).unwrap();
        assert!(p.samples.len() >= 2, "sampler must capture the run");
        assert!(p.appended_per_rank.iter().all(|&b| b > 0), "every rank logs: {p:?}");
        // A sender holds what its receiver took in since the receiver's
        // last wave: one interval, plus the iteration or two the stencil
        // lets neighbouring clusters drift apart.
        for (r, (&peak, &total)) in p.peak_per_rank.iter().zip(&p.appended_per_rank).enumerate() {
            let bound = total * (every + 2) / scale.iters;
            assert!(peak <= bound, "rank {r}: held {peak} B > {bound} B of {total} B logged");
        }
        assert!(render(&p).contains("MiniGhost"));
    }
}
