//! Isolated drives of single layers, timed around public calls.
//!
//! Each metric is measured inside a span of its own name, nested under a
//! span named after its layer, so the trace lists a self time per layer.
//! Every drive also checks its own output; a failed check counts as a
//! failed operation of the run.

pub mod ckptstore;
pub mod core;
pub mod mpi;

use crate::spans::Spans;
use crate::stats::median;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Outcomes of the drives' self-checks.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("layer self-check failed: {what}"));
        }
    }
}

/// What a layer drive works with and reports into.
pub struct Drive<'a> {
    /// Operations per ns/op metric (10^6; 10^4 under `--smoke`).
    pub ops: usize,
    /// Passes per bulk (MB/s, ms) metric.
    pub passes: usize,
    /// Serialized checkpoint bodies of two consecutive committed epochs of
    /// one rank of a `ckpt-store` run.
    pub body_a: Vec<u8>,
    pub body_b: Vec<u8>,
    /// Scratch directory for on-disk drives.
    pub tmp: PathBuf,
    pub spans: &'a mut Spans,
    pub checks: Checks,
    pub out: Vec<(&'static str, f64)>,
}

impl Drive<'_> {
    /// Run the drives of `layer` under one span.
    fn layer(&mut self, layer: &str, f: impl FnOnce(&mut Self)) {
        let id = self.spans.enter(layer);
        f(self);
        self.spans.exit(id);
    }

    /// Measure one metric under a span of its name and record its value.
    fn metric(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> f64) {
        let id = self.spans.enter(name);
        let v = f(self);
        self.spans.exit(id);
        self.out.push((name, v));
    }
}

/// A directory under `root` no earlier call returned, not yet created.
pub fn fresh_dir(root: &Path, tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    root.join(format!("{tag}-{}-{}", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// Median nanoseconds per operation over ten passes of `ops / 10` each.
/// `pass(n)` performs `n` operations.
pub fn ns_per_op(ops: usize, mut pass: impl FnMut(usize)) -> f64 {
    const PASSES: usize = 10;
    let batch = (ops / PASSES).max(1);
    let per_op: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass(batch);
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&per_op)
}

/// Median seconds of one call of `f` over `passes` calls.
pub fn median_secs(passes: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..passes.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

pub fn mb_per_s(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs.max(1e-12)
}

/// Run every layer drive.
pub fn run_all(d: &mut Drive<'_>) {
    mpi::run(d);
    core::run(d);
    ckptstore::run(d);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_dirs_are_distinct() {
        let root = Path::new("/nonexistent");
        assert_ne!(fresh_dir(root, "a"), fresh_dir(root, "a"));
    }
}
