//! Running one rep of a workload — natively or under SPBC — through the
//! crates' public API, and checking its output.

use crate::procstat::{self, Usage};
use crate::spec::{WorkloadSpec, CLUSTERS, RANKS_PER_NODE, VICTIM, VICTIM_CLUSTER, WORLD};
use crate::Res;
use mini_mpi::config::{RuntimeConfig, TransportKind};
use mini_mpi::failure::FailurePlan;
use mini_mpi::ft::NativeProvider;
use mini_mpi::types::RankId;
use mini_mpi::{AppFn, RunReport, Runtime};
use spbc_apps::AppParams;
use spbc_core::env::TRACE_RING_CAPACITY;
use spbc_core::replay::DEFAULT_REPLAY_WINDOW;
use spbc_core::{ClusterMap, MetricsSnapshot, ReplayPolicy, SpbcConfig, SpbcProvider};
use std::sync::Arc;
use std::time::Duration;

/// A workload with its inputs built from the seed. The program under test
/// only ever sees `app`.
pub struct Built {
    pub spec: WorkloadSpec,
    pub app: Arc<AppFn>,
}

pub fn build(spec: WorkloadSpec, seed: u64) -> Built {
    let params = AppParams { seed, sleep_us: 0, ..spec.app.tuned_params(spec.iters, spec.elems) };
    Built { spec, app: spec.app.build(params) }
}

fn runtime_cfg(traced: bool) -> RuntimeConfig {
    let cfg = RuntimeConfig::new(WORLD)
        .with_ranks_per_node(RANKS_PER_NODE)
        .with_transport(TransportKind::InProc)
        .with_deadlock_timeout(Duration::from_secs(60));
    if traced {
        cfg.with_flight_recorder(TRACE_RING_CAPACITY)
    } else {
        cfg
    }
}

/// Every field explicit: `SpbcConfig::default()` reads ambient `SPBC_*`.
pub fn spbc_cfg(ckpt_interval: u64) -> SpbcConfig {
    SpbcConfig {
        ckpt_interval,
        replay_window: DEFAULT_REPLAY_WINDOW,
        enforce_ident: true,
        replay_policy: ReplayPolicy::Windowed,
        free_logs_on_checkpoint: false,
        replicas: 2,
        async_ckpt_writes: true,
        ckpt_chunk: 64 * 1024,
        ckpt_full_every: 8,
        ckpt_cdc: true,
        cdc_min: 256,
        cdc_avg: 1024,
        cdc_max: 4096,
        metrics_interval_ms: 0,
        ec_scheme: "off".to_string(),
        ec_group: 4,
        ec_m: 2,
        tier_policy: "mem:0,local:all".to_string(),
        lose_local_on_failure: false,
        store_shards: 8,
        write_queue: 64,
        batch_bytes: 1 << 20,
        batch_linger_us: 0,
    }
}

/// What one rep produced and consumed.
pub struct Rep {
    pub report: RunReport,
    /// Process CPU time and minor faults over the rep.
    pub usage: Usage,
    /// The protocol's own counters (SPBC reps only).
    pub metrics: Option<MetricsSnapshot>,
}

impl Rep {
    pub fn wall_s(&self) -> f64 {
        self.report.wall_time.as_secs_f64()
    }

    /// Failure to caught-up: the slowest restarted rank's final-epoch time.
    pub fn recovery_s(&self) -> f64 {
        VICTIM_CLUSTER
            .iter()
            .map(|&r| self.report.stats[r].total_time.as_secs_f64())
            .fold(0.0, f64::max)
    }
}

pub fn run_native(b: &Built) -> Res<Rep> {
    let before = procstat::usage();
    let report = Runtime::builder(runtime_cfg(false))
        .provider(Arc::new(NativeProvider))
        .app(Arc::clone(&b.app))
        .launch()?
        .ok()?;
    Ok(Rep { report, usage: procstat::usage().since(&before), metrics: None })
}

/// One SPBC rep on a fresh provider with the in-memory checkpoint store.
/// `after` sees the provider once the run is over, before it is dropped.
/// CPU and faults are charged from launch until the provider — and with it
/// the store's writer threads — is gone.
pub fn run_spbc_with<T>(
    b: &Built,
    traced: bool,
    after: impl FnOnce(&SpbcProvider) -> Res<T>,
) -> Res<(Rep, T)> {
    let before = procstat::usage();
    let provider = Arc::new(SpbcProvider::new(
        ClusterMap::blocks(WORLD, CLUSTERS),
        spbc_cfg(b.spec.ckpt_every),
    ));
    let mut run = Runtime::builder(runtime_cfg(traced))
        .provider(Arc::clone(&provider) as Arc<dyn mini_mpi::ft::FtProvider>)
        .app(Arc::clone(&b.app));
    if b.spec.fail {
        run = run.plan(FailurePlan::nth(RankId(VICTIM), b.spec.iters));
    }
    let report = run.launch()?.ok()?;
    let metrics = provider.metrics().snapshot();
    let extra = after(&provider)?;
    drop(provider);
    let rep = Rep { report, usage: procstat::usage().since(&before), metrics: Some(metrics) };
    Ok((rep, extra))
}

pub fn run_spbc(b: &Built, traced: bool) -> Res<Rep> {
    run_spbc_with(b, traced, |_| Ok(())).map(|(rep, ())| rep)
}

/// Why an SPBC rep's result is wrong, if it is: outputs must equal the
/// native outputs bitwise and exactly the planned failures were handled.
pub fn check(b: &Built, native: &RunReport, spbc: &RunReport) -> Option<String> {
    let expected_failures = usize::from(b.spec.fail);
    if spbc.failures_handled != expected_failures {
        return Some(format!(
            "failures_handled = {} (expected {expected_failures})",
            spbc.failures_handled
        ));
    }
    if spbc.outputs != native.outputs {
        let rank = spbc.outputs.iter().zip(&native.outputs).position(|(a, b)| a != b);
        return Some(format!("outputs differ from native (first differing rank: {rank:?})"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn every_smoke_workload_matches_native_bitwise() {
        for w in WORKLOADS {
            let b = build(w.smoke(), 7);
            let native = run_native(&b).unwrap();
            let spbc = run_spbc(&b, false).unwrap();
            assert_eq!(check(&b, &native.report, &spbc.report), None, "{}", w.name);
            let m = spbc.metrics.unwrap();
            assert!(m.checkpoints > 0, "{}", w.name);
            assert_eq!(m.rollbacks > 0, w.fail, "{}", w.name);
        }
    }

    #[test]
    fn check_reports_divergence() {
        let b = build(WORKLOADS[0].smoke(), 7);
        let native = run_native(&b).unwrap().report;
        let mut bad = run_native(&b).unwrap().report;
        assert_eq!(check(&b, &native, &bad), None);
        bad.outputs[1][0] ^= 1;
        assert!(check(&b, &native, &bad).unwrap().contains("Some(1)"));
        bad.failures_handled = 3;
        assert!(check(&b, &native, &bad).unwrap().contains("failures_handled"));
    }
}
