//! Ablations (DESIGN.md A1–A3).
//!
//! * **A1** — §5.2.2's claim that ~50 pre-posted replays per process give
//!   good recovery performance: sweep the window.
//! * **A2** — §6.6's discussion of clustering strategy: compare naive
//!   blocks, the min-total tool of \[30\], and a min-max variant on cut volume
//!   and per-rank logging balance.
//! * **A3** — the cost of identifier-based matching (§5.2.1): failure-free
//!   AMG with and without `(pattern_id, iteration_id)` enforcement.

use crate::fig5::measure_recovery;
use crate::profile::{clustering_for, native_median, profile, run_with};
use crate::report::{f2, f3, TextTable};
use crate::Scale;
use mini_mpi::error::Result;
use spbc_apps::Workload;
use spbc_clustering::{partition, Objective, PartitionOpts};
use spbc_core::{ClusterMap, SpbcConfig, SpbcProvider};
use std::sync::Arc;

/// A1: recovery time vs pre-post window.
pub fn prepost_window(scale: &Scale) -> Result<String> {
    let w = Workload::MiniGhost;
    let prof = profile(w, scale)?;
    let k = 4.min(scale.nodes());
    let mut t = TextTable::new(&["window", "normalized recovery"]);
    for window in [1usize, 2, 5, 10, 50, 200] {
        let clusters = clustering_for(&prof, k, scale);
        let cfg = SpbcConfig { replay_window: window, ..Default::default() };
        let (normalized, _) = measure_recovery(w, scale, &prof, clusters, cfg)?;
        t.row(vec![window.to_string(), f3(normalized)]);
    }
    Ok(format!(
        "A1: MiniGhost recovery vs replay pre-post window (paper's choice: 50)\n{}",
        t.render()
    ))
}

/// A2: clustering strategies on cut volume and balance.
pub fn clustering_strategies(scale: &Scale) -> Result<String> {
    let mut t = TextTable::new(&["App", "strategy", "cut MB", "max/rank MB", "avg/rank MB"]);
    let k = 4.min(scale.nodes());
    for w in Workload::EVALUATION {
        let prof = profile(w, scale)?;
        let blocks: Vec<usize> = (0..scale.world).map(|r| r * k / scale.world).collect();
        let tool = partition(
            &prof.comm,
            k,
            &PartitionOpts { node_size: scale.ranks_per_node, slack: 1, ..Default::default() },
        );
        let minmax = partition(
            &prof.comm,
            k,
            &PartitionOpts {
                node_size: scale.ranks_per_node,
                slack: 1,
                objective: Objective::MinMax,
                ..Default::default()
            },
        );
        for (name, a) in [("blocks", &blocks), ("min-total", &tool), ("min-max", &minmax)] {
            let per = prof.comm.logged_per_rank(a);
            let cut = prof.comm.cut_bytes(a) as f64 / 1e6;
            let max = per.iter().copied().max().unwrap_or(0) as f64 / 1e6;
            let avg = per.iter().sum::<u64>() as f64 / per.len().max(1) as f64 / 1e6;
            t.row(vec![w.name().into(), name.into(), f3(cut), f3(max), f3(avg)]);
        }
    }
    Ok(format!("A2: clustering strategies at {k} clusters\n{}", t.render()))
}

/// A3: matching-identifier overhead on failure-free AMG.
pub fn ident_matching_overhead(scale: &Scale) -> Result<String> {
    let w = Workload::Amg;
    let prof = profile(w, scale)?;
    let app = w.build(scale.params(w));
    let (native, _) = native_median(scale, &app)?;
    let k = 4.min(scale.nodes());
    let mut t = TextTable::new(&["matching", "wall (s)", "vs native %"]);
    t.row(vec!["native".into(), f2(native.as_secs_f64()), "0.00".into()]);
    for (name, enforce) in [("ident off", false), ("ident on (SPBC)", true)] {
        let clusters = clustering_for(&prof, k, scale);
        let cfg = SpbcConfig { enforce_ident: enforce, ..Default::default() };
        let mut times = Vec::new();
        for _ in 0..scale.reps.max(1) {
            let provider = Arc::new(SpbcProvider::new(clusters.clone(), cfg.clone()));
            let report = run_with(scale, provider.clone(), &app)?;
            let run_label = format!("ablation/ident/{name}");
            crate::obs::write_trace(&run_label, &report);
            crate::obs::emit_metrics(&run_label, &provider.metrics(), &report);
            times.push(report.wall_time);
        }
        times.sort_unstable();
        let t_med = times[times.len() / 2];
        let pct = (t_med.as_secs_f64() - native.as_secs_f64()) / native.as_secs_f64() * 100.0;
        t.row(vec![name.into(), f2(t_med.as_secs_f64()), f2(pct)]);
    }
    Ok(format!("A3: (pattern, iteration) matching overhead, failure-free AMG\n{}", t.render()))
}

/// Convenience: coordinated-only baseline rollback cost (everyone restarts)
/// vs SPBC containment, on one workload — quantifying the motivation of §2.1.
pub fn containment_comparison(scale: &Scale) -> Result<String> {
    use mini_mpi::failure::FailurePlan;
    use mini_mpi::types::RankId;
    let w = Workload::MiniGhost;
    let app = w.build(scale.params(w));
    let ckpt = (scale.iters / 2).max(1);
    let mut t = TextTable::new(&["protocol", "ranks restarted", "wall (s)"]);
    for (name, clusters) in [
        ("coordinated (1 cluster)", ClusterMap::single(scale.world)),
        ("SPBC (per-node)", ClusterMap::per_node(scale.world, scale.ranks_per_node)),
    ] {
        let provider = Arc::new(SpbcProvider::new(
            clusters,
            SpbcConfig { ckpt_interval: ckpt, ..Default::default() },
        ));
        let report = mini_mpi::Runtime::builder(crate::profile::runtime_cfg(scale))
            .provider(provider.clone())
            .app(Arc::clone(&app))
            .plans(vec![FailurePlan::nth(RankId(0), scale.iters)])
            .launch()?
            .ok()?;
        let run_label = format!("ablation/containment/{name}");
        crate::obs::write_trace(&run_label, &report);
        crate::obs::emit_metrics(&run_label, &provider.metrics(), &report);
        let restarted = report.restarts.iter().filter(|&&r| r > 0).count();
        t.row(vec![name.into(), restarted.to_string(), f2(report.wall_time.as_secs_f64())]);
    }
    Ok(format!("Containment: global rollback vs hierarchical SPBC\n{}", t.render()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            world: 8,
            iters: 6,
            elems: 128,
            sleep_us: 100,
            ranks_per_node: 2,
            reps: 1,
            ..Default::default()
        }
    }

    #[test]
    fn clustering_strategies_report_renders() {
        let s = clustering_strategies(&tiny()).unwrap();
        assert!(s.contains("min-total"));
        assert!(s.contains("AMG"));
    }

    #[test]
    fn containment_comparison_runs() {
        let s = containment_comparison(&tiny()).unwrap();
        assert!(s.contains("coordinated"));
        assert!(s.contains("SPBC"));
    }
}
