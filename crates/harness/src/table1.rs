//! Table 1: message-log growth rate per process (MB/s), average and
//! maximum, as a function of the number of clusters.
//!
//! Methodology (§6.2): run each application under SPBC with the clustering
//! tool's configuration for each cluster count; divide each rank's logged
//! bytes by the execution time. The paper's headline observations that must
//! reproduce:
//! * more clusters ⇒ more logged data (monotone-ish average);
//! * the hybrid configurations log dramatically less than pure message
//!   logging (the per-rank row);
//! * logging is *imbalanced*: max noticeably above average for the
//!   stencil-style workloads.

use crate::profile::{clustering_for, profile, run_with};
use crate::report::{f2, TextTable};
use crate::Scale;
use mini_mpi::error::Result;
use spbc_apps::Workload;
use spbc_core::{SpbcConfig, SpbcProvider};
use std::sync::Arc;

/// One Table-1 cell: an application at a cluster count.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Application name.
    pub app: &'static str,
    /// Number of clusters.
    pub clusters: usize,
    /// Row label ("", "per-node", "per-rank").
    pub label: &'static str,
    /// Average per-rank log growth (MB/s).
    pub avg_mbps: f64,
    /// Maximum per-rank log growth (MB/s).
    pub max_mbps: f64,
    /// Total logged bytes.
    pub total_bytes: u64,
}

/// Run the Table-1 sweep for one workload.
pub fn run_workload(w: Workload, scale: &Scale) -> Result<Vec<Table1Row>> {
    let prof = profile(w, scale)?;
    let app = w.build(scale.params(w));
    let mut rows = Vec::new();
    for (k, label) in scale.cluster_counts() {
        let clusters = clustering_for(&prof, k, scale);
        let provider = Arc::new(SpbcProvider::new(clusters, SpbcConfig::default()));
        let report = run_with(scale, provider.clone(), &app)?;
        let run_label = format!("table1/{}/k={k}", w.name());
        crate::obs::write_trace(&run_label, &report);
        crate::obs::emit_metrics(&run_label, &provider.metrics(), &report);
        // Cumulative appended bytes: the bytes still *held* saw-tooth with
        // log GC and would under-rate any run that checkpoints.
        let per_rank = provider.store().appended_bytes_per_rank();
        let secs = report.wall_time.as_secs_f64().max(1e-9);
        let mbps: Vec<f64> = per_rank.iter().map(|&b| b as f64 / 1e6 / secs).collect();
        let avg = mbps.iter().sum::<f64>() / mbps.len().max(1) as f64;
        let max = mbps.iter().copied().fold(0.0, f64::max);
        rows.push(Table1Row {
            app: w.name(),
            clusters: k,
            label,
            avg_mbps: avg,
            max_mbps: max,
            total_bytes: per_rank.iter().sum(),
        });
    }
    Ok(rows)
}

/// Run the full Table-1 sweep (all six evaluation workloads).
pub fn run(scale: &Scale) -> Result<Vec<Table1Row>> {
    let mut rows = Vec::new();
    for w in Workload::EVALUATION {
        rows.extend(run_workload(w, scale)?);
    }
    Ok(rows)
}

/// Render in the paper's layout (apps as column groups, cluster counts as
/// rows).
pub fn render(rows: &[Table1Row]) -> String {
    let mut ks: Vec<(usize, &'static str)> = rows.iter().map(|r| (r.clusters, r.label)).collect();
    ks.sort_unstable();
    ks.dedup();
    let apps: Vec<&str> = {
        let mut v: Vec<&str> = rows.iter().map(|r| r.app).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mut header = vec!["Clusters".to_string()];
    for a in &apps {
        header.push(format!("{a} Avg"));
        header.push(format!("{a} Max"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = TextTable::new(&header_refs);
    for &(k, label) in &ks {
        let mut cells =
            vec![if label.is_empty() { k.to_string() } else { format!("{k} ({label})") }];
        for a in &apps {
            match rows.iter().find(|r| r.app == *a && r.clusters == k) {
                Some(r) => {
                    cells.push(f2(r.avg_mbps));
                    cells.push(f2(r.max_mbps));
                }
                None => {
                    cells.push("-".into());
                    cells.push("-".into());
                }
            }
        }
        t.row(cells);
    }
    format!("Table 1: log growth rate per process in MB/s vs number of clusters\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_at_tiny_scale() {
        let scale = Scale {
            world: 8,
            iters: 4,
            elems: 128,
            sleep_us: 0,
            ranks_per_node: 2,
            reps: 1,
            ..Default::default()
        };
        let rows = run_workload(Workload::MiniGhost, &scale).unwrap();
        assert_eq!(rows.len(), scale.cluster_counts().len());
        // Pure message logging (per-rank) must log the most in total.
        let per_rank = rows.iter().find(|r| r.label == "per-rank").unwrap();
        for r in &rows {
            assert!(per_rank.total_bytes >= r.total_bytes, "{r:?}");
        }
        let rendered = render(&rows);
        assert!(rendered.contains("MiniGhost"));
        assert!(rendered.contains("per-rank"));
    }
}
