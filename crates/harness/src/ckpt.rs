//! `ckpt_delta` report: logical vs physical checkpoint bytes under CDC
//! manifests and full blobs — the storage-stack analogue of Table 1.
//!
//! Two sections:
//! * **workloads** — evaluation workloads run under SPBC with CDC on and
//!   off (off = one full blob per wave), and under erasure-coded sets;
//!   logical vs physical bytes come straight from the run's metrics
//!   counters.
//! * **CDC sweep** — the CDC encoder driven directly over synthetic bodies
//!   with a controlled dirty fraction per wave (a small working set
//!   touched between waves).
//!
//! `spbc-ckpt` renders the table and writes the rows as `BENCH_ckpt.json`.

use crate::profile::run_with;
use crate::report::{f2, TextTable};
use crate::Scale;
use mini_mpi::error::Result;
use mini_mpi::types::RankId;
use spbc_apps::Workload;
use spbc_ckptstore::{CkptStoreService, StoreConfig};
use spbc_core::{ClusterMap, SpbcConfig, SpbcProvider};
use std::sync::Arc;

/// One report row: a scenario's byte counters over a whole run.
#[derive(Clone, Debug)]
pub struct CkptRow {
    /// Scenario label.
    pub scenario: String,
    /// Serialized checkpoint bytes (full-write equivalent).
    pub logical: u64,
    /// Sealed blob bytes actually written.
    pub physical: u64,
    /// Replication bytes a full-blob push would have cost.
    pub repl_logical: u64,
    /// Replication bytes actually pushed to partners.
    pub repl_physical: u64,
    /// Whether this row ran with content-defined chunking + the
    /// content-addressed store (`SPBCCKP4`) instead of full blobs.
    pub cdc: bool,
    /// Redundancy scheme the run replicated under: `partner_k2` (the legacy
    /// full-copy partner push), `xor`, or `rs2`.
    pub scheme: String,
}

impl CkptRow {
    /// Write-amplification reduction: logical over physical bytes (1.0 when
    /// nothing was written).
    pub fn dedup(&self) -> f64 {
        if self.physical == 0 {
            1.0
        } else {
            self.logical as f64 / self.physical as f64
        }
    }

    /// Redundancy overhead: replication bytes actually pushed over sealed
    /// bytes written locally. The legacy partner push copies every blob to
    /// both partners (2.0); erasure-coded sets push only parity shards, so
    /// xor lands near `1/g` and `rs(m)` near `m/g`.
    pub fn repl_ratio(&self) -> f64 {
        if self.physical == 0 {
            0.0
        } else {
            self.repl_physical as f64 / self.physical as f64
        }
    }
}

/// Run `w` under SPBC with the given commit form (`cdc` on =
/// content-defined chunking + CAS, off = one full blob per wave) and
/// redundancy `scheme` (`"partner_k2"` = legacy full partner pushes;
/// `"xor"`/`"rs2"` = erasure-coded sets of 2), and collect the run-wide
/// byte counters. Every knob is pinned explicitly so rows never depend on
/// ambient `SPBC_*` variables.
pub fn run_workload(w: Workload, scale: &Scale, cdc: bool, scheme: &str) -> Result<CkptRow> {
    let app = w.build(scale.params(w));
    let ec_on = scheme != "partner_k2";
    let cfg = SpbcConfig {
        ckpt_interval: (scale.iters / 6).max(1),
        ckpt_cdc: cdc,
        ec_scheme: if ec_on { scheme.to_string() } else { "off".to_string() },
        ec_group: 2,
        ..SpbcConfig::default()
    };
    let scenario = if ec_on {
        format!("{}/ec-{scheme}", w.name())
    } else if cdc {
        format!("{}/cdc", w.name())
    } else {
        format!("{}/full", w.name())
    };
    let provider = Arc::new(SpbcProvider::new(ClusterMap::blocks(scale.world, scale.nodes()), cfg));
    let report = run_with(scale, provider.clone(), &app)?;
    let run_label = format!("ckpt/{scenario}");
    crate::obs::write_trace(&run_label, &report);
    crate::obs::emit_metrics(&run_label, &provider.metrics(), &report);
    let m = provider.metrics().snapshot();
    Ok(CkptRow {
        scenario,
        logical: m.ckpt_bytes_logical,
        physical: m.ckpt_bytes_physical,
        repl_logical: m.repl_bytes_logical,
        repl_physical: m.repl_bytes,
        cdc,
        scheme: scheme.to_string(),
    })
}

/// Size of one synthetic dirty region in [`cdc_sweep`].
const REGION: usize = 64 * 1024;

/// Drive the CDC + content-addressed encoder directly: `waves` epochs over
/// a body of `chunks × REGION` bytes, with one byte flipped inside each of
/// the first `dirty` regions per wave. CDC pays only for the few
/// content-defined chunks around each edit, every wave. A replication push
/// carries the same sealed blob, so the replication columns mirror the
/// write columns here.
pub fn cdc_sweep(chunks: usize, waves: u64, dirty: usize) -> CkptRow {
    let svc = CkptStoreService::in_memory(1, StoreConfig { cdc: true, ..StoreConfig::default() });
    let mut body = vec![7u8; chunks * REGION];
    // A constant body would collapse into one repeated max-size chunk and
    // overstate dedup; give it incompressible-but-stable content.
    let mut x = 0x0be5_11e5_u64;
    for b in body.iter_mut() {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *b = (x >> 56) as u8;
    }
    let (mut logical, mut physical) = (0u64, 0u64);
    for epoch in 1..=waves {
        for d in 0..dirty.min(chunks) {
            body[d * REGION] = (epoch % 251) as u8 + 1;
        }
        let (_, stats) = svc.encode_commit(RankId(0), epoch, &body).expect("encode");
        logical += stats.logical;
        physical += stats.physical;
    }
    CkptRow {
        scenario: format!("synthetic/{dirty}-of-{chunks}-dirty/cdc"),
        logical,
        physical,
        repl_logical: logical,
        repl_physical: physical,
        cdc: true,
        scheme: "partner_k2".to_string(),
    }
}

/// The full report: both chaos workloads under CDC and under full blobs,
/// the erasure-coded rows, plus the synthetic dirty-fraction sweep.
pub fn run(scale: &Scale) -> Result<Vec<CkptRow>> {
    let mut rows = Vec::new();
    for w in [Workload::MiniGhost, Workload::Amg] {
        rows.push(run_workload(w, scale, true, "partner_k2")?);
        rows.push(run_workload(w, scale, false, "partner_k2")?);
    }
    // Erasure-coded sets of 2 over full blobs (`cdc` off), so the
    // replication ratio isolates the scheme rather than mixing in CAS
    // dedup: against the partner push's 2.0, xor lands near 0.5 and rs2
    // near 1.0.
    for w in [Workload::MiniGhost, Workload::Amg] {
        for scheme in ["xor", "rs2"] {
            rows.push(run_workload(w, scale, false, scheme)?);
        }
    }
    for dirty in [1usize, 8, 32] {
        rows.push(cdc_sweep(32, 24, dirty));
    }
    Ok(rows)
}

/// Render the rows with aligned columns.
pub fn render(rows: &[CkptRow]) -> String {
    let mut t = TextTable::new(&[
        "Scenario",
        "CDC",
        "Scheme",
        "Logical B",
        "Physical B",
        "Dedup",
        "Repl logical B",
        "Repl physical B",
        "Repl ratio",
    ]);
    for r in rows {
        t.row(vec![
            r.scenario.clone(),
            if r.cdc { "yes" } else { "no" }.into(),
            r.scheme.clone(),
            r.logical.to_string(),
            r.physical.to_string(),
            f2(r.dedup()),
            r.repl_logical.to_string(),
            r.repl_physical.to_string(),
            f2(r.repl_ratio()),
        ]);
    }
    format!("ckpt_delta: logical vs physical checkpoint bytes\n{}", t.render())
}

/// Machine-readable rows — the `BENCH_ckpt.json` baseline format.
pub fn to_json(rows: &[CkptRow]) -> String {
    let mut out = String::from("{\n  \"bench\": \"ckpt_delta\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"cdc\": {}, \"scheme\": \"{}\", \"logical\": {}, \
             \"physical\": {}, \"repl_logical\": {}, \"repl_physical\": {}, \"dedup\": {}, \
             \"repl_physical_ratio\": {}}}{}\n",
            r.scenario,
            r.cdc,
            r.scheme,
            r.logical,
            r.physical,
            r.repl_logical,
            r.repl_physical,
            f2(r.dedup()),
            f2(r.repl_ratio()),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdc_sweep_hits_the_acceptance_targets() {
        // CDC pays only for the chunks around each edit, every wave: the
        // 1-of-32 regime must clear 6x.
        let small = cdc_sweep(32, 24, 1);
        assert!(small.dedup() >= 6.0, "{small:?}");
        // All regions edited: still far above 1.0 (each edit is one byte, so
        // almost every content-defined chunk dedups against the last wave).
        let worst = cdc_sweep(32, 24, 32);
        assert!(worst.dedup() > 1.0, "{worst:?}");
    }

    #[test]
    fn cdc_makes_dedup_real_on_workloads() {
        let scale = Scale {
            world: 8,
            iters: 6,
            elems: 512,
            sleep_us: 0,
            ranks_per_node: 2,
            reps: 1,
            ..Default::default()
        };
        // The rank-shared coefficient tables dedup across ranks and the
        // unchanged regions across epochs: real-workload dedup > 1.0.
        let row = run_workload(Workload::MiniGhost, &scale, true, "partner_k2").unwrap();
        assert!(row.dedup() > 1.0, "{row:?}");
        assert!(row.cdc && row.scenario.ends_with("/cdc"), "{row:?}");
    }

    #[test]
    fn ec_rows_cut_replication_below_2x_physical() {
        let scale = Scale {
            world: 8,
            iters: 6,
            elems: 128,
            sleep_us: 0,
            ranks_per_node: 2,
            reps: 1,
            ..Default::default()
        };
        for w in [Workload::MiniGhost, Workload::Amg] {
            let legacy = run_workload(w, &scale, false, "partner_k2").unwrap();
            assert!(legacy.repl_ratio() >= 1.9, "legacy pushes every blob twice: {legacy:?}");
            for scheme in ["xor", "rs2"] {
                let row = run_workload(w, &scale, false, scheme).unwrap();
                assert!(row.repl_physical > 0, "parity must actually be pushed: {row:?}");
                assert!(row.repl_ratio() < 2.0, "{scheme} must beat 2x physical: {row:?}");
                assert_eq!(row.scheme, scheme);
            }
        }
    }

    #[test]
    fn workload_rows_count_bytes() {
        // One node, so one cluster: no inter-cluster message can be pending
        // at a cut, and both runs checkpoint exactly the same logical bytes
        // (across clusters, a cut captures whatever unexpected messages the
        // timing leaves in the queue).
        let scale = Scale {
            world: 8,
            iters: 6,
            elems: 128,
            sleep_us: 0,
            ranks_per_node: 8,
            reps: 1,
            ..Default::default()
        };
        let cdc = run_workload(Workload::MiniGhost, &scale, true, "partner_k2").unwrap();
        let full = run_workload(Workload::MiniGhost, &scale, false, "partner_k2").unwrap();
        assert!(cdc.logical > 0 && cdc.physical > 0, "{cdc:?}");
        assert_eq!(cdc.logical, full.logical, "cdc {cdc:?} vs full {full:?}");
        assert!(full.scenario.ends_with("/full"), "{full:?}");
        // Sealing adds framing, so physical ≥ logical on the full path.
        assert!(full.physical >= full.logical, "{full:?}");
    }

    #[test]
    fn render_and_json_carry_every_row() {
        let full = CkptRow {
            scenario: "MiniGhost/full".into(),
            logical: 10,
            physical: 22,
            repl_logical: 20,
            repl_physical: 44,
            cdc: false,
            scheme: "partner_k2".into(),
        };
        let rows = vec![full, cdc_sweep(4, 3, 4)];
        let table = render(&rows);
        let json = to_json(&rows);
        for r in &rows {
            assert!(table.contains(&r.scenario));
            assert!(json.contains(&r.scenario));
        }
        assert!(json.contains("\"bench\": \"ckpt_delta\""));
        assert!(json.contains("\"cdc\": true") && json.contains("\"cdc\": false"), "{json}");
        assert!(json.contains("\"scheme\": \"partner_k2\""), "{json}");
        assert!(json.contains("\"repl_physical_ratio\": "), "{json}");
        assert!(table.contains("partner_k2"), "{table}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
