//! Observability plumbing shared by every `spbc-*` binary: flight-recorder
//! tracing (`SPBC_TRACE`) and machine-readable metrics (`SPBC_METRICS`).
//!
//! * `SPBC_TRACE=path.json` — enable the flight recorder for every measured
//!   run and write the last run's Chrome trace-event JSON to `path.json`
//!   (loadable in Perfetto / `chrome://tracing`). Successive runs overwrite,
//!   so the file holds the final measured configuration — unless the path
//!   contains a `%`, which is substituted with the (sanitized) run label so
//!   each measured configuration gets its own file.
//! * `SPBC_METRICS=path.jsonl` — append one JSON line per measured run
//!   (`{"label":...,"wall_us":...,<counters>,"phases":{...}}`); without it
//!   the line goes to stderr so BENCH trajectories can scrape protocol
//!   counters either way.
//! * `SPBC_OPENMETRICS=path` — additionally write the final snapshot as an
//!   OpenMetrics text exposition (Prometheus-scrapable) to `path`.

use mini_mpi::config::RuntimeConfig;
use mini_mpi::RunReport;
use spbc_core::env::EnvOverrides;
use spbc_core::Metrics;
use spbc_trace::JsonObj;
use std::io::Write;
use std::path::PathBuf;

/// Ring capacity used when `SPBC_TRACE` enables recording.
pub use spbc_core::env::TRACE_RING_CAPACITY;

/// Is trace capture requested via the environment?
pub fn trace_requested() -> bool {
    EnvOverrides::from_env().trace.is_some()
}

/// Enable the flight recorder on `cfg` when `SPBC_TRACE` is set.
pub fn apply_env(cfg: RuntimeConfig) -> RuntimeConfig {
    EnvOverrides::from_env().apply_runtime(cfg)
}

/// A run label reduced to filename-safe characters: anything outside
/// `[A-Za-z0-9._-]` becomes `-` (so `ckpt/async k=2` → `ckpt-async-k-2`).
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '-' })
        .collect()
}

/// Expand a `%` placeholder in a trace path with the sanitized run label.
fn expand_trace_path(path: &std::path::Path, label: &str) -> PathBuf {
    let s = path.to_string_lossy();
    if s.contains('%') {
        PathBuf::from(s.replace('%', &sanitize_label(label)))
    } else {
        path.to_path_buf()
    }
}

/// Write the run's Chrome trace to `$SPBC_TRACE`, if both are present.
/// A `%` in the path is replaced by the sanitized `label`.
pub fn write_trace(label: &str, report: &RunReport) {
    let Some(path) = EnvOverrides::from_env().trace else {
        return;
    };
    let Some(flight) = &report.flight else { return };
    let path = expand_trace_path(&path, label);
    let json = spbc_trace::chrome_trace(flight);
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("trace: wrote {}", path.to_string_lossy()),
        Err(e) => eprintln!("trace: failed to write {}: {e}", path.to_string_lossy()),
    }
}

/// Render the one-line run summary: label + wall time + failure count,
/// then every snapshot counter and the per-phase histograms.
fn metrics_line(label: &str, metrics: &Metrics, report: &RunReport) -> String {
    let snap = metrics.snapshot();
    let mut obj = JsonObj::new();
    obj.field_str("label", label);
    obj.field("wall_us", report.wall_time.as_micros() as u64);
    obj.field("failures_handled", report.failures_handled as u64);
    snap.append_to(&mut obj);
    obj.finish()
}

/// Emit one labelled metrics line for a measured run: appended to
/// `$SPBC_METRICS` when set, otherwise printed to stderr. When
/// `$SPBC_OPENMETRICS` is set, also write the snapshot as an OpenMetrics
/// text exposition there (overwritten each run, like the trace).
pub fn emit_metrics(label: &str, metrics: &Metrics, report: &RunReport) {
    let line = metrics_line(label, metrics, report);
    let env = EnvOverrides::from_env();
    match env.metrics {
        Some(path) => {
            let res = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| writeln!(f, "{line}"));
            if let Err(e) = res {
                eprintln!("metrics: failed to append {}: {e}", path.to_string_lossy());
            }
        }
        None => eprintln!("metrics: {line}"),
    }
    if let Some(path) = env.openmetrics {
        if let Err(e) = std::fs::write(&path, metrics.snapshot().to_openmetrics()) {
            eprintln!("openmetrics: failed to write {}: {e}", path.to_string_lossy());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spbc_core::Phase;
    use spbc_trace::json::parse;

    fn fake_report() -> RunReport {
        RunReport {
            outputs: Vec::new(),
            stats: Vec::new(),
            wall_time: std::time::Duration::from_micros(1234),
            failures_handled: 1,
            restarts: Vec::new(),
            errors: Vec::new(),
            flight: None,
            flight_dump: None,
            unfired: Vec::new(),
        }
    }

    #[test]
    fn metrics_line_is_valid_json() {
        let m = Metrics::new();
        Metrics::add(&m.logged_msgs, 42);
        m.phase.record(Phase::Encode, 100);
        let line = metrics_line("fig5/MiniGhost/k=4", &m, &fake_report());
        let v = parse(&line).expect("metrics line parses");
        assert_eq!(v.get("label").unwrap().as_str(), Some("fig5/MiniGhost/k=4"));
        assert_eq!(v.get("wall_us").unwrap().as_num(), Some(1234.0));
        assert_eq!(v.get("failures_handled").unwrap().as_num(), Some(1.0));
        assert_eq!(v.get("logged_msgs").unwrap().as_num(), Some(42.0));
        assert_eq!(v.get("dropped_out_of_order").unwrap().as_num(), Some(0.0));
        let phases = v.get("phases").expect("phase histograms present");
        assert!(phases.get("encode").is_some(), "recorded phase appears: {line}");
    }

    #[test]
    fn trace_path_placeholder_takes_sanitized_label() {
        let p = std::path::Path::new("/tmp/trace-%.json");
        let out = expand_trace_path(p, "ckpt/async k=2");
        assert_eq!(out, PathBuf::from("/tmp/trace-ckpt-async-k-2.json"));
        let plain = std::path::Path::new("/tmp/trace.json");
        assert_eq!(expand_trace_path(plain, "x/y"), PathBuf::from("/tmp/trace.json"));
    }

    #[test]
    fn apply_env_without_trace_leaves_cfg_alone() {
        // The test environment does not set SPBC_TRACE.
        if trace_requested() {
            return; // someone is tracing the test run itself; skip
        }
        let cfg = apply_env(RuntimeConfig::new(4));
        assert!(cfg.flight_recorder.is_none());
    }
}
