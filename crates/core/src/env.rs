//! The single home for `SPBC_*` environment variables.
//!
//! Every knob the workspace reads from the environment is declared here —
//! one parser, one registry, one place to look when a variable misbehaves.
//! Binaries and tests never call `std::env::var` for an `SPBC_*` name
//! directly; they go through [`get`]/[`get_or`]/[`path`] or the bundled
//! [`EnvOverrides`] snapshot.
//!
//! The full table (also in the README):
//!
//! | variable | default | meaning |
//! |---|---|---|
//! | `SPBC_REPL_K` | `2` | checkpoint replication factor (partner copies) |
//! | `SPBC_CKPT_CDC` | `1` | content-defined chunking + content-addressed dedup (0 = full blob every wave) |
//! | `SPBC_EC_SCHEME` | `off` | redundancy-set parity scheme: `off`, `xor`, or `rs` |
//! | `SPBC_EC_GROUP` | `4` | redundancy-set size (ranks per set, within a cluster) |
//! | `SPBC_EC_M` | `2` | parity shards per set for `rs` (losses survivable) |
//! | `SPBC_TRACE` | unset | write the last run's Chrome trace JSON here (`%` → run label) |
//! | `SPBC_METRICS` | unset | append one metrics JSON line per run here |
//! | `SPBC_METRICS_INTERVAL_MS` | `0` | background sampler period in ms (0 disables; rows go to `$SPBC_METRICS`) |
//! | `SPBC_OPENMETRICS` | unset | write an OpenMetrics text exposition of the final snapshot here |
//! | `SPBC_TRANSPORT` | `inproc` | rank fabric: `inproc` (crossbeam) or `uds` (Unix-socket frames) |
//! | `SPBC_CLUSTERS` | workload-specific | override: failure-containment clusters per run |
//! | `SPBC_NODE_BIN` | sibling of current exe | path to the `spbc-node` binary for multi-process runs |
//! | `SPBC_RANKS` | `16` | harness scale: application ranks |
//! | `SPBC_ITERS` | `24` | harness scale: iterations per run |
//! | `SPBC_ELEMS` | `512` | harness scale: per-rank state elements |
//! | `SPBC_SLEEP_US` | `400` | harness scale: virtual compute per unit (µs) |
//! | `SPBC_NODE_SIZE` | `ranks/8` (min 2) | harness scale: ranks per node |
//! | `SPBC_REPS` | `3` | harness scale: timing repetitions |
//! | `SPBC_TIMEOUT_SECS` | `120` | harness scale: per-run deadlock timeout |

use crate::protocol::SpbcConfig;
use mini_mpi::config::{RuntimeConfig, Topology, TransportKind};
use std::path::PathBuf;
use std::str::FromStr;

/// Ring capacity used when `SPBC_TRACE` enables the flight recorder.
pub const TRACE_RING_CAPACITY: usize = 4096;

/// Registry of every `SPBC_*` variable: `(name, default, meaning)`.
/// Drives `--help` output and keeps the README table honest.
pub const VARS: &[(&str, &str, &str)] = &[
    ("SPBC_REPL_K", "2", "checkpoint replication factor (partner copies)"),
    (
        "SPBC_CKPT_CDC",
        "1",
        "content-defined chunking + content-addressed dedup (0 = full blob every wave)",
    ),
    ("SPBC_EC_SCHEME", "off", "redundancy-set parity scheme: off, xor, or rs"),
    ("SPBC_EC_GROUP", "4", "redundancy-set size (ranks per set, within a cluster)"),
    ("SPBC_EC_M", "2", "parity shards per set for rs (losses survivable)"),
    (
        "SPBC_TRACE",
        "(unset)",
        "write the last run's Chrome trace JSON to this path (% = run label)",
    ),
    ("SPBC_METRICS", "(unset)", "append one metrics JSON line per run to this path"),
    (
        "SPBC_METRICS_INTERVAL_MS",
        "0",
        "background sampler period in ms (0 disables; rows append to $SPBC_METRICS)",
    ),
    (
        "SPBC_OPENMETRICS",
        "(unset)",
        "write an OpenMetrics text exposition of the final snapshot to this path",
    ),
    ("SPBC_TRANSPORT", "inproc", "rank fabric: inproc (crossbeam) or uds (Unix-socket frames)"),
    ("SPBC_CLUSTERS", "workload-specific", "override: failure-containment clusters per run"),
    (
        "SPBC_NODE_BIN",
        "sibling of current exe",
        "path to the spbc-node binary for multi-process runs",
    ),
    ("SPBC_RANKS", "16", "harness scale: application ranks"),
    ("SPBC_ITERS", "24", "harness scale: iterations per run"),
    ("SPBC_ELEMS", "512", "harness scale: per-rank state elements"),
    ("SPBC_SLEEP_US", "400", "harness scale: virtual compute per unit (us)"),
    ("SPBC_NODE_SIZE", "ranks/8, min 2", "harness scale: ranks per simulated node"),
    ("SPBC_REPS", "3", "harness scale: timing repetitions (median taken)"),
    ("SPBC_TIMEOUT_SECS", "120", "harness scale: per-run deadlock timeout"),
];

/// Parse `$key`, treating unset, empty, and unparsable values as absent.
pub fn get<T: FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok().filter(|v| !v.is_empty()).and_then(|v| v.parse().ok())
}

/// Parse `$key` with a fallback.
pub fn get_or<T: FromStr>(key: &str, default: T) -> T {
    get(key).unwrap_or(default)
}

/// A path-valued variable; empty counts as unset.
pub fn path(key: &str) -> Option<PathBuf> {
    std::env::var_os(key).filter(|v| !v.is_empty()).map(PathBuf::from)
}

/// Apply the environment's topology overrides to a caller-chosen default:
/// `SPBC_RANKS`, `SPBC_CLUSTERS` and `SPBC_TRANSPORT` each replace their
/// field only when set and parsable. This is the one sanctioned route from
/// environment to [`Topology`] — run setup code builds its default shape
/// programmatically and passes it through here, instead of scattering
/// `std::env::var` reads.
pub fn topology(default: Topology) -> Topology {
    let mut t = default;
    if let Some(n) = get::<usize>("SPBC_RANKS") {
        t.ranks = n;
    }
    if let Some(c) = get::<usize>("SPBC_CLUSTERS") {
        t.clusters = c;
    }
    if let Some(k) = get::<TransportKind>("SPBC_TRANSPORT") {
        t.transport = k;
    }
    t
}

/// One coherent snapshot of the environment's overrides, applied to configs
/// rather than read piecemeal at each use site.
#[derive(Clone, Debug, Default)]
pub struct EnvOverrides {
    /// `SPBC_REPL_K`: checkpoint replication factor.
    pub repl_k: Option<usize>,
    /// `SPBC_TRACE`: Chrome-trace output path (enables the flight recorder).
    pub trace: Option<PathBuf>,
    /// `SPBC_METRICS`: metrics JSONL output path.
    pub metrics: Option<PathBuf>,
    /// `SPBC_METRICS_INTERVAL_MS`: background sampler period (0 = off).
    pub metrics_interval_ms: Option<u64>,
    /// `SPBC_OPENMETRICS`: OpenMetrics text exposition output path.
    pub openmetrics: Option<PathBuf>,
}

impl EnvOverrides {
    /// Read the current environment.
    pub fn from_env() -> Self {
        EnvOverrides {
            repl_k: get("SPBC_REPL_K"),
            trace: path("SPBC_TRACE"),
            metrics: path("SPBC_METRICS"),
            metrics_interval_ms: get("SPBC_METRICS_INTERVAL_MS"),
            openmetrics: path("SPBC_OPENMETRICS"),
        }
    }

    /// Apply the protocol-level overrides to an [`SpbcConfig`].
    pub fn apply_spbc(&self, mut cfg: SpbcConfig) -> SpbcConfig {
        if let Some(k) = self.repl_k {
            cfg.replicas = k;
        }
        if let Some(ms) = self.metrics_interval_ms {
            cfg.metrics_interval_ms = ms;
        }
        cfg
    }

    /// Apply the runtime-level overrides to a [`RuntimeConfig`]
    /// (currently: enable the flight recorder when `SPBC_TRACE` is set).
    pub fn apply_runtime(&self, cfg: RuntimeConfig) -> RuntimeConfig {
        if self.trace.is_some() {
            cfg.with_flight_recorder(TRACE_RING_CAPACITY)
        } else {
            cfg
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-mutating tests share one lock: the test harness runs threads in
    // parallel and `set_var` is process-global.
    static ENV_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn empty_and_garbage_are_absent() {
        let _g = ENV_LOCK.lock();
        std::env::set_var("SPBC_TEST_VAR", "");
        assert_eq!(get::<usize>("SPBC_TEST_VAR"), None);
        std::env::set_var("SPBC_TEST_VAR", "not-a-number");
        assert_eq!(get::<usize>("SPBC_TEST_VAR"), None);
        std::env::set_var("SPBC_TEST_VAR", "7");
        assert_eq!(get::<usize>("SPBC_TEST_VAR"), Some(7));
        std::env::remove_var("SPBC_TEST_VAR");
        assert_eq!(get_or("SPBC_TEST_VAR", 3usize), 3);
    }

    #[test]
    fn overrides_apply() {
        let _g = ENV_LOCK.lock();
        let ov =
            EnvOverrides { repl_k: Some(5), metrics_interval_ms: Some(25), ..Default::default() };
        let cfg = ov.apply_spbc(SpbcConfig::default());
        assert_eq!(cfg.replicas, 5);
        assert_eq!(cfg.metrics_interval_ms, 25);
        let ov = EnvOverrides::default();
        let before = SpbcConfig { replicas: 1, ..Default::default() };
        assert_eq!(ov.apply_spbc(before).replicas, 1, "absent override keeps value");
    }

    #[test]
    fn registry_covers_struct() {
        let names: Vec<&str> = VARS.iter().map(|(n, _, _)| *n).collect();
        for required in [
            "SPBC_REPL_K",
            "SPBC_CKPT_CDC",
            "SPBC_EC_SCHEME",
            "SPBC_EC_GROUP",
            "SPBC_EC_M",
            "SPBC_TRACE",
            "SPBC_METRICS",
            "SPBC_METRICS_INTERVAL_MS",
            "SPBC_OPENMETRICS",
            "SPBC_TRANSPORT",
            "SPBC_CLUSTERS",
            "SPBC_NODE_BIN",
        ] {
            assert!(names.contains(&required), "{required} missing from VARS");
        }
    }

    /// The `SPBC_*` names of a markdown table's rows whose first cell is
    /// a code span; `prefix` is what each table line starts with.
    fn table_names(text: &str, prefix: &str) -> Vec<String> {
        text.lines()
            .filter_map(|l| l.strip_prefix(prefix)?.trim_start().strip_prefix("| `SPBC_"))
            .map(|rest| format!("SPBC_{}", &rest[..rest.find('`').expect("closing backtick")]))
            .collect()
    }

    /// The README's variable table and this module's own table each name
    /// exactly the registry's variables.
    #[test]
    fn env_tables_match_the_registry() {
        let mut sorted: Vec<String> = VARS.iter().map(|(n, _, _)| n.to_string()).collect();
        let mut readme_rows = table_names(include_str!("../../../README.md"), "");
        let mut doc_rows = table_names(include_str!("env.rs"), "//!");
        for names in [&mut readme_rows, &mut doc_rows, &mut sorted] {
            names.sort();
        }
        assert_eq!(readme_rows, sorted, "README.md's SPBC_* table drifted from env::VARS");
        assert_eq!(doc_rows, sorted, "env.rs's module-doc table drifted from env::VARS");
    }

    #[test]
    fn topology_env_overrides() {
        let _g = ENV_LOCK.lock();
        std::env::remove_var("SPBC_RANKS");
        std::env::remove_var("SPBC_CLUSTERS");
        std::env::remove_var("SPBC_TRANSPORT");
        let base = Topology::new(8, 4).with_transport(TransportKind::InProc);
        assert_eq!(topology(base), base, "no env, no change");
        std::env::set_var("SPBC_CLUSTERS", "2");
        std::env::set_var("SPBC_TRANSPORT", "uds");
        let t = topology(base);
        assert_eq!(t.ranks, 8);
        assert_eq!(t.clusters, 2);
        assert_eq!(t.transport, TransportKind::Uds);
        std::env::remove_var("SPBC_CLUSTERS");
        std::env::remove_var("SPBC_TRANSPORT");
    }
}
