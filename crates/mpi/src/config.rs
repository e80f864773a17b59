//! Runtime configuration.

use std::str::FromStr;
use std::time::Duration;

/// Which fabric carries packets between ranks.
///
/// The default is read once per config from `$SPBC_TRANSPORT` (registered in
/// `spbc_core::env::VARS`), so an entire test suite can be swung onto the
/// wire path without touching code; [`Topology::with_transport`] overrides it
/// programmatically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// Crossbeam channels, every rank a thread in this process (default).
    InProc,
    /// Length-prefixed frames over Unix-domain sockets (loopback hub).
    Uds,
}

impl TransportKind {
    /// The environment's choice: `$SPBC_TRANSPORT`, defaulting to in-process.
    pub fn from_env() -> Self {
        std::env::var("SPBC_TRANSPORT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(TransportKind::InProc)
    }
}

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "" | "inproc" => Ok(TransportKind::InProc),
            "uds" => Ok(TransportKind::Uds),
            other => Err(format!("unknown transport {other:?} (expected inproc or uds)")),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransportKind::InProc => "inproc",
            TransportKind::Uds => "uds",
        })
    }
}

/// The shape of a run in one value: how many ranks, how they cluster into
/// failure-containment units, and which fabric connects them. This is the
/// single doorway for topology choices — harness code builds one `Topology`
/// (env vars act as overrides only, via `spbc_core::env::topology`) and hands
/// it to [`crate::runtime::RunBuilder::topology`] plus its cluster map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Application ranks.
    pub ranks: usize,
    /// Failure-containment clusters (`ranks` should divide evenly).
    pub clusters: usize,
    /// The fabric between ranks.
    pub transport: TransportKind,
}

impl Topology {
    /// A topology of `ranks` ranks in `clusters` clusters, transport from
    /// the environment (`$SPBC_TRANSPORT`, default in-process).
    pub fn new(ranks: usize, clusters: usize) -> Self {
        Topology { ranks, clusters, transport: TransportKind::from_env() }
    }

    /// Builder-style: pin the transport, ignoring the environment.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Ranks per cluster (rounding up on uneven splits).
    pub fn ranks_per_cluster(&self) -> usize {
        self.ranks.div_ceil(self.clusters.max(1))
    }
}

/// Scheduling-perturbation settings used by the determinism checkers: the
/// sender sleeps a pseudo-random amount before some transmissions, shaking up
/// message interleavings without changing what is sent.
#[derive(Clone, Debug)]
pub struct Perturb {
    /// Upper bound of the injected delay, in microseconds.
    pub max_delay_us: u64,
    /// Probability (0..=1) that a given transmission is delayed.
    pub probability: f64,
    /// Base seed; combined with the rank id so ranks diverge.
    pub seed: u64,
}

impl Default for Perturb {
    fn default() -> Self {
        Perturb { max_delay_us: 150, probability: 0.25, seed: 0xC0FFEE }
    }
}

/// Configuration of a [`crate::runtime::Runtime`] execution.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of application ranks.
    pub world_size: usize,
    /// Additional service ranks (ids `world_size..world_size+service_ranks`),
    /// e.g. the HydEE recovery coordinator. They are not part of any
    /// communicator.
    pub service_ranks: usize,
    /// Ranks per simulated node. Failure containment below node granularity
    /// is pointless (Section 6.1), so clustering tools keep co-located ranks
    /// together.
    pub ranks_per_node: usize,
    /// Payloads strictly larger than this use the rendezvous protocol.
    pub eager_threshold: usize,
    /// How long a blocking operation may wait without progress before the
    /// runtime reports a suspected deadlock instead of hanging forever.
    pub deadlock_timeout: Duration,
    /// Poll interval of blocking waits (also the kill-flag latency).
    pub poll_interval: Duration,
    /// Optional scheduling perturbation.
    pub perturb: Option<Perturb>,
    /// Flight-recorder capacity in events per rank. `None` (the default)
    /// disables event recording entirely; `Some(cap)` gives every rank a ring
    /// of the newest `cap` protocol events for watchdog dumps and
    /// Chrome-trace export.
    pub flight_recorder: Option<usize>,
    /// The fabric carrying packets between ranks. Defaults from
    /// `$SPBC_TRANSPORT` so existing suites can run over the wire path
    /// unchanged; see [`TransportKind`].
    pub transport: TransportKind,
}

impl RuntimeConfig {
    /// A configuration with sane defaults for `world_size` ranks.
    pub fn new(world_size: usize) -> Self {
        RuntimeConfig {
            world_size,
            service_ranks: 0,
            ranks_per_node: 8,
            eager_threshold: 16 * 1024,
            deadlock_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_micros(200),
            perturb: None,
            flight_recorder: None,
            transport: TransportKind::from_env(),
        }
    }

    /// Builder-style: enable the flight recorder with `cap` events per rank.
    pub fn with_flight_recorder(mut self, cap: usize) -> Self {
        self.flight_recorder = Some(cap);
        self
    }

    /// Builder-style: set service rank count.
    pub fn with_services(mut self, n: usize) -> Self {
        self.service_ranks = n;
        self
    }

    /// Builder-style: set ranks per node.
    pub fn with_ranks_per_node(mut self, n: usize) -> Self {
        assert!(n > 0, "ranks_per_node must be positive");
        self.ranks_per_node = n;
        self
    }

    /// Builder-style: set the eager/rendezvous threshold.
    pub fn with_eager_threshold(mut self, bytes: usize) -> Self {
        self.eager_threshold = bytes;
        self
    }

    /// Builder-style: enable scheduling perturbation.
    pub fn with_perturb(mut self, p: Perturb) -> Self {
        self.perturb = Some(p);
        self
    }

    /// Builder-style: set the deadlock timeout.
    pub fn with_deadlock_timeout(mut self, d: Duration) -> Self {
        self.deadlock_timeout = d;
        self
    }

    /// Builder-style: pin the transport kind.
    pub fn with_transport(mut self, t: TransportKind) -> Self {
        self.transport = t;
        self
    }

    /// Total number of mailboxes (world + services).
    pub fn total_ranks(&self) -> usize {
        self.world_size + self.service_ranks
    }

    /// The node index hosting `rank` under the `ranks_per_node` layout.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.world_size.div_ceil(self.ranks_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let c = RuntimeConfig::new(16)
            .with_services(1)
            .with_ranks_per_node(4)
            .with_eager_threshold(1024);
        assert_eq!(c.total_ranks(), 17);
        assert_eq!(c.node_of(5), 1);
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.eager_threshold, 1024);
    }

    #[test]
    fn node_count_rounds_up() {
        let c = RuntimeConfig::new(10).with_ranks_per_node(4);
        assert_eq!(c.node_count(), 3);
    }
}
