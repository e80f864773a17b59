//! HydEE (Guermouche et al., IPDPS'12) — behavioral model.
//!
//! HydEE is, to the paper's knowledge, the only other protocol providing
//! failure containment without reliably logging any information during
//! failure-free execution. Like SPBC it combines intra-cluster coordinated
//! checkpointing with inter-cluster sender-based logging; it relies on
//! *send-determinism* instead of channel-determinism and therefore uses **no
//! per-message identifiers**.
//!
//! The crucial difference (§6.5): during recovery a **centralized
//! coordinator** orchestrates replay. A process may re-send a logged message
//! only after the recovering processes have acknowledged that everything the
//! message causally depends on has been replayed. We model this faithfully
//! at the message-count level: every replayed message costs a
//! request → grant → done round-trip through the coordinator, which releases
//! grants in global Lamport order, a configurable number at a time (1 by
//! default — the fully serialized regime). This reproduces the serialization
//! bottleneck that makes HydEE's recovery up to 2x slower than SPBC's in
//! Figure 6, sometimes slower than failure-free execution.

use mini_mpi::envelope::CtrlMsg;
use mini_mpi::error::{MpiError, Result};
use mini_mpi::ft::{FtCtx, FtLayer, FtProvider};
use mini_mpi::rank::Rank;
use mini_mpi::types::RankId;
use mini_mpi::wire::from_bytes;
use spbc_core::ctrl::{KIND_GRANT, KIND_GRANT_DONE, KIND_GRANT_REQ};
use spbc_core::protocol::ReplayPolicy;
use spbc_core::{ClusterMap, Metrics, SpbcConfig, SpbcProvider};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;

/// HydEE tunables.
#[derive(Clone, Debug)]
pub struct HydeeConfig {
    /// Checkpoint cadence (as in [`SpbcConfig::ckpt_interval`]).
    pub ckpt_interval: u64,
    /// Maximum simultaneously granted replays (1 = fully serialized, the
    /// regime the paper measured).
    pub max_inflight_grants: usize,
    /// Coordinator service time per grant, microseconds.
    ///
    /// Models the cost a grant pays at the paper's scale: a network
    /// round-trip to a remote coordinator plus queueing behind the grants of
    /// 511 other processes. Our control messages cross a thread boundary in
    /// nanoseconds, so without this knob the centralized design would look
    /// artificially free; the default is calibrated to an IPoIB-class RTT
    /// with contention (DESIGN.md documents the substitution).
    pub grant_service_us: u64,
}

impl Default for HydeeConfig {
    fn default() -> Self {
        HydeeConfig { ckpt_interval: 0, max_inflight_grants: 1, grant_service_us: 150 }
    }
}

/// Provider running the hierarchical protocol with HydEE's recovery
/// orchestration. Requires **one service rank** in the runtime configuration
/// (`RuntimeConfig::with_services(1)`) running [`coordinator_service`].
pub struct HydeeProvider {
    inner: SpbcProvider,
    world: usize,
    max_inflight: usize,
    grant_service_us: u64,
}

impl HydeeProvider {
    /// Build the provider; the coordinator lives on service rank
    /// `world_size`.
    pub fn new(clusters: ClusterMap, cfg: HydeeConfig) -> Self {
        let world = clusters.world_size();
        let spbc_cfg = SpbcConfig {
            ckpt_interval: cfg.ckpt_interval,
            replay_window: 1,
            // Send-determinism based: no identifiers in matching.
            enforce_ident: false,
            replay_policy: ReplayPolicy::Coordinated { coordinator: RankId(world as u32) },
            free_logs_on_checkpoint: false,
            // The HydEE baseline models single-copy stable storage; partner
            // replication is an SPBC-side storage upgrade, so keep it off to
            // preserve the comparison.
            replicas: 0,
            async_ckpt_writes: true,
            ..SpbcConfig::default()
        };
        HydeeProvider {
            inner: SpbcProvider::new(clusters, spbc_cfg),
            world,
            max_inflight: cfg.max_inflight_grants,
            grant_service_us: cfg.grant_service_us,
        }
    }

    /// Run-wide metrics.
    pub fn metrics(&self) -> Arc<Metrics> {
        self.inner.metrics()
    }

    /// Per-rank sender logs.
    pub fn store(&self) -> Arc<spbc_core::store::SharedStore> {
        self.inner.store()
    }
}

impl FtProvider for HydeeProvider {
    fn cluster_of(&self, rank: RankId) -> usize {
        if rank.idx() >= self.world {
            usize::MAX // service ranks belong to no cluster
        } else {
            self.inner.cluster_of(rank)
        }
    }

    fn make_layer(&self, rank: RankId, epoch: u32) -> Box<dyn FtLayer> {
        if rank.idx() >= self.world {
            Box::new(Coordinator::new(self.max_inflight, self.grant_service_us, self.metrics()))
        } else {
            self.inner.make_layer(rank, epoch)
        }
    }
}

/// The centralized recovery coordinator (runs on a service rank).
pub struct Coordinator {
    /// Pending grant requests: (Lamport ts, requesting rank), smallest first.
    pending: BinaryHeap<Reverse<(u64, u32)>>,
    inflight: usize,
    max_inflight: usize,
    grant_service_us: u64,
    metrics: Arc<Metrics>,
}

impl Coordinator {
    /// Coordinator allowing `max_inflight` simultaneous grants, spending
    /// `grant_service_us` per grant.
    pub fn new(max_inflight: usize, grant_service_us: u64, metrics: Arc<Metrics>) -> Self {
        Coordinator {
            pending: BinaryHeap::new(),
            inflight: 0,
            max_inflight: max_inflight.max(1),
            grant_service_us,
            metrics,
        }
    }

    fn try_grant(&mut self, ctx: &mut FtCtx<'_>) {
        while self.inflight < self.max_inflight {
            let Some(Reverse((_ts, rank))) = self.pending.pop() else { return };
            self.inflight += 1;
            Metrics::add(&self.metrics.coordinator_grants, 1);
            Metrics::add(&self.metrics.ctrl_msgs, 1);
            // Service time: round-trip + queueing at realistic scale.
            // Sleeping in the coordinator thread serializes all replayers
            // behind it, exactly like one process serving 512.
            if self.grant_service_us > 0 {
                std::thread::sleep(Duration::from_micros(self.grant_service_us));
            }
            ctx.send_ctrl(RankId(rank), KIND_GRANT, Vec::new());
        }
    }
}

impl FtLayer for Coordinator {
    fn name(&self) -> &'static str {
        "hydee-coordinator"
    }

    fn on_ctrl(&mut self, ctx: &mut FtCtx<'_>, msg: CtrlMsg) -> Result<()> {
        match msg.kind {
            KIND_GRANT_REQ => {
                let ts: u64 = from_bytes(&msg.data)?;
                self.pending.push(Reverse((ts, msg.from.0)));
                self.try_grant(ctx);
                Ok(())
            }
            KIND_GRANT_DONE => {
                self.inflight = self.inflight.saturating_sub(1);
                self.try_grant(ctx);
                Ok(())
            }
            other => Err(MpiError::invalid(format!("coordinator: unknown ctrl kind {other}"))),
        }
    }
}

/// The service closure for the coordinator rank: pump control traffic until
/// the run shuts down.
pub fn coordinator_service() -> impl Fn(&mut Rank) -> Result<Vec<u8>> + Send + Sync + 'static {
    |rank: &mut Rank| {
        while !rank.shutting_down() {
            match rank.pump(Duration::from_millis(5)) {
                Ok(()) => {}
                Err(MpiError::Killed) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provider_routes_service_rank_to_coordinator() {
        let p = HydeeProvider::new(ClusterMap::blocks(4, 2), HydeeConfig::default());
        assert_eq!(p.cluster_of(RankId(1)), 0);
        assert_eq!(p.cluster_of(RankId(4)), usize::MAX);
        assert_eq!(p.make_layer(RankId(4), 0).name(), "hydee-coordinator");
        assert_eq!(p.make_layer(RankId(0), 0).name(), "spbc");
    }

    #[test]
    fn coordinator_grants_in_lamport_order() {
        // Heap ordering check without a live ctx.
        let mut c = Coordinator::new(1, 0, Arc::new(Metrics::new()));
        c.pending.push(Reverse((30, 2)));
        c.pending.push(Reverse((10, 1)));
        c.pending.push(Reverse((20, 3)));
        let order: Vec<u32> =
            std::iter::from_fn(|| c.pending.pop().map(|Reverse((_, r))| r)).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn inflight_floor() {
        let c = Coordinator::new(0, 0, Arc::new(Metrics::new()));
        assert_eq!(c.max_inflight, 1);
    }
}
