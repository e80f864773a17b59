//! The SPBC protocol layer (Algorithm 1 of the paper) as a
//! [`mini_mpi::ft::FtLayer`].
//!
//! Responsibilities:
//!
//! * **Failure-free** — log every inter-cluster message in the sender's
//!   memory (line 6); count intra-cluster traffic for checkpoint quiescence;
//!   enforce `(pattern_id, iteration_id)` equality in matching (Section 4.3).
//!   No delivery events are ever logged.
//! * **Checkpoint** — leader-coordinated intra-cluster checkpoint with
//!   message-counting quiescence; the checkpoint captures application state,
//!   per-channel sequence counters, the unexpected queue (channel state) and
//!   the log cut (line 13-15); the wave is `wave.rs`'s transition function.
//! * **Recovery** — restore the newest checkpoint *every* cluster member
//!   holds; `recovery.rs`'s transition function does the rest (lines 16-26:
//!   Rollback, LastMessage, per-channel replay with the §5.2.2 window), with
//!   no process-to-process synchronization during replay.

use crate::cluster::ClusterMap;
use crate::ctrl::{
    CkptBlob, CkptBlobAck, CkptChunkReq, CkptCounts, KIND_CKPT_ACK, KIND_CKPT_BLOB,
    KIND_CKPT_BLOB_ACK, KIND_CKPT_CHUNK_REQ, KIND_CKPT_COMMIT, KIND_CKPT_JOIN, KIND_CKPT_POLL,
    KIND_CKPT_RELEASE, KIND_CKPT_REPORT, KIND_CKPT_RESUME, KIND_GRANT, KIND_LASTMSG, KIND_LOG_GC,
    KIND_ROLLBACK,
};
use crate::hist::Phase;
use crate::log::MessageLog;
use crate::metrics::Metrics;
use crate::recovery::{self as rec, marks, Recovery};
use crate::replay::DEFAULT_REPLAY_WINDOW;
use crate::store::{CheckpointData, SharedStore};
use crate::wave::{Action, Input, Member, Wave};
use bytes::Bytes;
use mini_mpi::envelope::{CtrlMsg, Envelope, Message};
use mini_mpi::error::{MpiError, Result};
use mini_mpi::ft::{ArrivalAction, CkptOutcome, FtCtx, FtLayer, FtProvider, SendAction};
use mini_mpi::matching::{Arrived, ArrivedBody};
use mini_mpi::recorder::Event;
use mini_mpi::request::RecvSpec;
use mini_mpi::types::{ChannelId, RankId};
use mini_mpi::wire::{from_bytes, to_bytes};
use parking_lot::Mutex;
use spbc_ckptstore::{
    Adoption, CdcParams, CkptStoreService, EcScheme, LoadOutcome, PutStats, Replica, SetMap,
    StoreConfig,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How replayed messages are released during recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayPolicy {
    /// SPBC (§5.2.2): fully distributed — every replayer streams its queue
    /// independently, bounded only by the pre-post window.
    Windowed,
    /// HydEE model (§6.5): every single replayed message requires a grant
    /// from a centralized coordinator, which releases replays in global
    /// Lamport order and waits for a completion ack before the next grant.
    Coordinated {
        /// World id of the coordinator (a service rank).
        coordinator: RankId,
    },
}

/// Tunables of the SPBC protocol.
#[derive(Clone, Debug)]
pub struct SpbcConfig {
    /// Take a coordinated checkpoint every `ckpt_interval`-th call of
    /// `checkpoint_if_due` (0 = never — the paper's measurement mode, §6.1).
    pub ckpt_interval: u64,
    /// Pre-post replay window (§5.2.2; the paper uses 50).
    pub replay_window: usize,
    /// Enforce `(pattern_id, iteration_id)` equality in matching. Disabling
    /// this reproduces the Figure 2 mismatch — kept as an ablation switch.
    pub enforce_ident: bool,
    /// Replay release policy (SPBC windowed vs HydEE coordinated).
    pub replay_policy: ReplayPolicy,
    /// Inert: receiver-checkpoint GC ([`KIND_LOG_GC`]) always frees log
    /// memory. Kept only until `spbc-perf`'s full struct literal drops it.
    pub free_logs_on_checkpoint: bool,
    /// How many partner ranks (in *other* clusters) receive a replica of
    /// each committed checkpoint. 0 disables replication (single-copy
    /// storage, the pre-subsystem behavior). Defaults to `$SPBC_REPL_K` or 2.
    pub replicas: usize,
    /// Inert: the store decides — a disk store's write overlaps
    /// replication on the background writer, an in-memory store's put runs
    /// on the rank thread. Kept only until `spbc-perf`'s full struct literal
    /// drops it.
    pub async_ckpt_writes: bool,
    /// Inert: no store path chunks on a fixed grid. Kept only until
    /// `spbc-perf`'s full struct literal drops it.
    pub ckpt_chunk: usize,
    /// Inert: with CDC off every wave is a full blob. Kept only until
    /// `spbc-perf`'s full struct literal drops it.
    pub ckpt_full_every: u64,
    /// Content-defined chunking + content-addressed dedup (`SPBCCKP4`):
    /// checkpoint bodies are cut at content-determined boundaries, chunks
    /// dedup across epochs *and* ranks, and replication pushes chunk-hash
    /// manifests instead of blobs. Defaults to `$SPBC_CKPT_CDC` or on;
    /// off seals every wave as one `SPBCCKP2` full blob.
    pub ckpt_cdc: bool,
    /// CDC minimum chunk length (default [`CdcParams::default`]'s 256).
    pub cdc_min: usize,
    /// CDC target (average) chunk length (default 1024).
    pub cdc_avg: usize,
    /// CDC maximum chunk length (default 4096).
    pub cdc_max: usize,
    /// Background metrics-sampler period in milliseconds; 0 (the default)
    /// disables sampling. When nonzero and `$SPBC_METRICS` names a file,
    /// the provider appends periodic [`crate::metrics::MetricsSnapshot`]
    /// delta rows there. Defaults to `$SPBC_METRICS_INTERVAL_MS` or 0.
    pub metrics_interval_ms: u64,
    /// Redundancy-set parity scheme (`off`, `xor`, `rs`/`rs<m>`). When on,
    /// each wave erasure-codes the set's sealed blobs and only parity
    /// shards ride the partner push paths — full replica copies are
    /// suppressed. Defaults to `$SPBC_EC_SCHEME` or `off`.
    pub ec_scheme: String,
    /// Redundancy-set size: ranks per set, grouped within a cluster (sets
    /// never straddle clusters). Defaults to `$SPBC_EC_GROUP` or 4.
    pub ec_group: usize,
    /// Parity shards per set for the `rs` scheme — the number of member
    /// losses one wave survives. Defaults to `$SPBC_EC_M` or 2.
    pub ec_m: usize,
    /// Inert: the on-disk store writes each rank's checkpoints straight to
    /// its node-local directory. Kept only until `spbc-perf`'s full struct
    /// literal drops it.
    pub tier_policy: String,
    /// Chaos-model switch: a rank that fails also loses its node-local
    /// checkpoint copies (node-loss semantics), forcing restore through the
    /// EC rebuild or partner repair paths. Defaults off (process-kill
    /// semantics: local files survive the respawn).
    pub lose_local_on_failure: bool,
    /// Inert: the chunk store is one map behind one lock. Kept only until
    /// `spbc-perf`'s full struct literal drops it.
    pub store_shards: usize,
    /// Inert: each rank has at most one checkpoint write outstanding. Kept
    /// only until `spbc-perf`'s full struct literal drops it.
    pub write_queue: usize,
    /// Inert: every write is its own put. Kept only until `spbc-perf`'s
    /// full struct literal drops it.
    pub batch_bytes: usize,
    /// Inert, as `batch_bytes`. Kept only until `spbc-perf`'s full struct
    /// literal drops it.
    pub batch_linger_us: u64,
}

/// Every default that is not a constant comes from its `SPBC_*` variable.
impl Default for SpbcConfig {
    fn default() -> Self {
        use crate::env::get_or;
        let cdc = CdcParams::default();
        SpbcConfig {
            ckpt_interval: 0,
            replay_window: DEFAULT_REPLAY_WINDOW,
            enforce_ident: true,
            replay_policy: ReplayPolicy::Windowed,
            free_logs_on_checkpoint: false,
            // k = 2: one copy survives the owner's cluster and a partner.
            replicas: get_or("SPBC_REPL_K", 2),
            async_ckpt_writes: true,
            ckpt_chunk: spbc_ckptstore::chunk::DEFAULT_CHUNK_SIZE,
            ckpt_full_every: 1,
            ckpt_cdc: get_or("SPBC_CKPT_CDC", 1u8) != 0,
            cdc_min: cdc.min,
            cdc_avg: cdc.avg,
            cdc_max: cdc.max,
            metrics_interval_ms: get_or("SPBC_METRICS_INTERVAL_MS", 0),
            ec_scheme: get_or("SPBC_EC_SCHEME", "off".to_string()),
            ec_group: get_or("SPBC_EC_GROUP", 4),
            ec_m: get_or("SPBC_EC_M", 2),
            tier_policy: String::new(),
            lose_local_on_failure: false,
            store_shards: 8,
            write_queue: 64,
            batch_bytes: 1 << 20,
            batch_linger_us: 0,
        }
    }
}

/// Storage-service configuration derived from the protocol tunables (one
/// derivation shared by every backend choice). Panics on an unparsable
/// parity scheme — a misconfigured `$SPBC_EC_SCHEME` must fail at startup,
/// not silently disable redundancy.
fn store_cfg_of(cfg: &SpbcConfig) -> StoreConfig {
    let ec = EcScheme::parse(&cfg.ec_scheme, cfg.ec_m).unwrap_or_else(|| {
        panic!("invalid SPBC_EC_SCHEME {:?} (expected off, xor, or rs[<m>])", cfg.ec_scheme)
    });
    StoreConfig {
        cdc: cfg.ckpt_cdc,
        cdc_params: CdcParams { min: cfg.cdc_min, avg: cfg.cdc_avg, max: cfg.cdc_max },
        ec,
        ..StoreConfig::default()
    }
}

/// Redundancy sets for the clustering: each cluster's member list chopped
/// into groups of `ec_group`. `None` when the scheme is off (the service
/// then never stages parity).
fn sets_of(clusters: &ClusterMap, cfg: &SpbcConfig, ec: EcScheme) -> Option<Arc<SetMap>> {
    if !ec.is_on() {
        return None;
    }
    let groups: Vec<Vec<u32>> = (0..clusters.cluster_count())
        .map(|c| clusters.members(c).iter().map(|r| r.0).collect())
        .collect();
    Some(Arc::new(SetMap::from_clusters(&groups, cfg.ec_group.max(1))))
}

/// Builds [`SpbcLayer`]s and owns the run-wide shared state.
pub struct SpbcProvider {
    clusters: Arc<ClusterMap>,
    store: Arc<SharedStore>,
    metrics: Arc<Metrics>,
    cfg: SpbcConfig,
    ckptstore: Arc<CkptStoreService>,
    /// Background time-series sampler, held so it stops (and flushes its
    /// final row) when the provider is dropped at the end of the run.
    sampler: Option<crate::sampler::MetricsSampler>,
}

/// Where the replicated checkpoint service ([`CkptStoreService`]) — the one
/// home of every committed checkpoint — keeps each rank's local copies: node
/// memory ([`Storage::memory`], the default) or real files under
/// `root/rank-<r>/own` ([`Storage::disk_root`], the configuration the
/// partner-repair path is designed around — local files can be lost or
/// corrupted and restart still succeeds).
///
/// ```no_run
/// # use spbc_core::protocol::{SpbcConfig, SpbcProvider, Storage};
/// # use spbc_core::cluster::ClusterMap;
/// let provider = SpbcProvider::new(ClusterMap::blocks(8, 4), SpbcConfig::default())
///     .with_storage(Storage::disk_root("/tmp/ckpts"))?;
/// let committed = provider.ckptstore().available_epochs(mini_mpi::types::RankId(0))?;
/// # Ok::<(), mini_mpi::error::MpiError>(())
/// ```
#[derive(Default)]
pub struct Storage {
    root: Option<std::path::PathBuf>,
}

impl Storage {
    /// In-memory backend (the default): stable storage modeled as node
    /// memory.
    pub fn memory() -> Self {
        Storage::default()
    }

    /// Keep each rank's local checkpoint copies on disk under
    /// `root/rank-<r>/own` (partner replicas stay in memory).
    pub fn disk_root(root: impl Into<std::path::PathBuf>) -> Self {
        Storage { root: Some(root.into()) }
    }
}

impl SpbcProvider {
    /// Provider for the given clustering and configuration. Checkpoint
    /// storage defaults to in-memory backends; pick anything else with
    /// [`with_storage`](Self::with_storage) and a [`Storage`] value.
    pub fn new(clusters: ClusterMap, cfg: SpbcConfig) -> Self {
        let world = clusters.world_size();
        let mut store_cfg = store_cfg_of(&cfg);
        store_cfg.sets = sets_of(&clusters, &cfg, store_cfg.ec);
        let metrics = Arc::new(Metrics::new());
        let sampler =
            crate::sampler::MetricsSampler::start_if_configured(&metrics, cfg.metrics_interval_ms);
        SpbcProvider {
            clusters: Arc::new(clusters),
            store: Arc::new(SharedStore::new(world)),
            metrics,
            cfg,
            ckptstore: Arc::new(CkptStoreService::in_memory(world, store_cfg)),
            sampler,
        }
    }

    /// Select the checkpoint storage backend — see [`Storage`].
    pub fn with_storage(mut self, storage: Storage) -> Result<Self> {
        if let Some(root) = storage.root {
            let world = self.clusters.world_size();
            let mut store_cfg = store_cfg_of(&self.cfg);
            store_cfg.sets = sets_of(&self.clusters, &self.cfg, store_cfg.ec);
            self.ckptstore = Arc::new(CkptStoreService::on_disk(root, world, store_cfg)?);
        }
        Ok(self)
    }

    /// The checkpoint-storage service backing this run: the only place a
    /// committed checkpoint lives, and the only source a restart reads.
    pub fn ckptstore(&self) -> Arc<CkptStoreService> {
        Arc::clone(&self.ckptstore)
    }

    /// Run-wide metrics (read after the run).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Stop the background metrics sampler (if one was configured) and
    /// return the number of JSONL rows it wrote. Dropping the provider
    /// stops it too; call this to force the final row out before reading
    /// the file. Idempotent — later calls return 0.
    pub fn stop_sampler(&mut self) -> u64 {
        self.sampler.take().map_or(0, crate::sampler::MetricsSampler::stop)
    }

    /// The per-rank sender logs.
    pub fn store(&self) -> Arc<SharedStore> {
        Arc::clone(&self.store)
    }

    /// The clustering in use.
    pub fn clusters(&self) -> Arc<ClusterMap> {
        Arc::clone(&self.clusters)
    }
}

impl FtProvider for SpbcProvider {
    fn cluster_of(&self, rank: RankId) -> usize {
        self.clusters.cluster_of(rank)
    }

    fn make_layer(&self, rank: RankId, _epoch: u32) -> Box<dyn FtLayer> {
        Box::new(SpbcLayer::new(
            rank,
            Arc::clone(&self.clusters),
            &self.store,
            Arc::clone(&self.metrics),
            self.cfg.clone(),
            Arc::clone(&self.ckptstore),
        ))
    }

    fn on_rank_failed(&self, rank: RankId) {
        if self.cfg.lose_local_on_failure {
            // Node-loss semantics: the crashed rank's node-local copies are
            // gone; restore must go through EC rebuild or partner repair.
            // Best-effort — a wipe failure surfaces at restore time anyway.
            let _ = self.ckptstore.wipe_local(rank);
        }
    }
}

/// Per-rank SPBC protocol state.
pub struct SpbcLayer {
    me: RankId,
    cluster: usize,
    clusters: Arc<ClusterMap>,
    /// My sender-side log; it outlives this incarnation of the layer.
    log: Arc<Mutex<MessageLog>>,
    metrics: Arc<Metrics>,
    cfg: SpbcConfig,

    /// Rollback, LastMessage and replay: the recovery half of Algorithm 1.
    recovery: Recovery,
    restored_app: Option<Vec<u8>>,

    ckpt_calls: u64,
    intra_sent: u64,
    intra_arrived: u64,
    last_ckpt_epoch: u64,
    /// The checkpoint wave, as member and (on the leader) as coordinator.
    wave: Wave,
    /// The member's open phase `(phase, epoch, since)`.
    phase: Option<(Phase, u64, Instant)>,
    /// Length of the last committed body: the next wave's buffer capacity.
    last_body_len: usize,

    /// The replicated checkpoint-storage service: where every committed
    /// checkpoint lives, and the only source a restart reads.
    service: Arc<CkptStoreService>,
    /// My partner ranks (other clusters) holding replica copies.
    partners: Vec<RankId>,
}

impl SpbcLayer {
    /// Build the layer for `me`.
    pub(crate) fn new(
        me: RankId,
        clusters: Arc<ClusterMap>,
        store: &SharedStore,
        metrics: Arc<Metrics>,
        cfg: SpbcConfig,
        service: Arc<CkptStoreService>,
    ) -> Self {
        let cluster = clusters.cluster_of(me);
        let window = cfg.replay_window;
        let coordinator = match cfg.replay_policy {
            ReplayPolicy::Windowed => None,
            ReplayPolicy::Coordinated { coordinator } => Some(coordinator),
        };
        let partners = clusters.replica_partners(me, cfg.replicas);
        // Under erasure coding the partners hold parity frames only, which
        // their keep window bounds: nothing to release.
        let release = !service.config().ec.is_on();
        let wave = Wave::new(clusters.members(cluster).to_vec(), !partners.is_empty(), release);
        SpbcLayer {
            me,
            cluster,
            clusters,
            log: store.slot(me),
            metrics,
            cfg,
            recovery: Recovery::new(me, coordinator, window),
            restored_app: None,
            ckpt_calls: 0,
            intra_sent: 0,
            intra_arrived: 0,
            last_ckpt_epoch: 0,
            wave,
            phase: None,
            last_body_len: 0,
            service,
            partners,
        }
    }

    /// Record one phase latency sample into the run-wide histograms and the
    /// flight recorder (so a hang dump names the last completed phase and
    /// the chrome trace draws its span).
    fn record_phase(&self, ctx: &mut FtCtx<'_>, epoch: u64, phase: Phase, us: u64) {
        self.metrics.phase.record(phase, us);
        ctx.recorder().record(|| Event::CkptPhaseDone { epoch, phase: phase.name(), us });
    }

    fn ctrl(&self, ctx: &mut FtCtx<'_>, to: RankId, kind: u16, body: Vec<u8>) {
        Metrics::add(&self.metrics.ctrl_msgs, 1);
        ctx.send_ctrl(to, kind, body);
    }

    fn is_intra(&self, peer: RankId) -> bool {
        self.clusters.cluster_of(peer) == self.cluster
    }

    /// Step the wave with `input`, record the row and pass its failure
    /// site, close the phase the step left, and execute the actions. An
    /// action that yields an input (the encoded cut, the replica frames,
    /// the durable copy) steps it next.
    fn drive(&mut self, ctx: &mut FtCtx<'_>, input: Input) -> Result<()> {
        let mut next = Some(input);
        while let Some(input) = next.take() {
            let now = Instant::now();
            let (wave, row, actions) = std::mem::take(&mut self.wave).step(input, now)?;
            self.wave = wave;
            row.map_or(Ok(()), |(row, epoch)| ctx.transition(row, epoch))?;
            if let Some((epoch, phase, us)) = clock(&mut self.phase, &self.wave.member, now) {
                self.record_phase(ctx, epoch, phase, us);
            }
            for action in actions {
                next = self.exec(ctx, action)?.or(next);
            }
        }
        Ok(())
    }

    fn exec(&mut self, ctx: &mut FtCtx<'_>, action: Action) -> Result<Option<Input>> {
        match action {
            Action::Ctrl(to, kind, body) => self.ctrl(ctx, to, kind, body),
            Action::Record(event) => ctx.recorder().record(|| event),
            Action::Encode(epoch, body) => return self.encode_cut(ctx, epoch, body).map(Some),
            Action::Replicate(epoch, sealed, logical) => {
                // The store picks each partner's frame: the blob, its
                // manifest, or parity (from the rank completing its set).
                let (me, partners) = (self.me, &self.partners);
                let rep = self.service.replicas(me, epoch, &sealed, logical, partners)?;
                if let Some((encode_us, bytes)) = rep.parity {
                    self.record_phase(ctx, epoch, Phase::EncodeParity, encode_us);
                    Metrics::add(&self.metrics.ec_parity_bytes, bytes);
                }
                return Ok(Some(Input::Replicas(rep.pushes)));
            }
            Action::Push(epoch, r) => self.push(ctx, epoch, &r),
            Action::Chunks(partner, epoch, manifest, missing) => {
                let frame = Arc::new(self.service.subset_blob(&manifest, &missing)?);
                // The manifest push this subset completes counted its bytes.
                self.push(ctx, epoch, &Replica { partner, owner: self.me, frame, logical: 0 });
            }
            // The ACK means "durable": its RESUME lets storage and the logs
            // drop what the wave covers. What is left of a disk store's
            // write, which ran behind replication, is paid here.
            Action::Flush => {
                self.service.flush_rank(self.me)?;
                return Ok(Some(Input::Flushed));
            }
            Action::Ack(leader, epoch) => {
                self.ctrl(ctx, leader, KIND_CKPT_ACK, to_bytes(&epoch));
                Metrics::add(&self.metrics.checkpoints, 1);
            }
            Action::GcLocal(keep_from) => {
                let pruned = self.service.gc_local(self.me, keep_from)? as u64;
                if pruned > 0 {
                    Metrics::add(&self.metrics.ckpt_gc_pruned, pruned);
                    ctx.recorder().record(|| Event::CkptGc { pruned, keep_from });
                }
            }
            // Receiver-checkpoint log GC: every member's copy of the wave is
            // durable, and storage keeps only it, so what its cut holds can
            // never be asked of a sender's log again.
            Action::LogGc(notices) => {
                for (&src, gc) in notices.iter().filter(|(src, _)| !self.is_intra(**src)) {
                    Metrics::add(&self.metrics.log_gc_notices, 1);
                    self.ctrl(ctx, src, KIND_LOG_GC, to_bytes(gc));
                }
            }
            Action::Release(keep_from) => {
                for &partner in &self.partners {
                    // Storage traffic: bypasses `self.ctrl`, like the push.
                    ctx.send_ctrl(partner, KIND_CKPT_RELEASE, to_bytes(&keep_from));
                }
            }
        }
        Ok(None)
    }

    /// Step recovery with `input`, pass the row's failure site, and execute
    /// its actions depth-first: a replay send's [`rec::Input::Sent`] is
    /// stepped, and its actions run, before the rest of the step that sent
    /// it. Returns the send or arrival verdict (`true` for Forward/Deliver).
    fn recover(&mut self, ctx: &mut FtCtx<'_>, input: rec::Input) -> Result<bool> {
        let (mut todo, mut next, mut pass) = (VecDeque::new(), Some(input), true);
        loop {
            if let Some(input) = next.take() {
                let state = std::mem::take(&mut self.recovery);
                let (state, row, actions) =
                    state.step(&mut self.log.lock(), input, Instant::now())?;
                self.recovery = state;
                row.map_or(Ok(()), |row| ctx.transition(row, ctx.epoch().into()))?;
                actions.into_iter().rev().for_each(|a| todo.push_front(a));
            }
            let Some(action) = todo.pop_front() else { return Ok(pass) };
            match action {
                rec::Action::Ctrl(to, kind, body) => self.ctrl(ctx, to, kind, body),
                rec::Action::Record(event) => ctx.recorder().record(|| event),
                rec::Action::Count(counter, n) => Metrics::add(counter(&self.metrics), n),
                rec::Action::Forward | rec::Action::Deliver => pass = true,
                rec::Action::Suppress | rec::Action::Drop => pass = false,
                rec::Action::ReplaySend { msg, drained_us } => {
                    let (dst, comm, seqnum) = (msg.env.dst, msg.env.comm.0, msg.env.seqnum);
                    ctx.recorder().record(|| Event::Replay { dst, comm, seqnum });
                    Metrics::add(&self.metrics.replayed_msgs, 1);
                    Metrics::add(&self.metrics.replayed_bytes, msg.payload.len() as u64);
                    if let Some(us) = drained_us {
                        ctx.recorder().record(|| Event::ReplayDrained { dst });
                        self.metrics.phase.record(Phase::RestoreReplay, us);
                    }
                    next = Some(rec::Input::Sent(ctx.ft_send_message(msg)));
                }
            }
        }
    }

    /// Member: capture the cut of wave `epoch` (Algorithm 1 line 15),
    /// finish `body` with it, and encode and commit it locally.
    fn encode_cut(&mut self, ctx: &mut FtCtx<'_>, epoch: u64, mut body: Vec<u8>) -> Result<Input> {
        let mut unexpected_full = Vec::new();
        let mut missing_markers: Vec<(ChannelId, u64)> = Vec::new();
        for a in ctx.unexpected_snapshot() {
            match a.body {
                ArrivedBody::Eager(payload) => {
                    unexpected_full.push(Message { env: a.env, payload })
                }
                ArrivedBody::Rts { .. } => {
                    if self.is_intra(a.env.src) {
                        // Quiescence plus the no-live-requests rule make this
                        // unreachable: an intra-cluster sender cannot be past
                        // its checkpoint call with an un-CTSed transfer.
                        return Err(MpiError::InvalidState(
                            "intra-cluster rendezvous pending at checkpoint".into(),
                        ));
                    }
                    missing_markers.push((a.env.channel(), a.env.seqnum));
                }
            }
        }
        // Payloads still owed from before (restored missing entries not yet
        // re-delivered) remain owed at this cut.
        missing_markers.extend(self.recovery.owed());
        let log = self.log.lock();
        let (log_lens, log_order) = (log.lengths(), log.order_counter());
        drop(log);
        // Everything but the application state, which is already in the
        // body's head.
        let ck = CheckpointData {
            ckpt_epoch: epoch,
            app_state: Vec::new(),
            send_seq: ctx.send_seq().clone(),
            recv_seen: ctx.recv_seen().clone(),
            unexpected_full,
            missing: missing_markers,
            log_lens,
            log_order,
            ckpt_calls: self.ckpt_calls,
            intra_sent: self.intra_sent,
            intra_arrived: self.intra_arrived,
            comms: ctx.comms_snapshot(),
            lamport: ctx.lamport(),
        };
        // Finish the body in place and encode it: CDC chunks deduped against
        // the chunk store, sealed as an `SPBCCKP4` manifest (new chunks inline
        // on disk), or with CDC off an `SPBCCKP2` full blob. The local write
        // and every replica share the sealed blob.
        let encode_start = Instant::now();
        ck.encode_tail(&mut body);
        let (sealed, stats) = self.service.encode_commit(self.me, epoch, &body)?;
        // The store holds the wave now (chunks, or a sealed blob): the body
        // goes.
        self.last_body_len = body.len();
        drop(body);
        let sealed = Arc::new(sealed);
        let encode_us = encode_start.elapsed().as_micros() as u64;
        self.record_phase(ctx, epoch, Phase::Encode, encode_us);
        let logical = stats.logical;
        Metrics::add(&self.metrics.ckpt_bytes_logical, stats.logical);
        Metrics::add(&self.metrics.ckpt_bytes_physical, stats.physical);
        Metrics::add(&self.metrics.cas_hits_cross_epoch, stats.cas_hit_chunks_same_owner as u64);
        Metrics::add(&self.metrics.cas_hits_cross_rank, stats.cas_hit_chunks_cross_rank as u64);
        Metrics::add(&self.metrics.cas_hit_bytes, stats.cas_hit_bytes);
        Metrics::set(&self.metrics.cas_unique_bytes, self.service.cas().unique_bytes());
        let bytes = sealed.len() as u64;
        ctx.recorder().record(|| Event::CkptWrite { epoch, bytes, logical });
        let rec = ctx.recorder().clone();
        let metrics = Arc::clone(&self.metrics);
        let is_async = self.service.writes_off_thread(self.me);
        let written = move |res: &Result<PutStats>, hidden: Duration| {
            let Ok(put) = res else { return };
            let done = |phase: Phase, us: u64| {
                metrics.phase.record(phase, us);
                rec.record(|| Event::CkptPhaseDone { epoch, phase: phase.name(), us });
            };
            let write_us = hidden.as_micros() as u64;
            done(Phase::Write, write_us);
            if put.fsync_us > 0 {
                done(Phase::Fsync, put.fsync_us);
            }
            if is_async {
                Metrics::add(&metrics.ckpt_writes_async, 1);
                Metrics::add(&metrics.ckpt_write_hidden_us, write_us);
            }
        };
        self.service.commit_local(self.me, epoch, Arc::clone(&sealed), Some(Box::new(written)))?;
        self.last_ckpt_epoch = epoch;
        Ok(Input::Encoded(ck.log_gc_notices(), sealed, logical))
    }

    /// Send one replica frame to its partner (also used for retries and
    /// chunk-request answers). `repl_bytes` counts what travels,
    /// `repl_bytes_logical` the body bytes it stands for.
    fn push(&self, ctx: &mut FtCtx<'_>, epoch: u64, r: &Replica) {
        let (partner, bytes) = (r.partner, r.frame.len() as u64);
        ctx.recorder().record(|| Event::CkptReplPush { partner, epoch, bytes });
        Metrics::add(&self.metrics.repl_pushes, 1);
        Metrics::add(&self.metrics.repl_bytes, bytes);
        Metrics::add(&self.metrics.repl_bytes_logical, r.logical);
        let mut body = Vec::with_capacity(r.frame.len() + 24);
        CkptBlob::encode_frame(r.owner.0, epoch, &r.frame, &mut body);
        // Storage traffic, not protocol control: bypass `self.ctrl` so
        // `ctrl_msgs` keeps measuring coordination cost only.
        ctx.send_ctrl(partner, KIND_CKPT_BLOB, body);
    }

    /// Load my checkpoint of wave `target` from the store service — the
    /// only place a committed checkpoint lives — recording the restore
    /// phases. A wave the store cannot load is a loud error.
    fn load_cut(&self, ctx: &mut FtCtx<'_>, target: u64) -> Result<CheckpointData> {
        let Some((body, outcome, lstats)) = self.service.load_with_stats(self.me, target)? else {
            return Err(MpiError::InvalidState(format!(
                "rank {} lacks checkpoint epoch {target}",
                self.me
            )));
        };
        self.record_phase(ctx, target, Phase::RestoreLoad, lstats.fetch_us);
        self.record_phase(ctx, target, Phase::RestoreMaterialize, lstats.materialize_us);
        match outcome {
            LoadOutcome::Repaired { from } => {
                Metrics::add(&self.metrics.ckpt_repairs, 1);
                // Repair rode the fetch path, so its cost is the fetch time
                // of a load that needed a partner scan.
                self.record_phase(ctx, target, Phase::RestoreRepair, lstats.fetch_us);
                ctx.recorder().record(|| Event::CkptRepair { epoch: target, from });
            }
            LoadOutcome::Rebuilt { set_id } => {
                // The checkpoint was reconstructed from the redundancy set's
                // parity (erasure decode).
                Metrics::add(&self.metrics.ec_rebuilds, 1);
                self.record_phase(ctx, target, Phase::RestoreRepair, lstats.fetch_us);
                ctx.recorder().record(|| Event::CkptRebuild { epoch: target, set_id });
            }
            LoadOutcome::Local => {}
        }
        // CRC-verified: the service returns the unsealed body.
        from_bytes(&body)
    }
}

/// Move the open wave phase `open` to `member`'s at `now`. When the phase
/// changed, returns the closed one's `(epoch, phase, µs)`.
fn clock(
    open: &mut Option<(Phase, u64, Instant)>,
    member: &Member,
    now: Instant,
) -> Option<(u64, Phase, u64)> {
    let phase = member.phase();
    if phase == open.map(|(p, epoch, _)| (p, epoch)) {
        return None;
    }
    let closed = open.take().map(|(p, epoch, since)| {
        (epoch, p, now.saturating_duration_since(since).as_micros() as u64)
    });
    *open = phase.map(|(p, epoch)| (p, epoch, now));
    closed
}

impl FtLayer for SpbcLayer {
    fn name(&self) -> &'static str {
        "spbc"
    }

    fn on_start(&mut self, ctx: &mut FtCtx<'_>) -> Result<()> {
        if ctx.epoch() == 0 {
            return Ok(());
        }
        Metrics::add(&self.metrics.rollbacks, 1);
        // Agree with the other (also-restarting, quiescent) cluster members
        // on the newest checkpoint wave everyone committed: a crash during a
        // commit broadcast can leave members one wave apart.
        let members: Vec<RankId> = self.clusters.members(self.cluster).to_vec();
        // Settle in-flight disk writes first so the storage service's
        // epoch inventory is trustworthy (the writer thread survives rank
        // kills, so this is a bounded wait).
        for &m in &members {
            self.service.flush_rank(m)?;
        }
        // Partner-held copies count: a rank whose local store was destroyed
        // still reaches the wave via repair.
        let target = self.service.common_epoch(&members)?;
        let ck = if target == 0 { None } else { Some(self.load_cut(ctx, target)?) };
        ctx.recorder().record(|| Event::Rollback { epoch: ctx.epoch(), restored_ckpt: target });
        let (seen, owed) = if let Some(ck) = ck {
            ctx.set_send_seq(ck.send_seq);
            ctx.set_recv_seen(ck.recv_seen.clone());
            ctx.restore_comms(ck.comms);
            ctx.set_lamport(ck.lamport);
            let restored: Vec<Arrived> = ck
                .unexpected_full
                .into_iter()
                .map(|m| Arrived { env: m.env, body: ArrivedBody::Eager(m.payload) })
                .collect();
            ctx.restore_unexpected(restored);
            let entries = {
                let mut log = self.log.lock();
                log.truncate_to(&ck.log_lens, ck.log_order);
                log.total_entries() as u64
            };
            ctx.recorder().record(|| Event::LogTruncate { entries, order: ck.log_order });
            self.ckpt_calls = ck.ckpt_calls;
            self.intra_sent = ck.intra_sent;
            self.intra_arrived = ck.intra_arrived;
            self.last_ckpt_epoch = ck.ckpt_epoch;
            self.restored_app = Some(ck.app_state);
            (ck.recv_seen, ck.missing)
        } else {
            // No checkpoint yet: restart from the initial state; everything
            // sent so far will be replayed (LR defaults to 0) or regenerated.
            self.log.lock().truncate_to(&HashMap::new(), 0);
            ctx.restore_unexpected(Vec::new());
            (HashMap::new(), Vec::new())
        };
        let peers = self.clusters.other_ranks(self.me).collect();
        self.recover(ctx, rec::Input::Start { epoch: ctx.epoch(), peers, seen, owed }).map(drop)
    }

    fn on_send(&mut self, ctx: &mut FtCtx<'_>, env: &Envelope, payload: &Bytes) -> SendAction {
        let dst = env.dst;
        if self.is_intra(dst) {
            self.intra_sent += 1;
            return SendAction::Forward;
        }
        // One channel lookup decides whether recovery holds the send: a
        // `Message` is built only then.
        let held = self.recovery.holds(env);
        // Inter-cluster: log in the sender's memory (line 6).
        self.log.lock().append_send(env, payload);
        Metrics::add(&self.metrics.logged_msgs, 1);
        Metrics::add(&self.metrics.logged_bytes, payload.len() as u64);
        ctx.recorder().record(|| Event::LogAppend {
            dst,
            comm: env.comm.0,
            seqnum: env.seqnum,
            bytes: env.plen,
        });
        let msg = || Message { env: *env, payload: payload.clone() };
        // A chaos kill at the row sends nothing: the raised kill flag
        // unwinds the rank at its next runtime call.
        match held.then(|| self.recover(ctx, rec::Input::Send(msg()))) {
            None | Some(Ok(true)) => SendAction::Forward,
            Some(Ok(false) | Err(MpiError::Killed)) => SendAction::Suppress,
            Some(Err(e)) => panic!("{e}"),
        }
    }

    fn on_arrival(&mut self, ctx: &mut FtCtx<'_>, env: &Envelope) -> ArrivalAction {
        if self.is_intra(env.src) {
            self.intra_arrived += 1;
            return ArrivalAction::Deliver;
        }
        let lr = ctx.last_seen_on(env.src, env.comm);
        if env.seqnum == lr + 1 {
            return ArrivalAction::Deliver;
        }
        match self.recover(ctx, rec::Input::Arrival(*env, lr)) {
            Ok(true) => ArrivalAction::Deliver,
            Ok(false) | Err(MpiError::Killed) => ArrivalAction::Drop,
            Err(e) => panic!("{e}"),
        }
    }

    fn match_admissible(&self, spec: &RecvSpec, env: &Envelope) -> bool {
        !self.cfg.enforce_ident || spec.ident == env.ident
    }

    fn on_ctrl(&mut self, ctx: &mut FtCtx<'_>, msg: CtrlMsg) -> Result<()> {
        match msg.kind {
            // The peer's old incarnation is gone: purge the rendezvous state
            // it left (announced payloads it will never ship, transfers to it
            // that will never be CTSed) before recovery takes its Rollback.
            KIND_ROLLBACK => {
                let (from, rb) = (msg.from, from_bytes(&msg.data)?);
                let purged = ctx.purge_rdv_from_peer(from);
                let cancelled = ctx.cancel_pending_rdv_to(from);
                let seen = marks(ctx.recv_seen(), from);
                self.recover(ctx, rec::Input::Rollback { from, rb, purged, cancelled, seen })
                    .map(drop)
            }
            KIND_LASTMSG => {
                let lm = from_bytes(&msg.data)?;
                self.recover(ctx, rec::Input::LastMessage(msg.from, lm)).map(drop)
            }
            KIND_CKPT_JOIN => self.drive(ctx, Input::Join(msg.from, from_bytes(&msg.data)?)),
            KIND_CKPT_REPORT => self.drive(ctx, Input::Report(msg.from, from_bytes(&msg.data)?)),
            KIND_CKPT_POLL => {
                let epoch = from_bytes(&msg.data)?;
                let body = CkptCounts { epoch, sent: self.intra_sent, arrived: self.intra_arrived };
                self.drive(ctx, Input::Poll(body))
            }
            KIND_CKPT_COMMIT => self.drive(ctx, Input::Commit(from_bytes(&msg.data)?)),
            KIND_CKPT_ACK => self.drive(ctx, Input::Ack(msg.from, from_bytes(&msg.data)?)),
            KIND_CKPT_RESUME => self.drive(ctx, Input::Resume(from_bytes(&msg.data)?)),
            KIND_CKPT_RELEASE => {
                let keep_from: u64 = from_bytes(&msg.data)?;
                let owner = msg.from;
                let pruned = self.service.release_partner_copies(self.me, owner, keep_from)? as u64;
                if pruned > 0 {
                    Metrics::add(&self.metrics.ckpt_gc_pruned, pruned);
                    ctx.recorder().record(|| Event::CkptRelease { owner, pruned, keep_from });
                }
                Ok(())
            }
            KIND_CKPT_BLOB => {
                let cb: CkptBlob = from_bytes(&msg.data)?;
                let (owner, epoch, bytes) = (RankId(cb.owner), cb.epoch, cb.blob.len() as u64);
                // Store synchronously: the ACK must mean "durable".
                // Re-pushed duplicates overwrite idempotently.
                match self.service.store_partner_copy(self.me, owner, epoch, &cb.blob)? {
                    Adoption::Missing(missing) => {
                        // A manifest naming chunk bodies our store lacks:
                        // ask the owner for them; its answer arrives here
                        // again.
                        let body = CkptChunkReq { owner: cb.owner, epoch, missing };
                        ctx.send_ctrl(msg.from, KIND_CKPT_CHUNK_REQ, to_bytes(&body));
                    }
                    Adoption::Stored { pruned } => {
                        if pruned > 0 {
                            Metrics::add(&self.metrics.ckpt_gc_pruned, pruned as u64);
                        }
                        ctx.recorder().record(|| Event::CkptReplStore { owner, epoch, bytes });
                        let ack = CkptBlobAck { owner: cb.owner, epoch };
                        ctx.send_ctrl(msg.from, KIND_CKPT_BLOB_ACK, to_bytes(&ack));
                    }
                }
                Ok(())
            }
            KIND_CKPT_CHUNK_REQ => {
                let r: CkptChunkReq = from_bytes(&msg.data)?;
                self.drive(ctx, Input::ChunkReq(msg.from, RankId(r.owner), r.epoch, r.missing))
            }
            KIND_CKPT_BLOB_ACK => {
                let ack: CkptBlobAck = from_bytes(&msg.data)?;
                Metrics::add(&self.metrics.repl_acks, 1);
                self.drive(ctx, Input::BlobAck(msg.from, RankId(ack.owner), ack.epoch))
            }
            KIND_LOG_GC => {
                Metrics::max(&self.metrics.log_live_bytes, self.log.lock().peak_bytes());
                self.recover(ctx, rec::Input::LogGc(msg.from, from_bytes(&msg.data)?)).map(drop)
            }
            KIND_GRANT => self.recover(ctx, rec::Input::Grant).map(drop),
            other => Err(MpiError::invalid(format!("unknown SPBC ctrl kind {other}"))),
        }
    }

    fn on_transfer_complete(&mut self, ctx: &mut FtCtx<'_>, token: u64) -> Result<()> {
        self.recover(ctx, rec::Input::TransferComplete(token)).map(drop)
    }

    fn checkpoint_begin(
        &mut self,
        ctx: &mut FtCtx<'_>,
        app_state: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<CkptOutcome> {
        self.ckpt_calls += 1;
        let due =
            self.cfg.ckpt_interval != 0 && self.ckpt_calls.is_multiple_of(self.cfg.ckpt_interval);
        // Only a due call serializes the application state, straight into
        // the head of a body sized to the last wave's.
        let open = due.then(|| {
            let epoch = self.last_ckpt_epoch + 1;
            let mut body = Vec::with_capacity(self.last_body_len);
            CheckpointData::encode_head(epoch, app_state, &mut body);
            (CkptCounts { epoch, sent: self.intra_sent, arrived: self.intra_arrived }, body)
        });
        self.drive(ctx, Input::Call(open))?;
        Ok(if due { CkptOutcome::InProgress } else { CkptOutcome::NotDue })
    }

    fn checkpoint_poll(&mut self, ctx: &mut FtCtx<'_>) -> Result<bool> {
        self.drive(ctx, Input::Tick)?;
        Ok(matches!(self.wave.member, Member::Resumed { .. }))
    }

    fn restored_app_state(&mut self) -> Option<Vec<u8>> {
        self.restored_app.take()
    }

    fn on_app_done(&mut self, _ctx: &mut FtCtx<'_>) -> Result<()> {
        Metrics::max(&self.metrics.log_live_bytes, self.log.lock().peak_bytes());
        // Shutdown durability: the last wave's disk write must be on
        // stable storage before the rank reports success.
        self.service.flush_rank(self.me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wave::Notices;

    /// Each phase sample is the gap between the steps that open and close
    /// it: quiesce from the opening call to COMMIT, replicate from the
    /// pushes to the last BLOB_ACK, and the commit barrier from the step
    /// that flushes (the last BLOB_ACK, or the replicas when none are owed)
    /// to RESUME.
    #[test]
    fn phase_clock_samples_the_gap_between_steps() {
        let t0 = Instant::now();
        let c = |epoch| CkptCounts { epoch, sent: 0, arrived: 0 };
        let encoded = || Input::Encoded(Notices::new(), Arc::new(Vec::new()), 0);
        let (me, partner) = (RankId(0), RankId(5));
        let frame = Arc::new(vec![1]);
        let replica = Replica { partner, owner: me, frame, logical: 1 };
        let steps = [
            (10, Input::Call(Some((c(1), Vec::new())))),
            (13, Input::Join(me, c(1))),
            (17, Input::Commit(1)),
            (24, encoded()),
            (30, Input::Replicas(vec![replica])),
            (41, Input::BlobAck(partner, me, 1)),
            (43, Input::Flushed),
            (44, Input::Ack(me, 1)),
            (60, Input::Resume(1)),
            (70, Input::Call(Some((c(2), Vec::new())))),
            (71, Input::Join(me, c(2))),
            (75, Input::Commit(2)),
            (80, encoded()),
            (82, Input::Replicas(Vec::new())),
            (83, Input::Flushed),
            (90, Input::Resume(2)),
        ];
        let (mut wave, mut open, mut samples) = (Wave::new(vec![me], true, true), None, Vec::new());
        for (ms, input) in steps {
            let now = t0 + Duration::from_millis(ms);
            wave = wave.step(input, now).unwrap().0;
            samples.extend(clock(&mut open, &wave.member, now));
        }
        let want = [
            (1, Phase::Quiesce, 7_000),
            (1, Phase::Replicate, 11_000),
            (1, Phase::CommitBarrier, 19_000),
            (2, Phase::Quiesce, 5_000),
            (2, Phase::CommitBarrier, 8_000),
        ];
        assert_eq!(samples, want);
        assert!(open.is_none());
    }
}
