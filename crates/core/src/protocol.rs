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
//!   the log cut (line 13-15).
//! * **Recovery** — restore the newest checkpoint *every* cluster member
//!   holds, announce `Rollback(LR)` per channel (lines 16-20), answer
//!   `LastMessage` so re-execution skips messages the receiver already has
//!   (lines 21-26), and replay logged messages per channel in seqnum order
//!   with the §5.2.2 pre-post window. No process-to-process synchronization
//!   is needed during replay — the property SPBC gains over HydEE.

use crate::cluster::ClusterMap;
use crate::ctrl::{
    CkptBlob, CkptBlobAck, CkptChunkReq, CkptCounts, CkptHashes, LastMessage, LastMessageChannel,
    LogGc, Rollback, RollbackChannel, KIND_CKPT_ACK, KIND_CKPT_BLOB, KIND_CKPT_BLOB_ACK,
    KIND_CKPT_CHUNK_REQ, KIND_CKPT_COMMIT, KIND_CKPT_HASHES, KIND_CKPT_JOIN, KIND_CKPT_POLL,
    KIND_CKPT_REPORT, KIND_CKPT_RESUME, KIND_GRANT, KIND_GRANT_DONE, KIND_GRANT_REQ, KIND_LASTMSG,
    KIND_LOG_GC, KIND_ROLLBACK,
};
use crate::log::MessageLog;
use crate::metrics::Metrics;
use crate::replay::{ReplayEngine, DEFAULT_REPLAY_WINDOW};
use crate::store::{CheckpointData, SharedStore};
use bytes::Bytes;
use mini_mpi::envelope::{CtrlMsg, Envelope, Message};
use mini_mpi::error::{MpiError, Result};
use mini_mpi::failure::CkptHook;
use mini_mpi::ft::{ArrivalAction, CkptOutcome, FtCtx, FtLayer, FtProvider, SendAction};
use mini_mpi::matching::{Arrived, ArrivedBody};
use mini_mpi::recorder::{CkptPhase, Event, WritePhase};
use mini_mpi::request::RecvSpec;
use mini_mpi::types::{ChannelId, CommId, RankId};
use mini_mpi::wire::{from_bytes, to_bytes};
use parking_lot::Mutex;
use spbc_ckptstore::{
    Admission, CdcParams, CkptStoreService, EcScheme, LoadOutcome, SetMap, StoreConfig,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a committing rank waits for a partner's blob ACK before
/// re-pushing (covers partners that died mid-wave: their restarted
/// incarnation stores the retried copy).
const REPL_RETRY: Duration = Duration::from_millis(250);

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
    /// Write local checkpoint copies through the background writer so the
    /// commit barrier does not pay serialization + fsync latency. Disable to
    /// restore fully synchronous commits.
    pub async_ckpt_writes: bool,
    /// Chunk size for incremental (delta) checkpoint encoding. Defaults to
    /// `$SPBC_CKPT_CHUNK` or 64 KiB.
    pub ckpt_chunk: usize,
    /// Write a full checkpoint blob every Nth wave, deltas in between, to
    /// bound delta-chain length. Defaults to `$SPBC_CKPT_FULL_EVERY` or 8;
    /// 1 disables the delta path entirely.
    pub ckpt_full_every: u64,
    /// Content-defined chunking + content-addressed dedup (`SPBCCKP4`):
    /// checkpoint bodies are cut at content-determined boundaries, chunks
    /// dedup across epochs *and* ranks, and replication pushes chunk-hash
    /// manifests instead of blobs. Defaults to `$SPBC_CKPT_CDC` or on;
    /// off falls back to the fixed-grid delta encoder (`SPBCCKP3`).
    pub ckpt_cdc: bool,
    /// CDC minimum chunk length. Defaults to `$SPBC_CDC_MIN` or 256.
    pub cdc_min: usize,
    /// CDC target (average) chunk length. Defaults to `$SPBC_CDC_AVG` or 1024.
    pub cdc_avg: usize,
    /// CDC maximum chunk length. Defaults to `$SPBC_CDC_MAX` or 4096.
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
    /// Tiered-storage policy for the on-disk backend: comma-separated
    /// `level:keep` pairs, fastest first (e.g. `mem:2,local:8,global:all`).
    /// Defaults to `$SPBC_TIER_POLICY` or `mem:0,local:all`.
    pub tier_policy: String,
    /// Chaos-model switch: a rank that fails also loses its node-local
    /// checkpoint copies (node-loss semantics), forcing restore through the
    /// EC rebuild or partner repair paths. Defaults off (process-kill
    /// semantics: local files survive the respawn).
    pub lose_local_on_failure: bool,
    /// Shard count for the store hub's CAS and write pipeline (rounded up
    /// to a power of two; 1 reproduces the legacy single-lock layout).
    /// Defaults to `$SPBC_STORE_SHARDS` or 8.
    pub store_shards: usize,
    /// Hard depth of each write-pipeline submission queue; a full queue
    /// delays admission instead of buffering unbounded memory. Defaults to
    /// `$SPBC_WRITE_QUEUE` or 64.
    pub write_queue: usize,
    /// Byte budget for coalescing queued small blobs under one durability
    /// barrier. Defaults to `$SPBC_BATCH_BYTES` or 1 MiB.
    pub batch_bytes: usize,
    /// Microseconds a write batch lingers for stragglers before sealing.
    /// Defaults to `$SPBC_BATCH_LINGER_US` or 0 (seal immediately).
    pub batch_linger_us: u64,
}

/// Replication factor from `$SPBC_REPL_K`, defaulting to 2 (one surviving
/// copy even if the owner's cluster *and* one partner fail together).
fn default_replicas() -> usize {
    crate::env::get_or("SPBC_REPL_K", 2)
}

/// Delta chunk size from `$SPBC_CKPT_CHUNK`, defaulting to 64 KiB.
fn default_ckpt_chunk() -> usize {
    crate::env::get_or("SPBC_CKPT_CHUNK", spbc_ckptstore::chunk::DEFAULT_CHUNK_SIZE)
}

/// Full-blob cadence from `$SPBC_CKPT_FULL_EVERY`, defaulting to 8.
fn default_ckpt_full_every() -> u64 {
    crate::env::get_or("SPBC_CKPT_FULL_EVERY", spbc_ckptstore::chunk::DEFAULT_FULL_EVERY)
}

/// CDC toggle from `$SPBC_CKPT_CDC` (0 = fixed-grid deltas), defaulting on.
fn default_ckpt_cdc() -> bool {
    crate::env::get_or("SPBC_CKPT_CDC", 1u8) != 0
}

/// Sampler period from `$SPBC_METRICS_INTERVAL_MS`, defaulting off.
fn default_metrics_interval_ms() -> u64 {
    crate::env::get_or("SPBC_METRICS_INTERVAL_MS", 0u64)
}

/// Parity scheme from `$SPBC_EC_SCHEME`, defaulting off.
fn default_ec_scheme() -> String {
    crate::env::get_or("SPBC_EC_SCHEME", "off".to_string())
}

/// Redundancy-set size from `$SPBC_EC_GROUP`, defaulting to 4.
fn default_ec_group() -> usize {
    crate::env::get_or("SPBC_EC_GROUP", 4usize)
}

/// RS parity count from `$SPBC_EC_M`, defaulting to 2.
fn default_ec_m() -> usize {
    crate::env::get_or("SPBC_EC_M", 2usize)
}

/// Tier policy from `$SPBC_TIER_POLICY`, defaulting to write-through
/// node-local files (the pre-tiering on-disk layout).
fn default_tier_policy() -> String {
    crate::env::get_or("SPBC_TIER_POLICY", "mem:0,local:all".to_string())
}

/// Store shard count from `$SPBC_STORE_SHARDS`, defaulting to 8.
fn default_store_shards() -> usize {
    crate::env::get_or("SPBC_STORE_SHARDS", 8usize)
}

/// Write-queue depth from `$SPBC_WRITE_QUEUE`, defaulting to 64.
fn default_write_queue() -> usize {
    crate::env::get_or("SPBC_WRITE_QUEUE", 64usize)
}

/// Batch byte budget from `$SPBC_BATCH_BYTES`, defaulting to 1 MiB.
fn default_batch_bytes() -> usize {
    crate::env::get_or("SPBC_BATCH_BYTES", 1usize << 20)
}

/// Batch linger from `$SPBC_BATCH_LINGER_US`, defaulting to 0.
fn default_batch_linger_us() -> u64 {
    crate::env::get_or("SPBC_BATCH_LINGER_US", 0u64)
}

/// CDC chunk bounds from `$SPBC_CDC_MIN` / `$SPBC_CDC_AVG` / `$SPBC_CDC_MAX`.
fn default_cdc_bounds() -> (usize, usize, usize) {
    let d = CdcParams::default();
    (
        crate::env::get_or("SPBC_CDC_MIN", d.min),
        crate::env::get_or("SPBC_CDC_AVG", d.avg),
        crate::env::get_or("SPBC_CDC_MAX", d.max),
    )
}

impl Default for SpbcConfig {
    fn default() -> Self {
        let (cdc_min, cdc_avg, cdc_max) = default_cdc_bounds();
        SpbcConfig {
            ckpt_interval: 0,
            replay_window: DEFAULT_REPLAY_WINDOW,
            enforce_ident: true,
            replay_policy: ReplayPolicy::Windowed,
            free_logs_on_checkpoint: false,
            replicas: default_replicas(),
            async_ckpt_writes: true,
            ckpt_chunk: default_ckpt_chunk(),
            ckpt_full_every: default_ckpt_full_every(),
            ckpt_cdc: default_ckpt_cdc(),
            cdc_min,
            cdc_avg,
            cdc_max,
            metrics_interval_ms: default_metrics_interval_ms(),
            ec_scheme: default_ec_scheme(),
            ec_group: default_ec_group(),
            ec_m: default_ec_m(),
            tier_policy: default_tier_policy(),
            lose_local_on_failure: false,
            store_shards: default_store_shards(),
            write_queue: default_write_queue(),
            batch_bytes: default_batch_bytes(),
            batch_linger_us: default_batch_linger_us(),
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
        async_writes: cfg.async_ckpt_writes,
        chunk_size: cfg.ckpt_chunk,
        full_every: cfg.ckpt_full_every,
        cdc: cfg.ckpt_cdc,
        cdc_params: CdcParams { min: cfg.cdc_min, avg: cfg.cdc_avg, max: cfg.cdc_max },
        ec,
        tier_policy: cfg.tier_policy.clone(),
        shards: cfg.store_shards,
        write_queue: cfg.write_queue,
        batch_bytes: cfg.batch_bytes,
        batch_linger_us: cfg.batch_linger_us,
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

#[derive(Debug, PartialEq, Eq)]
enum CkptState {
    Idle,
    Waiting,
    /// Local checkpoint captured; blocked until every partner rank has
    /// acknowledged its pushed replica copy.
    AwaitRepl,
    /// Local checkpoint written; blocked until the leader's resume barrier
    /// confirms every sibling has committed too.
    AwaitResume,
    Committed,
}

/// Owner-side replication barrier: partners whose [`KIND_CKPT_BLOB_ACK`] for
/// `epoch` is still outstanding. The blob is kept for re-pushes (a partner
/// killed mid-wave acks from its next incarnation).
struct ReplWait {
    epoch: u64,
    awaiting: HashSet<RankId>,
    blob: Vec<u8>,
    /// CDC mode: the manifest-only form of `blob` (chunk hashes, no
    /// payloads) pushed to partners instead of the blob itself. Empty in
    /// fixed-grid mode, where the full sealed blob is pushed.
    manifest: Vec<u8>,
    /// Serialized body size behind `blob` (full-write equivalent), for the
    /// logical-bytes replication accounting on retries.
    logical: u64,
    /// EC mode (this rank was the wave's parity encoder): the sealed parity
    /// frames pushed instead of any blob/manifest, as
    /// `(partner, parity owner, frame)` — kept for re-pushes to partners
    /// killed mid-wave. Empty in legacy partner-copy mode.
    parity: Vec<(RankId, RankId, Vec<u8>)>,
    last_push: Instant,
    /// When the first push went out — the replicate-phase timer.
    started: Instant,
}

struct LeaderState {
    epoch: u64,
    joins: HashMap<RankId, (u64, u64)>,
    awaiting: HashSet<RankId>,
}

/// Leader-side commit barrier: members whose [`KIND_CKPT_ACK`] for `epoch`
/// is still outstanding; resume broadcasts when it empties.
struct ResumeBarrier {
    epoch: u64,
    awaiting: HashSet<RankId>,
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

    /// `LS` of Algorithm 1: per outgoing channel, the last seqnum the
    /// receiver confirmed having; re-sends at or below it are suppressed.
    ls: HashMap<(RankId, CommId), u64>,
    /// Exceptions to `LS` suppression: envelopes the receiver saw whose
    /// payload never arrived (interrupted rendezvous) — must be re-sent.
    ls_exceptions: HashMap<(RankId, CommId), BTreeSet<u64>>,
    /// Incoming seqnums at or below the watermark whose payload is still
    /// owed to us — deliver instead of dropping as duplicate.
    missing: HashMap<(RankId, CommId), BTreeSet<u64>>,
    replay: ReplayEngine,
    restored_app: Option<Vec<u8>>,

    ckpt_calls: u64,
    intra_sent: u64,
    intra_arrived: u64,
    last_ckpt_epoch: u64,
    ckpt_state: CkptState,
    pending_app_state: Option<Vec<u8>>,
    leader: Option<LeaderState>,
    resume: Option<ResumeBarrier>,

    /// Highest restart epoch of each peer whose Rollback we have already
    /// mirrored with our own (terminates the mutual exchange under
    /// concurrent cluster failures).
    answered_rollback: HashMap<RankId, u32>,

    /// Coordinated policy: destination of the replay we requested a grant
    /// for, if any.
    awaiting_grant: Option<RankId>,
    /// Coordinated policy: rendezvous token of the granted in-flight replay.
    granted_token: Option<u64>,

    /// The replicated checkpoint-storage service: where every committed
    /// checkpoint lives, and the only source a restart reads.
    service: Arc<CkptStoreService>,
    /// Log-GC notices ([`CheckpointData::log_gc_notices`]) of the last two
    /// cuts this incarnation committed, or of the one it restored, keyed by
    /// epoch: wave N's RESUME sends wave N−1's.
    gc_cuts: Vec<(u64, BTreeMap<RankId, LogGc>)>,
    /// My partner ranks (other clusters) holding replica copies.
    partners: Vec<RankId>,
    /// Outstanding replication barrier for the wave being committed.
    repl: Option<ReplWait>,
    /// Wave-open time of the in-progress checkpoint (the quiesce-phase
    /// timer: wave open to state capture).
    wave_open: Option<Instant>,
    /// When this member sent its ACK (the commit-barrier-phase timer:
    /// ACK to the leader's RESUME broadcast).
    barrier_start: Option<Instant>,
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
        let mut replay = ReplayEngine::new(cfg.replay_window);
        replay.set_metrics(Arc::clone(&metrics));
        let partners = clusters.replica_partners(me, cfg.replicas);
        SpbcLayer {
            me,
            cluster,
            clusters,
            log: store.slot(me),
            metrics,
            cfg,
            ls: HashMap::new(),
            ls_exceptions: HashMap::new(),
            missing: HashMap::new(),
            replay,
            restored_app: None,
            ckpt_calls: 0,
            intra_sent: 0,
            intra_arrived: 0,
            last_ckpt_epoch: 0,
            ckpt_state: CkptState::Idle,
            pending_app_state: None,
            leader: None,
            resume: None,
            answered_rollback: HashMap::new(),
            awaiting_grant: None,
            granted_token: None,
            service,
            gc_cuts: Vec::new(),
            partners,
            repl: None,
            wave_open: None,
            barrier_start: None,
        }
    }

    /// Record one phase latency sample into the run-wide histograms and the
    /// flight recorder (so a hang dump names the last completed phase and
    /// the chrome trace can attach latencies to the wave's write span).
    fn record_phase(&self, ctx: &mut FtCtx<'_>, epoch: u64, phase: crate::hist::Phase, us: u64) {
        self.metrics.phase.record(phase, us);
        ctx.recorder().record(|| Event::CkptPhaseDone { epoch, phase: phase.name(), us });
    }

    /// Release queued replays according to the configured policy.
    fn pump_replay(&mut self, ctx: &mut FtCtx<'_>) {
        match self.cfg.replay_policy {
            ReplayPolicy::Windowed => self.replay.pump(ctx),
            ReplayPolicy::Coordinated { coordinator } => {
                if self.awaiting_grant.is_some() {
                    return;
                }
                let Some((dst, ts)) = self.replay.peek_next() else { return };
                self.awaiting_grant = Some(dst);
                self.ctrl(ctx, coordinator, KIND_GRANT_REQ, to_bytes(&ts));
            }
        }
    }

    /// Coordinated policy: a grant arrived — re-send the head message.
    fn on_grant(&mut self, ctx: &mut FtCtx<'_>) -> Result<()> {
        let ReplayPolicy::Coordinated { coordinator } = self.cfg.replay_policy else {
            return Err(MpiError::InvalidState("grant under windowed policy".into()));
        };
        let Some(dst) = self.awaiting_grant else {
            // The queue we requested for was purged (peer rolled back again);
            // release the grant immediately.
            self.ctrl(ctx, coordinator, KIND_GRANT_DONE, Vec::new());
            return Ok(());
        };
        match self.replay.pop_front_of(dst) {
            None => {
                self.awaiting_grant = None;
                self.ctrl(ctx, coordinator, KIND_GRANT_DONE, Vec::new());
                self.pump_replay(ctx);
            }
            Some(msg) => match ctx.ft_send_message(msg) {
                None => {
                    self.awaiting_grant = None;
                    self.ctrl(ctx, coordinator, KIND_GRANT_DONE, Vec::new());
                    self.pump_replay(ctx);
                }
                Some(token) => {
                    self.granted_token = Some(token);
                }
            },
        }
        Ok(())
    }

    fn ctrl(&self, ctx: &mut FtCtx<'_>, to: RankId, kind: u16, body: Vec<u8>) {
        Metrics::add(&self.metrics.ctrl_msgs, 1);
        ctx.send_ctrl(to, kind, body);
    }

    fn is_intra(&self, peer: RankId) -> bool {
        self.clusters.cluster_of(peer) == self.cluster
    }

    /// Build and send the Rollback announcement for every rank outside my
    /// cluster (Algorithm 1 lines 19-20, broadened to all potential channels
    /// since the restarted rank cannot know which peers hold logs for it).
    fn send_rollback_all(&mut self, ctx: &mut FtCtx<'_>) {
        let peers: Vec<RankId> = self.clusters.other_ranks(self.me).collect();
        for peer in peers {
            let body = self.rollback_for(ctx, peer);
            self.ctrl(ctx, peer, KIND_ROLLBACK, body);
        }
    }

    /// Seqnums at or below the `(src, comm)` watermark whose payload is
    /// still owed to me.
    fn owed_from(&self, src: RankId, comm: CommId) -> Vec<u64> {
        self.missing.get(&(src, comm)).map(|s| s.iter().copied().collect()).unwrap_or_default()
    }

    /// My Rollback announcement to `peer`: the state of every channel from
    /// it to me (Algorithm 1 line 20).
    fn rollback_for(&self, ctx: &FtCtx<'_>, peer: RankId) -> Vec<u8> {
        let from_peer = ctx.recv_seen().iter().filter(|(&(src, _), _)| src == peer);
        let channels = from_peer
            .map(|(&(_, comm), &lr)| RollbackChannel {
                comm: comm.0,
                lr,
                missing: self.owed_from(peer, comm),
            })
            .collect();
        to_bytes(&Rollback { epoch: ctx.epoch(), channels })
    }

    /// Receiver-checkpoint log GC, run when wave `epoch` resumes: storage
    /// now retains only waves `epoch - 1` and up, so what the `epoch - 1`
    /// cut already holds can never be asked of a sender's log again. That
    /// cut is one this incarnation committed or restored from — including
    /// the first wave after a process respawn.
    fn send_log_gc(&self, ctx: &mut FtCtx<'_>, epoch: u64) {
        let Some((_, notices)) = self.gc_cuts.iter().find(|(e, _)| *e == epoch - 1) else {
            return;
        };
        for (&src, gc) in notices.iter().filter(|(src, _)| !self.is_intra(**src)) {
            Metrics::add(&self.metrics.log_gc_notices, 1);
            self.ctrl(ctx, src, KIND_LOG_GC, to_bytes(gc));
        }
    }

    /// Handle a peer's Rollback: purge dangling rendezvous state, reply
    /// LastMessage, queue the replay set (Algorithm 1 lines 21-24).
    fn on_rollback(&mut self, ctx: &mut FtCtx<'_>, from: RankId, rb: Rollback) -> Result<()> {
        ctx.recorder().record(|| Event::RollbackRecv { from, epoch: rb.epoch });
        // 1. The peer's old incarnation is gone: its announced-but-unshipped
        //    payloads will never arrive from it — remember them as "owed".
        let purged = ctx.purge_rdv_from_peer(from);
        for env in &purged {
            self.missing.entry((from, env.comm)).or_default().insert(env.seqnum);
        }
        //    And our own in-flight rendezvous towards it will never be CTSed.
        let cancelled = ctx.cancel_pending_rdv_to(from);
        self.replay.forget_dst(from, &cancelled);
        //    Under the coordinated policy, release any grant held for it.
        if self.awaiting_grant == Some(from) {
            self.awaiting_grant = None;
            if self.granted_token.take().is_none() {
                // A grant may still be in flight for the stale request; the
                // on_grant path handles it by releasing immediately.
            }
            if let ReplayPolicy::Coordinated { coordinator } = self.cfg.replay_policy {
                self.ctrl(ctx, coordinator, KIND_GRANT_DONE, Vec::new());
            }
        }

        //    The restart also invalidates any suppression watermark learned
        //    from the peer's previous incarnation: its receive state has
        //    regressed to exactly the `lr` values it announces here.
        //    Keeping the old LS would suppress regenerated sends the new
        //    incarnation never received (overlapping-failure deadlock).
        self.ls.retain(|&(peer, _), _| peer != from);
        self.ls_exceptions.retain(|&(peer, _), _| peer != from);
        for ch in &rb.channels {
            let comm = CommId(ch.comm);
            self.ls.insert((from, comm), ch.lr);
            //    Announced-but-lost payloads below the new watermark that
            //    our log cannot replay (we restarted too and will regenerate
            //    them) must bypass the fresh LS when re-sent.
            for &s in &ch.missing {
                let chan = ChannelId::new(self.me, from, comm);
                if self.log.lock().find(chan, s).is_none() {
                    self.ls_exceptions.entry((from, comm)).or_default().insert(s);
                }
            }
        }

        // 2. LastMessage reply: what we already received from the peer
        //    (suppression watermark), with pending-payload exceptions.
        let mut lm = LastMessage::default();
        let comms: BTreeSet<CommId> =
            ctx.recv_seen().keys().filter(|&&(src, _)| src == from).map(|&(_, c)| c).collect();
        for comm in comms {
            lm.channels.push(LastMessageChannel {
                comm: comm.0,
                last_recv: ctx.last_seen_on(from, comm),
                incomplete: self.owed_from(from, comm),
            });
        }
        self.ctrl(ctx, from, KIND_LASTMSG, to_bytes(&lm));

        // 3. Replay set from our log, per channel in seqnum order, globally
        //    in send order; flow-controlled by the pre-post window.
        let listed = |chan: ChannelId| rb.channels.iter().find(|c| c.comm == chan.comm.0);
        let lr_of = |chan| listed(chan).map_or(0, |c| c.lr);
        let missing_of = |chan| listed(chan).map(|c| c.missing.clone()).unwrap_or_default();
        let set = self.log.lock().replay_set(from, &lr_of, &missing_of);
        if !set.is_empty() || self.replay.has_queued(from) {
            Metrics::add(&self.metrics.replayed_msgs, set.len() as u64);
            Metrics::add(
                &self.metrics.replayed_bytes,
                set.iter().map(|m| m.payload.len() as u64).sum(),
            );
            ctx.recorder().record(|| Event::ReplayQueued { dst: from, msgs: set.len() as u64 });
            self.replay.set_queue(from, set);
            self.pump_replay(ctx);
        }

        // 4. Concurrent failures: if we have ourselves restarted, the peer's
        //    fresh incarnation may never have seen our own Rollback — mirror
        //    it once per peer epoch.
        if ctx.epoch() > 0 {
            let answered = self.answered_rollback.entry(from).or_insert(0);
            if *answered < rb.epoch {
                *answered = rb.epoch;
                let body = self.rollback_for(ctx, from);
                self.ctrl(ctx, from, KIND_ROLLBACK, body);
            }
        }
        Ok(())
    }

    /// Handle the LastMessage reply: set `LS`, schedule replay of payloads
    /// the peer is owed from before our checkpoint, and exempt the rest from
    /// suppression (Algorithm 1 lines 25-26 plus the rendezvous refinement).
    fn on_lastmessage(&mut self, ctx: &mut FtCtx<'_>, from: RankId, lm: LastMessage) -> Result<()> {
        for ch in lm.channels {
            let comm = CommId(ch.comm);
            self.ls.insert((from, comm), ch.last_recv);
            ctx.recorder().record(|| Event::LsSet { peer: from, comm: ch.comm, ls: ch.last_recv });
            for s in ch.incomplete {
                let sent_so_far = ctx.last_sent_on(from, comm);
                if s <= sent_so_far {
                    // Sent before our restart point (or re-sent already):
                    // replay straight from the log.
                    let chan = ChannelId::new(self.me, from, comm);
                    if let Some(m) = self.log.lock().find(chan, s).cloned() {
                        Metrics::add(&self.metrics.replayed_msgs, 1);
                        Metrics::add(&self.metrics.replayed_bytes, m.payload.len() as u64);
                        self.replay.enqueue(from, m);
                    }
                } else {
                    // Will be regenerated by re-execution: exempt from LS
                    // suppression.
                    self.ls_exceptions.entry((from, comm)).or_default().insert(s);
                }
            }
        }
        self.pump_replay(ctx);
        Ok(())
    }

    /// Leader: (re)evaluate quiescence once every member has reported.
    fn leader_evaluate(&mut self, ctx: &mut FtCtx<'_>) {
        let members: Vec<RankId> = self.clusters.members(self.cluster).to_vec();
        let Some(ls) = &mut self.leader else { return };
        if ls.joins.len() < members.len() || !ls.awaiting.is_empty() {
            return;
        }
        let sent: u64 = ls.joins.values().map(|&(s, _)| s).sum();
        let arrived: u64 = ls.joins.values().map(|&(_, a)| a).sum();
        if sent == arrived {
            let epoch = ls.epoch;
            self.leader = None;
            self.resume =
                Some(ResumeBarrier { epoch, awaiting: members.iter().copied().collect() });
            for &m in &members {
                self.ctrl(ctx, m, KIND_CKPT_COMMIT, to_bytes(&epoch));
            }
        } else {
            // Not quiescent yet: intra-cluster messages still in flight.
            // Poll the members again; they drain while waiting.
            ls.awaiting.extend(members.iter().copied());
            let epoch = ls.epoch;
            for &m in &members {
                self.ctrl(ctx, m, KIND_CKPT_POLL, to_bytes(&epoch));
            }
        }
    }

    /// Member: commit the local checkpoint (Algorithm 1 line 15).
    fn take_checkpoint(&mut self, ctx: &mut FtCtx<'_>, epoch: u64) -> Result<()> {
        ctx.chaos_ckpt_hook(CkptHook::Write)?;
        // Quiesce phase ends here: the cluster agreed the cut is consistent
        // and the commit itself starts.
        if let Some(t0) = self.wave_open.take() {
            let us = t0.elapsed().as_micros() as u64;
            self.record_phase(ctx, epoch, crate::hist::Phase::Quiesce, us);
        }
        let app_state = self
            .pending_app_state
            .take()
            .ok_or_else(|| MpiError::InvalidState("commit without pending state".into()))?;
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
        for (&(src, comm), seqs) in &self.missing {
            for &s in seqs {
                missing_markers.push((ChannelId::new(src, self.me, comm), s));
            }
        }
        let (log_lens, log_order) = {
            let log = self.log.lock();
            (log.lengths(), log.order_counter())
        };
        let ck = CheckpointData {
            ckpt_epoch: epoch,
            app_state,
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
        // Stable storage via the replicated checkpoint service: serialize
        // once, encode (default: content-defined chunks deduped against the
        // shared chunk store, sealed as an `SPBCCKP4` manifest carrying only
        // new chunks inline; with CDC off, a fixed-grid `SPBCCKP3` delta),
        // and reuse the sealed blob for the local write and every partner
        // push.
        let service = Arc::clone(&self.service);
        // Double buffer: wait for the *previous* wave's background write,
        // never our own — that is all the fsync latency the commit barrier
        // ever pays.
        service.flush_rank(self.me)?;
        let encode_start = Instant::now();
        let body = to_bytes(&ck);
        let (sealed, stats) = service.encode_commit(self.me, epoch, &body)?;
        let encode_us = encode_start.elapsed().as_micros() as u64;
        self.record_phase(ctx, epoch, crate::hist::Phase::Encode, encode_us);
        let logical = stats.logical;
        Metrics::add(&self.metrics.ckpt_bytes_logical, stats.logical);
        Metrics::add(&self.metrics.ckpt_bytes_physical, stats.physical);
        Metrics::add(&self.metrics.cas_hits_cross_epoch, stats.cas_hit_chunks_same_owner as u64);
        Metrics::add(&self.metrics.cas_hits_cross_rank, stats.cas_hit_chunks_cross_rank as u64);
        Metrics::add(&self.metrics.cas_hit_bytes, stats.cas_hit_bytes);
        Metrics::set(&self.metrics.cas_unique_bytes, service.cas().unique_bytes());
        let bytes = sealed.len() as u64;
        ctx.recorder().record(|| Event::CkptWrite {
            epoch,
            bytes,
            logical,
            phase: WritePhase::Submitted,
        });
        let rec = ctx.recorder().clone();
        let metrics = Arc::clone(&self.metrics);
        let is_async = service.config().async_writes;
        let admission = service.commit_local(
            self.me,
            epoch,
            sealed.clone(),
            Some(Box::new(move |res, hidden| {
                if let Ok(put) = res {
                    rec.record(|| Event::CkptWrite {
                        epoch,
                        bytes,
                        logical,
                        phase: WritePhase::Completed,
                    });
                    let write_us = hidden.as_micros() as u64;
                    metrics.phase.record(crate::hist::Phase::Write, write_us);
                    rec.record(|| Event::CkptPhaseDone {
                        epoch,
                        phase: crate::hist::Phase::Write.name(),
                        us: write_us,
                    });
                    if put.fsync_us > 0 {
                        metrics.phase.record(crate::hist::Phase::Fsync, put.fsync_us);
                        rec.record(|| Event::CkptPhaseDone {
                            epoch,
                            phase: crate::hist::Phase::Fsync.name(),
                            us: put.fsync_us,
                        });
                    }
                    if put.drain_us > 0 {
                        // Cold epochs demoted down the tier stack behind the
                        // write — background cost, not barrier cost.
                        metrics.phase.record(crate::hist::Phase::TierDrain, put.drain_us);
                        rec.record(|| Event::CkptPhaseDone {
                            epoch,
                            phase: crate::hist::Phase::TierDrain.name(),
                            us: put.drain_us,
                        });
                    }
                    if is_async {
                        Metrics::add(&metrics.ckpt_writes_async, 1);
                        Metrics::add(&metrics.ckpt_write_hidden_us, write_us);
                    }
                }
            })),
        )?;
        if let Admission::Delayed { waited_us } = admission {
            // The bounded pipeline pushed back: the submit queue was at
            // its hard depth and commit stalled until a slot drained.
            self.record_phase(ctx, epoch, crate::hist::Phase::Admission, waited_us);
            Metrics::add(&self.metrics.store_admission_waits, 1);
        }
        let ws = service.writer_stats();
        Metrics::set(&self.metrics.store_batched_fsyncs, ws.batched_fsyncs);
        Metrics::set(&self.metrics.store_queue_depth, ws.queue_depth);
        self.gc_cuts.push((epoch, ck.log_gc_notices()));
        if self.gc_cuts.len() > 2 {
            self.gc_cuts.remove(0);
        }
        self.last_ckpt_epoch = epoch;
        ctx.recorder().record(|| Event::Ckpt { epoch, phase: CkptPhase::Written });
        if service.config().ec.is_on() && !self.partners.is_empty() {
            // Erasure-coded replication: stage the sealed blob with the
            // redundancy set instead of pushing full copies. The last set
            // member to stage becomes the wave's encoder — it computes the
            // parity shards and pushes those (only) to partners, so the
            // physical replication cost is m/g of a blob per member rather
            // than k whole blobs.
            ctx.chaos_ckpt_hook(CkptHook::Replicate)?;
            match service.stage_for_parity(self.me, epoch, &sealed)? {
                None => {
                    // Not in a set, or not the encoder: nothing to wait for.
                    self.ack_commit(ctx, epoch)?;
                }
                Some(shards) => {
                    self.record_phase(
                        ctx,
                        epoch,
                        crate::hist::Phase::EncodeParity,
                        shards.encode_us,
                    );
                    let total: u64 = shards.shards.iter().map(|(_, _, f)| f.len() as u64).sum();
                    Metrics::add(&self.metrics.ec_parity_bytes, total);
                    let mut awaiting = HashSet::new();
                    let mut parity = Vec::new();
                    for (j, owner, frame) in shards.shards {
                        let partner = self.partners[j as usize % self.partners.len()];
                        self.push_parity_to(ctx, partner, owner, epoch, &frame);
                        awaiting.insert(partner);
                        parity.push((partner, owner, frame));
                    }
                    self.repl = Some(ReplWait {
                        epoch,
                        awaiting,
                        blob: Vec::new(),
                        manifest: Vec::new(),
                        logical: 0,
                        parity,
                        last_push: Instant::now(),
                        started: Instant::now(),
                    });
                    self.ckpt_state = CkptState::AwaitRepl;
                }
            }
        } else if !self.partners.is_empty() {
            // Push the sealed blob to every partner; the leader's ACK waits
            // for their store confirmations (the commit barrier includes
            // replication, not disk). In CDC mode only the chunk-hash
            // manifest travels — a partner whose store lacks a chunk body
            // answers with a `CkptChunkReq` and receives a subset blob.
            ctx.chaos_ckpt_hook(CkptHook::Replicate)?;
            let manifest = if self.cfg.ckpt_cdc {
                spbc_ckptstore::chunk::manifest_only_v4(&sealed)?
            } else {
                Vec::new()
            };
            let partners = self.partners.clone();
            for &p in &partners {
                if manifest.is_empty() {
                    self.push_blob_to(ctx, p, epoch, &sealed, logical);
                } else {
                    self.push_hashes_to(ctx, p, epoch, &manifest, logical);
                }
            }
            self.repl = Some(ReplWait {
                epoch,
                awaiting: partners.into_iter().collect(),
                blob: sealed,
                manifest,
                logical,
                parity: Vec::new(),
                last_push: Instant::now(),
                started: Instant::now(),
            });
            self.ckpt_state = CkptState::AwaitRepl;
        } else {
            self.ack_commit(ctx, epoch)?;
        }
        Ok(())
    }

    /// Send one partner its replica copy (also used for retries). `logical`
    /// is the serialized body size the sealed blob stands for — with delta
    /// encoding `repl_bytes` (physical) can be far below `repl_bytes_logical`.
    fn push_blob_to(
        &self,
        ctx: &mut FtCtx<'_>,
        partner: RankId,
        epoch: u64,
        sealed: &[u8],
        logical: u64,
    ) {
        let bytes = sealed.len() as u64;
        ctx.recorder().record(|| Event::CkptReplPush { partner, epoch, bytes });
        Metrics::add(&self.metrics.repl_pushes, 1);
        Metrics::add(&self.metrics.repl_bytes, bytes);
        Metrics::add(&self.metrics.repl_bytes_logical, logical);
        let body = to_bytes(&CkptBlob { owner: self.me.0, epoch, blob: sealed.to_vec() });
        // Storage traffic, not protocol control: bypass `self.ctrl` so
        // `ctrl_msgs` keeps measuring coordination cost only.
        ctx.send_ctrl(partner, KIND_CKPT_BLOB, body);
    }

    /// CDC replication: send a partner the chunk-hash manifest instead of
    /// the sealed blob. The partner adopts it directly when its store
    /// already holds every chunk body, or answers [`KIND_CKPT_CHUNK_REQ`]
    /// naming the chunk indices it lacks. `repl_bytes` counts what actually
    /// travels (the manifest), `repl_bytes_logical` the full-body cost it
    /// stands in for.
    fn push_hashes_to(
        &self,
        ctx: &mut FtCtx<'_>,
        partner: RankId,
        epoch: u64,
        manifest: &[u8],
        logical: u64,
    ) {
        let bytes = manifest.len() as u64;
        ctx.recorder().record(|| Event::CkptReplPush { partner, epoch, bytes });
        Metrics::add(&self.metrics.repl_pushes, 1);
        Metrics::add(&self.metrics.repl_bytes, bytes);
        Metrics::add(&self.metrics.repl_bytes_logical, logical);
        let body = to_bytes(&CkptHashes { owner: self.me.0, epoch, manifest: manifest.to_vec() });
        ctx.send_ctrl(partner, KIND_CKPT_HASHES, body);
    }

    /// EC replication: push one sealed parity frame to the partner holding
    /// it. The owner is the *synthetic* parity-owner rank
    /// (`spbc_ckptstore::set::parity_owner`), not `self.me` — the partner
    /// stores the frame under that key so any set member's rebuild census
    /// finds it regardless of which member encoded the wave.
    fn push_parity_to(
        &self,
        ctx: &mut FtCtx<'_>,
        partner: RankId,
        owner: RankId,
        epoch: u64,
        frame: &[u8],
    ) {
        let bytes = frame.len() as u64;
        ctx.recorder().record(|| Event::CkptReplPush { partner, epoch, bytes });
        Metrics::add(&self.metrics.repl_pushes, 1);
        Metrics::add(&self.metrics.repl_bytes, bytes);
        let body = to_bytes(&CkptBlob { owner: owner.0, epoch, blob: frame.to_vec() });
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
        self.record_phase(ctx, target, crate::hist::Phase::RestoreLoad, lstats.fetch_us);
        self.record_phase(
            ctx,
            target,
            crate::hist::Phase::RestoreMaterialize,
            lstats.materialize_us,
        );
        match outcome {
            LoadOutcome::Repaired { from } => {
                Metrics::add(&self.metrics.ckpt_repairs, 1);
                // Repair rode the fetch path, so its cost is the fetch time
                // of a load that needed a partner scan.
                self.record_phase(ctx, target, crate::hist::Phase::RestoreRepair, lstats.fetch_us);
                ctx.recorder().record(|| Event::CkptRepair { epoch: target, from });
            }
            LoadOutcome::Rebuilt { set_id } => {
                // The checkpoint was reconstructed from the redundancy set's
                // parity (erasure decode).
                Metrics::add(&self.metrics.ec_rebuilds, 1);
                self.record_phase(ctx, target, crate::hist::Phase::RestoreRepair, lstats.fetch_us);
                ctx.recorder().record(|| Event::CkptRebuild { epoch: target, set_id });
            }
            LoadOutcome::Local => {}
        }
        // CRC-verified: the service returns the unsealed body.
        from_bytes(&body)
    }

    /// Replication barrier cleared (or not required): tell the leader this
    /// member's checkpoint is committed and block for the resume broadcast.
    fn ack_commit(&mut self, ctx: &mut FtCtx<'_>, epoch: u64) -> Result<()> {
        // Do not resume yet: wait for the leader's barrier so no post-commit
        // send can land in a sibling's still-open checkpoint (see
        // [`KIND_CKPT_RESUME`]).
        ctx.chaos_ckpt_hook(CkptHook::CommitBarrier)?;
        self.ckpt_state = CkptState::AwaitResume;
        self.barrier_start = Some(Instant::now());
        let leader = self.clusters.leader_of(self.me);
        self.ctrl(ctx, leader, KIND_CKPT_ACK, to_bytes(&epoch));
        ctx.recorder().record(|| Event::Ckpt { epoch, phase: CkptPhase::Ack });
        Metrics::add(&self.metrics.checkpoints, 1);
        Ok(())
    }
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
        // Settle in-flight background writes first so the storage service's
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
        if let Some(ck) = ck {
            self.gc_cuts = vec![(target, ck.log_gc_notices())];
            ctx.set_send_seq(ck.send_seq);
            ctx.set_recv_seen(ck.recv_seen);
            ctx.restore_comms(ck.comms);
            ctx.set_lamport(ck.lamport);
            let restored: Vec<Arrived> = ck
                .unexpected_full
                .into_iter()
                .map(|m| Arrived { env: m.env, body: ArrivedBody::Eager(m.payload) })
                .collect();
            ctx.restore_unexpected(restored);
            for (chan, seq) in ck.missing {
                self.missing.entry((chan.src, chan.comm)).or_default().insert(seq);
            }
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
        } else {
            // No checkpoint yet: restart from the initial state; everything
            // sent so far will be replayed (LR defaults to 0) or regenerated.
            self.log.lock().truncate_to(&HashMap::new(), 0);
            ctx.restore_unexpected(Vec::new());
        }
        self.send_rollback_all(ctx);
        Ok(())
    }

    fn on_send(&mut self, ctx: &mut FtCtx<'_>, env: &Envelope, payload: &Bytes) -> SendAction {
        let dst = env.dst;
        if self.is_intra(dst) {
            self.intra_sent += 1;
            return SendAction::Forward;
        }
        // Decide the route first, so the one `Message` built for the log
        // is cloned only when the replay path needs a copy too.
        let key = (dst, env.comm);
        let ls = self.ls.get(&key).copied().unwrap_or(0);
        let (via_replay, action) = if env.seqnum <= ls {
            // Receiver already has this message — unless its payload never
            // arrived (interrupted rendezvous exception), in which case it
            // goes through the replay path to keep channel order.
            let owed = self.ls_exceptions.get_mut(&key).is_some_and(|s| s.remove(&env.seqnum));
            if !owed {
                Metrics::add(&self.metrics.suppressed_sends, 1);
            }
            (owed, SendAction::Suppress)
        } else if self.replay.has_queued(dst) {
            // Ordering fence: never let a fresh envelope overtake queued
            // replays on the same destination.
            (true, SendAction::Suppress)
        } else {
            (false, SendAction::Forward)
        };

        // Inter-cluster: log in the sender's memory (line 6).
        let msg = Message { env: *env, payload: payload.clone() };
        let replayed = via_replay.then(|| msg.clone());
        self.log.lock().append(msg);
        Metrics::add(&self.metrics.logged_msgs, 1);
        Metrics::add(&self.metrics.logged_bytes, payload.len() as u64);
        ctx.recorder().record(|| Event::LogAppend {
            dst,
            comm: env.comm.0,
            seqnum: env.seqnum,
            bytes: env.plen,
        });
        if let Some(msg) = replayed {
            self.replay.enqueue(dst, msg);
            self.pump_replay(ctx);
        }
        action
    }

    fn on_arrival(&mut self, ctx: &mut FtCtx<'_>, env: &Envelope) -> ArrivalAction {
        if self.is_intra(env.src) {
            self.intra_arrived += 1;
            return ArrivalAction::Deliver;
        }
        let lr = ctx.last_seen_on(env.src, env.comm);
        if env.seqnum <= lr {
            let owed =
                self.missing.get_mut(&(env.src, env.comm)).is_some_and(|s| s.remove(&env.seqnum));
            if owed {
                ArrivalAction::Deliver
            } else {
                Metrics::add(&self.metrics.dropped_duplicates, 1);
                ArrivalAction::Drop
            }
        } else if env.seqnum == lr + 1 {
            ArrivalAction::Deliver
        } else {
            // Contiguity violated: a predecessor on this channel was lost in
            // a crash window (sent to the dead incarnation's mailbox) and
            // this message raced ahead of the sender's Rollback processing.
            // Everything from lr+1 on is in the sender's log; its replay
            // re-delivers the whole suffix in order — accepting this message
            // now would advance the watermark past the lost predecessor and
            // the replay would be mistaken for a duplicate.
            Metrics::add(&self.metrics.dropped_out_of_order, 1);
            ArrivalAction::Drop
        }
    }

    fn match_admissible(&self, spec: &RecvSpec, env: &Envelope) -> bool {
        !self.cfg.enforce_ident || spec.ident == env.ident
    }

    fn on_ctrl(&mut self, ctx: &mut FtCtx<'_>, msg: CtrlMsg) -> Result<()> {
        match msg.kind {
            KIND_ROLLBACK => {
                let rb: Rollback = from_bytes(&msg.data)?;
                self.on_rollback(ctx, msg.from, rb)
            }
            KIND_LASTMSG => {
                let lm: LastMessage = from_bytes(&msg.data)?;
                self.on_lastmessage(ctx, msg.from, lm)
            }
            KIND_CKPT_JOIN => {
                let c: CkptCounts = from_bytes(&msg.data)?;
                let ls = self.leader.get_or_insert_with(|| LeaderState {
                    epoch: c.epoch,
                    joins: HashMap::new(),
                    awaiting: HashSet::new(),
                });
                debug_assert_eq!(ls.epoch, c.epoch, "overlapping checkpoint waves");
                ls.joins.insert(msg.from, (c.sent, c.arrived));
                self.leader_evaluate(ctx);
                Ok(())
            }
            KIND_CKPT_REPORT => {
                let c: CkptCounts = from_bytes(&msg.data)?;
                if let Some(ls) = &mut self.leader {
                    ls.joins.insert(msg.from, (c.sent, c.arrived));
                    ls.awaiting.remove(&msg.from);
                }
                self.leader_evaluate(ctx);
                Ok(())
            }
            KIND_CKPT_POLL => {
                let epoch: u64 = from_bytes(&msg.data)?;
                let body = CkptCounts { epoch, sent: self.intra_sent, arrived: self.intra_arrived };
                self.ctrl(ctx, msg.from, KIND_CKPT_REPORT, to_bytes(&body));
                Ok(())
            }
            KIND_CKPT_COMMIT => {
                let epoch: u64 = from_bytes(&msg.data)?;
                self.take_checkpoint(ctx, epoch)
            }
            KIND_CKPT_ACK => {
                let epoch: u64 = from_bytes(&msg.data)?;
                if let Some(rb) = &mut self.resume {
                    debug_assert_eq!(rb.epoch, epoch, "ack for a different wave");
                    rb.awaiting.remove(&msg.from);
                    if rb.awaiting.is_empty() {
                        self.resume = None;
                        let members: Vec<RankId> = self.clusters.members(self.cluster).to_vec();
                        for m in members {
                            self.ctrl(ctx, m, KIND_CKPT_RESUME, to_bytes(&epoch));
                        }
                    }
                }
                Ok(())
            }
            KIND_CKPT_RESUME => {
                debug_assert_eq!(self.ckpt_state, CkptState::AwaitResume);
                self.ckpt_state = CkptState::Committed;
                let epoch: u64 = from_bytes(&msg.data)?;
                ctx.recorder().record(|| Event::Ckpt { epoch, phase: CkptPhase::Resume });
                if let Some(t) = self.barrier_start.take() {
                    let us = t.elapsed().as_micros() as u64;
                    self.record_phase(ctx, epoch, crate::hist::Phase::CommitBarrier, us);
                }
                // The wave is globally committed inside the cluster: storage
                // GC can drop everything older than the previous wave, and
                // the senders' logs everything that wave already holds.
                if epoch > 1 {
                    let keep_from = epoch - 1;
                    let pruned = self.service.gc_local(self.me, keep_from)? as u64;
                    if pruned > 0 {
                        Metrics::add(&self.metrics.ckpt_gc_pruned, pruned);
                        ctx.recorder().record(|| Event::CkptGc { pruned, keep_from });
                    }
                    self.send_log_gc(ctx, epoch);
                }
                Ok(())
            }
            KIND_CKPT_BLOB => {
                let cb: CkptBlob = from_bytes(&msg.data)?;
                let owner = RankId(cb.owner);
                let bytes = cb.blob.len() as u64;
                // Store synchronously: the ACK must mean "durable".
                // Re-pushed duplicates overwrite idempotently.
                let pruned = self.service.store_partner_copy(self.me, owner, cb.epoch, &cb.blob)?;
                if pruned > 0 {
                    Metrics::add(&self.metrics.ckpt_gc_pruned, pruned as u64);
                }
                let epoch = cb.epoch;
                ctx.recorder().record(|| Event::CkptReplStore { owner, epoch, bytes });
                ctx.send_ctrl(msg.from, KIND_CKPT_BLOB_ACK, to_bytes(&CkptBlobAck { epoch }));
                Ok(())
            }
            KIND_CKPT_HASHES => {
                let ch: CkptHashes = from_bytes(&msg.data)?;
                let owner = RankId(ch.owner);
                let missing = self.service.missing_chunks(&ch.manifest)?;
                if missing.is_empty() {
                    // Every chunk body is already resident in the CAS: adopt
                    // the manifest as the partner copy and confirm
                    // durability — no payload ever crossed the wire.
                    let bytes = ch.manifest.len() as u64;
                    let pruned =
                        self.service.store_partner_copy(self.me, owner, ch.epoch, &ch.manifest)?;
                    if pruned > 0 {
                        Metrics::add(&self.metrics.ckpt_gc_pruned, pruned as u64);
                    }
                    let epoch = ch.epoch;
                    ctx.recorder().record(|| Event::CkptReplStore { owner, epoch, bytes });
                    ctx.send_ctrl(msg.from, KIND_CKPT_BLOB_ACK, to_bytes(&CkptBlobAck { epoch }));
                } else {
                    // Ask the owner for the chunk bodies we lack; it answers
                    // with a subset blob on the ordinary KIND_CKPT_BLOB path,
                    // whose handler acks.
                    let body = CkptChunkReq { owner: ch.owner, epoch: ch.epoch, missing };
                    ctx.send_ctrl(msg.from, KIND_CKPT_CHUNK_REQ, to_bytes(&body));
                }
                Ok(())
            }
            KIND_CKPT_CHUNK_REQ => {
                let req: CkptChunkReq = from_bytes(&msg.data)?;
                // Stale requests (an earlier wave's retry) are dropped; the
                // retry timer re-pushes the current manifest anyway.
                if let Some(r) = &self.repl {
                    if r.epoch == req.epoch && req.owner == self.me.0 {
                        let subset = self.service.subset_blob(&r.blob, &req.missing)?;
                        // Logical bytes were already counted by the manifest
                        // push this subset completes.
                        self.push_blob_to(ctx, msg.from, req.epoch, &subset, 0);
                    }
                }
                Ok(())
            }
            KIND_CKPT_BLOB_ACK => {
                let ack: CkptBlobAck = from_bytes(&msg.data)?;
                Metrics::add(&self.metrics.repl_acks, 1);
                let done = match &mut self.repl {
                    // Guard on the epoch: a retry can produce a duplicate ack
                    // for an already-finished wave.
                    Some(r) if r.epoch == ack.epoch => {
                        r.awaiting.remove(&msg.from);
                        let partner = msg.from;
                        let epoch = ack.epoch;
                        ctx.recorder().record(|| Event::CkptReplAck { partner, epoch });
                        r.awaiting.is_empty()
                    }
                    _ => false,
                };
                if done {
                    let wait = self.repl.take().expect("checked above");
                    let epoch = wait.epoch;
                    let us = wait.started.elapsed().as_micros() as u64;
                    self.record_phase(ctx, epoch, crate::hist::Phase::Replicate, us);
                    debug_assert_eq!(self.ckpt_state, CkptState::AwaitRepl);
                    self.ack_commit(ctx, epoch)?;
                }
                Ok(())
            }
            KIND_LOG_GC => {
                let gc: LogGc = from_bytes(&msg.data)?;
                let dst = msg.from;
                let mut log = self.log.lock();
                Metrics::max(&self.metrics.log_live_bytes, log.peak_bytes());
                for (comm, upto) in gc.channels {
                    let (entries, bytes) = log.gc(ChannelId::new(self.me, dst, CommId(comm)), upto);
                    Metrics::add(&self.metrics.log_pruned_msgs, entries);
                    Metrics::add(&self.metrics.log_pruned_bytes, bytes);
                    ctx.recorder().record(|| Event::LogGc { dst, comm, upto, entries });
                }
                Ok(())
            }
            KIND_GRANT => self.on_grant(ctx),
            other => Err(MpiError::invalid(format!("unknown SPBC ctrl kind {other}"))),
        }
    }

    fn on_transfer_complete(&mut self, ctx: &mut FtCtx<'_>, token: u64) -> Result<()> {
        if self.granted_token == Some(token) {
            self.granted_token = None;
            self.awaiting_grant = None;
            if let ReplayPolicy::Coordinated { coordinator } = self.cfg.replay_policy {
                self.ctrl(ctx, coordinator, KIND_GRANT_DONE, Vec::new());
            }
            self.pump_replay(ctx);
        } else if self.replay.complete(token) {
            self.replay.pump(ctx);
        }
        Ok(())
    }

    fn checkpoint_begin(&mut self, ctx: &mut FtCtx<'_>, app_state: Vec<u8>) -> Result<CkptOutcome> {
        self.ckpt_calls += 1;
        if self.cfg.ckpt_interval == 0 || !self.ckpt_calls.is_multiple_of(self.cfg.ckpt_interval) {
            return Ok(CkptOutcome::NotDue);
        }
        if self.ckpt_state != CkptState::Idle {
            return Err(MpiError::InvalidState("overlapping checkpoint".into()));
        }
        ctx.chaos_ckpt_hook(CkptHook::WaveOpen)?;
        self.wave_open = Some(Instant::now());
        self.pending_app_state = Some(app_state);
        self.ckpt_state = CkptState::Waiting;
        let epoch = self.last_ckpt_epoch + 1;
        ctx.recorder().record(|| Event::Ckpt { epoch, phase: CkptPhase::Init });
        let leader = self.clusters.leader_of(self.me);
        let body = CkptCounts { epoch, sent: self.intra_sent, arrived: self.intra_arrived };
        self.ctrl(ctx, leader, KIND_CKPT_JOIN, to_bytes(&body));
        Ok(CkptOutcome::InProgress)
    }

    fn checkpoint_poll(&mut self, ctx: &mut FtCtx<'_>) -> Result<bool> {
        // Replication barrier liveness: a partner killed mid-wave lost the
        // pushed blob with its mailbox. Re-push to still-silent partners so
        // the restarted incarnation stores the copy and acks.
        if let Some(r) = &mut self.repl {
            if r.last_push.elapsed() >= REPL_RETRY && !r.awaiting.is_empty() {
                r.last_push = Instant::now();
                let targets: Vec<RankId> = r.awaiting.iter().copied().collect();
                let (epoch, blob, manifest, logical) =
                    (r.epoch, r.blob.clone(), r.manifest.clone(), r.logical);
                let parity = r.parity.clone();
                for p in targets {
                    if !parity.is_empty() {
                        // EC mode: re-push this partner's parity frames.
                        for (partner, owner, frame) in &parity {
                            if *partner == p {
                                self.push_parity_to(ctx, p, *owner, epoch, frame);
                            }
                        }
                    } else if manifest.is_empty() {
                        self.push_blob_to(ctx, p, epoch, &blob, logical);
                    } else {
                        self.push_hashes_to(ctx, p, epoch, &manifest, logical);
                    }
                }
            }
        }
        if self.ckpt_state == CkptState::Committed {
            self.ckpt_state = CkptState::Idle;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn restored_app_state(&mut self) -> Option<Vec<u8>> {
        self.restored_app.clone()
    }

    fn on_app_done(&mut self, _ctx: &mut FtCtx<'_>) -> Result<()> {
        Metrics::max(&self.metrics.log_live_bytes, self.log.lock().peak_bytes());
        // Shutdown durability: the last wave's background write must be on
        // stable storage before the rank reports success.
        self.service.flush_rank(self.me)
    }
}
