//! The checkpoint storage service: per-rank local stores, partner-held
//! replica stores, asynchronous local commits, incremental delta encoding,
//! chain-aware repair-on-load, and refcounting GC.
//!
//! One `CkptStoreService` serves a whole world (all ranks of one run). Each
//! rank owns two backends:
//!
//! * its **local** store — the authoritative copy of its own checkpoints
//!   (memory for in-process experiments, a `rank-<r>/own` directory when a
//!   storage root is configured), written through the [`AsyncWriter`](crate::writer::AsyncWriter);
//! * its **partner** store — copies of *other* ranks' checkpoints pushed to
//!   it over the control plane at commit time. Partner copies are held in
//!   memory by default (ReStore's insight: partner RAM beats the PFS by
//!   orders of magnitude for repair) and are written synchronously — the
//!   pushing rank's commit barrier already waits for the ACK, and a memory
//!   put is cheap.
//!
//! The commit path is incremental: [`CkptStoreService::encode_commit`] runs
//! each wave's serialized body through a per-rank [`DeltaEncoder`], which
//! diffs it against the previous wave in fixed-size chunks and produces
//! either a full `SPBCCKP2` blob or an `SPBCCKP3` delta holding only the
//! changed chunks (see [`crate::chunk`]). Everything downstream — the local
//! write, the partner pushes, repair — moves the *encoded* blob, so a small
//! dirty fraction shrinks disk and replication traffic alike.
//!
//! Load is where replication pays off: a chain link (the requested epoch or
//! any base epoch its manifest references) that is missing or corrupt
//! locally is transparently repaired from any surviving partner copy and
//! re-persisted, then the chain is materialized back into the full body.
//! GC (local and partner-side pruning) is refcount-aware: base epochs named
//! by a retained manifest survive until the last manifest naming them goes.

use crate::backend::{CheckpointBackend, DirBackend, MemBackend};
use crate::cas::{CasStore, ChunkFate, ChunkHash};
use crate::cdc::{chunk_spans, CdcParams};
use crate::chunk::{
    self, seal_v4, CasView, DeltaEncoder, EncodeStats, V4Chunk, DEFAULT_CHUNK_SIZE,
    DEFAULT_FULL_EVERY,
};
use crate::ec::{self, EcScheme, ParityView};
use crate::set::{is_parity_owner, parity_owner, SetMap};
use crate::shard::ShardedStore;
use crate::tier::{parse_policy, TierLevel, TierStack};
use crate::writer::{Admission, OnDone, WriterStats};
use mini_mpi::error::{MpiError, Result};
use mini_mpi::types::RankId;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

/// How the service stores and writes checkpoints.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Write local commits through the background writer (`true`, default)
    /// or inline and synchronously (`false`).
    pub async_writes: bool,
    /// Keep partner copies on disk next to the local store instead of in
    /// memory. Only meaningful with a storage root; costs an fsync on the
    /// partner's ctrl path.
    pub durable_partner_copies: bool,
    /// How many waves of partner copies to retain per owner (newest first),
    /// plus any base epoch their delta manifests still reference.
    /// Matches the protocol's "last two waves" retention.
    pub partner_keep: usize,
    /// Chunk size for incremental delta encoding (`SPBC_CKPT_CHUNK`,
    /// default 64 KiB).
    pub chunk_size: usize,
    /// Write a full blob every Nth wave to bound delta-chain length
    /// (`SPBC_CKPT_FULL_EVERY`, default 8; `1` disables deltas).
    pub full_every: u64,
    /// Encode commits as `SPBCCKP4` content-addressed blobs (FastCDC
    /// chunking + the service-wide refcounted store) instead of the
    /// fixed-grid `SPBCCKP3` delta path (`SPBC_CKPT_CDC`; the protocol
    /// layer defaults this on, the bare service defaults it off).
    pub cdc: bool,
    /// FastCDC chunk bounds (`SPBC_CDC_MIN`/`SPBC_CDC_AVG`/`SPBC_CDC_MAX`).
    pub cdc_params: CdcParams,
    /// Erasure-coding scheme over redundancy sets (`SPBC_EC_SCHEME`;
    /// default off = full partner copies only).
    pub ec: EcScheme,
    /// The world's redundancy sets (required when `ec` is on; built by the
    /// protocol layer from the cluster map and `SPBC_EC_GROUP`).
    pub sets: Option<Arc<SetMap>>,
    /// Tier policy for storage-rooted services (`SPBC_TIER_POLICY`, e.g.
    /// `mem:2,local:8,global:all`). Level names: `mem`, `local`, `global`.
    pub tier_policy: String,
    /// Shard count for the hub's CAS and write-pipeline state
    /// (`SPBC_STORE_SHARDS`, default 8, rounded up to a power of two).
    /// `1` reproduces the legacy single-lock layout bit-for-bit.
    pub shards: usize,
    /// Hard depth of each write-pipeline submission queue
    /// (`SPBC_WRITE_QUEUE`, default 64). A full queue delays admission
    /// ([`Admission::Delayed`]) instead of buffering unbounded memory.
    pub write_queue: usize,
    /// Target batch size for coalescing small blobs under one durability
    /// barrier (`SPBC_BATCH_BYTES`, default 1 MiB).
    pub batch_bytes: usize,
    /// How long a write batch lingers for stragglers before sealing
    /// (`SPBC_BATCH_LINGER_US`, default 0 = seal immediately).
    pub batch_linger_us: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            async_writes: true,
            durable_partner_copies: false,
            partner_keep: 2,
            chunk_size: DEFAULT_CHUNK_SIZE,
            full_every: DEFAULT_FULL_EVERY,
            cdc: false,
            cdc_params: CdcParams::default(),
            ec: EcScheme::Off,
            sets: None,
            tier_policy: "mem:0,local:all".to_string(),
            shards: 8,
            write_queue: 64,
            batch_bytes: 1 << 20,
            batch_linger_us: 0,
        }
    }
}

/// Where a successful load found the blob.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadOutcome {
    /// Every chain link was present locally and passed its checksum.
    Local,
    /// At least one chain link was missing or corrupt locally; the first
    /// repaired link came from this partner rank's replica store and every
    /// repaired link was re-persisted locally.
    Repaired {
        /// The partner rank whose copy survived.
        from: RankId,
    },
    /// At least one chain link was reconstructed from its redundancy set's
    /// surviving members plus parity shards (see [`crate::ec`]) and
    /// re-persisted locally.
    Rebuilt {
        /// The redundancy set whose parity closed the hole.
        set_id: u32,
    },
}

/// The sealed parity frames one wave's set encoding produced, returned by
/// [`CkptStoreService::stage_for_parity`] to the member that completed the
/// set (the "encoder"), which stores one copy locally and pushes each
/// shard to a replication partner.
pub struct ParityShards {
    /// The redundancy set the shards protect.
    pub set_id: u32,
    /// `(shard index, synthetic owner rank, sealed SPBCPAR1 frame)`.
    pub shards: Vec<(u32, RankId, Vec<u8>)>,
    /// Microseconds spent in [`crate::ec::encode`] (the `encode_parity`
    /// phase).
    pub encode_us: u64,
}

/// Timing breakdown of a [`CkptStoreService::load_with_stats`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Microseconds fetching (and, when needed, partner-repairing) the top
    /// chain link.
    pub fetch_us: u64,
    /// Microseconds materializing the body — delta-chain or CAS resolution,
    /// including any base-link fetches and repairs it triggers.
    pub materialize_us: u64,
}

struct RankStores {
    local: Arc<dyn CheckpointBackend>,
    partner: Arc<dyn CheckpointBackend>,
}

/// Parity staging area shape: `(epoch, set_id) -> member rank -> sealed
/// blob`.
type ParityStage = HashMap<(u64, u32), HashMap<u32, Vec<u8>>>;

/// One slot per set member (or per parity shard): the surviving sealed
/// bytes, or `None` where the copy is lost.
type CensusSlots = Vec<Option<Vec<u8>>>;

/// One tenant job's view of a checkpoint storage [`ShardedStore`] hub.
/// Cheap to share (`Arc`); outlives rank threads, so partner copies survive
/// in-process cluster restarts the way surviving nodes' memory survives a
/// peer's crash. The hub (CAS + write pipeline) is shared across every
/// tenant attached to it; the rank backends, delta encoders, and parity
/// staging area here are private to this job.
pub struct CkptStoreService {
    /// Shared multi-tenant state: sharded CAS + bounded write pipeline.
    hub: Arc<ShardedStore>,
    /// This tenant's job id within the hub (keys all shared state).
    job: u32,
    ranks: Vec<RankStores>,
    /// Per-rank delta encoder (previous wave's chunk table); surviving the
    /// rank thread is fine because a restore resets it.
    deltas: Vec<Mutex<DeltaEncoder>>,
    /// Parity staging area: `(epoch, set_id) -> rank -> sealed blob`. Set
    /// members deposit their sealed blobs here at replicate time; the last
    /// member to arrive computes the set's parity (see
    /// [`stage_for_parity`](Self::stage_for_parity)).
    parity_stage: Mutex<ParityStage>,
    cfg: StoreConfig,
}

impl CkptStoreService {
    fn encoders(world: usize, cfg: &StoreConfig) -> Vec<Mutex<DeltaEncoder>> {
        (0..world).map(|_| Mutex::new(DeltaEncoder::new(cfg.chunk_size, cfg.full_every))).collect()
    }

    /// All stores in memory — the default for in-process experiments.
    /// Builds a private single-tenant hub from `cfg`.
    pub fn in_memory(world: usize, cfg: StoreConfig) -> Self {
        Self::tenant(&ShardedStore::new(cfg), world)
    }

    /// Attach a new tenant job (all stores in memory) to an existing hub.
    /// The tenant inherits the hub's configuration; its job id keys every
    /// piece of shared state, so tenants never see each other's epochs.
    pub fn tenant(hub: &Arc<ShardedStore>, world: usize) -> Self {
        Self::tenant_with(hub, world, |_| Arc::new(MemBackend::new()))
    }

    /// [`tenant`](Self::tenant) with caller-supplied local backends (rank
    /// index → backend) — how `spbc-storm` plugs simulated-latency devices
    /// under concurrent jobs. Partner stores stay in memory.
    pub fn tenant_with(
        hub: &Arc<ShardedStore>,
        world: usize,
        mut make_local: impl FnMut(usize) -> Arc<dyn CheckpointBackend>,
    ) -> Self {
        let cfg = hub.config().clone();
        let ranks = (0..world)
            .map(|r| RankStores { local: make_local(r), partner: Arc::new(MemBackend::new()) })
            .collect();
        let deltas = Self::encoders(world, &cfg);
        CkptStoreService {
            hub: Arc::clone(hub),
            job: hub.alloc_job(),
            ranks,
            deltas,
            parity_stage: Mutex::new(HashMap::new()),
            cfg,
        }
    }

    /// Local storage on disk under `root`, arranged as the configured
    /// [`TierStack`] (`cfg.tier_policy`): a per-rank memory level, the
    /// node-local `rank-<r>/own` directory, and optionally a shared
    /// `shared/global` directory standing in for the parallel filesystem.
    /// Partner stores stay in memory unless `cfg.durable_partner_copies`
    /// (`rank-<r>/partner`).
    pub fn on_disk(root: impl AsRef<Path>, world: usize, cfg: StoreConfig) -> Result<Self> {
        let root = root.as_ref();
        let specs = parse_policy(&cfg.tier_policy)?;
        let global: Option<Arc<dyn CheckpointBackend>> = if specs.iter().any(|s| s.name == "global")
        {
            Some(Arc::new(DirBackend::open(root.join("shared").join("global"))?))
        } else {
            None
        };
        let mut ranks = Vec::with_capacity(world);
        for r in 0..world {
            let mut levels = Vec::with_capacity(specs.len());
            for spec in &specs {
                let (backend, shared): (Arc<dyn CheckpointBackend>, bool) = match spec.name.as_str()
                {
                    "mem" => (Arc::new(MemBackend::new()), false),
                    "local" => (
                        Arc::new(DirBackend::open(root.join(format!("rank-{r}")).join("own"))?),
                        false,
                    ),
                    "global" => (Arc::clone(global.as_ref().unwrap()), true),
                    other => {
                        return Err(MpiError::app(format!(
                            "unknown tier level {other:?} (expected mem, local, global)"
                        )))
                    }
                };
                levels.push(TierLevel {
                    name: spec.name.clone(),
                    backend,
                    keep: spec.keep,
                    shared,
                });
            }
            let local: Arc<dyn CheckpointBackend> = if levels.len() == 1 {
                levels.pop().map(|l| l.backend).unwrap()
            } else {
                Arc::new(TierStack::new(levels))
            };
            let partner: Arc<dyn CheckpointBackend> = if cfg.durable_partner_copies {
                Arc::new(DirBackend::open(root.join(format!("rank-{r}")).join("partner"))?)
            } else {
                Arc::new(MemBackend::new())
            };
            ranks.push(RankStores { local, partner });
        }
        let hub = ShardedStore::new(cfg);
        let cfg = hub.config().clone();
        let deltas = Self::encoders(world, &cfg);
        let job = hub.alloc_job();
        Ok(CkptStoreService {
            hub,
            job,
            ranks,
            deltas,
            parity_stage: Mutex::new(HashMap::new()),
            cfg,
        })
    }

    /// World size this service was built for.
    pub fn world(&self) -> usize {
        self.ranks.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// This tenant's job id within its hub.
    pub fn job(&self) -> u32 {
        self.job
    }

    /// The hub this tenant is attached to (for spawning sibling tenants
    /// and reading hub-wide stats).
    pub fn hub(&self) -> &Arc<ShardedStore> {
        &self.hub
    }

    fn stores(&self, rank: RankId) -> Result<&RankStores> {
        self.ranks
            .get(rank.0 as usize)
            .ok_or_else(|| MpiError::app(format!("rank {rank} outside store world")))
    }

    /// Seal `rank`'s serialized checkpoint `body` for `epoch`.
    ///
    /// In CDC mode (`cfg.cdc`) the body is cut at content-defined
    /// boundaries, every chunk is inserted into (or deduped against) the
    /// service-wide content-addressed store in one atomic step with its
    /// `(rank, rank, epoch)` registration, and the sealed blob is an
    /// `SPBCCKP4` manifest carrying payloads only for chunks the store had
    /// never seen. Otherwise the fixed-grid path produces an incremental
    /// `SPBCCKP3` delta against the previous committed wave when possible,
    /// else a full `SPBCCKP2` blob.
    ///
    /// The returned blob is what [`commit_local`](Self::commit_local) and
    /// every partner push must carry; the stats report the dedup ratio
    /// (`logical` body bytes vs `physical` blob bytes). The per-rank diff
    /// state advances on each call, so exactly one `encode_commit` per
    /// committed wave, in epoch order.
    pub fn encode_commit(
        &self,
        rank: RankId,
        epoch: u64,
        body: &[u8],
    ) -> Result<(Vec<u8>, EncodeStats)> {
        self.stores(rank)?; // range check
        if self.cfg.cdc {
            return self.encode_commit_cdc(rank, epoch, body);
        }
        Ok(self.deltas[rank.0 as usize].lock().encode(epoch, body))
    }

    /// The CDC commit path: chunk, dedup-insert, frame as `SPBCCKP4`.
    fn encode_commit_cdc(
        &self,
        rank: RankId,
        epoch: u64,
        body: &[u8],
    ) -> Result<(Vec<u8>, EncodeStats)> {
        let spans = chunk_spans(body, self.cfg.cdc_params);
        let hashed: Vec<(ChunkHash, &[u8])> =
            spans.iter().map(|s| (ChunkHash::of(&body[s.clone()]), &body[s.clone()])).collect();
        let manifest: Vec<(ChunkHash, Option<&[u8]>)> =
            hashed.iter().map(|(h, b)| (*h, Some(*b))).collect();
        // Insert + register atomically: re-commits of the same epoch after
        // a rollback replace the old registration without a refcount dip.
        let cas_stats = self
            .cas()
            .commit_insert(self.job, rank.0, rank.0, epoch, &manifest)
            .map_err(MpiError::Codec)?;
        let parts: Vec<V4Chunk<'_>> = hashed
            .iter()
            .zip(&cas_stats.fates)
            .map(|((h, b), fate)| V4Chunk {
                hash: *h,
                len: b.len() as u32,
                inline: (*fate == ChunkFate::New).then_some(*b),
            })
            .collect();
        let inline_chunks = parts.iter().filter(|p| p.inline.is_some()).count();
        let framed = seal_v4(&parts);
        let stats = EncodeStats {
            full: false,
            chunks: parts.len(),
            inline_chunks,
            logical: body.len() as u64,
            physical: framed.len() as u64,
            cas_hit_chunks_same_owner: cas_stats.hits_same_owner as usize,
            cas_hit_chunks_cross_rank: cas_stats.hits_cross_rank as usize,
            cas_hit_bytes: cas_stats.hit_bytes,
            cas_new_bytes: cas_stats.new_bytes,
        };
        Ok((framed, stats))
    }

    /// The hub-wide content-addressed store (CDC mode), shared by every
    /// tenant on this service's hub.
    pub fn cas(&self) -> &CasStore {
        self.hub.cas()
    }

    /// Indices of a V4 blob's chunks whose content the service-wide store
    /// does not hold — what a replication partner answers to a hash-only
    /// push (`CKPT_CHUNK_REQ`).
    pub fn missing_chunks(&self, sealed: &[u8]) -> Result<Vec<u32>> {
        let view = CasView::parse(sealed)?;
        Ok(self.cas().missing(&view.hashes()))
    }

    /// Rebuild a sealed V4 blob carrying inline payloads only for the
    /// requested chunk indices (the partner's missing set), sourcing bytes
    /// from the original blob's payloads or the store. This is what the
    /// owner serves in reply to a `CKPT_CHUNK_REQ`.
    pub fn subset_blob(&self, sealed: &[u8], wanted: &[u32]) -> Result<Vec<u8>> {
        let view = CasView::parse(sealed)?;
        let want: BTreeSet<u32> = wanted.iter().copied().collect();
        let mut bodies: Vec<Option<Vec<u8>>> = Vec::with_capacity(view.n_chunks());
        for idx in 0..view.n_chunks() {
            if !want.contains(&(idx as u32)) {
                bodies.push(None);
                continue;
            }
            let (hash, _) = view.chunk(idx).expect("idx in range");
            let bytes = match view.inline_chunk(idx)? {
                Some(b) => b.to_vec(),
                None => self.cas().get(&hash).ok_or_else(|| {
                    MpiError::Codec(format!(
                        "requested chunk {idx} ({hash:?}) is neither inline nor stored"
                    ))
                })?,
            };
            bodies.push(Some(bytes));
        }
        let parts: Vec<V4Chunk<'_>> = (0..view.n_chunks())
            .map(|idx| {
                let (hash, len) = view.chunk(idx).expect("idx in range");
                V4Chunk { hash, len: len as u32, inline: bodies[idx].as_deref() }
            })
            .collect();
        Ok(seal_v4(&parts))
    }

    /// Commit `rank`'s own sealed checkpoint at `epoch`.
    ///
    /// With async writes (default) this enqueues on the background writer
    /// and returns immediately; `on_done` fires from the writer thread with
    /// the hidden write latency. Call [`flush_rank`](Self::flush_rank) first
    /// to implement double-buffering (wait for the *previous* wave, never
    /// the current one). With `async_writes = false` the write (and
    /// `on_done`) happen inline.
    ///
    /// The returned [`Admission`] reports whether the bounded pipeline had
    /// room immediately or the caller was delayed by backpressure (a full
    /// submission queue) — real device lag surfaced at the commit barrier
    /// instead of unbounded buffering. Synchronous writes are always
    /// `Accepted` (the device wait *is* the call).
    pub fn commit_local(
        &self,
        rank: RankId,
        epoch: u64,
        blob: Vec<u8>,
        on_done: Option<OnDone>,
    ) -> Result<Admission> {
        let local = Arc::clone(&self.stores(rank)?.local);
        if self.cfg.async_writes {
            Ok(self.hub.writer().submit(self.job, rank, epoch, blob, local, on_done))
        } else {
            let start = std::time::Instant::now();
            let res = local.put(rank, epoch, &blob);
            if let Some(cb) = on_done {
                cb(&res, start.elapsed());
            }
            res.map(|_| Admission::Accepted)
        }
    }

    /// Store a copy of `owner`'s checkpoint at `epoch` in `holder`'s partner
    /// store (synchronous — the pushing rank awaits the ACK this enables).
    /// The copy is verified first, so a partner only ever acknowledges a
    /// copy it could restore from. Old partner copies of the same owner
    /// beyond `partner_keep` waves are pruned — except base epochs a
    /// retained delta manifest still references, which must survive for
    /// chain repair. Returns how many copies were dropped.
    pub fn store_partner_copy(
        &self,
        holder: RankId,
        owner: RankId,
        epoch: u64,
        blob: &[u8],
    ) -> Result<usize> {
        let partner = &self.stores(holder)?.partner;
        if chunk::is_cas(blob) {
            // A V4 partner copy pins its chunks in the shared store under
            // the holder's own registration: inline payloads are inserted,
            // everything else must already be held (the owner pushed hashes
            // first and served whatever we reported missing). Inline
            // payloads are hash-verified on the way in.
            let view = CasView::parse(blob)?;
            let mut manifest: Vec<(ChunkHash, Option<&[u8]>)> = Vec::with_capacity(view.n_chunks());
            for idx in 0..view.n_chunks() {
                let (hash, _) = view.chunk(idx).expect("idx in range");
                manifest.push((hash, view.inline_chunk(idx)?));
            }
            self.cas()
                .commit_insert(self.job, holder.0, owner.0, epoch, &manifest)
                .map_err(MpiError::Codec)?;
        } else {
            chunk::verify(blob)?;
        }
        partner.put(owner, epoch, blob)?;
        if is_parity_owner(owner) {
            // Partner-held parity shards are not window-pruned: a delta
            // manifest may reference a base epoch far behind the keep
            // window, and the parity protecting that base must survive as
            // long as the manifest does. Parity retention is governed by
            // the encoder-side reference-aware GC in
            // [`gc_local`](Self::gc_local); frames are small.
            return Ok(0);
        }
        let epochs = partner.epochs_of(owner)?;
        let mut pruned = 0;
        if epochs.len() > self.cfg.partner_keep {
            let (old, retained) = epochs.split_at(epochs.len() - self.cfg.partner_keep);
            let referenced = Self::referenced_by(partner.as_ref(), owner, retained);
            for &e in old {
                if !referenced.contains(&e) && partner.remove(owner, e)? {
                    self.cas().unregister(self.job, holder.0, owner.0, e);
                    pruned += 1;
                }
            }
        }
        Ok(pruned)
    }

    /// Base epochs referenced by the manifests of `retained` epochs in
    /// `store`. Unreadable or unparsable blobs contribute nothing (their
    /// chains are already lost; repair happens at load time). One level is
    /// enough: manifests are flattened, so a delta's references point at
    /// blobs holding the chunk bytes directly (see [`crate::chunk`]).
    fn referenced_by(
        store: &dyn CheckpointBackend,
        owner: RankId,
        retained: &[u64],
    ) -> BTreeSet<u64> {
        let mut refs = BTreeSet::new();
        for &e in retained {
            if let Ok(Some(blob)) = store.get(owner, e) {
                if let Ok(more) = chunk::referenced_epochs(&blob) {
                    refs.extend(more);
                }
            }
        }
        refs
    }

    /// Deposit `me`'s sealed blob for `epoch` into its redundancy set's
    /// staging area. The *last* member of the set to stage computes the
    /// set's parity: the returned [`ParityShards`] carries one sealed
    /// `SPBCPAR1` frame per parity shard, already persisted in the
    /// encoder's local store under its synthetic owner, ready for the
    /// caller to push to replication partners. Everyone else gets `None`.
    ///
    /// Stale staging entries of the same set from older epochs (waves that
    /// rolled back before the set completed) are dropped on the way in.
    pub fn stage_for_parity(
        &self,
        me: RankId,
        epoch: u64,
        blob: &[u8],
    ) -> Result<Option<ParityShards>> {
        let m = self.cfg.ec.m();
        if m == 0 {
            return Ok(None);
        }
        let sets = self
            .cfg
            .sets
            .as_ref()
            .ok_or_else(|| MpiError::app("EC scheme enabled without redundancy sets"))?;
        let Some((set_id, members, _)) = sets.set_of(me) else {
            return Ok(None);
        };
        let members = members.to_vec();
        let staged = {
            let mut stage = self.parity_stage.lock();
            stage.retain(|&(e, s), _| s != set_id || e >= epoch);
            let entry = stage.entry((epoch, set_id)).or_default();
            entry.insert(me.0, blob.to_vec());
            if entry.len() < members.len() {
                return Ok(None);
            }
            stage.remove(&(epoch, set_id)).unwrap()
        };
        let start = std::time::Instant::now();
        let ordered: Vec<&[u8]> = members.iter().map(|r| staged[r].as_slice()).collect();
        let member_lens: Vec<(u32, u64)> =
            members.iter().map(|&r| (r, staged[&r].len() as u64)).collect();
        let parity = ec::encode(&ordered, m);
        let encode_us = start.elapsed().as_micros() as u64;
        let local = &self.stores(me)?.local;
        let mut shards = Vec::with_capacity(m);
        for (j, shard) in parity.iter().enumerate() {
            let owner = parity_owner(set_id, j);
            let sealed = ec::seal_parity(set_id, j as u32, m as u32, epoch, &member_lens, shard);
            local.put(owner, epoch, &sealed)?;
            shards.push((j as u32, owner, sealed));
        }
        Ok(Some(ParityShards { set_id, shards, encode_us }))
    }

    /// Simulate losing `rank`'s node-local storage (fault injection): its
    /// local store is cleared — including any parity shards it encoded —
    /// and its delta encoder reset. Partner-held copies, shared tier
    /// levels, and the service-wide chunk store survive, exactly like the
    /// surviving nodes' memory survives a peer's crash.
    pub fn wipe_local(&self, rank: RankId) -> Result<()> {
        let stores = self.stores(rank)?;
        stores.local.clear()?;
        self.deltas[rank.0 as usize].lock().reset();
        Ok(())
    }

    /// A verifiable copy of `(owner, epoch)` from anywhere in the world:
    /// any rank's local store (parity shards live under synthetic owners
    /// in their encoder's local store) or any partner store.
    fn find_copy(&self, owner: RankId, epoch: u64) -> Result<Option<Vec<u8>>> {
        for stores in &self.ranks {
            if let Some(b) = stores.local.get(owner, epoch)? {
                if chunk::verify(&b).is_ok() {
                    return Ok(Some(b));
                }
            }
            if let Some(b) = stores.partner.get(owner, epoch)? {
                if chunk::verify(&b).is_ok() {
                    return Ok(Some(b));
                }
            }
        }
        Ok(None)
    }

    /// For one set at one epoch: every member's surviving sealed blob and
    /// every surviving (set- and epoch-matching) sealed parity frame.
    fn set_census(
        &self,
        members: &[u32],
        set_id: u32,
        epoch: u64,
    ) -> Result<(CensusSlots, CensusSlots)> {
        let mut data = Vec::with_capacity(members.len());
        for &r in members {
            data.push(self.find_copy(RankId(r), epoch)?);
        }
        let mut parity = Vec::with_capacity(self.cfg.ec.m());
        for j in 0..self.cfg.ec.m() {
            let found = self.find_copy(parity_owner(set_id, j), epoch)?.filter(
                |b| matches!(ParityView::parse(b), Ok(v) if v.set_id == set_id && v.epoch == epoch),
            );
            parity.push(found);
        }
        Ok((data, parity))
    }

    /// Try to rebuild `rank`'s sealed blob at `epoch` from its redundancy
    /// set (survivors + parity). `Ok(None)` means the EC path has nothing
    /// to offer (EC off, no parity survives, or a partner copy of the rank
    /// itself exists — the caller's partner scan will find it). Losses
    /// beyond the surviving parity budget are the distinct loud error.
    fn try_rebuild(&self, rank: RankId, epoch: u64) -> Result<Option<(Vec<u8>, u32)>> {
        if !self.cfg.ec.is_on() {
            return Ok(None);
        }
        let Some(sets) = self.cfg.sets.as_ref() else {
            return Ok(None);
        };
        let Some((set_id, members, pos)) = sets.set_of(rank) else {
            return Ok(None);
        };
        let members = members.to_vec();
        let (mut data, parity) = self.set_census(&members, set_id, epoch)?;
        if data[pos].is_some() {
            // A surviving copy of the rank itself (a partner replica):
            // repair, not rebuild.
            return Ok(None);
        }
        let n_parity = parity.iter().filter(|p| p.is_some()).count();
        if n_parity == 0 {
            return Ok(None);
        }
        let missing = data.iter().filter(|d| d.is_none()).count();
        if missing > n_parity {
            return Err(MpiError::app(format!(
                "erasure budget exceeded: set {set_id} lost {missing} member(s) at epoch \
                 {epoch} with only {n_parity} surviving parity shard(s) (budget m={})",
                self.cfg.ec.m()
            )));
        }
        // True (unpadded) lengths come from any surviving frame's table.
        let mut lens = vec![0usize; members.len()];
        let mut raw_parity: Vec<Option<Vec<u8>>> = vec![None; parity.len()];
        for (j, sealed) in parity.iter().enumerate() {
            if let Some(sealed) = sealed {
                let v = ParityView::parse(sealed)?;
                if v.members.len() == members.len() {
                    for (i, &(_, l)) in v.members.iter().enumerate() {
                        lens[i] = l as usize;
                    }
                }
                raw_parity[j] = Some(v.shard.to_vec());
            }
        }
        // Pad survivors to the parity width so the linear algebra lines up.
        let width = raw_parity.iter().flatten().next().map_or(0, |p| p.len());
        for d in data.iter_mut().flatten() {
            d.resize(width, 0);
        }
        ec::reconstruct(&mut data, &raw_parity, &lens, self.cfg.ec.m())?;
        let blob = data[pos].take().expect("reconstruct fills every missing shard");
        chunk::verify(&blob).map_err(|e| {
            MpiError::Codec(format!(
                "rebuilt blob for rank {rank} epoch {epoch} (set {set_id}) failed \
                 verification: {e}"
            ))
        })?;
        Ok(Some((blob, set_id)))
    }

    /// Wait until `rank`'s outstanding local write (if any) is durable.
    pub fn flush_rank(&self, rank: RankId) -> Result<()> {
        self.hub.writer().flush_owner(self.job, rank)
    }

    /// Wait for every outstanding write of *this job* (shutdown path).
    /// Sibling tenants' in-flight writes are untouched.
    pub fn flush_all(&self) -> Result<()> {
        self.hub.writer().flush_job(self.job)
    }

    /// Hub-wide write-pipeline counters (shared across every tenant).
    pub fn writer_stats(&self) -> WriterStats {
        self.hub.writer().stats()
    }

    /// Fetch the raw verified blob of `(rank, epoch)`, repairing from a
    /// partner copy when the local one is missing or corrupt. Records the
    /// first repair source in `outcome`.
    fn fetch_blob(
        &self,
        rank: RankId,
        epoch: u64,
        outcome: &mut LoadOutcome,
    ) -> Result<Option<Vec<u8>>> {
        let own = self.stores(rank)?;
        if let Some(blob) = own.local.get(rank, epoch)? {
            if chunk::verify(&blob).is_ok() {
                return Ok(Some(blob));
            }
            // Corrupt local copy: fall through to repair.
        }
        // Set rebuild before partner repair: survivors plus parity are the
        // cheap, node-local path; a full partner copy is the cross-cluster
        // fallback. An over-budget loss is remembered and surfaced only if
        // the partner scan also comes up empty.
        let mut budget_err = None;
        match self.try_rebuild(rank, epoch) {
            Ok(Some((blob, set_id))) => {
                own.local.put(rank, epoch, &blob)?;
                if *outcome == LoadOutcome::Local {
                    *outcome = LoadOutcome::Rebuilt { set_id };
                }
                return Ok(Some(blob));
            }
            Ok(None) => {}
            Err(e) => budget_err = Some(e),
        }
        for (holder, stores) in self.ranks.iter().enumerate() {
            if holder == rank.0 as usize {
                continue;
            }
            if let Some(blob) = stores.partner.get(rank, epoch)? {
                if chunk::verify(&blob).is_ok() {
                    // Heal the local store so the next failure does not
                    // depend on the same partner surviving again.
                    own.local.put(rank, epoch, &blob)?;
                    if *outcome == LoadOutcome::Local {
                        *outcome = LoadOutcome::Repaired { from: RankId(holder as u32) };
                    }
                    return Ok(Some(blob));
                }
            }
        }
        if let Some(e) = budget_err {
            return Err(e);
        }
        Ok(None)
    }

    /// Load `rank`'s checkpoint at `epoch`, verify it, and materialize it.
    ///
    /// Returns the full checkpoint *body* plus where it came from. Every
    /// chain link — the epoch itself and any base epoch its delta manifest
    /// references — is CRC-verified; a link that is missing or corrupt
    /// locally triggers repair: every rank's partner store is scanned for a
    /// verifiable copy, which is re-persisted locally before use, so one
    /// load heals the whole chain. `Ok(None)` means the top link survives
    /// nowhere; a lost *base* link is an error (the epoch exists but is no
    /// longer materializable).
    ///
    /// Callers should `flush_rank` first so an in-flight async write is not
    /// misread as a missing copy. A successful load also resets the rank's
    /// delta encoder: the next committed wave starts a fresh chain with a
    /// full blob, so re-committed epochs after a rollback can never be
    /// referenced by a stale manifest from the previous incarnation.
    pub fn load(&self, rank: RankId, epoch: u64) -> Result<Option<(Vec<u8>, LoadOutcome)>> {
        self.load_with_stats(rank, epoch).map(|o| o.map(|(body, outcome, _)| (body, outcome)))
    }

    /// [`load`](Self::load), additionally reporting how long each restore
    /// stage took so the protocol layer can feed its phase histograms.
    pub fn load_with_stats(
        &self,
        rank: RankId,
        epoch: u64,
    ) -> Result<Option<(Vec<u8>, LoadOutcome, LoadStats)>> {
        let mut stats = LoadStats::default();
        let mut outcome = LoadOutcome::Local;
        let fetch_start = std::time::Instant::now();
        let top = self.fetch_blob(rank, epoch, &mut outcome)?;
        stats.fetch_us = fetch_start.elapsed().as_micros() as u64;
        let Some(top) = top else {
            return Ok(None);
        };
        let mat_start = std::time::Instant::now();
        let body = if chunk::is_cas(&top) {
            // V4: inline payloads (hash-verified) plus the shared store.
            // The store is service-wide, so there is no partner scan to
            // fall back to — a chunk absent from both is lost everywhere.
            CasView::parse(&top)?.materialize(&mut |h| self.cas().get(h)).map_err(|e| {
                MpiError::Codec(format!("rank {rank} epoch {epoch}: {e} (lost everywhere)"))
            })?
        } else {
            chunk::materialize(&top, &mut |base| {
                self.fetch_blob(rank, base, &mut outcome)?.ok_or_else(|| {
                    MpiError::Codec(format!(
                        "rank {rank} epoch {epoch}: chain base epoch {base} lost everywhere"
                    ))
                })
            })?
        };
        stats.materialize_us = mat_start.elapsed().as_micros() as u64;
        self.deltas[rank.0 as usize].lock().reset();
        Ok(Some((body, outcome, stats)))
    }

    /// Every epoch at which *some* verifiable-looking copy of `rank`'s
    /// checkpoint exists — local, partner-held, or (with EC on)
    /// rebuildable from the rank's redundancy set — ascending.
    pub fn available_epochs(&self, rank: RankId) -> Result<Vec<u64>> {
        let mut set: BTreeSet<u64> =
            self.stores(rank)?.local.epochs_of(rank)?.into_iter().collect();
        for (holder, stores) in self.ranks.iter().enumerate() {
            if holder == rank.0 as usize {
                continue;
            }
            set.extend(stores.partner.epochs_of(rank)?);
        }
        if self.cfg.ec.is_on() {
            if let Some((set_id, members, _)) = self.cfg.sets.as_ref().and_then(|s| s.set_of(rank))
            {
                let members = members.to_vec();
                // Candidate epochs: anywhere any of the set's parity
                // shards survives.
                let mut candidates = BTreeSet::new();
                for j in 0..self.cfg.ec.m() {
                    let owner = parity_owner(set_id, j);
                    for stores in &self.ranks {
                        candidates.extend(stores.local.epochs_of(owner)?);
                        candidates.extend(stores.partner.epochs_of(owner)?);
                    }
                }
                for e in candidates {
                    if set.contains(&e) {
                        continue;
                    }
                    let (data, parity) = self.set_census(&members, set_id, e)?;
                    let missing = data.iter().filter(|d| d.is_none()).count();
                    let n_parity = parity.iter().filter(|p| p.is_some()).count();
                    if n_parity > 0 && missing <= n_parity {
                        set.insert(e);
                    }
                }
            }
        }
        Ok(set.into_iter().collect())
    }

    /// The newest epoch every listed rank can reach (locally or via a
    /// partner copy); 0 if any rank has no copy at all. This is the wave a
    /// cluster restarts from.
    pub fn common_epoch(&self, ranks: &[RankId]) -> Result<u64> {
        let mut min = u64::MAX;
        for &r in ranks {
            let newest = self.available_epochs(r)?.last().copied().unwrap_or(0);
            min = min.min(newest);
        }
        Ok(if min == u64::MAX { 0 } else { min })
    }

    /// Drop `rank`'s local epochs older than `keep_from` (automatic GC once
    /// a newer wave is globally committed) — except base epochs still
    /// referenced by a retained wave's delta manifest, which must survive
    /// until the last manifest naming them is itself pruned. Returns how
    /// many were removed.
    pub fn gc_local(&self, rank: RankId, keep_from: u64) -> Result<usize> {
        // A queued or in-flight async write is invisible to `epochs_of`:
        // sweeping now could drop a base its delta manifest still needs.
        // Drain the rank's pipeline first so the retained-set computation
        // sees every landed epoch (any sticky write error surfaces here).
        self.hub.writer().flush_owner(self.job, rank)?;
        let local = &self.stores(rank)?.local;
        let epochs = local.epochs_of(rank)?;
        let retained: Vec<u64> = epochs.iter().copied().filter(|&e| e >= keep_from).collect();
        let referenced = Self::referenced_by(local.as_ref(), rank, &retained);
        let mut removed = 0;
        for e in epochs {
            if e < keep_from && !referenced.contains(&e) && local.remove(rank, e)? {
                removed += 1;
            }
        }
        // CDC mode: release the rank's own chunk registrations for the
        // pruned epochs. Ledger-driven (not blob parsing) because a
        // coalesced async write may have registered chunks for an epoch
        // whose blob was never stored. Chunks shared with a retained epoch
        // or another rank's registration survive by refcount.
        self.cas().unregister_below(self.job, rank.0, rank.0, keep_from);
        // EC mode: prune the parity shards this rank encoded (stored in
        // its local under synthetic owners) by the same window — except
        // parity of base epochs any set member's retained delta manifest
        // still references, which must survive for set rebuild of those
        // bases.
        if self.cfg.ec.is_on() {
            if let Some((set_id, members, _)) = self.cfg.sets.as_ref().and_then(|s| s.set_of(rank))
            {
                let members = members.to_vec();
                let mut set_refs = BTreeSet::new();
                for &r in &members {
                    if let Ok(stores) = self.stores(RankId(r)) {
                        let epochs = stores.local.epochs_of(RankId(r))?;
                        let kept: Vec<u64> =
                            epochs.into_iter().filter(|&e| e >= keep_from).collect();
                        set_refs.extend(Self::referenced_by(
                            stores.local.as_ref(),
                            RankId(r),
                            &kept,
                        ));
                    }
                }
                for j in 0..self.cfg.ec.m() {
                    let owner = parity_owner(set_id, j);
                    for e in local.epochs_of(owner)? {
                        if e < keep_from && !set_refs.contains(&e) {
                            local.remove(owner, e)?;
                        }
                    }
                }
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::seal;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("spbc-service-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn commit_sync(svc: &CkptStoreService, rank: RankId, epoch: u64, body: &[u8]) {
        svc.commit_local(rank, epoch, seal(body), None).unwrap();
        svc.flush_rank(rank).unwrap();
    }

    /// Encode through the delta path (like the protocol does) and commit
    /// locally + to one partner holder.
    fn commit_wave(
        svc: &CkptStoreService,
        rank: RankId,
        holder: RankId,
        epoch: u64,
        body: &[u8],
    ) -> EncodeStats {
        svc.flush_rank(rank).unwrap();
        let (blob, stats) = svc.encode_commit(rank, epoch, body).unwrap();
        svc.commit_local(rank, epoch, blob.clone(), None).unwrap();
        svc.flush_rank(rank).unwrap();
        svc.store_partner_copy(holder, rank, epoch, &blob).unwrap();
        stats
    }

    fn wave_body(epoch: u64, dirty_chunk: usize, chunk: usize, chunks: usize) -> Vec<u8> {
        let mut b = vec![7u8; chunk * chunks];
        b[dirty_chunk * chunk..(dirty_chunk + 1) * chunk].fill(epoch as u8);
        b
    }

    #[test]
    fn local_load_roundtrip() {
        let svc = CkptStoreService::in_memory(2, StoreConfig::default());
        commit_sync(&svc, RankId(0), 1, b"wave-1");
        let (body, outcome) = svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!(body, b"wave-1");
        assert_eq!(outcome, LoadOutcome::Local);
        assert!(svc.load(RankId(0), 9).unwrap().is_none());
    }

    #[test]
    fn missing_local_copy_is_repaired_from_partner() {
        let svc = CkptStoreService::in_memory(3, StoreConfig::default());
        // Rank 0 never writes locally; rank 2 holds a partner copy.
        svc.store_partner_copy(RankId(2), RankId(0), 1, &seal(b"replica")).unwrap();
        let (body, outcome) = svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!(body, b"replica");
        assert_eq!(outcome, LoadOutcome::Repaired { from: RankId(2) });
        // Repair re-persisted locally: second load is Local.
        let (_, outcome) = svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!(outcome, LoadOutcome::Local);
    }

    #[test]
    fn corrupt_local_copy_is_repaired_from_partner() {
        let root = tmpdir("corrupt-repair");
        let svc = CkptStoreService::on_disk(&root, 2, StoreConfig::default()).unwrap();
        commit_sync(&svc, RankId(0), 1, b"good");
        svc.store_partner_copy(RankId(1), RankId(0), 1, &seal(b"good")).unwrap();
        // Flip one byte inside the stored file's body.
        let path = root.join("rank-0").join("own").join("rank-0.epoch-1.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (body, outcome) = svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!(body, b"good");
        assert_eq!(outcome, LoadOutcome::Repaired { from: RankId(1) });
    }

    #[test]
    fn common_epoch_counts_partner_copies() {
        let svc = CkptStoreService::in_memory(4, StoreConfig::default());
        commit_sync(&svc, RankId(0), 1, b"a");
        commit_sync(&svc, RankId(0), 2, b"b");
        // Rank 1 lost its local store entirely, but partners hold wave 2.
        svc.store_partner_copy(RankId(3), RankId(1), 2, &seal(b"r")).unwrap();
        assert_eq!(svc.common_epoch(&[RankId(0), RankId(1)]).unwrap(), 2);
        assert_eq!(svc.common_epoch(&[RankId(0), RankId(2)]).unwrap(), 0);
        assert_eq!(svc.available_epochs(RankId(1)).unwrap(), vec![2]);
    }

    #[test]
    fn partner_copies_are_pruned_to_keep_window() {
        let svc = CkptStoreService::in_memory(2, StoreConfig::default());
        let mut pruned = 0;
        for e in 1..=5 {
            pruned += svc.store_partner_copy(RankId(1), RankId(0), e, &seal(b"x")).unwrap();
        }
        assert_eq!(pruned, 3); // keeps newest 2 of 5 (full blobs: no refs)
        assert_eq!(svc.available_epochs(RankId(0)).unwrap(), vec![4, 5]);
    }

    #[test]
    fn gc_local_drops_old_waves() {
        let svc = CkptStoreService::in_memory(1, StoreConfig::default());
        for e in 1..=4 {
            commit_sync(&svc, RankId(0), e, b"w");
        }
        assert_eq!(svc.gc_local(RankId(0), 3).unwrap(), 2);
        assert_eq!(svc.available_epochs(RankId(0)).unwrap(), vec![3, 4]);
    }

    #[test]
    fn sync_write_mode_is_immediate() {
        let cfg = StoreConfig { async_writes: false, ..Default::default() };
        let svc = CkptStoreService::in_memory(1, cfg);
        svc.commit_local(RankId(0), 1, seal(b"now"), None).unwrap();
        // No flush needed: the write already happened.
        let (body, _) = svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!(body, b"now");
        assert_eq!(svc.writer_stats().completed, 0);
    }

    #[test]
    fn tenants_share_the_hub_but_isolate_namespaces() {
        let hub = ShardedStore::new(StoreConfig::default());
        let a = CkptStoreService::tenant(&hub, 2);
        let b = CkptStoreService::tenant(&hub, 2);
        assert_ne!(a.job(), b.job());
        // Same (rank, epoch) key in both jobs: namespaces never collide.
        commit_sync(&a, RankId(0), 1, b"job-a");
        commit_sync(&b, RankId(0), 1, b"job-b");
        assert_eq!(a.load(RankId(0), 1).unwrap().unwrap().0, b"job-a");
        assert_eq!(b.load(RankId(0), 1).unwrap().unwrap().0, b"job-b");
        // Epoch inventories are per-tenant too.
        commit_sync(&a, RankId(0), 2, b"job-a-2");
        assert_eq!(a.available_epochs(RankId(0)).unwrap(), vec![1, 2]);
        assert_eq!(b.available_epochs(RankId(0)).unwrap(), vec![1]);
        // But the write pipeline is shared: both jobs' commits counted.
        assert_eq!(a.writer_stats().completed, 3);
        assert_eq!(b.writer_stats(), a.writer_stats());
    }

    #[test]
    fn single_shard_config_behaves_identically() {
        let cfg = StoreConfig { shards: 1, write_queue: 2, ..Default::default() };
        let svc = CkptStoreService::in_memory(2, cfg);
        for e in 1..=4u64 {
            commit_sync(&svc, RankId(0), e, format!("w{e}").as_bytes());
        }
        assert_eq!(svc.available_epochs(RankId(0)).unwrap(), vec![1, 2, 3, 4]);
        let (body, _) = svc.load(RankId(0), 4).unwrap().unwrap();
        assert_eq!(body, b"w4");
    }

    #[test]
    fn on_disk_layout_separates_own_and_partner() {
        let root = tmpdir("layout");
        let cfg = StoreConfig { durable_partner_copies: true, ..Default::default() };
        let svc = CkptStoreService::on_disk(&root, 2, cfg).unwrap();
        commit_sync(&svc, RankId(0), 1, b"mine");
        svc.store_partner_copy(RankId(1), RankId(0), 1, &seal(b"mine")).unwrap();
        assert!(root.join("rank-0").join("own").join("rank-0.epoch-1.ckpt").exists());
        assert!(root.join("rank-1").join("partner").join("rank-0.epoch-1.ckpt").exists());
    }

    // ---- incremental delta path ----

    #[test]
    fn delta_chain_loads_bitwise_identical() {
        let cfg = StoreConfig { chunk_size: 64, full_every: 8, ..Default::default() };
        let svc = CkptStoreService::in_memory(2, cfg);
        let mut bodies = Vec::new();
        for e in 1..=5u64 {
            let body = wave_body(e, (e as usize) % 4, 64, 4);
            let stats = commit_wave(&svc, RankId(0), RankId(1), e, &body);
            assert_eq!(stats.full, e == 1, "wave {e}");
            bodies.push(body);
        }
        // Every wave in the chain materializes back exactly.
        for (i, want) in bodies.iter().enumerate() {
            let (got, outcome) = svc.load(RankId(0), i as u64 + 1).unwrap().unwrap();
            assert_eq!(&got, want, "epoch {}", i + 1);
            assert_eq!(outcome, LoadOutcome::Local);
        }
    }

    #[test]
    fn deltas_shrink_physical_bytes() {
        let cfg = StoreConfig { chunk_size: 64, full_every: 64, ..Default::default() };
        let svc = CkptStoreService::in_memory(2, cfg);
        // 32 chunks, 1 dirty per wave: physical must be far below logical.
        let mut logical = 0u64;
        let mut physical = 0u64;
        for e in 1..=8u64 {
            let body = wave_body(e, (e as usize) % 32, 64, 32);
            let stats = commit_wave(&svc, RankId(0), RankId(1), e, &body);
            if e > 1 {
                logical += stats.logical;
                physical += stats.physical;
            }
        }
        assert!(
            physical * 4 <= logical,
            "expected >= 4x reduction, got {logical} logical vs {physical} physical"
        );
    }

    #[test]
    fn chain_link_deleted_locally_is_repaired_from_partner() {
        let cfg = StoreConfig { chunk_size: 64, full_every: 8, ..Default::default() };
        let svc = CkptStoreService::in_memory(3, cfg);
        let mut last = Vec::new();
        for e in 1..=4u64 {
            // Chunk 0 is the only dirty chunk, so chunks 1..3 always
            // reference the epoch-1 full blob.
            last = wave_body(e, 0, 64, 4);
            commit_wave(&svc, RankId(0), RankId(1), e, &last);
        }
        // Destroy the local copy of the *base* link (epoch 1, the full
        // blob): loading epoch 4 must repair the chain from the partner.
        assert!(svc.stores(RankId(0)).unwrap().local.remove(RankId(0), 1).unwrap());
        let (body, outcome) = svc.load(RankId(0), 4).unwrap().unwrap();
        assert_eq!(body, last);
        assert_eq!(outcome, LoadOutcome::Repaired { from: RankId(1) });
        // The heal re-persisted the link: next load is fully local.
        let (_, outcome) = svc.load(RankId(0), 4).unwrap().unwrap();
        assert_eq!(outcome, LoadOutcome::Local);
    }

    #[test]
    fn chain_link_corrupted_locally_is_repaired_from_partner() {
        let root = tmpdir("chain-corrupt");
        let cfg = StoreConfig { chunk_size: 64, full_every: 8, ..Default::default() };
        let svc = CkptStoreService::on_disk(&root, 2, cfg).unwrap();
        let mut last = Vec::new();
        for e in 1..=3u64 {
            last = wave_body(e, (e as usize) % 4, 64, 4);
            commit_wave(&svc, RankId(0), RankId(1), e, &last);
        }
        // Corrupt the middle link's file (epoch 2, a delta).
        let path = root.join("rank-0").join("own").join("rank-0.epoch-2.ckpt");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (body, outcome) = svc.load(RankId(0), 3).unwrap().unwrap();
        assert_eq!(body, last);
        assert_eq!(outcome, LoadOutcome::Repaired { from: RankId(1) });
    }

    #[test]
    fn lost_base_everywhere_is_an_error_not_garbage() {
        let cfg = StoreConfig { chunk_size: 64, full_every: 8, ..Default::default() };
        let svc = CkptStoreService::in_memory(2, cfg);
        for e in 1..=3u64 {
            let body = wave_body(e, (e as usize) % 4, 64, 4);
            // No partner copies at all: the chain exists only locally.
            svc.flush_rank(RankId(0)).unwrap();
            let (blob, _) = svc.encode_commit(RankId(0), e, &body).unwrap();
            svc.commit_local(RankId(0), e, blob, None).unwrap();
            svc.flush_rank(RankId(0)).unwrap();
        }
        assert!(svc.stores(RankId(0)).unwrap().local.remove(RankId(0), 1).unwrap());
        let err = svc.load(RankId(0), 3).unwrap_err();
        assert!(err.to_string().contains("lost everywhere"), "{err}");
    }

    #[test]
    fn gc_keeps_bases_referenced_by_live_manifests() {
        let cfg = StoreConfig { chunk_size: 64, full_every: 16, ..Default::default() };
        let svc = CkptStoreService::in_memory(2, cfg);
        let mut last = Vec::new();
        for e in 1..=6u64 {
            // Chunk 0 dirty every wave: chunks 1..3 reference epoch 1
            // forever, middle deltas hold nothing anyone references.
            last = wave_body(e, 0, 64, 4);
            commit_wave(&svc, RankId(0), RankId(1), e, &last);
        }
        // The protocol's retention: keep from epoch-1 = 5. Epoch 1 (the
        // full base) is referenced by the manifests of 5 and 6 → kept;
        // epochs 2..4 are unreferenced deltas → dropped.
        let removed = svc.gc_local(RankId(0), 5).unwrap();
        assert_eq!(removed, 3, "unreferenced middle links are dropped");
        let left = svc.stores(RankId(0)).unwrap().local.epochs_of(RankId(0)).unwrap();
        assert_eq!(left, vec![1, 5, 6], "referenced base survives GC");
        // And the chain still materializes bitwise after GC.
        let (body, _) = svc.load(RankId(0), 6).unwrap().unwrap();
        assert_eq!(body, last);
    }

    #[test]
    fn partner_prune_keeps_referenced_bases() {
        let cfg = StoreConfig { chunk_size: 64, full_every: 16, ..Default::default() };
        let svc = CkptStoreService::in_memory(2, cfg);
        for e in 1..=6u64 {
            let body = wave_body(e, 0, 64, 4);
            commit_wave(&svc, RankId(0), RankId(1), e, &body);
        }
        let held = svc.stores(RankId(1)).unwrap().partner.epochs_of(RankId(0)).unwrap();
        // keep=2 retains {5, 6} plus the full base both reference.
        assert_eq!(held, vec![1, 5, 6], "referenced base survives partner prune");
        // Wipe rank 0's local store entirely: the partner window alone must
        // rebuild the newest wave.
        for e in svc.stores(RankId(0)).unwrap().local.epochs_of(RankId(0)).unwrap() {
            svc.stores(RankId(0)).unwrap().local.remove(RankId(0), e).unwrap();
        }
        let (body, outcome) = svc.load(RankId(0), 6).unwrap().unwrap();
        assert_eq!(body, wave_body(6, 0, 64, 4));
        assert_eq!(outcome, LoadOutcome::Repaired { from: RankId(1) });
    }

    #[test]
    fn load_resets_the_chain() {
        let cfg = StoreConfig { chunk_size: 64, full_every: 8, ..Default::default() };
        let svc = CkptStoreService::in_memory(2, cfg);
        for e in 1..=3u64 {
            let body = wave_body(e, (e as usize) % 4, 64, 4);
            commit_wave(&svc, RankId(0), RankId(1), e, &body);
        }
        svc.load(RankId(0), 3).unwrap().unwrap();
        // A re-committed wave after a restore starts a fresh chain: full.
        let body = wave_body(4, 0, 64, 4);
        let stats = commit_wave(&svc, RankId(0), RankId(1), 4, &body);
        assert!(stats.full, "first wave after a restore must be full");
    }

    #[test]
    fn full_every_one_disables_deltas() {
        let cfg = StoreConfig { chunk_size: 64, full_every: 1, ..Default::default() };
        let svc = CkptStoreService::in_memory(2, cfg);
        for e in 1..=4u64 {
            let body = wave_body(e, 0, 64, 4);
            let stats = commit_wave(&svc, RankId(0), RankId(1), e, &body);
            assert!(stats.full, "wave {e} must be full with full_every=1");
        }
    }

    // ---- content-defined chunking + content-addressed store ----

    fn cdc_cfg() -> StoreConfig {
        StoreConfig {
            cdc: true,
            cdc_params: CdcParams { min: 64, avg: 256, max: 1024 },
            ..Default::default()
        }
    }

    /// A wave body with enough structure to chunk well: a large stable
    /// region (dedups across epochs/ranks) plus a per-epoch noisy region.
    fn cdc_body(stable_seed: u64, epoch: u64, stable_len: usize, churn_len: usize) -> Vec<u8> {
        let mut state = stable_seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 27)) as u8
        };
        let mut b: Vec<u8> = (0..stable_len).map(|_| next()).collect();
        let mut cstate = stable_seed ^ epoch.wrapping_mul(0x0100_0000_01b3);
        b.extend((0..churn_len).map(|_| {
            cstate = cstate.wrapping_add(0x9e37_79b9_7f4a_7c15);
            (cstate >> 17) as u8
        }));
        b
    }

    #[test]
    fn cdc_waves_load_bitwise_identical() {
        let svc = CkptStoreService::in_memory(2, cdc_cfg());
        let mut bodies = Vec::new();
        for e in 1..=5u64 {
            let body = cdc_body(11, e, 8 * 1024, 512);
            let stats = commit_wave(&svc, RankId(0), RankId(1), e, &body);
            assert!(!stats.full);
            if e > 1 {
                assert!(
                    stats.cas_hit_chunks_same_owner > 0,
                    "wave {e}: stable region must dedup cross-epoch"
                );
                assert!(stats.physical < stats.logical, "wave {e}: dedup must shrink the blob");
            }
            bodies.push(body);
        }
        for (i, want) in bodies.iter().enumerate() {
            let (got, _) = svc.load(RankId(0), i as u64 + 1).unwrap().unwrap();
            assert_eq!(&got, want, "epoch {}", i + 1);
        }
    }

    /// The ISSUE's differential restore oracle: the same wave sequence
    /// committed through the CDC service and the fixed-grid service must
    /// materialize bitwise-equal bodies at every epoch.
    #[test]
    fn cdc_vs_fixed_grid_differential_restore_oracle() {
        let cdc = CkptStoreService::in_memory(2, cdc_cfg());
        let fixed =
            CkptStoreService::in_memory(2, StoreConfig { chunk_size: 256, ..Default::default() });
        let waves: Vec<Vec<u8>> =
            (1..=6u64).map(|e| cdc_body(23, e, 4 * 1024, 700 + 13 * e as usize)).collect();
        for (i, body) in waves.iter().enumerate() {
            let e = i as u64 + 1;
            commit_wave(&cdc, RankId(0), RankId(1), e, body);
            commit_wave(&fixed, RankId(0), RankId(1), e, body);
        }
        for (i, want) in waves.iter().enumerate() {
            let e = i as u64 + 1;
            let (v4, _) = cdc.load(RankId(0), e).unwrap().unwrap();
            let (v3, _) = fixed.load(RankId(0), e).unwrap().unwrap();
            assert_eq!(v4, v3, "epoch {e}: V4 and V3 materializations diverge");
            assert_eq!(&v4, want, "epoch {e}: materialization diverges from the source body");
        }
    }

    #[test]
    fn cdc_dedups_across_ranks() {
        let svc = CkptStoreService::in_memory(4, cdc_cfg());
        // Four ranks checkpoint near-identical state (SPMD read-only data):
        // rank 0 pays for the shared bytes once, the rest hit cross-rank.
        for r in 0..4u32 {
            let mut body = cdc_body(31, 1, 8 * 1024, 0);
            body.extend_from_slice(&r.to_le_bytes()); // tiny per-rank tail
            let stats = commit_wave(&svc, RankId(r), RankId((r + 1) % 4), 1, &body);
            if r == 0 {
                assert_eq!(stats.cas_hit_chunks_cross_rank, 0);
            } else {
                assert!(
                    stats.cas_hit_chunks_cross_rank > 0,
                    "rank {r} must dedup against rank 0's chunks"
                );
                assert!(stats.physical * 4 < stats.logical, "rank {r} blob should be tiny");
            }
        }
        // Unique bytes stored ≈ one copy of the shared region, not four.
        assert!(svc.cas().unique_bytes() < 2 * 8 * 1024 + 1024);
    }

    #[test]
    fn cdc_gc_frees_chunks_only_when_unreferenced() {
        let svc = CkptStoreService::in_memory(2, cdc_cfg());
        let mut last = Vec::new();
        for e in 1..=4u64 {
            last = cdc_body(47, e, 4 * 1024, 256);
            commit_wave(&svc, RankId(0), RankId(1), e, &last);
        }
        let before = svc.cas().unique_bytes();
        // GC to keep epochs >= 3: per-epoch churn chunks of 1..2 are freed,
        // the shared stable chunks survive via epochs 3/4 (and the partner
        // registrations).
        svc.gc_local(RankId(0), 3).unwrap();
        let after = svc.cas().unique_bytes();
        assert!(after <= before);
        let (body, _) = svc.load(RankId(0), 4).unwrap().unwrap();
        assert_eq!(body, last, "GC must never break a retained epoch");
        // Dropping every registration empties the store (no leaks).
        svc.cas().unregister_below(svc.job(), 0, 0, u64::MAX);
        svc.cas().unregister_below(svc.job(), 1, 0, u64::MAX);
        assert_eq!(svc.cas().unique_chunks(), 0, "refcount leak");
    }

    #[test]
    fn cdc_partner_adopts_hash_only_manifest() {
        let svc = CkptStoreService::in_memory(2, cdc_cfg());
        let body = cdc_body(59, 1, 4 * 1024, 128);
        svc.flush_rank(RankId(0)).unwrap();
        let (blob, _) = svc.encode_commit(RankId(0), 1, &body).unwrap();
        svc.commit_local(RankId(0), 1, blob.clone(), None).unwrap();
        svc.flush_rank(RankId(0)).unwrap();
        // The shared store holds every chunk: the partner misses nothing,
        // and a manifest-only copy (no payloads) is enough to replicate.
        assert!(svc.missing_chunks(&blob).unwrap().is_empty());
        let manifest_only = chunk::manifest_only_v4(&blob).unwrap();
        assert!(manifest_only.len() < blob.len());
        svc.store_partner_copy(RankId(1), RankId(0), 1, &manifest_only).unwrap();
        // Wipe rank 0's local store: the manifest-only partner copy plus
        // the shared store must still rebuild the wave.
        assert!(svc.stores(RankId(0)).unwrap().local.remove(RankId(0), 1).unwrap());
        let (got, outcome) = svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!(got, body);
        assert_eq!(outcome, LoadOutcome::Repaired { from: RankId(1) });
    }

    #[test]
    fn cdc_chunk_req_subset_flow() {
        // Two *separate* services emulate a partner whose store is missing
        // chunks: the owner answers the missing set with a subset blob.
        let owner_svc = CkptStoreService::in_memory(2, cdc_cfg());
        let partner_svc = CkptStoreService::in_memory(2, cdc_cfg());
        let body = cdc_body(67, 1, 4 * 1024, 128);
        let (blob, _) = owner_svc.encode_commit(RankId(0), 1, &body).unwrap();
        let manifest_only = chunk::manifest_only_v4(&blob).unwrap();
        // Partner-side: every chunk is missing; a manifest-only copy is
        // rejected (its chunks are nowhere).
        let missing = partner_svc.missing_chunks(&manifest_only).unwrap();
        assert_eq!(missing.len(), CasView::parse(&blob).unwrap().n_chunks());
        assert!(partner_svc.store_partner_copy(RankId(1), RankId(0), 1, &manifest_only).is_err());
        // Owner serves the subset; the partner adopts and can materialize.
        let subset = owner_svc.subset_blob(&blob, &missing).unwrap();
        partner_svc.store_partner_copy(RankId(1), RankId(0), 1, &subset).unwrap();
        let (got, _) = partner_svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!(got, body);
    }

    /// Every byte of a V4 blob is covered — header, manifest and inline
    /// index by the frame CRC, payloads by their addresses — so a single
    /// flip anywhere is rejected loudly by `verify`, by materialization and
    /// by a partner adopting the copy, and a rejected partner copy leaves
    /// neither a stored blob nor store references behind.
    #[test]
    fn v4_every_byte_flip_is_rejected_by_every_reader() {
        let svc = CkptStoreService::in_memory(2, cdc_cfg());
        commit_wave(&svc, RankId(0), RankId(1), 1, &cdc_body(83, 1, 4 * 1024, 512));
        let body = cdc_body(83, 2, 4 * 1024, 512);
        let (blob, stats) = svc.encode_commit(RankId(0), 2, &body).unwrap();
        assert!(stats.inline_chunks > 0 && stats.inline_chunks < stats.chunks, "{stats:?}");
        let resident = (svc.cas().unique_chunks(), svc.cas().unique_bytes());
        let lookup = |h: &ChunkHash| svc.cas().get(h);
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x10;
            assert!(chunk::verify(&bad).is_err(), "verify accepted a flip at {i}");
            let restored = CasView::parse(&bad).and_then(|v| v.materialize(&mut { lookup }));
            assert!(restored.is_err(), "materialize accepted a flip at {i}");
            let adopted = svc.store_partner_copy(RankId(1), RankId(0), 2, &bad);
            assert!(adopted.is_err(), "partner adopted a flip at {i}");
        }
        let partner = &svc.stores(RankId(1)).unwrap().partner;
        assert_eq!(partner.get(RankId(0), 2).unwrap(), None);
        assert_eq!((svc.cas().unique_chunks(), svc.cas().unique_bytes()), resident);
        // The intact blob passes every reader.
        chunk::verify(&blob).unwrap();
        assert_eq!(CasView::parse(&blob).unwrap().materialize(&mut { lookup }).unwrap(), body);
        svc.store_partner_copy(RankId(1), RankId(0), 2, &blob).unwrap();
    }

    #[test]
    fn cdc_rollback_recommit_replaces_registration() {
        let svc = CkptStoreService::in_memory(2, cdc_cfg());
        for e in 1..=3u64 {
            commit_wave(&svc, RankId(0), RankId(1), e, &cdc_body(71, e, 2 * 1024, 256));
        }
        svc.load(RankId(0), 2).unwrap().unwrap();
        // Divergent re-commit of epoch 3 after rolling back to 2.
        let redo = cdc_body(71, 300, 2 * 1024, 256);
        commit_wave(&svc, RankId(0), RankId(1), 3, &redo);
        let (got, _) = svc.load(RankId(0), 3).unwrap().unwrap();
        assert_eq!(got, redo, "re-committed epoch must materialize the new body");
    }

    #[test]
    fn cdc_empty_body_commits_and_loads() {
        let svc = CkptStoreService::in_memory(1, cdc_cfg());
        svc.flush_rank(RankId(0)).unwrap();
        let (blob, stats) = svc.encode_commit(RankId(0), 1, &[]).unwrap();
        assert_eq!(stats.logical, 0);
        assert_eq!(stats.chunks, 0);
        svc.commit_local(RankId(0), 1, blob, None).unwrap();
        svc.flush_rank(RankId(0)).unwrap();
        let (body, _) = svc.load(RankId(0), 1).unwrap().unwrap();
        assert!(body.is_empty());
    }

    // ---- erasure-coded redundancy sets ----

    fn ec_cfg(scheme: EcScheme, clusters: &[Vec<u32>], g: usize) -> StoreConfig {
        StoreConfig {
            ec: scheme,
            sets: Some(Arc::new(SetMap::from_clusters(clusters, g))),
            ..Default::default()
        }
    }

    /// Commit a full wave for every rank of one 4-rank set and run the
    /// parity staging protocol; returns each rank's body.
    fn ec_wave(svc: &CkptStoreService, epoch: u64, seed: u8) -> Vec<Vec<u8>> {
        let mut bodies = Vec::new();
        let mut encoded = 0;
        for r in 0..4u32 {
            let body: Vec<u8> =
                (0..200 + 40 * r as usize).map(|i| seed ^ (r as u8) ^ (i as u8)).collect();
            let blob = seal(&body);
            svc.commit_local(RankId(r), epoch, blob.clone(), None).unwrap();
            svc.flush_rank(RankId(r)).unwrap();
            if let Some(job) = svc.stage_for_parity(RankId(r), epoch, &blob).unwrap() {
                encoded += 1;
                // Push each shard to a "partner" in the other cluster,
                // like the protocol does.
                for (j, owner, sealed) in &job.shards {
                    let holder = RankId(4 + (j % 4));
                    svc.store_partner_copy(holder, *owner, epoch, sealed).unwrap();
                }
            }
            bodies.push(body);
        }
        assert_eq!(encoded, 1, "exactly one member completes the set");
        bodies
    }

    #[test]
    fn xor_rebuilds_single_wiped_member_bitwise() {
        let clusters = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let svc = CkptStoreService::in_memory(8, ec_cfg(EcScheme::Xor, &clusters, 4));
        let bodies = ec_wave(&svc, 1, 0x5a);
        svc.wipe_local(RankId(2)).unwrap();
        assert!(svc.stores(RankId(2)).unwrap().local.epochs_of(RankId(2)).unwrap().is_empty());
        // The epoch is still reported available (rebuildable).
        assert_eq!(svc.available_epochs(RankId(2)).unwrap(), vec![1]);
        let (body, outcome) = svc.load(RankId(2), 1).unwrap().unwrap();
        assert_eq!(body, bodies[2], "rebuild must be bitwise exact");
        assert_eq!(outcome, LoadOutcome::Rebuilt { set_id: 0 });
        // Healed: the next load is local.
        let (_, outcome) = svc.load(RankId(2), 1).unwrap().unwrap();
        assert_eq!(outcome, LoadOutcome::Local);
    }

    #[test]
    fn rs2_survives_double_loss_including_the_encoder() {
        let clusters = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let svc = CkptStoreService::in_memory(8, ec_cfg(EcScheme::Rs(2), &clusters, 4));
        let bodies = ec_wave(&svc, 1, 0x33);
        // Rank 3 staged last (stage order is 0..3), so it encoded the
        // parity; wiping it loses one local parity copy too — the partner
        // copies must carry the rebuild.
        svc.wipe_local(RankId(3)).unwrap();
        svc.wipe_local(RankId(1)).unwrap();
        let (b1, o1) = svc.load(RankId(1), 1).unwrap().unwrap();
        assert_eq!(b1, bodies[1]);
        assert_eq!(o1, LoadOutcome::Rebuilt { set_id: 0 });
        let (b3, o3) = svc.load(RankId(3), 1).unwrap().unwrap();
        assert_eq!(b3, bodies[3]);
        // Rank 1's rebuild healed rank 1 only; rank 3 still rebuilds.
        assert_eq!(o3, LoadOutcome::Rebuilt { set_id: 0 });
    }

    #[test]
    fn losses_beyond_budget_fail_loudly_with_distinct_error() {
        let clusters = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let svc = CkptStoreService::in_memory(8, ec_cfg(EcScheme::Rs(2), &clusters, 4));
        ec_wave(&svc, 1, 0x77);
        for r in [0u32, 1, 2] {
            svc.wipe_local(RankId(r)).unwrap(); // m + 1 = 3 losses
        }
        let err = svc.load(RankId(0), 1).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("erasure budget exceeded"), "{msg}");
        assert!(msg.contains("set 0"), "{msg}");
        assert!(msg.contains("m=2"), "{msg}");
        // And the epoch is no longer advertised as available.
        assert!(svc.available_epochs(RankId(0)).unwrap().is_empty());
        assert_eq!(svc.common_epoch(&[RankId(0), RankId(1)]).unwrap(), 0);
    }

    #[test]
    fn partner_copies_count_toward_the_set_census() {
        let clusters = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let svc = CkptStoreService::in_memory(8, ec_cfg(EcScheme::Xor, &clusters, 4));
        let bodies = ec_wave(&svc, 1, 0x21);
        // A legacy full partner copy of rank 0 exists (mixed deployment).
        let blob0 = seal(&bodies[0]);
        svc.store_partner_copy(RankId(5), RankId(0), 1, &blob0).unwrap();
        for r in [0u32, 1] {
            svc.wipe_local(RankId(r)).unwrap(); // 2 local losses, m = 1
        }
        // Rank 0's own surviving partner copy makes it a repair, not a
        // rebuild — the set's parity budget is preserved for rank 1.
        let (body, outcome) = svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!(body, bodies[0]);
        assert_eq!(outcome, LoadOutcome::Repaired { from: RankId(5) });
        // Rank 1 rebuilds: the census sees rank 0 via its partner copy, so
        // only one member is actually missing — within the xor budget.
        let (body, outcome) = svc.load(RankId(1), 1).unwrap().unwrap();
        assert_eq!(body, bodies[1]);
        assert_eq!(outcome, LoadOutcome::Rebuilt { set_id: 0 });
    }

    #[test]
    fn parity_gc_follows_the_keep_window() {
        let clusters = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let svc = CkptStoreService::in_memory(8, ec_cfg(EcScheme::Xor, &clusters, 4));
        for e in 1..=4 {
            ec_wave(&svc, e, e as u8);
        }
        // Rank 3 encoded every wave; its local holds parity epochs 1..=4.
        let powner = parity_owner(0, 0);
        let local3 = &svc.stores(RankId(3)).unwrap().local;
        assert_eq!(local3.epochs_of(powner).unwrap(), vec![1, 2, 3, 4]);
        svc.gc_local(RankId(3), 3).unwrap();
        assert_eq!(local3.epochs_of(powner).unwrap(), vec![3, 4]);
        // Wipe a member: the retained window still rebuilds.
        svc.wipe_local(RankId(0)).unwrap();
        let (_, outcome) = svc.load(RankId(0), 4).unwrap().unwrap();
        assert_eq!(outcome, LoadOutcome::Rebuilt { set_id: 0 });
    }

    #[test]
    fn stale_staging_entries_are_dropped() {
        let clusters = vec![vec![0, 1]];
        let svc = CkptStoreService::in_memory(2, ec_cfg(EcScheme::Xor, &clusters, 2));
        // Rank 0 stages epoch 1, but the wave rolls back before rank 1
        // arrives; both then stage epoch 2.
        assert!(svc.stage_for_parity(RankId(0), 1, &seal(b"old")).unwrap().is_none());
        assert!(svc.stage_for_parity(RankId(0), 2, &seal(b"a")).unwrap().is_none());
        let job = svc.stage_for_parity(RankId(1), 2, &seal(b"bb")).unwrap().unwrap();
        assert_eq!(job.shards.len(), 1);
        let v = ParityView::parse(&job.shards[0].2).unwrap();
        assert_eq!(v.epoch, 2);
        assert_eq!(v.members.len(), 2);
    }

    // ---- tiered storage through the service ----

    #[test]
    fn tiered_on_disk_drains_and_restores_across_levels() {
        let root = tmpdir("tiers");
        let cfg = StoreConfig {
            tier_policy: "mem:1,local:2,global:all".to_string(),
            ..Default::default()
        };
        let svc = CkptStoreService::on_disk(&root, 2, cfg).unwrap();
        for e in 1..=5u64 {
            commit_sync(&svc, RankId(0), e, format!("wave-{e}").as_bytes());
        }
        // Old epochs drained all the way to the shared global directory.
        let global = root.join("shared").join("global");
        assert!(global.join("rank-0.epoch-1.ckpt").exists());
        assert!(global.join("rank-0.epoch-2.ckpt").exists());
        // The newest stayed out of the local directory (it is in memory).
        assert!(!root.join("rank-0").join("own").join("rank-0.epoch-5.ckpt").exists());
        // Every epoch still loads, from whichever tier holds it.
        for e in 1..=5u64 {
            let (body, _) = svc.load(RankId(0), e).unwrap().unwrap();
            assert_eq!(body, format!("wave-{e}").into_bytes());
        }
    }

    #[test]
    fn wipe_spares_the_global_tier() {
        let root = tmpdir("wipe-global");
        let cfg = StoreConfig { tier_policy: "mem:1,global:all".to_string(), ..Default::default() };
        let svc = CkptStoreService::on_disk(&root, 2, cfg).unwrap();
        commit_sync(&svc, RankId(0), 1, b"one");
        commit_sync(&svc, RankId(0), 2, b"two");
        svc.wipe_local(RankId(0)).unwrap();
        // Epoch 1 drained to the global store before the wipe: survives.
        let (body, _) = svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!(body, b"one");
        // Epoch 2 was only in the wiped memory level: gone.
        assert!(svc.load(RankId(0), 2).unwrap().is_none());
    }

    #[test]
    fn unknown_tier_level_is_rejected() {
        let cfg = StoreConfig { tier_policy: "mem:1,tape:all".to_string(), ..Default::default() };
        let err = match CkptStoreService::on_disk(tmpdir("badtier"), 1, cfg) {
            Err(e) => e,
            Ok(_) => panic!("unknown tier level accepted"),
        };
        assert!(format!("{err}").contains("unknown tier level"), "{err}");
    }
}
