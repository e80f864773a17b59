//! The checkpoint storage service: per-rank local stores, partner-held
//! replica stores, asynchronous local commits, content-addressed dedup,
//! repair-on-load, and windowed GC.
//!
//! One `CkptStoreService` serves a whole world (all ranks of one run). Each
//! rank owns two backends:
//!
//! * its **local** store — the authoritative copy of its own checkpoints:
//!   memory for in-process experiments, put on the committing rank's
//!   thread; or a `rank-<r>/own` directory when a storage root is
//!   configured, written by the service's one [`AsyncWriter`] thread;
//! * its **partner** store — copies of *other* ranks' checkpoints pushed to
//!   it over the control plane at commit time. Partner copies are held in
//!   memory by default (ReStore's insight: partner RAM beats the PFS by
//!   orders of magnitude for repair) and are written synchronously — the
//!   pushing rank's commit barrier already waits for the ACK, and a memory
//!   put is cheap.
//!
//! [`CkptStoreService::encode_commit`] seals each wave's serialized body in
//! one of two forms. In CDC mode the body is cut into content-defined
//! chunks deduplicated in the service's [`CasStore`] and sealed as
//! an `SPBCCKP4` manifest (see [`crate::chunk`]); the cut reuses the rank's
//! previous one wherever the bytes did not change
//! ([`crate::cdc::chunk_reusing`]). Otherwise it is one `SPBCCKP2` full
//! blob. Everything downstream — the local write, the partner pushes,
//! repair — moves the sealed blob or frames derived from it, so a small
//! dirty fraction shrinks disk and replication traffic alike. The service
//! alone decides what a replica is ([`CkptStoreService::replicas`]): the
//! blob itself, its chunk-hash manifest, or the redundancy set's parity
//! frames.
//!
//! A CDC chunk body lives once in the process, in the [`CasStore`]. A
//! rank's in-memory local store keeps each wave as its manifest, pinned by
//! the rank's own registration; a disk store keeps the **self-contained**
//! form — the manifest plus, inline, every chunk that wave brought into the
//! store. The self-contained form is built only where bytes leave the
//! process: at encode for a disk store, from the chunk store for parity
//! (staging and the rebuild census) and for a partner's chunk request
//! ([`CkptStoreService::subset_blob`]).
//!
//! Load is where replication pays off: a blob that is missing or corrupt
//! locally is transparently repaired from any surviving partner copy (or
//! rebuilt from its redundancy set) and re-persisted, then unsealed or
//! resolved against the chunk store. No blob references another epoch, so
//! GC drops whole waves: local copies below a resumed wave
//! ([`CkptStoreService::gc_local`]), a holder's partner copies below the
//! owner's last resumed wave ([`CkptStoreService::release_partner_copies`]),
//! and partner copies beyond the `partner_keep` window on every push. The
//! chunk store's refcounts keep every chunk a retained manifest names.

use crate::backend::{CheckpointBackend, DirBackend, MemBackend};
use crate::blob::{seal, unseal};
use crate::cas::{CasStore, ChunkFate, ChunkHash, Refused};
use crate::cdc::{chunk_reusing, CdcParams, Cuts};
use crate::chunk::{self, seal_v4, CasView, EncodeStats, V4Chunk, DEFAULT_CHUNK_SIZE};
use crate::ec::{self, EcScheme, ParityView};
use crate::set::{parity_owner, SetMap};
use crate::writer::{AsyncWriter, OnDone};
use mini_mpi::error::{MpiError, Result};
use mini_mpi::types::RankId;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

/// How the service stores and writes checkpoints.
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Inert: the local store decides — a disk store is written by the
    /// background writer, an in-memory one on the caller's thread. Kept
    /// only until `spbc-perf`'s full struct literal drops it.
    pub async_writes: bool,
    /// Keep partner copies on disk next to the local store instead of in
    /// memory. Only meaningful with a storage root; costs an fsync on the
    /// partner's ctrl path.
    pub durable_partner_copies: bool,
    /// How many waves of partner copies to retain per owner (newest
    /// first), parity frames included, pruned on every push. The protocol
    /// frees an owner's older copies sooner, once the owner's wave resumes
    /// ([`CkptStoreService::release_partner_copies`]); this window bounds
    /// what a holder keeps when that release never reaches it, and is the
    /// only bound on parity frames.
    pub partner_keep: usize,
    /// Inert: no store path chunks on a fixed grid. Kept only until
    /// `spbc-perf`'s full struct literal drops it.
    pub chunk_size: usize,
    /// Inert: every non-CDC wave is a full blob. Kept only until
    /// `spbc-perf`'s full struct literal drops it.
    pub full_every: u64,
    /// Encode commits as `SPBCCKP4` content-addressed blobs (FastCDC
    /// chunking + the service-wide refcounted store) instead of one sealed
    /// `SPBCCKP2` full blob per wave (`SPBC_CKPT_CDC`; the protocol layer
    /// defaults this on, the bare service defaults it off).
    pub cdc: bool,
    /// FastCDC chunk bounds (`SpbcConfig::cdc_*`, default [`CdcParams::default`]).
    pub cdc_params: CdcParams,
    /// Erasure-coding scheme over redundancy sets (`SPBC_EC_SCHEME`;
    /// default off = full partner copies only).
    pub ec: EcScheme,
    /// The world's redundancy sets (required when `ec` is on; built by the
    /// protocol layer from the cluster map and `SPBC_EC_GROUP`).
    pub sets: Option<Arc<SetMap>>,
    /// Inert: a storage-rooted service writes each rank's local copies
    /// straight to its `rank-<r>/own` directory. Kept only until
    /// `spbc-perf`'s full struct literal drops it.
    pub tier_policy: String,
    /// Inert: the chunk store is one map behind one lock. Kept only until
    /// `spbc-perf`'s full struct literal drops it.
    pub shards: usize,
    /// Inert: each rank has at most one write outstanding, so the writer's
    /// queue needs no bound of its own. Kept only until `spbc-perf`'s full
    /// struct literal drops it.
    pub write_queue: usize,
    /// Inert: every write is its own put, with its own barriers. Kept only
    /// until `spbc-perf`'s full struct literal drops it.
    pub batch_bytes: usize,
    /// Inert, as `batch_bytes`. Kept only until `spbc-perf`'s full struct
    /// literal drops it.
    pub batch_linger_us: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            async_writes: true,
            durable_partner_copies: false,
            partner_keep: 2,
            chunk_size: DEFAULT_CHUNK_SIZE,
            full_every: 1,
            cdc: false,
            cdc_params: CdcParams::default(),
            ec: EcScheme::Off,
            sets: None,
            tier_policy: String::new(),
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
    /// The blob was present locally and passed its checksum.
    Local,
    /// The blob was missing or corrupt locally; it came from this partner
    /// rank's replica store and was re-persisted locally.
    Repaired {
        /// The partner rank whose copy survived.
        from: RankId,
    },
    /// The blob was reconstructed from its redundancy set's surviving
    /// members plus parity shards (see [`crate::ec`]) and re-persisted
    /// locally.
    Rebuilt {
        /// The redundancy set whose parity closed the hole.
        set_id: u32,
    },
}

/// One replica push: `frame` travels to `partner`, which stores it under
/// `owner`. The frame is opaque to the protocol: a sealed full blob, a
/// manifest-only `SPBCCKP4` blob, or an `SPBCPAR1` parity frame.
#[derive(Clone, Debug)]
pub struct Replica {
    /// The partner rank that stores the frame.
    pub partner: RankId,
    /// The key the frame is stored under: the committing rank, or a
    /// synthetic parity owner ([`crate::set::parity_owner`]).
    pub owner: RankId,
    /// The bytes that travel.
    pub frame: Arc<Vec<u8>>,
    /// Serialized body bytes the push stands for (0 for parity frames) —
    /// the logical side of the replication accounting.
    pub logical: u64,
}

/// What one committed wave owes its partners, as decided by
/// [`CkptStoreService::replicas`].
#[derive(Clone, Debug, Default)]
pub struct Replication {
    /// Every frame to push; empty when the wave needs no partner copy.
    pub pushes: Vec<Replica>,
    /// `(encode_us, bytes)` when this rank encoded its set's parity.
    pub parity: Option<(u64, u64)>,
}

/// The sealed parity frames one wave's set encoding produced, returned to
/// the member that completed the set (the "encoder").
struct ParityShards {
    /// `(shard index, synthetic owner rank, sealed SPBCPAR1 frame)`.
    shards: Vec<(u32, RankId, Vec<u8>)>,
    /// Microseconds spent in [`crate::ec::encode`].
    encode_us: u64,
}

/// Timing breakdown of a [`CkptStoreService::load_with_stats`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Microseconds fetching (and, when needed, partner-repairing) the
    /// sealed blob.
    pub fetch_us: u64,
    /// Microseconds materializing the body: resolving a manifest against
    /// the chunk store, or unsealing a full blob.
    pub materialize_us: u64,
}

struct RankStores {
    local: Arc<dyn CheckpointBackend>,
    partner: Arc<dyn CheckpointBackend>,
    /// The rank's last committed CDC cut: the hint the next wave's
    /// [`chunk_reusing`] walk reuses clean chunks from.
    cuts: Mutex<Cuts>,
}

impl RankStores {
    fn new(local: Arc<dyn CheckpointBackend>, partner: Arc<dyn CheckpointBackend>) -> Self {
        RankStores { local, partner, cuts: Mutex::new(Cuts::default()) }
    }
}

/// What a partner made of a pushed replica frame
/// ([`CkptStoreService::store_partner_copy`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Adoption {
    /// The frame was verified and stored; `pruned` older copies of the same
    /// owner were dropped.
    Stored {
        /// Copies dropped by the `partner_keep` window.
        pruned: usize,
    },
    /// A manifest names chunk bodies that neither ride inline nor are held
    /// by the store: these indices. Nothing was stored or referenced.
    Missing(Vec<u32>),
}

/// Parity staging area shape: `(epoch, set_id) -> member rank -> sealed
/// blob`.
type ParityStage = HashMap<(u64, u32), HashMap<u32, Vec<u8>>>;

/// One slot per set member (or per parity shard): the surviving sealed
/// bytes, or `None` where the copy is lost.
type CensusSlots = Vec<Option<Vec<u8>>>;

/// The checkpoint storage service for one run. Cheap to share (`Arc`);
/// outlives rank threads, so partner copies survive in-process cluster
/// restarts the way surviving nodes' memory survives a peer's crash.
pub struct CkptStoreService {
    /// Content-addressed chunk store (CDC mode).
    cas: CasStore,
    /// The writer of the local stores that write to disk; `None` when
    /// every local store keeps its waves in memory.
    writer: Option<AsyncWriter>,
    ranks: Vec<RankStores>,
    /// Parity staging area: `(epoch, set_id) -> rank -> sealed blob`. Set
    /// members deposit their sealed blobs here at replicate time; the last
    /// member to arrive computes the set's parity (see
    /// [`stage_for_parity`](Self::stage_for_parity)).
    parity_stage: Mutex<ParityStage>,
    cfg: StoreConfig,
}

impl CkptStoreService {
    /// Build the service over per-rank stores. Only stores whose bytes
    /// leave the process get a writer thread.
    fn with_stores(ranks: Vec<RankStores>, cfg: StoreConfig) -> Self {
        let writer = ranks.iter().any(|r| r.local.self_contained()).then(AsyncWriter::new);
        CkptStoreService {
            cas: CasStore::new(),
            writer,
            ranks,
            parity_stage: Mutex::new(HashMap::new()),
            cfg,
        }
    }

    /// All stores in memory — the default for in-process experiments.
    pub fn in_memory(world: usize, cfg: StoreConfig) -> Self {
        let ranks = (0..world)
            .map(|_| RankStores::new(Arc::new(MemBackend::new()), Arc::new(MemBackend::new())))
            .collect();
        Self::with_stores(ranks, cfg)
    }

    /// Local storage on disk under `root`: rank `r`'s own checkpoints go
    /// straight to the `rank-<r>/own` directory. Partner stores stay in
    /// memory unless `cfg.durable_partner_copies` (`rank-<r>/partner`).
    pub fn on_disk(root: impl AsRef<Path>, world: usize, cfg: StoreConfig) -> Result<Self> {
        let root = root.as_ref();
        let mut ranks = Vec::with_capacity(world);
        for r in 0..world {
            let dir = root.join(format!("rank-{r}"));
            let partner: Arc<dyn CheckpointBackend> = if cfg.durable_partner_copies {
                Arc::new(DirBackend::open(dir.join("partner"))?)
            } else {
                Arc::new(MemBackend::new())
            };
            ranks.push(RankStores::new(Arc::new(DirBackend::open(dir.join("own"))?), partner));
        }
        Ok(Self::with_stores(ranks, cfg))
    }

    /// World size this service was built for.
    pub fn world(&self) -> usize {
        self.ranks.len()
    }

    /// The active configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
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
    /// `(rank, rank, epoch)` registration, and the wave is sealed as an
    /// `SPBCCKP4` manifest in the form the rank's local store keeps: the
    /// bare manifest in memory, where the chunk store holds every body;
    /// the self-contained blob on disk, carrying inline the chunks the
    /// store had never seen. Otherwise the body is sealed whole as an
    /// `SPBCCKP2` full blob.
    ///
    /// The returned blob is what [`commit_local`](Self::commit_local) and
    /// [`replicas`](Self::replicas) take; the stats report the dedup ratio
    /// (`logical` body bytes vs `physical` bytes of the self-contained
    /// blob, whichever form was returned).
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
        let framed = seal(body);
        let stats = EncodeStats {
            full: true,
            chunks: 1,
            inline_chunks: 1,
            logical: body.len() as u64,
            physical: framed.len() as u64,
            ..Default::default()
        };
        Ok((framed, stats))
    }

    /// The CDC commit path: chunk, dedup-insert, frame as `SPBCCKP4`.
    ///
    /// The cut reuses the rank's previous cut wherever the store confirms
    /// the bytes are unchanged ([`chunk_reusing`]), so a clean chunk is
    /// neither scanned nor hashed; every other chunk is hashed once, here.
    /// Those addresses are therefore known to match their bytes, and the
    /// insert byte-compares only the hits the reuse walk did not already
    /// compare against the same entry (its stamp).
    fn encode_commit_cdc(
        &self,
        rank: RankId,
        epoch: u64,
        body: &[u8],
    ) -> Result<(Vec<u8>, EncodeStats)> {
        let stores = self.stores(rank)?;
        // `(start, stamp)` of every reused chunk, in body order.
        let mut compared = Vec::new();
        let cuts = chunk_reusing(body, self.cfg.cdc_params, &stores.cuts.lock(), |c, b| {
            let stamp = self.cas().matches_stamped(&c.hash, b);
            compared.extend(stamp.map(|s| (c.start, s)));
            stamp.is_some()
        });
        let mut compared = compared.into_iter().peekable();
        let (manifest, stamps): (Addressed<'_>, Vec<_>) = cuts
            .cuts
            .iter()
            .map(|c| {
                let stamp = compared.next_if(|&(start, _)| start == c.start).map(|(_, s)| s);
                ((c.hash, Some(&body[c.span()])), stamp)
            })
            .unzip();
        // Insert + register atomically: re-commits of the same epoch after
        // a rollback replace the old registration without a refcount dip.
        let cas_stats = self
            .cas()
            .commit_addressed(rank.0, rank.0, epoch, &manifest, &stamps)
            .map_err(|r| MpiError::Codec(r.to_string()))?;
        let mut parts: Vec<V4Chunk<'_>> = cuts
            .cuts
            .iter()
            .zip(&cas_stats.fates)
            .map(|(c, fate)| V4Chunk {
                hash: c.hash,
                len: c.len as u32,
                inline: (*fate == ChunkFate::New).then(|| &body[c.span()]),
            })
            .collect();
        let inline_chunks = parts.iter().filter(|p| p.inline.is_some()).count();
        let physical = chunk::sealed_v4_len(&parts) as u64;
        if !stores.local.self_contained() {
            // The chunk store already holds every body: keep the manifest.
            parts.iter_mut().for_each(|p| p.inline = None);
        }
        let framed = seal_v4(&parts);
        let stats = EncodeStats {
            full: false,
            chunks: parts.len(),
            inline_chunks,
            logical: body.len() as u64,
            physical,
            cas_hit_chunks_same_owner: cas_stats.hits_same_owner as usize,
            cas_hit_chunks_cross_rank: cas_stats.hits_cross_rank as usize,
            cas_hit_bytes: cas_stats.hit_bytes,
            cas_new_bytes: cas_stats.new_bytes,
        };
        *stores.cuts.lock() = cuts;
        Ok((framed, stats))
    }

    /// The service-wide content-addressed store (CDC mode).
    pub fn cas(&self) -> &CasStore {
        &self.cas
    }

    /// Indices of a V4 blob's chunks that are neither carried inline nor
    /// held by the service-wide store — what a replication partner asks the
    /// owner for (`CKPT_CHUNK_REQ`). Empty for any other frame: full blobs
    /// and parity frames are self-contained.
    pub fn missing_chunks(&self, sealed: &[u8]) -> Result<Vec<u32>> {
        if !chunk::is_cas(sealed) {
            return Ok(Vec::new());
        }
        let view = CasView::parse(sealed)?;
        let mut missing = self.cas().missing(&view.hashes());
        missing.retain(|&idx| !view.is_inline(idx as usize));
        Ok(missing)
    }

    /// Rebuild a sealed V4 blob carrying inline payloads only for the
    /// requested chunk indices (the partner's missing set), sourcing bytes
    /// from the original blob's payloads or the store. This is what the
    /// owner serves in reply to a `CKPT_CHUNK_REQ`, and how a kept
    /// manifest regains its self-contained form.
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
    /// The blob is shared, not copied: pass the `Arc` the caller already
    /// holds for its replicas (or a `Vec`, which moves in), and an
    /// in-memory local store keeps that same allocation.
    ///
    /// A store that keeps the wave in memory stores it before this returns,
    /// on the caller's thread, and `on_done` runs inline. A disk store's
    /// write goes to the background writer and this returns at once;
    /// `on_done` fires from the writer thread with the submit-to-durable
    /// latency, and [`flush_rank`](Self::flush_rank) waits until the write
    /// is durable.
    pub fn commit_local(
        &self,
        rank: RankId,
        epoch: u64,
        blob: impl Into<Arc<Vec<u8>>>,
        on_done: Option<OnDone>,
    ) -> Result<()> {
        let local = &self.stores(rank)?.local;
        if let Some(writer) = self.writer_of(local) {
            writer.submit(0, rank, epoch, blob, Arc::clone(local), on_done);
            return Ok(());
        }
        let start = std::time::Instant::now();
        let res = local.put_shared(rank, epoch, &blob.into());
        if let Some(cb) = on_done {
            cb(&res, start.elapsed());
        }
        res.map(drop)
    }

    /// The writer a local store's commits go to: `None` for a store that
    /// keeps its waves in memory.
    fn writer_of(&self, local: &Arc<dyn CheckpointBackend>) -> Option<&AsyncWriter> {
        self.writer.as_ref().filter(|_| local.self_contained())
    }

    /// Whether `rank`'s local commits are written off the caller's thread
    /// (a disk store), so their latency hides behind replication.
    pub fn writes_off_thread(&self, rank: RankId) -> bool {
        self.stores(rank).is_ok_and(|s| self.writer_of(&s.local).is_some())
    }

    /// Store a replica frame pushed by `owner` as `holder`'s partner copy
    /// of wave `epoch` (synchronous — the pushing rank awaits the ACK this
    /// enables). The frame is verified first, so a partner only ever
    /// acknowledges a copy it could restore from.
    ///
    /// A V4 manifest is parsed once and walked over the store once: its
    /// inline payloads — bytes from outside this process — are hashed
    /// against their addresses, and every chunk is pinned under the
    /// holder's own registration. If some chunk is neither inline nor
    /// stored, the walk takes no reference, nothing is stored, and the
    /// result names every such index ([`Adoption::Missing`]) — what the
    /// holder asks the owner for. Any other framing is checked whole.
    ///
    /// Old partner copies of the same owner (a parity owner included)
    /// beyond `partner_keep` waves are pruned, as
    /// [`release_partner_copies`](Self::release_partner_copies) would
    /// below the oldest wave kept.
    pub fn store_partner_copy(
        &self,
        holder: RankId,
        owner: RankId,
        epoch: u64,
        frame: &[u8],
    ) -> Result<Adoption> {
        let partner = &self.stores(holder)?.partner;
        if chunk::is_cas(frame) {
            let view = CasView::parse(frame)?;
            let manifest = addressed(&view)?;
            match self.cas().commit_addressed(holder.0, owner.0, epoch, &manifest, &[]) {
                Ok(_) => {}
                Err(Refused::Missing(idx)) => return Ok(Adoption::Missing(idx)),
                Err(refused) => return Err(MpiError::Codec(refused.to_string())),
            }
        } else {
            chunk::verify(frame)?;
        }
        partner.put(owner, epoch, frame)?;
        let epochs = partner.epochs_of(owner)?;
        let pruned = match epochs.len().saturating_sub(self.cfg.partner_keep) {
            0 => 0,
            old => {
                let keep_from = epochs.get(old).copied().unwrap_or(u64::MAX);
                self.release_partner_copies(holder, owner, keep_from)?
            }
        };
        Ok(Adoption::Stored { pruned })
    }

    /// Drop `holder`'s partner copies of `owner` older than `keep_from`,
    /// and the chunk-store registrations they held. Returns how many copies
    /// were removed; a repeated or stale release removes nothing.
    ///
    /// The protocol calls this once `owner`'s wave `keep_from` has resumed:
    /// every member of its cluster holds that wave durably, and the
    /// senders' logs no longer reach anything older, so no rollback can
    /// restore an older copy. Registrations go by the ledger, as in
    /// [`gc_local`](Self::gc_local): one whose copy was never stored goes
    /// too.
    pub fn release_partner_copies(
        &self,
        holder: RankId,
        owner: RankId,
        keep_from: u64,
    ) -> Result<usize> {
        let partner = &self.stores(holder)?.partner;
        let mut removed = 0;
        for e in partner.epochs_of(owner)? {
            if e < keep_from && partner.remove(owner, e)? {
                removed += 1;
            }
        }
        self.cas().unregister_below(holder.0, owner.0, keep_from);
        Ok(removed)
    }

    /// What `rank`'s sealed wave `epoch` owes `partners`.
    ///
    /// * Erasure coding on: the wave's self-contained form is staged with
    ///   the rank's redundancy set; the member that completes the set
    ///   encodes its parity and gets one push per parity shard (shard `j`
    ///   to `partners[j % k]`), every other member gets none.
    /// * A V4 blob: one push per partner carrying only the hash list — the
    ///   manifest an in-memory store already keeps, shared as it is; the
    ///   partner asks for whatever chunk bodies it lacks.
    /// * A full blob: one push per partner carrying the blob itself.
    pub fn replicas(
        &self,
        rank: RankId,
        epoch: u64,
        sealed: &Arc<Vec<u8>>,
        logical: u64,
        partners: &[RankId],
    ) -> Result<Replication> {
        if partners.is_empty() {
            return Ok(Replication::default());
        }
        if self.cfg.ec.is_on() {
            let Some(job) = self.stage_for_parity(rank, epoch, sealed)? else {
                return Ok(Replication::default());
            };
            let bytes = job.shards.iter().map(|(_, _, f)| f.len() as u64).sum();
            let pushes = job
                .shards
                .into_iter()
                .map(|(j, owner, frame)| Replica {
                    partner: partners[j as usize % partners.len()],
                    owner,
                    frame: Arc::new(frame),
                    logical: 0,
                })
                .collect();
            return Ok(Replication { pushes, parity: Some((job.encode_us, bytes)) });
        }
        let frame = if chunk::is_cas(sealed) && chunk::carries_payload(sealed) {
            Arc::new(chunk::manifest_only_v4(sealed)?)
        } else {
            Arc::clone(sealed)
        };
        let pushes = partners
            .iter()
            .map(|&partner| Replica { partner, owner: rank, frame: Arc::clone(&frame), logical })
            .collect();
        Ok(Replication { pushes, parity: None })
    }

    /// Deposit the self-contained form of `me`'s sealed wave `epoch` into
    /// its redundancy set's staging area, so parity covers the chunk bodies
    /// the wave brought into the store. The *last* member of the set to
    /// stage computes the set's parity: the returned [`ParityShards`]
    /// carries one sealed `SPBCPAR1` frame per parity shard, already
    /// persisted in the encoder's local store under its synthetic owner.
    /// Everyone else gets `None`.
    ///
    /// Stale staging entries of the same set from older epochs (waves that
    /// rolled back before the set completed) are dropped on the way in.
    fn stage_for_parity(
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
        let mine = self.self_contained(me, epoch, blob.to_vec())?;
        let staged = {
            let mut stage = self.parity_stage.lock();
            stage.retain(|&(e, s), _| s != set_id || e >= epoch);
            let entry = stage.entry((epoch, set_id)).or_default();
            entry.insert(me.0, mine);
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
        Ok(Some(ParityShards { shards, encode_us }))
    }

    /// The self-contained form of `owner`'s copy `blob` of wave `epoch`:
    /// what a disk store holds and what parity covers. A bare manifest
    /// regains, from the chunk store, the bodies of the chunks its commit
    /// inserted — exactly the blob [`seal_v4`] built at encode. Any other
    /// copy (a full blob, a V4 blob with payloads, a manifest that no
    /// registration of the owner matches) is already as self-contained as
    /// it gets and is returned unchanged.
    fn self_contained(&self, owner: RankId, epoch: u64, blob: Vec<u8>) -> Result<Vec<u8>> {
        if !chunk::is_cas(&blob) || chunk::carries_payload(&blob) {
            return Ok(blob);
        }
        let hashes = CasView::parse(&blob)?.hashes();
        match self.cas().inserted_by(owner.0, owner.0, epoch, &hashes) {
            Some(inserted) if !inserted.is_empty() => self.subset_blob(&blob, &inserted),
            _ => Ok(blob),
        }
    }

    /// What `rank`'s local store keeps of a fetched copy of its wave
    /// `epoch`. An in-memory store keeps a V4 blob as its manifest; a
    /// rebuilt blob's chunks are registered under the rank again first if
    /// that registration is gone, so the manifest's bodies stay pinned.
    fn local_form(&self, rank: RankId, epoch: u64, blob: &[u8]) -> Result<Vec<u8>> {
        let local = &self.stores(rank)?.local;
        if local.self_contained() || !chunk::is_cas(blob) || !chunk::carries_payload(blob) {
            return Ok(blob.to_vec());
        }
        let view = CasView::parse(blob)?;
        if self.cas().inserted_by(rank.0, rank.0, epoch, &view.hashes()).is_none() {
            self.cas()
                .commit_addressed(rank.0, rank.0, epoch, &addressed(&view)?, &[])
                .map_err(|r| MpiError::Codec(r.to_string()))?;
        }
        chunk::manifest_only_v4(blob)
    }

    /// The bytes `rank`'s local store holds for its wave `epoch`, as stored:
    /// a bare manifest in memory, the self-contained blob on disk. For
    /// inspection; a restore goes through [`load`](Self::load).
    pub fn local_copy(&self, rank: RankId, epoch: u64) -> Result<Option<Vec<u8>>> {
        self.stores(rank)?.local.get(rank, epoch)
    }

    /// Simulate losing `rank`'s node-local storage (fault injection): its
    /// local store is cleared, including any parity shards it encoded.
    /// Partner-held copies and the service-wide chunk store survive,
    /// exactly like the surviving nodes' memory survives a peer's crash.
    pub fn wipe_local(&self, rank: RankId) -> Result<()> {
        self.stores(rank)?.local.clear()
    }

    /// A verifiable copy of `(owner, epoch)` from anywhere in the world and
    /// the rank holding it: any rank's local store (parity shards live
    /// under synthetic owners in their encoder's local store) or any
    /// partner store.
    fn find_copy(&self, owner: RankId, epoch: u64) -> Result<Option<(RankId, Vec<u8>)>> {
        for (holder, stores) in self.ranks.iter().enumerate() {
            for store in [&stores.local, &stores.partner] {
                if let Some(b) = store.get(owner, epoch)? {
                    if chunk::verify(&b).is_ok() {
                        return Ok(Some((RankId(holder as u32), b)));
                    }
                }
            }
        }
        Ok(None)
    }

    /// For one set at one epoch: every member's surviving copy as stored
    /// (a bare manifest in memory; [`try_rebuild`](Self::try_rebuild)
    /// makes it self-contained before decoding) and every surviving (set-
    /// and epoch-matching) sealed parity frame.
    fn set_census(
        &self,
        members: &[u32],
        set_id: u32,
        epoch: u64,
    ) -> Result<(CensusSlots, CensusSlots)> {
        let mut data = Vec::with_capacity(members.len());
        for &r in members {
            data.push(self.find_copy(RankId(r), epoch)?.map(|(_, b)| b));
        }
        let mut parity = Vec::with_capacity(self.cfg.ec.m());
        for j in 0..self.cfg.ec.m() {
            let found = self.find_copy(parity_owner(set_id, j), epoch)?.map(|(_, b)| b).filter(
                |b| matches!(ParityView::parse(b), Ok(v) if v.set_id == set_id && v.epoch == epoch),
            );
            parity.push(found);
        }
        Ok((data, parity))
    }

    /// Try to rebuild `rank`'s sealed blob at `epoch` from its redundancy
    /// set (survivors + parity); the caller has already found no copy of
    /// the rank itself. `Ok(None)` means the EC path has nothing to offer
    /// (EC off or no parity survives). Losses beyond the surviving parity
    /// budget are the distinct loud error.
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
        // Parity was computed over each member's self-contained form.
        for (slot, &r) in data.iter_mut().zip(&members) {
            if let Some(copy) = slot.take() {
                *slot = Some(self.self_contained(RankId(r), epoch, copy)?);
            }
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
        self.writer.as_ref().map_or(Ok(()), |w| w.flush_owner(0, rank))
    }

    /// Wait for every outstanding write (shutdown path).
    pub fn flush_all(&self) -> Result<()> {
        self.writer.as_ref().map_or(Ok(()), AsyncWriter::flush_all)
    }

    /// Fetch the raw verified blob of `(rank, epoch)` and where it came
    /// from: the local copy, else any surviving copy elsewhere (repair),
    /// else a rebuild from the rank's redundancy set. A repaired or rebuilt
    /// blob is re-persisted locally so the next failure does not depend on
    /// the same source surviving again.
    fn fetch_blob(&self, rank: RankId, epoch: u64) -> Result<Option<(Vec<u8>, LoadOutcome)>> {
        let own = self.stores(rank)?;
        if let Some(blob) = own.local.get(rank, epoch)? {
            if chunk::verify(&blob).is_ok() {
                return Ok(Some((blob, LoadOutcome::Local)));
            }
            // Corrupt local copy: fall through to repair.
        }
        let fetched = if let Some((from, blob)) = self.find_copy(rank, epoch)? {
            (blob, LoadOutcome::Repaired { from })
        } else if let Some((blob, set_id)) = self.try_rebuild(rank, epoch)? {
            (blob, LoadOutcome::Rebuilt { set_id })
        } else {
            return Ok(None);
        };
        own.local.put(rank, epoch, &self.local_form(rank, epoch, &fetched.0)?)?;
        Ok(Some(fetched))
    }

    /// Load `rank`'s checkpoint at `epoch`, verify it, and materialize it.
    ///
    /// Returns the full checkpoint *body* plus where it came from. The
    /// sealed blob is verified; one that is missing or corrupt locally
    /// triggers repair: every store is scanned for a verifiable copy, and
    /// only when none survives is the blob rebuilt from the rank's
    /// redundancy set. Either is re-persisted locally before use. `Ok(None)` means the blob
    /// survives nowhere; a manifest chunk missing from the chunk store is
    /// an error (the epoch exists but is no longer materializable).
    ///
    /// Callers should `flush_rank` first so an in-flight async write is not
    /// misread as a missing copy.
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
        let fetch_start = std::time::Instant::now();
        let fetched = self.fetch_blob(rank, epoch)?;
        stats.fetch_us = fetch_start.elapsed().as_micros() as u64;
        let Some((top, outcome)) = fetched else {
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
            unseal(&top)?.to_vec()
        };
        stats.materialize_us = mat_start.elapsed().as_micros() as u64;
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
    /// a newer wave is globally committed). Returns how many were removed.
    pub fn gc_local(&self, rank: RankId, keep_from: u64) -> Result<usize> {
        // A queued or in-flight disk write is invisible to `epochs_of`:
        // sweeping now would leave an old epoch that lands afterwards.
        // Wait for the rank's write first so the sweep sees every landed
        // epoch (any sticky write error surfaces here).
        self.flush_rank(rank)?;
        let local = &self.stores(rank)?.local;
        let mut removed = 0;
        for e in local.epochs_of(rank)? {
            if e < keep_from && local.remove(rank, e)? {
                removed += 1;
            }
        }
        // CDC mode: release the rank's own chunk registrations for the
        // pruned epochs. Ledger-driven (not blob parsing) because a wave
        // registers its chunks at encode, before its blob is stored: a rank
        // that died (or whose write failed) in between left registrations
        // no stored blob names. Chunks shared with a retained epoch or
        // another rank's registration survive by refcount.
        self.cas().unregister_below(rank.0, rank.0, keep_from);
        // EC mode: prune the parity shards this rank encoded (stored in
        // its local under synthetic owners) by the same window.
        if self.cfg.ec.is_on() {
            if let Some((set_id, _, _)) = self.cfg.sets.as_ref().and_then(|s| s.set_of(rank)) {
                for j in 0..self.cfg.ec.m() {
                    let owner = parity_owner(set_id, j);
                    for e in local.epochs_of(owner)? {
                        if e < keep_from {
                            local.remove(owner, e)?;
                        }
                    }
                }
            }
        }
        Ok(removed)
    }
}

/// A chunk store commit input: each address with its payload, if carried.
type Addressed<'a> = Vec<(ChunkHash, Option<&'a [u8]>)>;

/// A parsed V4 blob as the chunk store's commit input: each address with
/// its inline payload, hash-verified (bytes from outside the process), or
/// `None`.
fn addressed<'a>(view: &CasView<'a>) -> Result<Addressed<'a>> {
    (0..view.n_chunks())
        .map(|idx| Ok((view.chunk(idx).expect("idx in range").0, view.inline_chunk(idx)?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Encode through the service (like the protocol does) and commit
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
            let stored = svc.store_partner_copy(RankId(1), RankId(0), e, &seal(b"x")).unwrap();
            let Adoption::Stored { pruned: p } = stored else { panic!("{stored:?}") };
            pruned += p;
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

    /// An in-memory service starts no writer thread, and its
    /// `commit_local` has stored the copy (and run `on_done`) before it
    /// returns, with no flush; a disk-rooted service hands the write to
    /// its writer.
    #[test]
    fn in_memory_commit_is_stored_on_the_callers_thread() {
        let svc = CkptStoreService::in_memory(2, StoreConfig::default());
        assert!(svc.writer.is_none(), "an in-memory service spawned a writer");
        assert!(!svc.writes_off_thread(RankId(0)));
        let caller = std::thread::current().id();
        let ran_on = Arc::new(Mutex::new(None));
        let seen = Arc::clone(&ran_on);
        let on_done: OnDone = Box::new(move |res, _| {
            assert!(res.is_ok());
            *seen.lock() = Some(std::thread::current().id());
        });
        svc.commit_local(RankId(0), 1, seal(b"now"), Some(on_done)).unwrap();
        assert_eq!(*ran_on.lock(), Some(caller));
        assert_eq!(svc.local_copy(RankId(0), 1).unwrap().unwrap(), seal(b"now"));
        let disk = CkptStoreService::on_disk(tmpdir("writer"), 1, StoreConfig::default()).unwrap();
        assert!(disk.writer.is_some() && disk.writes_off_thread(RankId(0)));
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

    #[test]
    fn cdc_off_seals_one_full_blob_per_wave() {
        let svc = CkptStoreService::in_memory(2, StoreConfig::default());
        for e in 1..=4u64 {
            let body = vec![e as u8; 256];
            let stats = commit_wave(&svc, RankId(0), RankId(1), e, &body);
            assert!(stats.full, "wave {e} must be a full blob with CDC off");
            let stored = svc.stores(RankId(0)).unwrap().local.get(RankId(0), e).unwrap().unwrap();
            assert_eq!(stored, seal(&body), "wave {e}");
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

    /// Differential restore oracle: the same wave sequence committed
    /// through the CDC service and the full-blob service must materialize
    /// bitwise-equal bodies at every epoch.
    #[test]
    fn cdc_vs_full_blob_differential_restore_oracle() {
        let cdc = CkptStoreService::in_memory(2, cdc_cfg());
        let full = CkptStoreService::in_memory(2, StoreConfig::default());
        let waves: Vec<Vec<u8>> =
            (1..=6u64).map(|e| cdc_body(23, e, 4 * 1024, 700 + 13 * e as usize)).collect();
        for (i, body) in waves.iter().enumerate() {
            let e = i as u64 + 1;
            commit_wave(&cdc, RankId(0), RankId(1), e, body);
            commit_wave(&full, RankId(0), RankId(1), e, body);
        }
        for (i, want) in waves.iter().enumerate() {
            let e = i as u64 + 1;
            let (v4, _) = cdc.load(RankId(0), e).unwrap().unwrap();
            let (v2, _) = full.load(RankId(0), e).unwrap().unwrap();
            assert_eq!(v4, v2, "epoch {e}: V4 and V2 materializations diverge");
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
        svc.cas().unregister_below(0, 0, u64::MAX);
        svc.cas().unregister_below(1, 0, u64::MAX);
        assert_eq!(svc.cas().unique_chunks(), 0, "refcount leak");
    }

    /// Owners 0 and 1 commit waves 1..=3, each held by partners 2 and 3;
    /// owner 0's wave 3 resumed, so its local copies below 3 are gone.
    /// `released` lists the holders that have since released owner 0's
    /// older copies: there, only wave 3 was ever stored. Returns the
    /// service and every committed body by `(owner, epoch)`.
    fn release_world(released: &[u32]) -> (CkptStoreService, HashMap<(u32, u64), Vec<u8>>) {
        let svc = CkptStoreService::in_memory(4, StoreConfig { partner_keep: 4, ..cdc_cfg() });
        let mut bodies = HashMap::new();
        for e in 1..=3u64 {
            for owner in [0u32, 1] {
                let body = cdc_body(71 + owner as u64, e, 4 * 1024, 512);
                let (blob, _) = svc.encode_commit(RankId(owner), e, &body).unwrap();
                svc.commit_local(RankId(owner), e, blob.clone(), None).unwrap();
                for holder in [2u32, 3] {
                    if owner == 0 && e < 3 && released.contains(&holder) {
                        continue;
                    }
                    svc.store_partner_copy(RankId(holder), RankId(owner), e, &blob).unwrap();
                }
                bodies.insert((owner, e), body);
            }
        }
        svc.gc_local(RankId(0), 3).unwrap();
        (svc, bodies)
    }

    /// A release frees, at one holder, only one owner's copies below the
    /// wave it names, and exactly the chunks no other registration pins:
    /// the chunk store ends as if those copies had never been stored. A
    /// repeated or stale release changes nothing.
    #[test]
    fn release_frees_only_that_owners_older_copies_at_that_holder() {
        let (svc, bodies) = release_world(&[]);
        let partner_epochs = |holder: u32, owner: u32| {
            svc.stores(RankId(holder)).unwrap().partner.epochs_of(RankId(owner)).unwrap()
        };
        let cas_of = |svc: &CkptStoreService| (svc.cas().unique_bytes(), svc.cas().unique_chunks());
        assert_eq!(svc.release_partner_copies(RankId(2), RankId(0), 3).unwrap(), 2);
        assert_eq!(partner_epochs(2, 0), vec![3]);
        assert_eq!(partner_epochs(2, 1), vec![1, 2, 3], "another owner's copies stay");
        assert_eq!(partner_epochs(3, 0), vec![1, 2, 3], "another holder's copies stay");
        assert_eq!(cas_of(&svc), cas_of(&release_world(&[2]).0));
        assert_eq!(svc.release_partner_copies(RankId(3), RankId(0), 3).unwrap(), 2);
        let freed = cas_of(&svc);
        assert_eq!(freed, cas_of(&release_world(&[2, 3]).0));
        assert!(freed.0 < cas_of(&release_world(&[2]).0).0, "the last pins of waves 1-2 went");
        // Repeated and stale releases are no-ops.
        assert_eq!(svc.release_partner_copies(RankId(3), RankId(0), 3).unwrap(), 0);
        assert_eq!(svc.release_partner_copies(RankId(2), RankId(0), 2).unwrap(), 0);
        assert_eq!(cas_of(&svc), freed);
        // Every retained wave still loads bitwise; owner 0's older ones are
        // gone everywhere.
        for ((owner, e), want) in &bodies {
            let got = svc.load(RankId(*owner), *e).unwrap();
            if *owner == 0 && *e < 3 {
                assert!(got.is_none(), "owner 0 wave {e} survived its release");
            } else {
                assert_eq!(&got.unwrap().0, want, "owner {owner} wave {e}");
            }
        }
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
        // and a manifest-only copy (no payloads) is enough to replicate —
        // the very form an in-memory local store keeps.
        assert!(svc.missing_chunks(&blob).unwrap().is_empty());
        let manifest_only = chunk::manifest_only_v4(&blob).unwrap();
        assert_eq!(manifest_only, blob);
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
        let got = partner_svc.store_partner_copy(RankId(1), RankId(0), 1, &manifest_only).unwrap();
        assert_eq!(got, Adoption::Missing(missing.clone()));
        // Owner serves the subset; it carries every chunk the partner
        // lacks inline, so nothing is missing any more.
        let subset = owner_svc.subset_blob(&blob, &missing).unwrap();
        assert!(partner_svc.missing_chunks(&subset).unwrap().is_empty());
        // The partner adopts and can materialize.
        partner_svc.store_partner_copy(RankId(1), RankId(0), 1, &subset).unwrap();
        let (got, _) = partner_svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!(got, body);
    }

    /// A manifest naming chunks the partner's store lacks is refused as a
    /// whole: exactly those indices are reported, and neither the store's
    /// chunks and references nor the partner backend change.
    #[test]
    fn adoption_with_missing_chunks_changes_nothing_and_names_them() {
        let owner_svc = CkptStoreService::in_memory(2, cdc_cfg());
        let partner_svc = CkptStoreService::in_memory(2, cdc_cfg());
        // The partner already holds the stable half of the body.
        let body = cdc_body(97, 1, 4 * 1024, 2 * 1024);
        commit_wave(&partner_svc, RankId(1), RankId(0), 1, &body[..4 * 1024]);
        let (blob, _) = owner_svc.encode_commit(RankId(0), 1, &body).unwrap();
        let manifest = chunk::manifest_only_v4(&blob).unwrap();
        let view = CasView::parse(&manifest).unwrap();
        let want: Vec<u32> = (0..view.n_chunks() as u32)
            .filter(|&i| !partner_svc.cas().contains(&view.chunk(i as usize).unwrap().0))
            .collect();
        assert!(!want.is_empty() && want.len() < view.n_chunks(), "{want:?}");
        let resident = (partner_svc.cas().unique_chunks(), partner_svc.cas().unique_bytes());
        let got = partner_svc.store_partner_copy(RankId(1), RankId(0), 1, &manifest);
        assert_eq!(got.unwrap(), Adoption::Missing(want.clone()));
        assert_eq!(partner_svc.missing_chunks(&manifest).unwrap(), want);
        assert_eq!((partner_svc.cas().unique_chunks(), partner_svc.cas().unique_bytes()), resident);
        let partner = &partner_svc.stores(RankId(1)).unwrap().partner;
        assert_eq!(partner.get(RankId(0), 1).unwrap(), None);
        assert!(!partner_svc.cas().unregister(1, 0, 1), "no registration was left");
        // Served the subset, the partner adopts.
        let subset = owner_svc.subset_blob(&blob, &want).unwrap();
        let got = partner_svc.store_partner_copy(RankId(1), RankId(0), 1, &subset).unwrap();
        assert_eq!(got, Adoption::Stored { pruned: 0 });
        assert_eq!(partner_svc.load(RankId(0), 1).unwrap().unwrap().0, body);
    }

    /// An inline payload that does not hash to its address came from
    /// outside the process: the partner hashes it and refuses the frame
    /// loudly, leaving the store as it was.
    #[test]
    fn partner_payload_under_a_wrong_address_is_refused() {
        let svc = CkptStoreService::in_memory(2, cdc_cfg());
        let (good, evil) = (vec![1u8; 300], vec![2u8; 300]);
        let frame =
            seal_v4(&[V4Chunk { hash: ChunkHash::of(&good), len: 300, inline: Some(&evil) }]);
        let err = svc.store_partner_copy(RankId(1), RankId(0), 1, &frame).unwrap_err();
        assert!(format!("{err}").contains("does not hash to its manifest address"), "{err}");
        assert_eq!(svc.cas().unique_chunks(), 0);
        assert_eq!(svc.stores(RankId(1)).unwrap().partner.get(RankId(0), 1).unwrap(), None);
    }

    /// The encode path reuses the previous wave's cut: the manifest of a
    /// wave equals the fresh cut of its body, whether the body is
    /// unchanged, edited, or follows a rollback to an older wave.
    #[test]
    fn cdc_manifest_is_the_fresh_cut_whatever_the_hint() {
        let p = CdcParams { min: 64, avg: 256, max: 1024 };
        let svc = CkptStoreService::in_memory(2, cdc_cfg());
        let fresh = |body: &[u8]| -> Vec<(ChunkHash, usize)> {
            crate::cdc::chunk_spans(body, p)
                .into_iter()
                .map(|s| (ChunkHash::of(&body[s.clone()]), s.len()))
                .collect()
        };
        let manifest = |blob: &[u8]| -> Vec<(ChunkHash, usize)> {
            let v = CasView::parse(blob).unwrap();
            (0..v.n_chunks()).map(|i| v.chunk(i).unwrap()).collect()
        };
        let waves = [
            cdc_body(5, 1, 6 * 1024, 512),
            cdc_body(5, 1, 6 * 1024, 512),
            cdc_body(5, 2, 6 * 1024, 700),
            cdc_body(5, 1, 6 * 1024, 512),
            cdc_body(6, 1, 3 * 1024, 512),
        ];
        for (e, body) in waves.iter().enumerate() {
            let (blob, _) = svc.encode_commit(RankId(0), e as u64 + 1, body).unwrap();
            assert_eq!(manifest(&blob), fresh(body), "wave {}", e + 1);
        }
    }

    /// Without parity the store replicates a full blob as itself and a V4
    /// blob as its manifest, one push per partner; no partners, no pushes.
    #[test]
    fn replicas_follow_the_commit_form() {
        let partners = [RankId(2), RankId(3)];
        for cfg in [StoreConfig::default(), cdc_cfg()] {
            let svc = CkptStoreService::in_memory(4, cfg.clone());
            let body = cdc_body(89, 1, 4 * 1024, 128);
            let (blob, stats) = svc.encode_commit(RankId(0), 1, &body).unwrap();
            let blob = Arc::new(blob);
            let rep = svc.replicas(RankId(0), 1, &blob, stats.logical, &partners).unwrap();
            assert!(rep.parity.is_none());
            let want = if cfg.cdc { chunk::manifest_only_v4(&blob).unwrap() } else { seal(&body) };
            let got: Vec<_> = rep.pushes.iter().map(|p| (p.partner, p.owner, p.logical)).collect();
            let l = stats.logical;
            assert_eq!(got, vec![(RankId(2), RankId(0), l), (RankId(3), RankId(0), l)]);
            assert!(rep.pushes.iter().all(|p| *p.frame == want), "cdc = {}", cfg.cdc);
            assert!(svc
                .replicas(RankId(0), 1, &blob, stats.logical, &[])
                .unwrap()
                .pushes
                .is_empty());
        }
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

    /// A CDC wave's bytes live once: after 6 waves x 4 ranks with k = 2
    /// partner pushes and the protocol's GC window, every local store holds
    /// exactly its retained manifests, the chunk store exactly the distinct
    /// chunks they name, and `physical` still counts the self-contained
    /// blob.
    #[test]
    fn no_chunk_body_is_held_twice() {
        // `in_memory`, keeping a handle on each local `MemBackend`.
        let locals: Vec<Arc<MemBackend>> = (0..4).map(|_| Arc::new(MemBackend::new())).collect();
        let ranks = locals
            .iter()
            .map(|l| RankStores::new(Arc::clone(l) as _, Arc::new(MemBackend::new())))
            .collect();
        let svc = CkptStoreService::with_stores(ranks, cdc_cfg());
        let p = svc.config().cdc_params;
        let mut manifests: HashMap<(u32, u64), Vec<u8>> = HashMap::new();
        for e in 1..=6u64 {
            for r in 0..4u32 {
                let me = RankId(r);
                // A stable region shared by every rank, a per-rank region
                // and a per-wave tail: same-owner and cross-rank hits.
                let mut body = cdc_body(101, 1, 3 * 1024, 0);
                body.extend(cdc_body(200 + r as u64, 1, 2 * 1024, 0));
                body.extend(cdc_body(300 + r as u64, e, 0, 700));
                svc.flush_rank(me).unwrap();
                let (sealed, stats) = svc.encode_commit(me, e, &body).unwrap();
                let sealed = Arc::new(sealed);
                // The manifest of the fresh cut, built independently.
                let cut: Vec<V4Chunk<'_>> = crate::cdc::chunk_spans(&body, p)
                    .into_iter()
                    .map(|s| V4Chunk {
                        hash: ChunkHash::of(&body[s.clone()]),
                        len: s.len() as u32,
                        inline: None,
                    })
                    .collect();
                assert_eq!(*sealed, seal_v4(&cut), "rank {r} wave {e}: keeps the bare manifest");
                let full = svc.self_contained(me, e, sealed.to_vec()).unwrap();
                assert_eq!(stats.physical, full.len() as u64, "rank {r} wave {e}");
                let v = CasView::parse(&full).unwrap();
                let inline = (0..v.n_chunks()).filter(|&i| v.is_inline(i)).count();
                assert_eq!(inline, stats.inline_chunks, "rank {r} wave {e}");
                svc.commit_local(me, e, Arc::clone(&sealed), None).unwrap();
                let partners = [RankId((r + 1) % 4), RankId((r + 2) % 4)];
                let rep = svc.replicas(me, e, &sealed, stats.logical, &partners).unwrap();
                assert_eq!(rep.pushes.len(), 2);
                for push in &rep.pushes {
                    assert!(Arc::ptr_eq(&push.frame, &sealed), "the kept manifest is pushed");
                    let got = svc.store_partner_copy(push.partner, me, e, &push.frame).unwrap();
                    assert!(matches!(got, Adoption::Stored { .. }), "{got:?}");
                }
                manifests.insert((r, e), sealed.to_vec());
            }
            if e > 1 {
                for r in 0..4u32 {
                    svc.gc_local(RankId(r), e - 1).unwrap();
                }
            }
        }
        let mut named: HashMap<ChunkHash, usize> = HashMap::new();
        for (r, local) in locals.iter().enumerate() {
            let kept: Vec<&Vec<u8>> = (5..=6).map(|e| &manifests[&(r as u32, e)]).collect();
            assert_eq!(local.epochs_of(RankId(r as u32)).unwrap(), vec![5, 6]);
            let frames: u64 = kept.iter().map(|m| m.len() as u64).sum();
            assert_eq!(local.stored_bytes(), frames, "rank {r} holds only its manifests");
            for m in kept {
                let v = CasView::parse(m).unwrap();
                named.extend((0..v.n_chunks()).map(|i| v.chunk(i).unwrap()));
            }
        }
        let distinct: u64 = named.values().map(|&len| len as u64).sum();
        assert_eq!(svc.cas().unique_bytes(), distinct, "each named body once, nothing else");
        assert_eq!(svc.cas().unique_chunks(), named.len());
    }

    /// An xor set over CDC waves: parity covers each member's
    /// self-contained form, so the member whose local copy is lost is
    /// rebuilt byte for byte as the blob a disk store holds, and its local
    /// store keeps that blob's manifest again.
    #[test]
    fn xor_over_cdc_rebuilds_the_self_contained_blob() {
        let clusters = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let cfg = StoreConfig {
            cdc: true,
            cdc_params: cdc_cfg().cdc_params,
            ..ec_cfg(EcScheme::Xor, &clusters, 4)
        };
        let mem = CkptStoreService::in_memory(8, cfg.clone());
        let root = tmpdir("xor-over-cdc");
        let disk = CkptStoreService::on_disk(&root, 8, cfg).unwrap();
        let partners: Vec<RankId> = (4..8).map(RankId).collect();
        let mut bodies = Vec::new();
        for e in 1..=3u64 {
            bodies.clear();
            for r in 0..4u32 {
                let mut body = cdc_body(41, 1, 2 * 1024, 0);
                body.extend(cdc_body(50 + r as u64, e, 1024, 300 + 64 * r as usize));
                for svc in [&mem, &disk] {
                    svc.flush_rank(RankId(r)).unwrap();
                    let (sealed, stats) = svc.encode_commit(RankId(r), e, &body).unwrap();
                    let sealed = Arc::new(sealed);
                    svc.commit_local(RankId(r), e, Arc::clone(&sealed), None).unwrap();
                    svc.flush_rank(RankId(r)).unwrap();
                    let rep = svc.replicas(RankId(r), e, &sealed, stats.logical, &partners);
                    for push in &rep.unwrap().pushes {
                        svc.store_partner_copy(push.partner, push.owner, e, &push.frame).unwrap();
                    }
                }
                bodies.push(body);
            }
        }
        let file = disk.local_copy(RankId(2), 3).unwrap().unwrap();
        assert!(chunk::carries_payload(&file), "wave 3 brought new chunks");
        assert_eq!(mem.local_copy(RankId(2), 3).unwrap().unwrap(), manifest_of(&file));
        // Both services computed the same parity.
        let powner = parity_owner(0, 0);
        assert_eq!(
            mem.stores(RankId(3)).unwrap().local.get(powner, 3).unwrap(),
            disk.stores(RankId(3)).unwrap().local.get(powner, 3).unwrap()
        );
        mem.wipe_local(RankId(2)).unwrap();
        let (rebuilt, set_id) = mem.try_rebuild(RankId(2), 3).unwrap().unwrap();
        assert_eq!((rebuilt == file, set_id), (true, 0), "rebuild is the self-contained blob");
        let (body, outcome) = mem.load(RankId(2), 3).unwrap().unwrap();
        assert_eq!((body, outcome), (bodies[2].clone(), LoadOutcome::Rebuilt { set_id: 0 }));
        assert_eq!(mem.local_copy(RankId(2), 3).unwrap().unwrap(), manifest_of(&file));
        assert_eq!(mem.load(RankId(2), 3).unwrap().unwrap().1, LoadOutcome::Local);
        let _ = fs::remove_dir_all(&root);
    }

    fn manifest_of(blob: &[u8]) -> Vec<u8> {
        chunk::manifest_only_v4(blob).unwrap()
    }

    /// A rebuilt wave whose own chunk registration is gone (GC'd) is kept
    /// as its manifest only after its chunks are registered again — else
    /// the kept manifest would name bodies nothing pins.
    #[test]
    fn rebuilt_wave_without_its_registration_is_pinned_again() {
        let clusters = vec![vec![0, 1], vec![2, 3]];
        let cfg = StoreConfig {
            cdc: true,
            cdc_params: cdc_cfg().cdc_params,
            ..ec_cfg(EcScheme::Xor, &clusters, 2)
        };
        let svc = CkptStoreService::in_memory(4, cfg);
        let bodies: Vec<Vec<u8>> = (0..2).map(|r| cdc_body(61 + r, 1, 2 * 1024, 0)).collect();
        for (r, body) in bodies.iter().enumerate() {
            let me = RankId(r as u32);
            let (sealed, stats) = svc.encode_commit(me, 1, body).unwrap();
            let sealed = Arc::new(sealed);
            svc.commit_local(me, 1, Arc::clone(&sealed), None).unwrap();
            svc.flush_rank(me).unwrap();
            let rep = svc.replicas(me, 1, &sealed, stats.logical, &[RankId(2)]).unwrap();
            for push in &rep.pushes {
                svc.store_partner_copy(push.partner, push.owner, 1, &push.frame).unwrap();
            }
        }
        // Rank 0 loses its local copy; its registration was dropped too.
        svc.wipe_local(RankId(0)).unwrap();
        svc.cas().unregister(0, 0, 1);
        let (body, outcome) = svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!((body, outcome), (bodies[0].clone(), LoadOutcome::Rebuilt { set_id: 0 }));
        let kept = svc.local_copy(RankId(0), 1).unwrap().unwrap();
        assert!(!chunk::carries_payload(&kept), "the local store keeps the manifest");
        let (body, outcome) = svc.load(RankId(0), 1).unwrap().unwrap();
        assert_eq!((body, outcome), (bodies[0].clone(), LoadOutcome::Local));
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

    /// Commit a full wave for every rank of one 4-rank set and push what
    /// [`CkptStoreService::replicas`] decides; returns each rank's body.
    fn ec_wave(svc: &CkptStoreService, epoch: u64, seed: u8) -> Vec<Vec<u8>> {
        let partners: Vec<RankId> = (4..8).map(RankId).collect();
        let mut bodies = Vec::new();
        let mut encoded = 0;
        for r in 0..4u32 {
            let body: Vec<u8> =
                (0..200 + 40 * r as usize).map(|i| seed ^ (r as u8) ^ (i as u8)).collect();
            let blob = Arc::new(seal(&body));
            svc.commit_local(RankId(r), epoch, blob.to_vec(), None).unwrap();
            svc.flush_rank(RankId(r)).unwrap();
            // Push each replica to its partner in the other cluster, like
            // the protocol does.
            let rep = svc.replicas(RankId(r), epoch, &blob, body.len() as u64, &partners).unwrap();
            assert_eq!(rep.pushes.is_empty(), rep.parity.is_none());
            if rep.parity.is_some() {
                encoded += 1;
            }
            for push in &rep.pushes {
                assert_eq!(push.logical, 0, "parity frames stand for no body bytes");
                svc.store_partner_copy(push.partner, push.owner, epoch, &push.frame).unwrap();
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
        // A full copy of rank 0 survives in a partner store (stored
        // directly: under EC the protocol pushes only parity).
        let blob0 = seal(&bodies[0]);
        svc.store_partner_copy(RankId(5), RankId(0), 1, &blob0).unwrap();
        for r in [0u32, 1] {
            svc.wipe_local(RankId(r)).unwrap(); // 2 local losses, m = 1
        }
        // The copy scan runs before any rebuild: rank 0 is repaired from
        // its surviving copy, and the parity budget stays for rank 1.
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

    /// Partner-held parity frames follow `partner_keep` like any other
    /// copy, and the retained frame still rebuilds a wiped encoder.
    #[test]
    fn partner_held_parity_follows_the_keep_window() {
        let clusters = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let svc = CkptStoreService::in_memory(8, ec_cfg(EcScheme::Xor, &clusters, 4));
        let mut bodies = Vec::new();
        for e in 1..=6 {
            bodies = ec_wave(&svc, e, e as u8);
        }
        // Rank 3 encoded every wave and pushed shard 0 to rank 4.
        let powner = parity_owner(0, 0);
        let held = svc.stores(RankId(4)).unwrap().partner.epochs_of(powner).unwrap();
        assert_eq!(held, vec![5, 6], "partner-held parity must be window-pruned");
        // Wipe the encoder: its own parity copies go with it, so the
        // rebuild must use the partner-held frame.
        svc.wipe_local(RankId(3)).unwrap();
        let (body, outcome) = svc.load(RankId(3), 6).unwrap().unwrap();
        assert_eq!(body, bodies[3]);
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
}
