//! # spbc-ckptstore
//!
//! Replicated asynchronous checkpoint-storage subsystem.
//!
//! SPBC's protocol layer (`spbc-core`) decides *when* a checkpoint wave
//! commits; this crate decides *where the bytes live* and *how much of the
//! commit barrier they cost*. It is deliberately blob-oriented — checkpoints
//! arrive as opaque byte vectors keyed by `(owner rank, epoch)` — so the
//! storage service has no dependency on the protocol crate and could back any
//! fault-tolerance layer built on `mini-mpi`.
//!
//! The subsystem provides four guarantees (DESIGN.md §8):
//!
//! * **Integrity** — every stored blob is framed with a magic + CRC32 header
//!   ([`blob`]); a bit-flip anywhere in the body is detected on load. Full
//!   and delta blobs checksum their whole body; an `SPBCCKP4` blob
//!   checksums its frame (header, manifest, inline index) and each inline
//!   payload is re-hashed against its 128-bit manifest address
//!   ([`chunk::verify`], [`cas`]).
//! * **Partner replication** — [`service::CkptStoreService`] keeps, next to
//!   each rank's local store, a partner store holding copies of *other*
//!   ranks' checkpoints (ReStore-style, in-memory by default). A rank whose
//!   local copies are lost or corrupted repairs transparently from a
//!   surviving partner at load time.
//! * **Asynchronous writes** — [`writer::AsyncWriter`] moves checksumming and
//!   disk I/O off the commit path with per-owner double-buffering: a wave's
//!   write overlaps the application's next compute phase, and the *next*
//!   wave's `flush` (or shutdown) is the only point that waits for it.
//! * **Garbage collection** — the service prunes epochs older than the
//!   newest globally-committed wave, both for local copies and partner-held
//!   replicas, replacing manual `prune` calls. GC is refcount-aware: a base
//!   epoch referenced by a live delta manifest is kept until the last
//!   manifest naming it is pruned.
//! * **Incremental deltas** — [`chunk`] adds the `SPBCCKP3` delta format:
//!   the commit path diffs each wave against the previous one in fixed-size
//!   chunks and writes (and replicates) only the changed chunks plus a
//!   manifest, with a full blob every Nth wave to bound chain length.
//!   Restore materializes the chain transparently, repairing any missing or
//!   corrupt link from partners.
//! * **Content-defined dedup** — [`cdc`] cuts checkpoint bodies at
//!   content-defined boundaries (FastCDC gear hashing) and [`cas`] stores
//!   each unique chunk once, refcounted, shared across epochs *and* ranks.
//!   The `SPBCCKP4` manifest format ([`chunk::CasView`]) carries chunk
//!   addresses plus payloads only for content the store didn't already hold.
//! * **Erasure-coded redundancy sets** — [`ec`] + [`set`] group each
//!   cluster's ranks into SCR-style sets and compute XOR or GF(2^8)
//!   Reed–Solomon parity (`SPBCPAR1` frames) over the set's sealed blobs
//!   per wave, so a lost member rebuilds from `g-1` survivors plus parity
//!   at far below the 2× physical cost of full partner copies.
//! * **Tiered storage** — [`tier::TierStack`] chains memory → node-local →
//!   global backends with per-level retention, draining cold epochs
//!   downward asynchronously and healing hot reads upward.
//! * **Multi-tenant sharding + admission control** — [`shard::ShardedStore`]
//!   is the hub many concurrent jobs share: the CAS and the write pipeline
//!   are sharded by `(job, rank)` (`SPBC_STORE_SHARDS`), the async writer
//!   runs bounded per-shard submission queues (`SPBC_WRITE_QUEUE`) that
//!   coalesce small blobs under one durability barrier (`SPBC_BATCH_BYTES`/
//!   `SPBC_BATCH_LINGER_US`) and surface backpressure as
//!   [`writer::Admission::Delayed`] instead of buffering unbounded memory.

#![warn(missing_docs)]

pub mod backend;
pub mod blob;
pub mod cas;
pub mod cdc;
pub mod chunk;
pub mod crc;
pub mod ec;
pub mod service;
pub mod set;
pub mod shard;
pub mod tier;
pub mod writer;

pub use backend::{BatchItem, BatchStats, CheckpointBackend, DirBackend, MemBackend, PutStats};
pub use blob::{seal, unseal, unseal_any, Unsealed, MAGIC_V2};
pub use cas::{CasStore, ChunkFate, ChunkHash};
pub use cdc::{chunk_spans, CdcParams};
pub use chunk::{seal_v4, CasView, DeltaEncoder, DeltaView, EncodeStats, MAGIC_V3, MAGIC_V4};
pub use ec::{EcScheme, ParityView, MAGIC_PAR};
pub use service::{CkptStoreService, LoadOutcome, LoadStats, ParityShards, StoreConfig};
pub use set::SetMap;
pub use shard::ShardedStore;
pub use tier::{Keep, TierStack};
pub use writer::{Admission, AsyncWriter, WriterConfig, WriterStats};
