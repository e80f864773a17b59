//! # spbc-ckptstore
//!
//! Replicated checkpoint-storage subsystem.
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
//!   ([`blob`]); a bit-flip anywhere in the body is detected on load. A full
//!   blob checksums its whole body; an `SPBCCKP4` blob
//!   checksums its frame (header, manifest, inline index) and each inline
//!   payload is re-hashed against its 128-bit manifest address
//!   ([`chunk::verify`], [`cas`]).
//! * **Partner replication** — [`service::CkptStoreService`] keeps, next to
//!   each rank's local store, a partner store holding copies of *other*
//!   ranks' checkpoints (ReStore-style, in-memory by default). A rank whose
//!   local copies are lost or corrupted repairs transparently from a
//!   surviving partner at load time.
//! * **Off-thread disk writes** — a disk store's put runs on the one
//!   [`writer::AsyncWriter`] thread, so a wave's write overlaps its
//!   replication, and the member's flush before it acknowledges the commit
//!   is the only point that waits for it: an acknowledged wave is durable.
//!   A store that keeps its waves in memory puts on the rank's thread.
//! * **Garbage collection** — the service prunes epochs older than the
//!   newest globally-committed wave, both for local copies and partner-held
//!   replicas, replacing manual `prune` calls. No blob references another
//!   epoch, so pruning is a plain window; chunk bodies shared across
//!   epochs live in the refcounted [`cas`] store and outlive a pruned
//!   manifest only while a retained one still names them.
//! * **Content-defined dedup** — [`cdc`] cuts checkpoint bodies at
//!   content-defined boundaries (FastCDC gear hashing) and [`cas`] stores
//!   each unique chunk once, refcounted, shared across epochs *and* ranks.
//!   The `SPBCCKP4` manifest format ([`chunk::CasView`]) carries chunk
//!   addresses plus payloads only for content the store didn't already hold.
//!   With CDC off, every wave is one sealed `SPBCCKP2` full blob.
//! * **Erasure-coded redundancy sets** — [`ec`] + [`set`] group each
//!   cluster's ranks into SCR-style sets and compute XOR or GF(2^8)
//!   Reed–Solomon parity (`SPBCPAR1` frames) over the set's sealed blobs
//!   per wave, so a lost member rebuilds from `g-1` survivors plus parity
//!   at far below the 2× physical cost of full partner copies.
//!
//! One service serves one run: one lock guards its [`cas`] store, and only
//! a disk-rooted service runs a writer thread.

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
pub mod writer;

pub use backend::{CheckpointBackend, DirBackend, MemBackend, PutStats};
pub use blob::{seal, unseal, unseal_any, Unsealed, MAGIC_V2};
pub use cas::{CasStore, ChunkFate, ChunkHash};
pub use cdc::{chunk_reusing, chunk_spans, CdcParams, Cut, Cuts};
pub use chunk::{seal_v4, CasView, DeltaEncoder, EncodeStats, MAGIC_V3, MAGIC_V4};
pub use ec::{EcScheme, ParityView, MAGIC_PAR};
pub use service::{
    Adoption, CkptStoreService, LoadOutcome, LoadStats, Replica, Replication, StoreConfig,
};
pub use set::SetMap;
pub use writer::{AsyncWriter, WriterStats};
