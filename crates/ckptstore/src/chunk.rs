//! Incremental chunk-deduplicated checkpoint blobs: the `SPBCCKP3` delta
//! format and the per-rank encoder that produces it.
//!
//! Iterative SPMD workloads mutate only a fraction of their state between
//! checkpoint waves, yet a full blob re-writes (and k-replicates) every byte
//! every wave. The delta path splits the serialized checkpoint body into
//! fixed-size chunks, hashes each chunk with the Fx 64-bit hasher, diffs
//! against the previous committed wave's chunk table, and emits only the
//! changed chunks plus a manifest saying where every unchanged chunk's bytes
//! live:
//!
//! ```text
//! "SPBCCKP3" | crc32 (LE, over everything after it) |
//! chunk_size u32 | total_len u64 |
//! manifest: n_chunks x u64  (0 = inline, else source epoch) |
//! inline chunk payloads, concatenated in chunk order
//! ```
//!
//! Manifest references are **flattened**: an unchanged chunk points at the
//! epoch whose blob holds its bytes directly (a full blob, or the delta that
//! last wrote the chunk inline) — never at an intermediate delta that itself
//! only references the chunk. Materializing a delta therefore touches
//! exactly the blobs named in its manifest, and storage GC only has to keep
//! the epochs a live manifest names (no recursive chain walk).
//!
//! Correctness before compression: a 64-bit chunk hash can collide, so hash
//! equality is only a prefilter — the encoder keeps the previous wave's body
//! and confirms every "unchanged" verdict with a byte compare. Recovery is
//! bitwise identical by construction, never probabilistically.
//!
//! Chain length is bounded two ways: a full blob is forced every
//! `full_every`-th wave, and the encoder only extends a chain over an
//! uninterrupted `epoch = prev + 1` sequence — any restart, rollback or
//! reset starts a fresh chain with a full blob.
//!
//! Interaction with the bounded write pipeline (`writer.rs`): a manifest
//! names *epochs*, so every epoch a chain references must actually land on
//! the backend. The pipeline's small-blob coalescing may replace a queued,
//! unstarted write with a newer one for the same `(job, owner)` key — safe
//! for CDC blobs (chunk bodies live in the CAS), fatal for a delta chain
//! whose base would silently vanish. The protocol therefore keeps the
//! double-buffer discipline of flushing the previous wave before committing
//! the next, and `gc_local` drains the rank's pipeline before computing the
//! retained set so in-flight manifests are visible to it.

use crate::blob::{seal, unseal};
use crate::cas::ChunkHash;
use crate::crc::crc32;
use mini_mpi::error::{MpiError, Result};
use mini_mpi::hash::FxHasher;
use std::collections::BTreeSet;
use std::hash::Hasher;

/// Delta format: magic, CRC32, chunked-manifest header, inline payloads.
pub const MAGIC_V3: &[u8; 8] = b"SPBCCKP3";

/// Content-addressed format: magic, CRC32 over the frame (header, manifest,
/// inline index), ordered chunk-address manifest, inline payloads only for
/// chunks the store didn't already hold — each integrity-checked by its
/// 128-bit address rather than by the CRC.
pub const MAGIC_V4: &[u8; 8] = b"SPBCCKP4";

/// Default chunk size (64 KiB, `SPBC_CKPT_CHUNK`).
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;
/// Default full-blob cadence (`SPBC_CKPT_FULL_EVERY`): one full blob, then
/// up to seven deltas, then full again.
pub const DEFAULT_FULL_EVERY: u64 = 8;

/// Manifest sentinel: the chunk's payload is inline in this blob.
const INLINE: u64 = 0;

/// Fixed byte offsets of the V3 header.
const OFF_CRC: usize = 8;
const OFF_CHUNK_SIZE: usize = 12;
const OFF_TOTAL_LEN: usize = 16;
const OFF_MANIFEST: usize = 24;

/// Does `bytes` carry the V3 delta magic?
pub fn is_delta(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC_V3.len() && &bytes[..MAGIC_V3.len()] == MAGIC_V3
}

/// Does `bytes` carry the V4 content-addressed magic?
pub fn is_cas(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC_V4.len() && &bytes[..MAGIC_V4.len()] == MAGIC_V4
}

/// 64-bit Fx hash of one chunk (prefilter only — see module docs).
fn chunk_hash(chunk: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(chunk);
    h.finish()
}

/// Structurally validate a sealed blob of **any** version (V2/V3/V4 +
/// parity checksum + framing; for V4 also every inline payload
/// against its address). Used to decide whether a stored copy is worth
/// loading or repairing from.
pub fn verify(bytes: &[u8]) -> Result<()> {
    if is_delta(bytes) {
        DeltaView::parse(bytes).map(|_| ())
    } else if is_cas(bytes) {
        CasView::parse(bytes)?.verify_inline()
    } else if crate::ec::is_parity(bytes) {
        crate::ec::ParityView::parse(bytes).map(|_| ())
    } else {
        unseal(bytes).map(|_| ())
    }
}

/// A parsed, checksum-verified view of a V3 delta blob.
pub struct DeltaView<'a> {
    /// Chunk size the manifest was built with.
    pub chunk_size: usize,
    /// Length of the materialized body.
    pub total_len: usize,
    /// Per-chunk source: [`INLINE`]'s `0` or the epoch holding the bytes.
    sources: Vec<u64>,
    /// Concatenated inline chunk payloads.
    payload: &'a [u8],
}

impl<'a> DeltaView<'a> {
    /// Parse and verify a V3 blob (magic, CRC, structural consistency).
    pub fn parse(bytes: &'a [u8]) -> Result<DeltaView<'a>> {
        if !is_delta(bytes) {
            return Err(MpiError::Codec("not a delta checkpoint blob".into()));
        }
        if bytes.len() < OFF_MANIFEST {
            return Err(MpiError::Codec("delta blob truncated before header".into()));
        }
        let stored = u32::from_le_bytes(bytes[OFF_CRC..OFF_CRC + 4].try_into().unwrap());
        let actual = crc32(&bytes[OFF_CHUNK_SIZE..]);
        if stored != actual {
            return Err(MpiError::Codec(format!(
                "delta checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let chunk_size =
            u32::from_le_bytes(bytes[OFF_CHUNK_SIZE..OFF_CHUNK_SIZE + 4].try_into().unwrap())
                as usize;
        let total_len =
            u64::from_le_bytes(bytes[OFF_TOTAL_LEN..OFF_TOTAL_LEN + 8].try_into().unwrap())
                as usize;
        if chunk_size == 0 {
            return Err(MpiError::Codec("delta blob with zero chunk size".into()));
        }
        let n_chunks = total_len.div_ceil(chunk_size);
        let manifest_end = OFF_MANIFEST + n_chunks * 8;
        if bytes.len() < manifest_end {
            return Err(MpiError::Codec("delta manifest truncated".into()));
        }
        let mut sources = Vec::with_capacity(n_chunks);
        let mut inline_bytes = 0usize;
        for i in 0..n_chunks {
            let off = OFF_MANIFEST + i * 8;
            let src = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
            if src == INLINE {
                inline_bytes += chunk_len(total_len, chunk_size, i);
            }
            sources.push(src);
        }
        let payload = &bytes[manifest_end..];
        if payload.len() != inline_bytes {
            return Err(MpiError::Codec(format!(
                "delta payload length {} does not match manifest ({inline_bytes} inline bytes)",
                payload.len()
            )));
        }
        Ok(DeltaView { chunk_size, total_len, sources, payload })
    }

    /// Number of chunks in the manifest.
    pub fn n_chunks(&self) -> usize {
        self.sources.len()
    }

    /// Every base epoch this manifest references (deduplicated, ascending).
    pub fn referenced_epochs(&self) -> BTreeSet<u64> {
        self.sources.iter().copied().filter(|&s| s != INLINE).collect()
    }

    /// The source epoch of chunk `idx` (`None` = inline in this blob).
    pub fn source_of(&self, idx: usize) -> Option<u64> {
        match self.sources.get(idx) {
            Some(&s) if s != INLINE => Some(s),
            _ => None,
        }
    }

    /// The inline payload of chunk `idx`, if the manifest stores it inline.
    pub fn inline_chunk(&self, idx: usize) -> Option<&'a [u8]> {
        if *self.sources.get(idx)? != INLINE {
            return None;
        }
        // Inline payloads are concatenated in chunk order: sum the lengths
        // of the inline chunks before this one.
        let mut off = 0usize;
        for (i, &s) in self.sources.iter().enumerate().take(idx) {
            if s == INLINE {
                off += chunk_len(self.total_len, self.chunk_size, i);
            }
        }
        Some(&self.payload[off..off + chunk_len(self.total_len, self.chunk_size, idx)])
    }
}

/// Length of chunk `idx` in a body of `total_len` (the last chunk may be
/// short).
fn chunk_len(total_len: usize, chunk_size: usize, idx: usize) -> usize {
    let start = idx * chunk_size;
    chunk_size.min(total_len.saturating_sub(start))
}

/// Fixed byte offsets of the V4 header.
const V4_OFF_TOTAL_LEN: usize = 12;
const V4_OFF_N_CHUNKS: usize = 20;
const V4_OFF_MANIFEST: usize = 24;
/// Bytes per V4 manifest entry: 16-byte address + u32 length.
const V4_ENTRY: usize = 20;
const V4_HASH: usize = 16;

/// One chunk of a V4 blob under construction: its content address, length,
/// and — when the blob must carry the body (the store didn't hold it) — the
/// inline payload.
pub struct V4Chunk<'a> {
    /// Content address of the chunk.
    pub hash: ChunkHash,
    /// Chunk length in bytes.
    pub len: u32,
    /// Inline payload (`Some` iff this blob carries the bytes).
    pub inline: Option<&'a [u8]>,
}

/// Frame and seal a V4 content-addressed blob from an ordered chunk list.
/// A manifest-only blob (every `inline` = `None`) is what replication
/// pushes when the partner's store already holds every chunk.
///
/// The CRC covers the frame only (header, manifest, inline index): each
/// inline payload is covered by its manifest address, which every reader
/// re-hashes ([`CasView::inline_chunk`], [`verify`]).
pub fn seal_v4(chunks: &[V4Chunk<'_>]) -> Vec<u8> {
    let total_len: u64 = chunks.iter().map(|c| c.len as u64).sum();
    let inline: Vec<(u32, &[u8])> =
        chunks.iter().enumerate().filter_map(|(i, c)| c.inline.map(|b| (i as u32, b))).collect();
    let payload_len: usize = inline.iter().map(|(_, b)| b.len()).sum();
    let mut framed = Vec::with_capacity(
        V4_OFF_MANIFEST + chunks.len() * V4_ENTRY + 4 + inline.len() * 4 + payload_len,
    );
    framed.extend_from_slice(MAGIC_V4);
    framed.extend_from_slice(&[0u8; 4]); // CRC patched below
    framed.extend_from_slice(&total_len.to_le_bytes());
    framed.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
    for c in chunks {
        debug_assert!(c.inline.is_none_or(|b| b.len() == c.len as usize));
        framed.extend_from_slice(&c.hash.0);
        framed.extend_from_slice(&c.len.to_le_bytes());
    }
    framed.extend_from_slice(&(inline.len() as u32).to_le_bytes());
    for (idx, _) in &inline {
        framed.extend_from_slice(&idx.to_le_bytes());
    }
    let crc = crc32(&framed[V4_OFF_TOTAL_LEN..]);
    framed[OFF_CRC..OFF_CRC + 4].copy_from_slice(&crc.to_le_bytes());
    for (_, bytes) in &inline {
        framed.extend_from_slice(bytes);
    }
    framed
}

/// Strip a sealed V4 blob down to its manifest: same ordered hash list, no
/// inline payloads. This is what replication pushes first — the partner
/// answers with the indices it cannot resolve from the shared store.
pub fn manifest_only_v4(sealed: &[u8]) -> Result<Vec<u8>> {
    let view = CasView::parse(sealed)?;
    let parts: Vec<V4Chunk<'_>> = (0..view.n_chunks())
        .map(|i| {
            let (hash, len) = view.chunk(i).expect("index in range");
            V4Chunk { hash, len: len as u32, inline: None }
        })
        .collect();
    Ok(seal_v4(&parts))
}

/// One V4 manifest entry as parsed.
#[derive(Clone, Copy)]
struct Entry {
    hash: ChunkHash,
    len: usize,
    /// Offset of the chunk's payload in the inline section, if inline.
    inline_at: Option<usize>,
}

/// A parsed view of a V4 content-addressed blob whose frame (header,
/// manifest, inline index) is checksum-verified. Inline payloads are
/// verified against their addresses when read, not at parse time.
pub struct CasView<'a> {
    /// Length of the materialized body.
    pub total_len: usize,
    /// Ordered manifest, with each inline payload's offset precomputed.
    chunks: Vec<Entry>,
    /// Concatenated inline payloads, in index order.
    payload: &'a [u8],
}

impl<'a> CasView<'a> {
    /// Parse a V4 blob: magic, frame CRC, structural consistency. The
    /// payload section is bounds-checked but not scanned.
    pub fn parse(bytes: &'a [u8]) -> Result<CasView<'a>> {
        if !is_cas(bytes) {
            return Err(MpiError::Codec("not a content-addressed checkpoint blob".into()));
        }
        if bytes.len() < V4_OFF_MANIFEST {
            return Err(MpiError::Codec("cas blob truncated before header".into()));
        }
        let u32_at =
            |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte field"));
        let n_chunks = u32_at(V4_OFF_N_CHUNKS) as usize;
        let manifest_end = V4_OFF_MANIFEST + n_chunks * V4_ENTRY;
        if bytes.len() < manifest_end + 4 {
            return Err(MpiError::Codec("cas manifest truncated".into()));
        }
        let n_inline = u32_at(manifest_end) as usize;
        let idx_end = manifest_end + 4 + n_inline * 4;
        if bytes.len() < idx_end {
            return Err(MpiError::Codec("cas inline index truncated".into()));
        }
        let stored = u32_at(OFF_CRC);
        let actual = crc32(&bytes[V4_OFF_TOTAL_LEN..idx_end]);
        if stored != actual {
            return Err(MpiError::Codec(format!(
                "cas checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let total_len =
            u64::from_le_bytes(bytes[V4_OFF_TOTAL_LEN..V4_OFF_TOTAL_LEN + 8].try_into().unwrap())
                as usize;
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut sum = 0usize;
        for i in 0..n_chunks {
            let off = V4_OFF_MANIFEST + i * V4_ENTRY;
            let hash = ChunkHash(bytes[off..off + V4_HASH].try_into().expect("16-byte address"));
            let len = u32_at(off + V4_HASH) as usize;
            sum += len;
            chunks.push(Entry { hash, len, inline_at: None });
        }
        if sum != total_len {
            return Err(MpiError::Codec(format!(
                "cas manifest sums to {sum} bytes but header claims {total_len}"
            )));
        }
        let mut last = None;
        let mut inline_bytes = 0usize;
        for i in 0..n_inline {
            let idx = u32_at(manifest_end + 4 + i * 4);
            let entry = chunks
                .get_mut(idx as usize)
                .ok_or_else(|| MpiError::Codec(format!("cas inline index {idx} out of range")))?;
            if last.is_some_and(|last| idx <= last) {
                return Err(MpiError::Codec("cas inline indices not strictly ascending".into()));
            }
            last = Some(idx);
            entry.inline_at = Some(inline_bytes);
            inline_bytes += entry.len;
        }
        let payload = &bytes[idx_end..];
        if payload.len() != inline_bytes {
            return Err(MpiError::Codec(format!(
                "cas payload length {} does not match manifest ({inline_bytes} inline bytes)",
                payload.len()
            )));
        }
        Ok(CasView { total_len, chunks, payload })
    }

    /// Number of chunks in the manifest.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Content address and length of chunk `idx`.
    pub fn chunk(&self, idx: usize) -> Option<(ChunkHash, usize)> {
        self.chunks.get(idx).map(|e| (e.hash, e.len))
    }

    /// The ordered list of chunk hashes — what replication advertises.
    pub fn hashes(&self) -> Vec<ChunkHash> {
        self.chunks.iter().map(|e| e.hash).collect()
    }

    /// The inline payload of chunk `idx`, hash-verified, if this blob
    /// carries it.
    pub fn inline_chunk(&self, idx: usize) -> Result<Option<&'a [u8]>> {
        let Some(&Entry { hash, len, inline_at: Some(off) }) = self.chunks.get(idx) else {
            return Ok(None);
        };
        let bytes = &self.payload[off..off + len];
        if ChunkHash::of(bytes) != hash {
            return Err(MpiError::Codec(format!(
                "cas inline chunk {idx} does not hash to its manifest address"
            )));
        }
        Ok(Some(bytes))
    }

    /// Hash-check every inline payload: with the frame CRC from
    /// [`parse`](Self::parse), this covers every byte of the blob.
    pub(crate) fn verify_inline(&self) -> Result<()> {
        for idx in 0..self.chunks.len() {
            self.inline_chunk(idx)?;
        }
        Ok(())
    }

    /// Materialize the body: inline payloads (hash-verified) where present,
    /// `lookup` (the content-addressed store) for everything else.
    pub fn materialize(
        &self,
        lookup: &mut dyn FnMut(&ChunkHash) -> Option<Vec<u8>>,
    ) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.total_len);
        for (idx, &Entry { hash, len, .. }) in self.chunks.iter().enumerate() {
            match self.inline_chunk(idx)? {
                Some(bytes) => out.extend_from_slice(bytes),
                None => {
                    let bytes = lookup(&hash).ok_or_else(|| {
                        MpiError::Codec(format!(
                            "cas chunk {idx} ({hash:?}) not inline and not in the store"
                        ))
                    })?;
                    if bytes.len() != len || ChunkHash::of(&bytes) != hash {
                        return Err(MpiError::Codec(format!(
                            "cas store returned wrong content for chunk {idx} ({hash:?})"
                        )));
                    }
                    out.extend_from_slice(&bytes);
                }
            }
        }
        Ok(out)
    }
}

/// Every base epoch a sealed blob references — empty for V2 full blobs
/// and for V4 (content-addressed blobs reference hashes, not epochs).
/// Storage GC keeps these alive while the referring blob is retained.
pub fn referenced_epochs(bytes: &[u8]) -> Result<BTreeSet<u64>> {
    if is_delta(bytes) {
        Ok(DeltaView::parse(bytes)?.referenced_epochs())
    } else {
        Ok(BTreeSet::new())
    }
}

/// Materialize the full checkpoint body from a sealed blob of any version.
///
/// `fetch` resolves a referenced base epoch to its raw sealed blob (the
/// caller routes it through local storage with partner repair). Because
/// manifests are flattened, every referenced blob must hold the needed
/// chunk directly — inline in a delta, or anywhere in a full blob.
pub fn materialize(
    sealed: &[u8],
    fetch: &mut dyn FnMut(u64) -> Result<Vec<u8>>,
) -> Result<Vec<u8>> {
    if is_cas(sealed) {
        return Err(MpiError::Codec(
            "content-addressed blob (SPBCCKP4) requires store materialization".into(),
        ));
    }
    if !is_delta(sealed) {
        return Ok(unseal(sealed)?.to_vec());
    }
    let view = DeltaView::parse(sealed)?;
    let mut out = vec![0u8; view.total_len];
    // Fetch each referenced base once and fill every chunk it provides.
    for base_epoch in view.referenced_epochs() {
        let base_blob = fetch(base_epoch)?;
        let base_view; // keep a parsed delta alive across the chunk loop
        enum Base<'a> {
            Full(&'a [u8]),
            Delta(&'a DeltaView<'a>),
        }
        let base = if is_delta(&base_blob) {
            base_view = DeltaView::parse(&base_blob)?;
            Base::Delta(&base_view)
        } else {
            Base::Full(unseal(&base_blob)?)
        };
        for idx in 0..view.n_chunks() {
            if view.source_of(idx) != Some(base_epoch) {
                continue;
            }
            let start = idx * view.chunk_size;
            let len = chunk_len(view.total_len, view.chunk_size, idx);
            let src: &[u8] = match &base {
                Base::Full(body) => {
                    if body.len() < start + len {
                        return Err(MpiError::Codec(format!(
                            "base epoch {base_epoch} too short for chunk {idx}"
                        )));
                    }
                    &body[start..start + len]
                }
                Base::Delta(d) => {
                    let inline = d.inline_chunk(idx).ok_or_else(|| {
                        MpiError::Codec(format!(
                            "unflattened delta chain: epoch {base_epoch} does not hold \
                             chunk {idx} inline"
                        ))
                    })?;
                    if inline.len() < len {
                        return Err(MpiError::Codec(format!(
                            "base epoch {base_epoch} chunk {idx} shorter than referenced"
                        )));
                    }
                    &inline[..len]
                }
            };
            out[start..start + len].copy_from_slice(src);
        }
    }
    for idx in 0..view.n_chunks() {
        if let Some(inline) = view.inline_chunk(idx) {
            let start = idx * view.chunk_size;
            out[start..start + inline.len()].copy_from_slice(inline);
        }
    }
    Ok(out)
}

/// What one commit encode produced — the dedup accounting the
/// metrics/bench layers report (fixed-grid delta path and CDC/CAS path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// A full (V2) blob was written (cadence, first wave, broken chain, or
    /// every chunk changed). Always false on the CDC path.
    pub full: bool,
    /// Chunks in the body.
    pub chunks: usize,
    /// Chunks whose payload this wave's blob carries.
    pub inline_chunks: usize,
    /// Bytes of the serialized checkpoint body (what a full write costs).
    pub logical: u64,
    /// Bytes of the sealed blob actually written and replicated.
    pub physical: u64,
    /// CDC path: chunks deduped against content this rank stored earlier
    /// (cross-epoch hits).
    pub cas_hit_chunks_same_owner: usize,
    /// CDC path: chunks deduped against content another rank stored first
    /// (cross-rank hits).
    pub cas_hit_chunks_cross_rank: usize,
    /// CDC path: bytes served by the store instead of being re-stored.
    pub cas_hit_bytes: u64,
    /// CDC path: bytes of new unique content this commit added.
    pub cas_new_bytes: u64,
}

/// Previous committed wave, kept for diffing and reference flattening.
struct PrevWave {
    epoch: u64,
    body: Vec<u8>,
    /// Fx hash per chunk — the diff prefilter.
    hashes: Vec<u64>,
    /// Flattened source epoch per chunk (where the bytes live).
    sources: Vec<u64>,
    /// Deltas emitted since the last full blob.
    deltas_since_full: u64,
}

/// Per-rank delta encoder: owns the previous wave's chunk table and decides
/// full-vs-delta per commit. One instance per rank, driven by the storage
/// service on the commit path (the async writer's double buffer then hides
/// the write it produces).
pub struct DeltaEncoder {
    chunk_size: usize,
    full_every: u64,
    prev: Option<PrevWave>,
}

impl DeltaEncoder {
    /// Encoder with the given chunk size and full-blob cadence (both
    /// clamped to at least 1; `full_every = 1` disables deltas).
    pub fn new(chunk_size: usize, full_every: u64) -> Self {
        DeltaEncoder { chunk_size: chunk_size.max(1), full_every: full_every.max(1), prev: None }
    }

    /// Drop the diff state: the next wave writes a full blob and starts a
    /// fresh chain. Called after a restore — epochs re-committed after a
    /// rollback overwrite old blobs, so a chain must never span a restart.
    pub fn reset(&mut self) {
        self.prev = None;
    }

    /// Seal `body` for `epoch`, as a delta against the previous wave when
    /// allowed and worthwhile, else as a full V2 blob.
    pub fn encode(&mut self, epoch: u64, body: &[u8]) -> (Vec<u8>, EncodeStats) {
        let n_chunks = body.len().div_ceil(self.chunk_size);
        let hashes: Vec<u64> =
            (0..n_chunks).map(|i| chunk_hash(self.chunk_slice(body, i))).collect();

        let deltable = match &self.prev {
            Some(p) => {
                epoch == p.epoch + 1 && p.deltas_since_full + 1 < self.full_every && n_chunks > 0
            }
            None => false,
        };
        if deltable {
            let p = self.prev.as_ref().expect("deltable implies prev");
            // Diff: hash prefilter, byte-compare confirm (hash collisions
            // must not corrupt recovery).
            let unchanged: Vec<bool> = (0..n_chunks)
                .map(|i| {
                    p.hashes.get(i) == Some(&hashes[i])
                        && self.chunk_slice(body, i) == self.prev_chunk_slice(i)
                })
                .collect();
            if unchanged.iter().any(|&u| u) {
                let p = self.prev.as_ref().expect("checked");
                let mut sources = Vec::with_capacity(n_chunks);
                let mut inline_chunks = 0usize;
                let mut payload_len = 0usize;
                for (i, &u) in unchanged.iter().enumerate() {
                    if u {
                        sources.push(p.sources[i]);
                    } else {
                        sources.push(INLINE);
                        inline_chunks += 1;
                        payload_len += chunk_len(body.len(), self.chunk_size, i);
                    }
                }
                let mut framed = Vec::with_capacity(OFF_MANIFEST + n_chunks * 8 + payload_len);
                framed.extend_from_slice(MAGIC_V3);
                framed.extend_from_slice(&[0u8; 4]); // CRC patched below
                framed.extend_from_slice(&(self.chunk_size as u32).to_le_bytes());
                framed.extend_from_slice(&(body.len() as u64).to_le_bytes());
                for &s in &sources {
                    framed.extend_from_slice(&s.to_le_bytes());
                }
                for (i, &u) in unchanged.iter().enumerate() {
                    if !u {
                        framed.extend_from_slice(self.chunk_slice(body, i));
                    }
                }
                let crc = crc32(&framed[OFF_CHUNK_SIZE..]);
                framed[OFF_CRC..OFF_CRC + 4].copy_from_slice(&crc.to_le_bytes());
                let stats = EncodeStats {
                    full: false,
                    chunks: n_chunks,
                    inline_chunks,
                    logical: body.len() as u64,
                    physical: framed.len() as u64,
                    ..Default::default()
                };
                let deltas_since_full = self.prev.as_ref().map_or(0, |p| p.deltas_since_full) + 1;
                // Flattened table for the *next* wave: a chunk written
                // inline here lives in this epoch's blob.
                let flattened =
                    sources.iter().map(|&s| if s == INLINE { epoch } else { s }).collect();
                self.prev = Some(PrevWave {
                    epoch,
                    body: body.to_vec(),
                    hashes,
                    sources: flattened,
                    deltas_since_full,
                });
                return (framed, stats);
            }
            // Every chunk changed: a delta only adds manifest overhead —
            // fall through to a plain full blob (worst case matches V2).
        }
        let framed = seal(body);
        let stats = EncodeStats {
            full: true,
            chunks: n_chunks,
            inline_chunks: n_chunks,
            logical: body.len() as u64,
            physical: framed.len() as u64,
            ..Default::default()
        };
        self.prev = Some(PrevWave {
            epoch,
            body: body.to_vec(),
            hashes,
            sources: vec![epoch; n_chunks],
            deltas_since_full: 0,
        });
        (framed, stats)
    }

    fn chunk_slice<'b>(&self, body: &'b [u8], idx: usize) -> &'b [u8] {
        let start = idx * self.chunk_size;
        &body[start..start + chunk_len(body.len(), self.chunk_size, idx)]
    }

    fn prev_chunk_slice(&self, idx: usize) -> &[u8] {
        let p = self.prev.as_ref().expect("prev required");
        let start = idx * self.chunk_size;
        let end = (start + self.chunk_size).min(p.body.len());
        if start >= p.body.len() {
            &[]
        } else {
            &p.body[start..end]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::MAGIC_V2;
    use std::collections::HashMap;

    /// In-test blob store: epoch → sealed blob, with a fetch closure.
    fn fetch_from(map: &HashMap<u64, Vec<u8>>) -> impl FnMut(u64) -> Result<Vec<u8>> + '_ {
        move |e| {
            map.get(&e).cloned().ok_or_else(|| MpiError::Codec(format!("missing base epoch {e}")))
        }
    }

    fn body(len: usize, tag: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag)).collect()
    }

    #[test]
    fn first_wave_is_full() {
        let mut enc = DeltaEncoder::new(16, 8);
        let (blob, stats) = enc.encode(1, &body(100, 1));
        assert!(stats.full);
        assert_eq!(&blob[..8], MAGIC_V2);
        assert_eq!(unseal(&blob).unwrap(), &body(100, 1)[..]);
    }

    #[test]
    fn unchanged_chunks_are_referenced_not_stored() {
        let mut enc = DeltaEncoder::new(16, 8);
        let b1 = body(100, 1);
        let (blob1, _) = enc.encode(1, &b1);
        let mut b2 = b1.clone();
        b2[40] ^= 0xFF; // dirty exactly one 16-byte chunk (idx 2)
        let (blob2, stats) = enc.encode(2, &b2);
        assert!(!stats.full);
        assert_eq!(stats.chunks, 7);
        assert_eq!(stats.inline_chunks, 1);
        assert!(stats.physical < stats.logical);
        let view = DeltaView::parse(&blob2).unwrap();
        assert_eq!(view.referenced_epochs().into_iter().collect::<Vec<_>>(), vec![1]);
        assert!(view.inline_chunk(2).is_some());
        assert_eq!(view.source_of(0), Some(1));

        let mut store = HashMap::from([(1u64, blob1)]);
        let got = materialize(&blob2, &mut fetch_from(&store)).unwrap();
        assert_eq!(got, b2);
        store.clear();
        assert!(materialize(&blob2, &mut fetch_from(&store)).is_err(), "missing base detected");
    }

    #[test]
    fn references_flatten_across_a_chain() {
        let mut enc = DeltaEncoder::new(16, 8);
        let b1 = body(128, 1);
        let (blob1, _) = enc.encode(1, &b1);
        let mut b2 = b1.clone();
        b2[0] ^= 1; // chunk 0 dirty at wave 2
        let (blob2, _) = enc.encode(2, &b2);
        let mut b3 = b2.clone();
        b3[17] ^= 1; // chunk 1 dirty at wave 3
        let (blob3, _) = enc.encode(3, &b3);
        let view = DeltaView::parse(&blob3).unwrap();
        // Chunk 0's bytes live inline in epoch 2's delta; chunks 2.. in the
        // epoch-1 full blob; never "via epoch 2's reference".
        assert_eq!(view.source_of(0), Some(2));
        assert_eq!(view.source_of(1), None, "dirty chunk is inline");
        assert_eq!(view.source_of(2), Some(1));
        let store = HashMap::from([(1u64, blob1), (2u64, blob2)]);
        assert_eq!(materialize(&blob3, &mut fetch_from(&store)).unwrap(), b3);
    }

    #[test]
    fn full_every_bounds_the_chain() {
        let mut enc = DeltaEncoder::new(16, 3);
        let b = body(64, 9);
        let mut fulls = Vec::new();
        for e in 1..=9 {
            let mut be = b.clone();
            be[0] = e as u8; // keep one chunk dirty so deltas stay possible
            let (_, stats) = enc.encode(e, &be);
            fulls.push(stats.full);
        }
        // full, delta, delta, full, delta, delta, ...
        assert_eq!(fulls, vec![true, false, false, true, false, false, true, false, false]);
    }

    #[test]
    fn non_consecutive_epoch_breaks_the_chain() {
        let mut enc = DeltaEncoder::new(16, 8);
        let b = body(64, 3);
        let (_, s1) = enc.encode(1, &b);
        assert!(s1.full);
        let (_, s2) = enc.encode(2, &b);
        assert!(!s2.full);
        // Epoch jump (rollback re-commit landed elsewhere): full again.
        let (_, s4) = enc.encode(4, &b);
        assert!(s4.full);
        // And an explicit reset does the same.
        let (_, s5) = enc.encode(5, &b);
        assert!(!s5.full);
        enc.reset();
        let (_, s6) = enc.encode(6, &b);
        assert!(s6.full);
    }

    #[test]
    fn all_chunks_changed_falls_back_to_full() {
        let mut enc = DeltaEncoder::new(16, 8);
        enc.encode(1, &body(64, 1));
        let (blob, stats) = enc.encode(2, &body(64, 200));
        assert!(stats.full, "no unchanged chunk → plain V2, no manifest overhead");
        assert_eq!(&blob[..8], MAGIC_V2);
        // And the chain continues from the forced full.
        let mut b3 = body(64, 200);
        b3[0] ^= 1;
        let (blob3, s3) = enc.encode(3, &b3);
        assert!(!s3.full);
        assert_eq!(
            DeltaView::parse(&blob3).unwrap().referenced_epochs().into_iter().collect::<Vec<_>>(),
            vec![2]
        );
    }

    #[test]
    fn body_length_changes_are_handled() {
        let mut enc = DeltaEncoder::new(16, 8);
        let b1 = body(100, 1); // 7 chunks, last short
        let (blob1, _) = enc.encode(1, &b1);
        // Grow: old chunks unchanged, new tail inline.
        let mut b2 = b1.clone();
        b2.extend_from_slice(&body(30, 7));
        let (blob2, s2) = enc.encode(2, &b2);
        assert!(!s2.full);
        let store = HashMap::from([(1u64, blob1.clone())]);
        assert_eq!(materialize(&blob2, &mut fetch_from(&store)).unwrap(), b2);
        // Shrink below a chunk boundary: the short last chunk is inline
        // (its length changed, so its bytes differ as a slice).
        let b3 = b2[..90].to_vec();
        let (blob3, s3) = enc.encode(3, &b3);
        assert!(!s3.full);
        let store = HashMap::from([(1u64, blob1), (2u64, blob2)]);
        assert_eq!(materialize(&blob3, &mut fetch_from(&store)).unwrap(), b3);
    }

    #[test]
    fn identical_body_deltas_to_near_nothing() {
        let mut enc = DeltaEncoder::new(1024, 8);
        let b = body(64 * 1024, 5);
        enc.encode(1, &b);
        let (blob, stats) = enc.encode(2, &b);
        assert!(!stats.full);
        assert_eq!(stats.inline_chunks, 0);
        assert!(
            (stats.physical as usize) < b.len() / 64,
            "manifest-only delta: {} for a {} byte body",
            stats.physical,
            b.len()
        );
        let store = HashMap::from([(1u64, seal(&b))]);
        assert_eq!(materialize(&blob, &mut fetch_from(&store)).unwrap(), b);
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let mut enc = DeltaEncoder::new(16, 8);
        let b1 = body(100, 1);
        enc.encode(1, &b1);
        let mut b2 = b1.clone();
        b2[40] ^= 0xFF;
        let (blob2, _) = enc.encode(2, &b2);
        for i in 0..blob2.len() {
            let mut bad = blob2.clone();
            bad[i] ^= 0x20;
            assert!(verify(&bad).is_err(), "flip at {i} undetected");
        }
        assert!(verify(&blob2).is_ok());
    }

    #[test]
    fn verify_accepts_all_versions_and_rejects_garbage() {
        assert!(verify(&seal(b"full")).is_ok());
        // The retired V1 framing (V2's magic with version digit 1).
        let mut v1 = MAGIC_V2.to_vec();
        v1[7] = b'1';
        v1.extend_from_slice(b"legacy");
        assert!(verify(&v1).is_err());
        assert!(verify(b"SPBCCKP3short").is_err());
        assert!(verify(b"garbage").is_err());
        assert!(referenced_epochs(&seal(b"full")).unwrap().is_empty());
    }

    #[test]
    fn truncated_manifest_and_payload_are_rejected() {
        let mut enc = DeltaEncoder::new(16, 8);
        let b1 = body(100, 1);
        enc.encode(1, &b1);
        let mut b2 = b1.clone();
        b2[0] ^= 1;
        let (blob2, _) = enc.encode(2, &b2);
        for cut in [OFF_CRC, OFF_MANIFEST - 1, OFF_MANIFEST + 3, blob2.len() - 1] {
            assert!(DeltaView::parse(&blob2[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    fn v4_blob(chunks: &[(&[u8], bool)]) -> Vec<u8> {
        let parts: Vec<V4Chunk<'_>> = chunks
            .iter()
            .map(|(b, inline)| V4Chunk {
                hash: ChunkHash::of(b),
                len: b.len() as u32,
                inline: inline.then_some(*b),
            })
            .collect();
        seal_v4(&parts)
    }

    #[test]
    fn v4_roundtrip_mixes_inline_and_store_chunks() {
        let c0 = body(300, 1);
        let c1 = body(512, 2);
        let c2 = body(40, 3);
        let blob = v4_blob(&[(&c0, true), (&c1, false), (&c2, true)]);
        assert!(is_cas(&blob));
        assert!(verify(&blob).is_ok());
        let view = CasView::parse(&blob).unwrap();
        assert_eq!(view.n_chunks(), 3);
        assert_eq!(view.total_len, 300 + 512 + 40);
        assert_eq!(view.inline_chunk(0).unwrap(), Some(&c0[..]));
        assert_eq!(view.inline_chunk(1).unwrap(), None);
        assert_eq!(view.hashes()[1], ChunkHash::of(&c1));
        // Materialize with the store serving the non-inline chunk.
        let mut lookup = |h: &ChunkHash| (*h == ChunkHash::of(&c1)).then(|| c1.clone());
        let got = view.materialize(&mut lookup).unwrap();
        assert_eq!(got, [c0.clone(), c1.clone(), c2.clone()].concat());
        // A store miss on a non-inline chunk is loud.
        let mut empty = |_: &ChunkHash| None;
        assert!(view.materialize(&mut empty).is_err());
        // A store serving wrong bytes is caught by the hash re-check.
        let mut lying = |_: &ChunkHash| Some(body(512, 99));
        assert!(view.materialize(&mut lying).is_err());
    }

    #[test]
    fn v4_manifest_only_and_empty_blobs() {
        let c0 = body(128, 4);
        let manifest_only = v4_blob(&[(&c0, false)]);
        let full = v4_blob(&[(&c0, true)]);
        assert!(
            manifest_only.len() < full.len(),
            "manifest-only framing must not carry payload bytes"
        );
        let mut lookup = |_: &ChunkHash| Some(c0.clone());
        assert_eq!(CasView::parse(&manifest_only).unwrap().materialize(&mut lookup).unwrap(), c0);
        // Zero chunks = empty body.
        let empty = seal_v4(&[]);
        let view = CasView::parse(&empty).unwrap();
        let mut none = |_: &ChunkHash| None;
        assert_eq!(view.materialize(&mut none).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn v4_corruption_and_truncation_are_detected() {
        let c0 = body(100, 5);
        let c1 = body(60, 6);
        let blob = v4_blob(&[(&c0, true), (&c1, false)]);
        // Frame = header + two 20-byte entries + inline count + one index.
        let frame_end = V4_OFF_MANIFEST + 2 * V4_ENTRY + 4 + 4;
        assert_eq!(blob.len(), frame_end + c0.len());
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x10;
            assert!(verify(&bad).is_err(), "flip at {i} undetected");
            // The CRC covers the frame only; a payload flip parses and is
            // caught by the payload's address instead.
            let parsed = CasView::parse(&bad);
            if i < frame_end {
                assert!(parsed.is_err(), "frame flip at {i} passed the CRC");
            } else {
                let err = parsed.unwrap().inline_chunk(0).unwrap_err();
                assert!(format!("{err}").contains("does not hash"), "{err}");
            }
        }
        for cut in
            [4, OFF_CRC, V4_OFF_MANIFEST - 1, V4_OFF_MANIFEST + 10, frame_end, blob.len() - 1]
        {
            assert!(CasView::parse(&blob[..cut]).is_err(), "cut at {cut} accepted");
        }
        // A blob in the old layout (32-byte addresses, CRC over the whole
        // body) fails loudly instead of misparsing.
        let mut old = MAGIC_V4.to_vec();
        old.extend_from_slice(&[0u8; 4]);
        old.extend_from_slice(&(c0.len() as u64).to_le_bytes());
        old.extend_from_slice(&1u32.to_le_bytes());
        old.extend_from_slice(&[0xAB; 32]);
        old.extend_from_slice(&(c0.len() as u32).to_le_bytes());
        old.extend_from_slice(&1u32.to_le_bytes());
        old.extend_from_slice(&0u32.to_le_bytes());
        old.extend_from_slice(&c0);
        let crc = crc32(&old[V4_OFF_TOTAL_LEN..]);
        old[OFF_CRC..OFF_CRC + 4].copy_from_slice(&crc.to_le_bytes());
        assert!(verify(&old).is_err(), "old-layout V4 blob accepted");
        // V4 has no epoch references and cannot be epoch-materialized.
        assert!(referenced_epochs(&blob).unwrap().is_empty());
        let mut fetch = |_: u64| -> Result<Vec<u8>> { unreachable!() };
        let err = materialize(&blob, &mut fetch).unwrap_err();
        assert!(format!("{err}").contains("SPBCCKP4"), "{err}");
    }

    #[test]
    fn empty_body_stays_full() {
        let mut enc = DeltaEncoder::new(16, 8);
        let (b1, s1) = enc.encode(1, &[]);
        assert!(s1.full);
        let (b2, s2) = enc.encode(2, &[]);
        assert!(s2.full, "zero chunks cannot delta");
        let mut fetch = |_: u64| -> Result<Vec<u8>> { unreachable!() };
        assert_eq!(materialize(&b1, &mut fetch).unwrap(), Vec::<u8>::new());
        assert_eq!(materialize(&b2, &mut fetch).unwrap(), Vec::<u8>::new());
    }
}
