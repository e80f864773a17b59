//! Content-addressed checkpoint manifests (`SPBCCKP4`), the any-version
//! blob verifier, and the commit-encode accounting.
//!
//! With CDC on, the storage service cuts each wave's serialized body at
//! content-defined boundaries ([`crate::cdc`]), dedups every chunk in the
//! service-wide [`crate::cas::CasStore`], and seals the wave as a V4
//! manifest: the ordered chunk addresses plus payloads only for chunks the
//! store did not already hold ([`seal_v4`], [`CasView`]). With CDC off a
//! wave is one sealed `SPBCCKP2` full blob ([`crate::blob`]). Neither form
//! references another epoch, so storage GC never has to keep an old blob
//! alive for a newer one.
//!
//! [`DeltaEncoder`] is the retired fixed-grid `SPBCCKP3` differ. The store
//! neither writes nor reads its output; it survives only as an encoder
//! whose throughput `spbc-perf` still reports.

use crate::blob::{seal, unseal};
use crate::cas::ChunkHash;
use crate::crc::crc32;
use mini_mpi::error::{MpiError, Result};
use mini_mpi::hash::FxHasher;
use std::hash::Hasher;

/// Magic of the retired fixed-grid delta format [`DeltaEncoder`] emits.
/// No store path reads it: [`verify`] rejects it as an unknown version.
pub const MAGIC_V3: &[u8; 8] = b"SPBCCKP3";

/// Content-addressed format: magic, CRC32 over the frame (header, manifest,
/// inline index), ordered chunk-address manifest, inline payloads only for
/// chunks the store didn't already hold — each integrity-checked by its
/// 128-bit address rather than by the CRC.
pub const MAGIC_V4: &[u8; 8] = b"SPBCCKP4";

/// The retired [`DeltaEncoder`]'s grid (64 KiB): the default of the inert
/// `chunk_size` config fields.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// V3 manifest sentinel: the chunk's payload is inline in this blob.
const INLINE: u64 = 0;

/// Fixed byte offsets shared by the V3 and V4 headers.
const OFF_CRC: usize = 8;
const OFF_CHUNK_SIZE: usize = 12;
const OFF_MANIFEST: usize = 24;

/// Does `bytes` carry the V4 content-addressed magic?
pub fn is_cas(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC_V4.len() && &bytes[..MAGIC_V4.len()] == MAGIC_V4
}

/// 64-bit Fx hash of one chunk (the [`DeltaEncoder`]'s diff prefilter).
fn chunk_hash(chunk: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(chunk);
    h.finish()
}

/// Structurally validate a sealed blob of **any** version the store
/// holds (V2 checksum, V4 frame CRC plus every inline payload against its
/// address, parity framing). Used to decide whether a stored copy is
/// worth loading or repairing from.
pub fn verify(bytes: &[u8]) -> Result<()> {
    if is_cas(bytes) {
        CasView::parse(bytes)?.verify_inline()
    } else if crate::ec::is_parity(bytes) {
        crate::ec::ParityView::parse(bytes).map(|_| ())
    } else {
        unseal(bytes).map(|_| ())
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
    let mut framed = Vec::with_capacity(sealed_v4_len(chunks));
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

/// Length of [`seal_v4`]'s output for `chunks`, without building it: the
/// frame plus every inline payload.
pub(crate) fn sealed_v4_len(chunks: &[V4Chunk<'_>]) -> usize {
    let (n_inline, payload) = chunks
        .iter()
        .filter_map(|c| c.inline.map(<[u8]>::len))
        .fold((0, 0), |(n, bytes), len| (n + 1, bytes + len));
    V4_OFF_MANIFEST + chunks.len() * V4_ENTRY + 4 + n_inline * 4 + payload
}

/// Whether a V4 blob carries any chunk payload inline — `false` for a
/// manifest-only frame (and for anything too short to tell). Reads one
/// header field; the frame is not verified.
pub(crate) fn carries_payload(bytes: &[u8]) -> bool {
    let field = |off: usize| {
        bytes.get(off..off + 4).map(|b| u32::from_le_bytes(b.try_into().expect("4-byte field")))
    };
    let Some(n_chunks) = field(V4_OFF_N_CHUNKS) else { return false };
    let manifest_end = V4_OFF_MANIFEST.saturating_add((n_chunks as usize).saturating_mul(V4_ENTRY));
    field(manifest_end).is_some_and(|n_inline| n_inline > 0)
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

    /// Whether this blob carries chunk `idx`'s payload inline.
    pub(crate) fn is_inline(&self, idx: usize) -> bool {
        self.chunks.get(idx).is_some_and(|e| e.inline_at.is_some())
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

/// What one commit encode produced — the dedup accounting the
/// metrics/bench layers report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodeStats {
    /// A full (V2) blob was written. Always false on the CDC path.
    pub full: bool,
    /// Chunks in the body (a full blob counts as one).
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

/// The retired fixed-grid delta encoder: owns the previous wave's chunk
/// table and emits either a full V2 blob or an `SPBCCKP3` delta of the
/// changed chunks plus a manifest naming the epoch that holds each
/// unchanged one. The storage service does not use it and no reader of
/// `SPBCCKP3` remains; only `spbc-perf`'s `delta_encode_mb_s` row drives it.
///
/// Manifest references are flattened (an unchanged chunk names the epoch
/// whose blob holds its bytes directly), a 64-bit hash match is confirmed
/// by a byte compare, a full blob is forced every `full_every`-th wave, and
/// a chain only extends over consecutive epochs.
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
        enc.encode(1, &b1);
        let mut b2 = b1.clone();
        b2[40] ^= 0xFF; // dirty exactly one 16-byte chunk (idx 2)
        let (blob2, stats) = enc.encode(2, &b2);
        assert!(!stats.full);
        assert_eq!(&blob2[..8], MAGIC_V3);
        assert_eq!(stats.chunks, 7);
        assert_eq!(stats.inline_chunks, 1);
        assert!(stats.physical < stats.logical);
        // The store reads no V3 blob: it is an unknown version to it.
        let err = format!("{}", verify(&blob2).unwrap_err());
        assert!(err.contains("unknown checkpoint blob version"), "{err}");
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
        let (_, s3) = enc.encode(3, &b3);
        assert!(!s3.full);
        assert_eq!(s3.inline_chunks, 1);
    }

    #[test]
    fn body_length_changes_are_handled() {
        let mut enc = DeltaEncoder::new(16, 8);
        let b1 = body(100, 1); // 7 chunks, last short
        enc.encode(1, &b1);
        // Grow: the old short tail and the new chunks are inline.
        let mut b2 = b1.clone();
        b2.extend_from_slice(&body(30, 7));
        let (_, s2) = enc.encode(2, &b2);
        assert!(!s2.full);
        assert_eq!((s2.chunks, s2.inline_chunks), (9, 3));
        // Shrink below a chunk boundary: only the new short tail is inline.
        let (_, s3) = enc.encode(3, &b2[..90]);
        assert!(!s3.full);
        assert_eq!((s3.chunks, s3.inline_chunks), (6, 1));
    }

    #[test]
    fn identical_body_deltas_to_near_nothing() {
        let mut enc = DeltaEncoder::new(1024, 8);
        let b = body(64 * 1024, 5);
        enc.encode(1, &b);
        let (_, stats) = enc.encode(2, &b);
        assert!(!stats.full);
        assert_eq!(stats.inline_chunks, 0);
        assert!(
            (stats.physical as usize) < b.len() / 64,
            "manifest-only delta: {} for a {} byte body",
            stats.physical,
            b.len()
        );
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
    }

    #[test]
    fn empty_body_stays_full() {
        let mut enc = DeltaEncoder::new(16, 8);
        let (b1, s1) = enc.encode(1, &[]);
        assert!(s1.full);
        let (b2, s2) = enc.encode(2, &[]);
        assert!(s2.full, "zero chunks cannot delta");
        assert_eq!(unseal(&b1).unwrap(), &[] as &[u8]);
        assert_eq!(unseal(&b2).unwrap(), &[] as &[u8]);
    }
}
