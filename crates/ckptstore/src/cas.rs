//! Refcounted content-addressed chunk store: the dedup substrate behind
//! `SPBCCKP4` checkpoints.
//!
//! Chunks cut by [`crate::cdc`] are keyed by their 128-bit [`ChunkHash`] and
//! stored once per unique content, no matter how many epochs or ranks
//! reference them. References are tracked through a *registration ledger*:
//! each committed manifest registers under a `(holder, owner, epoch)` key
//! the ordered list of chunk hashes it references, and every occurrence in
//! a registered manifest holds one reference. A chunk's bytes live exactly
//! as long as some registered manifest references them.
//!
//! One lock guards the chunk map, the ledger and the residency gauges. A
//! [`crate::CkptStoreService`] serves one run, and a run's ranks commit a
//! few times per checkpoint interval, so there is nothing for finer locks
//! to win; lookups take the lock shared. The ledger keeps each
//! `(holder, owner)` pair's registrations in epoch order, so a GC sweep is
//! one `split_off`.
//!
//! Three structural decisions carry the correctness story:
//!
//! * **A commit is one critical section.** Taking every reference of a
//!   manifest, swapping its registration in and releasing the one it
//!   replaced happen under the lock, and so does a GC sweep: a concurrent
//!   GC can never observe a chunk between insert and register.
//! * **Re-registration replaces.** Committing the same `(holder, owner,
//!   epoch)` key again (a restarted rank re-walking its waves) increfs the
//!   new manifest first and only then decrefs the old one, so shared
//!   chunks never transit through refcount zero.
//! * **Failed commits roll back.** Validation is interleaved with the
//!   incref walk; on a mismatch every reference the walk took is released
//!   (removing chunks it inserted), leaving the store as it was.
//!
//! The ledger — not blob parsing — drives GC: a wave registers its chunks
//! at encode, before its blob reaches any store, so a rank that dies (or
//! whose write fails) in between leaves registrations that no stored blob
//! names.
//!
//! **The address is an index, not a security boundary.** [`ChunkHash::of`]
//! is [`hash128`], a hand-rolled, unkeyed 128-bit multiply-rotate hash (four
//! xxh64-style lanes, both output words folded from every lane) running at
//! memory speed; its low word is also the runtime's payload digest.
//! Collision *resistance* would buy nothing: an address from outside the
//! process is hashed again before it enters the store
//! ([`CasStore::commit_insert`] hashes every payload it is given, a partner
//! adoption hashes every inline payload), an address the process computed
//! itself is not hashed twice, and every hit is byte-compared against the
//! stored body once — by the commit itself, or by the reuse walk's
//! [`CasStore::matches_stamped`] when the commit still finds the very entry
//! that compare saw (same insert stamp) — so a collision fails the commit
//! loudly and can never substitute content, and every stored body hashes to
//! its key. The same hash is the integrity check on read: every inline
//! payload of a V4 blob and every body returned by a store lookup is
//! re-hashed against its manifest address ([`crate::chunk::CasView`]),
//! which is how a bit-flip anywhere in a V4 body is detected on load.
//!
//! [`sha256`] (FIPS 180-4, hand-rolled because the workspace vendors no
//! cryptographic dependency) is on no store path; it is kept only for the
//! benchmark's `ckptstore.cas.sha256_mb_s` row.

use mini_mpi::hash::FxHashMap;
use mini_mpi::util::hash128;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::RwLock;

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4) — on no store path, see the module docs
// ---------------------------------------------------------------------------

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn sha256_compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes([
            block[4 * i],
            block[4 * i + 1],
            block[4 * i + 2],
            block[4 * i + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(SHA256_K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// SHA-256 digest of `data`. Not the chunk address (see the module docs).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        sha256_compress(&mut state, block);
    }
    // Padding: 0x80, zeros, then the bit length as a big-endian u64.
    let rem = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    for block in tail[..tail_len].chunks_exact(64) {
        sha256_compress(&mut state, block);
    }
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

// ---------------------------------------------------------------------------
// Chunk hashes
// ---------------------------------------------------------------------------

/// Content address of a chunk: a 128-bit non-cryptographic hash of its
/// bytes. An index, not a security boundary — see the module docs for why
/// every collision fails loudly instead of substituting content.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkHash(pub [u8; 16]);

impl ChunkHash {
    /// Hash chunk bytes into their content address.
    pub fn of(bytes: &[u8]) -> Self {
        ChunkHash(hash128(bytes).to_le_bytes())
    }
}

impl fmt::Debug for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChunkHash(")?;
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…)")
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// What happened to one manifest chunk during [`CasStore::commit_insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkFate {
    /// First time the store has seen this content — bytes were stored.
    New,
    /// Content already stored, first inserted by the same owner rank
    /// (cross-epoch dedup).
    HitSameOwner,
    /// Content already stored, first inserted by a different rank
    /// (cross-rank dedup — SPBC's SPMD observation paying out).
    HitCrossRank,
}

/// Per-commit accounting returned by [`CasStore::commit_insert`].
#[derive(Clone, Debug, Default)]
pub struct CommitStats {
    /// Fate of each manifest chunk, in manifest order.
    pub fates: Vec<ChunkFate>,
    /// Bytes of manifest chunks already held by the store.
    pub hit_bytes: u64,
    /// Bytes newly stored by this commit.
    pub new_bytes: u64,
    /// Hit count against content first stored by the same owner.
    pub hits_same_owner: u64,
    /// Hit count against content first stored by another rank.
    pub hits_cross_rank: u64,
}

/// Why [`CasStore::commit_addressed`] took no reference.
#[derive(Debug)]
pub(crate) enum Refused {
    /// These manifest indices have no bytes and are not stored.
    Missing(Vec<u32>),
    /// A payload differs from the stored body of its address.
    Mismatch(String),
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refused::Missing(idx) => {
                write!(f, "cas: chunks {idx:?} have no bytes and are not in the store")
            }
            Refused::Mismatch(e) => f.write_str(e),
        }
    }
}

/// The insert stamp of a store entry: a sequence number set when the entry
/// is created and never reused. Entry bytes never change, so an entry found
/// again under the same stamp holds the bytes an earlier compare saw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Stamp(u64);

struct Entry {
    bytes: Vec<u8>,
    refs: u64,
    /// The rank that first stored this content.
    first_owner: u32,
    stamp: Stamp,
}

/// One registered manifest: the references it holds, and which of its
/// indices brought their chunk into the store ([`ChunkFate::New`]) — the
/// chunks a self-contained copy of the wave carries inline.
struct Registration {
    hashes: Vec<ChunkHash>,
    inserted: Vec<u32>,
}

/// Everything behind the store's one lock.
#[derive(Default)]
struct Inner {
    /// Address → entry. Keyed with the Fx hasher, since the address is
    /// already a uniform hash and SipHash over it only costs time.
    chunks: FxHashMap<ChunkHash, Entry>,
    /// `(holder, owner)` → epoch → registration.
    regs: FxHashMap<(u32, u32), BTreeMap<u64, Registration>>,
    /// Bytes of every stored body, kept by every insert and final decref.
    unique_bytes: u64,
    /// The stamp the next new entry gets.
    next_stamp: u64,
}

impl Inner {
    /// Incref/insert one manifest occurrence. The address is taken as
    /// matching `bytes` (see [`CasStore::commit_addressed`]); a hit is
    /// byte-compared against the stored body unless `compared` is that
    /// entry's stamp. `Ok(None)`: the chunk has no bytes here and is not
    /// stored.
    fn take_ref(
        &mut self,
        index: usize,
        hash: &ChunkHash,
        bytes: Option<&[u8]>,
        compared: Option<Stamp>,
        owner: u32,
    ) -> Result<Option<(ChunkFate, u64)>, String> {
        if let Some(e) = self.chunks.get_mut(hash) {
            if compared != Some(e.stamp) && bytes.is_some_and(|b| b != e.bytes.as_slice()) {
                return Err(format!(
                    "cas: chunk {index} content mismatch on hash hit {hash:?} \
                     (corruption or hash collision)"
                ));
            }
            e.refs += 1;
            let fate = if e.first_owner == owner {
                ChunkFate::HitSameOwner
            } else {
                ChunkFate::HitCrossRank
            };
            return Ok(Some((fate, e.bytes.len() as u64)));
        }
        let Some(b) = bytes else {
            return Ok(None);
        };
        let stamp = Stamp(self.next_stamp);
        self.next_stamp += 1;
        self.chunks.insert(*hash, Entry { bytes: b.to_vec(), refs: 1, first_owner: owner, stamp });
        self.unique_bytes += b.len() as u64;
        Ok(Some((ChunkFate::New, b.len() as u64)))
    }

    /// Release one reference per listed address; returns how many chunks
    /// lost their last reference (bytes freed).
    fn release(&mut self, hashes: &[ChunkHash]) -> usize {
        let mut freed = 0;
        for hash in hashes {
            let Some(e) = self.chunks.get_mut(hash) else { continue };
            e.refs -= 1;
            if e.refs == 0 {
                let gone = self.chunks.remove(hash).expect("entry just found");
                self.unique_bytes -= gone.bytes.len() as u64;
                freed += 1;
            }
        }
        freed
    }
}

/// Why a lock can fail: a thread panicked while holding it, a bug.
const POISONED: &str = "cas lock poisoned: a thread panicked holding it";

/// Service-wide refcounted content-addressed chunk store.
///
/// One instance is owned by a [`crate::CkptStoreService`] and shared by
/// every rank it serves (in memory, the same durability class as partner
/// copies), so identical chunks dedup across epochs *and* across ranks.
#[derive(Default)]
pub struct CasStore {
    inner: RwLock<Inner>,
}

impl CasStore {
    /// New empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a manifest's chunks and register the reference list under
    /// `(holder, owner, epoch)`, first checking that every `Some` payload
    /// hashes to its claimed address. `job` is ignored: a store serves one
    /// run. Kept only until `spbc-perf`'s calls drop it.
    ///
    /// Each element pairs a chunk hash with its bytes (`Some` when the
    /// caller has them) or `None` (a manifest whose body the store must
    /// already hold, possibly via an earlier `Some` in this same list).
    /// Re-registering an existing key replaces it: new references are taken
    /// before old ones are released, so shared chunks never transit
    /// refcount zero.
    ///
    /// Errors (store rolled back to its prior state): missing bytes for an
    /// unknown hash, bytes that do not hash to their claimed address, or a
    /// byte mismatch against stored content (corruption or hash collision).
    pub fn commit_insert(
        &self,
        _job: u32,
        holder: u32,
        owner: u32,
        epoch: u64,
        manifest: &[(ChunkHash, Option<&[u8]>)],
    ) -> Result<CommitStats, String> {
        for (i, (hash, bytes)) in manifest.iter().enumerate() {
            if bytes.is_some_and(|b| ChunkHash::of(b) != *hash) {
                return Err(format!(
                    "cas: chunk {i} bytes do not match their claimed hash {hash:?}"
                ));
            }
        }
        self.commit_addressed(holder, owner, epoch, manifest, &[]).map_err(|r| r.to_string())
    }

    /// [`commit_insert`](Self::commit_insert) for a manifest whose every
    /// `Some` payload is already known to hash to its address — hashed from
    /// those bytes by the caller, or byte-compared against this store's
    /// entry for it — so it is not hashed again. Every hit is byte-compared,
    /// except one that finds the very entry a [`matches_stamped`] call
    /// already compared these bytes against: `stamps[i]`, where present, is
    /// the stamp that call returned for index `i` (`stamps` may be shorter
    /// than `manifest`, or empty). The walk visits every chunk: it either
    /// registers the whole manifest or takes no reference at all and says
    /// why, listing *every* index that has no bytes and is not stored.
    ///
    /// [`matches_stamped`]: Self::matches_stamped
    pub(crate) fn commit_addressed(
        &self,
        holder: u32,
        owner: u32,
        epoch: u64,
        manifest: &[(ChunkHash, Option<&[u8]>)],
        stamps: &[Option<Stamp>],
    ) -> Result<CommitStats, Refused> {
        let mut inner = self.inner.write().expect(POISONED);
        let mut stats = CommitStats::default();
        let mut hashes = Vec::with_capacity(manifest.len());
        let mut inserted = Vec::new();
        let mut missing = Vec::new();
        for (i, (hash, bytes)) in manifest.iter().enumerate() {
            let compared = stamps.get(i).copied().flatten();
            match inner.take_ref(i, hash, *bytes, compared, owner) {
                Ok(Some((fate, len))) => {
                    match fate {
                        ChunkFate::New => {
                            stats.new_bytes += len;
                            inserted.push(i as u32);
                        }
                        ChunkFate::HitSameOwner => {
                            stats.hit_bytes += len;
                            stats.hits_same_owner += 1;
                        }
                        ChunkFate::HitCrossRank => {
                            stats.hit_bytes += len;
                            stats.hits_cross_rank += 1;
                        }
                    }
                    stats.fates.push(fate);
                    hashes.push(*hash);
                }
                Ok(None) => missing.push(i as u32),
                Err(e) => {
                    inner.release(&hashes);
                    return Err(Refused::Mismatch(e));
                }
            }
        }
        if !missing.is_empty() {
            // Roll back every reference this walk took (removing chunks it
            // inserted), leaving the store untouched.
            inner.release(&hashes);
            return Err(Refused::Missing(missing));
        }
        let reg = Registration { hashes, inserted };
        if let Some(old) = inner.regs.entry((holder, owner)).or_default().insert(epoch, reg) {
            inner.release(&old.hashes);
        }
        Ok(stats)
    }

    /// The indices of `manifest` whose chunks the registration `(holder,
    /// owner, epoch)` inserted into the store, in ascending order —
    /// provided that registration holds exactly this manifest. `None` when
    /// there is no such registration or it names other chunks (a copy of a
    /// different commit of the same epoch).
    pub(crate) fn inserted_by(
        &self,
        holder: u32,
        owner: u32,
        epoch: u64,
        manifest: &[ChunkHash],
    ) -> Option<Vec<u32>> {
        let inner = self.inner.read().expect(POISONED);
        let r = inner.regs.get(&(holder, owner))?.get(&epoch)?;
        (r.hashes == manifest).then(|| r.inserted.clone())
    }

    /// Drop one registration and release its references. Returns whether
    /// the key existed.
    pub fn unregister(&self, holder: u32, owner: u32, epoch: u64) -> bool {
        let mut inner = self.inner.write().expect(POISONED);
        let Some(r) = inner.regs.get_mut(&(holder, owner)).and_then(|m| m.remove(&epoch)) else {
            return false;
        };
        inner.release(&r.hashes);
        true
    }

    /// GC: drop every `(holder, owner, *)` registration with epoch below
    /// `epoch_lt`. Returns `(registrations dropped, chunks freed)` — a
    /// chunk is freed only when its *last* reference anywhere goes away.
    pub fn unregister_below(&self, holder: u32, owner: u32, epoch_lt: u64) -> (usize, usize) {
        let mut inner = self.inner.write().expect(POISONED);
        let Some(regs) = inner.regs.get_mut(&(holder, owner)) else {
            return (0, 0);
        };
        let kept = regs.split_off(&epoch_lt);
        let doomed = std::mem::replace(regs, kept);
        let freed = doomed.values().map(|r| inner.release(&r.hashes)).sum();
        (doomed.len(), freed)
    }

    /// Bytes of a stored chunk, if present.
    pub fn get(&self, hash: &ChunkHash) -> Option<Vec<u8>> {
        self.inner.read().expect(POISONED).chunks.get(hash).map(|e| e.bytes.clone())
    }

    /// Whether the store holds `hash` with exactly these bytes (one byte
    /// compare, no copy and no hash).
    pub fn matches(&self, hash: &ChunkHash, bytes: &[u8]) -> bool {
        self.matches_stamped(hash, bytes).is_some()
    }

    /// [`matches`](Self::matches), returning the matched entry's stamp so a
    /// later [`commit_addressed`](Self::commit_addressed) of the same bytes
    /// can skip its compare while that entry lives.
    pub(crate) fn matches_stamped(&self, hash: &ChunkHash, bytes: &[u8]) -> Option<Stamp> {
        let inner = self.inner.read().expect(POISONED);
        inner.chunks.get(hash).filter(|e| e.bytes == bytes).map(|e| e.stamp)
    }

    /// Whether the store currently holds content for `hash`.
    pub fn contains(&self, hash: &ChunkHash) -> bool {
        self.inner.read().expect(POISONED).chunks.contains_key(hash)
    }

    /// Indices into `hashes` whose content the store does not hold — the
    /// set a replication partner would request via `CKPT_CHUNK_REQ`.
    pub fn missing(&self, hashes: &[ChunkHash]) -> Vec<u32> {
        let inner = self.inner.read().expect(POISONED);
        (0..hashes.len() as u32)
            .filter(|&i| !inner.chunks.contains_key(&hashes[i as usize]))
            .collect()
    }

    /// Number of unique chunks currently stored.
    pub fn unique_chunks(&self) -> usize {
        self.inner.read().expect(POISONED).chunks.len()
    }

    /// Total bytes of unique content currently stored.
    pub fn unique_bytes(&self) -> u64 {
        self.inner.read().expect(POISONED).unique_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::CasView;
    use std::sync::Arc;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn addr(data: &[u8]) -> String {
        hex(&ChunkHash::of(data).0)
    }

    /// Known answers pin the address function: a changed vector means
    /// every address a store or a blob holds has changed meaning.
    #[test]
    fn chunk_address_matches_known_answers() {
        assert_eq!(addr(b""), "621ecf9d5f45df3fe3ed07473a6a90f8");
        assert_eq!(addr(b"abc"), "57e685ea9a214d52d1ae4c578ff2f522");
        assert_eq!(addr(&vec![b'a'; 1 << 20]), "212a4e6cb938def482c61d3622db4581");
        // Every length 0..=65 of one buffer: empty, every tail length of
        // the first 32-byte stripe, exactly one and two stripes, and the
        // tails after each.
        const PREFIXES: [&str; 66] = [
            "621ecf9d5f45df3fe3ed07473a6a90f8",
            "f45d64bea5519ca803bbd6b247ed6c4e",
            "3a1c2df5fc11f7a23018996155bcdcb5",
            "b10b26f0b94f91fff2cb2bb25efe15c4",
            "05148ff259f21fdd2a5130fd6f8fd8b4",
            "2ce1c5e70a7fbde16857d7a662ae6832",
            "29ae5876c7b50692615ae9d680cb1f1f",
            "66f84a262a400c13eea167e0f08b48a1",
            "772fec148f06ce127448c86691bbe5bd",
            "bc6bfc12e427d8a89082c5a3c5bfef0b",
            "d9dc48134c9d8a1f46499e41e946b333",
            "d849897d8aa32b1de73b3d62e5367915",
            "4f84b59defbe66da002b4a11aea049c4",
            "895782d4b412b48a3516fcc232b98c56",
            "d7fe509bf54c2d888b34b59080d5fc43",
            "0d2b65984cd28de7b81001c081e0adf7",
            "f2e79a664afb96a4e7c0adfaa780a8ff",
            "f2b7b3b670219e9d6f62965ed218bd81",
            "8f6235364f3e72ad747c0476a5c0ac73",
            "82cebe953fa41c19625bfc92a4d99c68",
            "f033ba5dfe5d00b50d25b99bd330ceef",
            "c891c228523f89b8a1f3c617a6143238",
            "82d494d1d6f1083211c36e1c91ea5898",
            "e7a344dd5030deffa67efdc53086a7f6",
            "fb1a721c4bfb160b6bf2cf7c0d5505df",
            "45914ff141c5ac74a1bc7ecd2d8a928c",
            "bab8c87433e714e978887d8ec6462fdc",
            "90e094da0be9ab9d5d151bb722599808",
            "3c14416022c623c9886cffc5ed698c74",
            "8c67ee2f2df8e939a2793b6599f72013",
            "cd5079608a971ba21c1d9b9e22ec6d78",
            "f2540adee5e3d7fd973f2bae730cf1ec",
            "e6555ecfdb24054d41b461692d40df8a",
            "f153a4d677f25fb02c42c8df9d138574",
            "ccba65df41ba5b9790de9a69ac812dfc",
            "712710f4a9ffc64043b1f4c8a6a81f3a",
            "09d41c934be22bf58e3460f57b7c7d67",
            "89ad1c3ef42f93e040dc24539db9c33c",
            "61b6282dddb4066ac69694d38765371c",
            "7ab9b391381a3d828bfe8331d86824c9",
            "c76f79264b64dc4b9170ae105b2a1c31",
            "4f3e4c0ecf7e4797772b38b3ea1b7228",
            "6621a489b94a6822f07bf108c1272da1",
            "5861ec202458131d57c07cf0e910300f",
            "f67c941c705f578da9a8e77411e6a1fc",
            "1f225f0421b9f0b30b4de0c289d64b90",
            "a433fb2326271bda112a964d0c043c80",
            "59cbf2ac2276b5e9b59b1dcb795ba035",
            "79ee2652ab899541cfc5a72fa8538571",
            "1bfcbf7e821f1f0f0f51db733d90fc97",
            "03900caad853aefa2988b2a6f3c403cb",
            "7358481f197687ec0e84cd1db4a5049c",
            "1c0ce154b9c56653939d602c7833dc54",
            "d59b1432a059e923d4bffd58b32249ab",
            "5d71b34ded2c3901f1cca782300d95a2",
            "eec3b0983168d017a437f20db5802c39",
            "0ba518ae482cbff7ab6c7d52d12f9a3e",
            "9cfbb4bc0863751111b5b70a4ef1c7d7",
            "7dd79838387e308a2448e6593e63b6a2",
            "e978b576ec94c9ac70d433708ab2cbbd",
            "9b94d9d90e6b3e8f5ff7fb71c774db8b",
            "c62ff61546f26df6d866ebd78b4a9678",
            "d11e816230176be32253668f5e0c9a8e",
            "749183375b8619e385b8ae9e4cea4db7",
            "fe26502f24ef2a6c1238a8da42625275",
            "ea7ed48f414e18098f6d08b36ebe0fe8",
        ];
        let buf: Vec<u8> = (0..65u8).map(|i| i.wrapping_mul(7).wrapping_add(1)).collect();
        for (n, want) in PREFIXES.iter().enumerate() {
            assert_eq!(addr(&buf[..n]), *want, "length {n}");
        }
    }

    /// A trailing zero byte is not padding: the length is part of the
    /// address, so zero-padded tails of different lengths never collide.
    #[test]
    fn zero_padded_tails_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..=96 {
            assert!(seen.insert(ChunkHash::of(&vec![0u8; n])), "zeros of length {n} collide");
        }
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // 55/56/64-byte inputs straddle the padding block boundary.
        for len in [55usize, 56, 63, 64, 65] {
            let data = vec![0x61u8; len];
            // Reference: incremental == one-shot (padding self-consistency).
            assert_eq!(sha256(&data), sha256(&data.clone()));
        }
        assert_eq!(
            hex(&sha256(&vec![b'a'; 1_000_000])),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    fn m(pairs: &[&[u8]]) -> Vec<(ChunkHash, Option<Vec<u8>>)> {
        pairs.iter().map(|b| (ChunkHash::of(b), Some(b.to_vec()))).collect()
    }

    fn commit(cas: &CasStore, holder: u32, owner: u32, epoch: u64, pairs: &[&[u8]]) -> CommitStats {
        let owned = m(pairs);
        let view: Vec<(ChunkHash, Option<&[u8]>)> =
            owned.iter().map(|(h, b)| (*h, b.as_deref())).collect();
        cas.commit_insert(0, holder, owner, epoch, &view).unwrap()
    }

    #[test]
    fn dedup_across_epochs_and_ranks() {
        let cas = CasStore::new();
        let s = commit(&cas, 0, 0, 1, &[b"alpha", b"beta"]);
        assert_eq!(s.fates, vec![ChunkFate::New, ChunkFate::New]);
        // Same owner, next epoch: cross-epoch hits.
        let s = commit(&cas, 0, 0, 2, &[b"alpha", b"gamma"]);
        assert_eq!(s.fates, vec![ChunkFate::HitSameOwner, ChunkFate::New]);
        // Different rank, same content: cross-rank hit.
        let s = commit(&cas, 1, 1, 1, &[b"alpha"]);
        assert_eq!(s.fates, vec![ChunkFate::HitCrossRank]);
        assert_eq!(s.hits_cross_rank, 1);
        assert_eq!(cas.unique_chunks(), 3);
        assert_eq!(cas.unique_bytes(), 5 + 4 + 5);
    }

    /// The O(1) residency gauges track every insert, final decref and
    /// rolled-back commit exactly — compared against a full scan.
    #[test]
    fn residency_gauges_match_a_full_scan() {
        let scan = |cas: &CasStore| -> (usize, u64) {
            let inner = cas.inner.read().unwrap();
            (inner.chunks.len(), inner.chunks.values().map(|e| e.bytes.len() as u64).sum())
        };
        let cas = CasStore::new();
        let check = |cas: &CasStore| {
            assert_eq!((cas.unique_chunks(), cas.unique_bytes()), scan(cas));
        };
        commit(&cas, 0, 0, 1, &[b"one", b"two", b"two"]);
        check(&cas);
        commit(&cas, 1, 1, 1, &[b"two", b"three!"]);
        check(&cas);
        let good: &[u8] = b"fresh";
        let bad = cas.commit_insert(
            0,
            2,
            2,
            1,
            &[(ChunkHash::of(good), Some(good)), (ChunkHash::of(b"x"), None)],
        );
        assert!(bad.is_err());
        check(&cas);
        commit(&cas, 0, 0, 1, &[b"one"]); // re-registration releases "two"'s refs
        check(&cas);
        cas.unregister_below(0, 0, u64::MAX);
        cas.unregister(1, 1, 1);
        check(&cas);
        assert_eq!((cas.unique_chunks(), cas.unique_bytes()), (0, 0));
    }

    #[test]
    fn unregister_frees_only_last_reference() {
        let cas = CasStore::new();
        commit(&cas, 0, 0, 1, &[b"shared", b"only-e1"]);
        commit(&cas, 0, 0, 2, &[b"shared", b"only-e2"]);
        let (dropped, freed) = cas.unregister_below(0, 0, 2);
        assert_eq!((dropped, freed), (1, 1), "e1 dropped; `shared` survives via e2");
        assert!(cas.contains(&ChunkHash::of(b"shared")));
        assert!(!cas.contains(&ChunkHash::of(b"only-e1")));
        assert!(cas.unregister(0, 0, 2));
        assert_eq!(cas.unique_chunks(), 0);
    }

    #[test]
    fn reregistration_replaces_without_refcount_dip() {
        let cas = CasStore::new();
        commit(&cas, 0, 0, 1, &[b"keep", b"old"]);
        // Re-commit the same epoch (restarted rank): `keep` is shared
        // between old and new manifests and must survive the swap.
        commit(&cas, 0, 0, 1, &[b"keep", b"new"]);
        assert!(cas.contains(&ChunkHash::of(b"keep")));
        assert!(!cas.contains(&ChunkHash::of(b"old")), "replaced manifest's refs released");
        assert!(cas.contains(&ChunkHash::of(b"new")));
        cas.unregister(0, 0, 1);
        assert_eq!(cas.unique_chunks(), 0);
    }

    #[test]
    fn duplicate_hash_within_one_manifest() {
        let cas = CasStore::new();
        let s = commit(&cas, 0, 0, 1, &[b"twin", b"twin"]);
        assert_eq!(s.fates, vec![ChunkFate::New, ChunkFate::HitSameOwner]);
        // One unregister of the (single) registration releases both refs.
        cas.unregister(0, 0, 1);
        assert_eq!(cas.unique_chunks(), 0);
    }

    #[test]
    fn adopting_without_bytes_requires_presence() {
        let cas = CasStore::new();
        let h = ChunkHash::of(b"body");
        let err = cas.commit_insert(0, 1, 0, 1, &[(h, None)]).unwrap_err();
        assert!(err.contains("not in the store"), "{err}");
        // Inline earlier in the same manifest satisfies a later None.
        let body: &[u8] = b"body";
        cas.commit_insert(0, 1, 0, 1, &[(h, Some(body)), (h, None)]).unwrap();
        assert!(cas.contains(&h));
    }

    #[test]
    fn corrupt_bytes_are_rejected_atomically() {
        let cas = CasStore::new();
        let good: &[u8] = b"good";
        let wrong: &[u8] = b"evil";
        let err = cas
            .commit_insert(
                0,
                0,
                0,
                1,
                &[(ChunkHash::of(good), Some(good)), (ChunkHash::of(good), Some(wrong))],
            )
            .unwrap_err();
        assert!(err.contains("do not match"), "{err}");
        assert_eq!(cas.unique_chunks(), 0, "failed commit must not mutate the store");
    }

    /// A reuse-walk stamp vouches only for the entry it was taken from: once
    /// that entry is gone and other bytes sit under the same address, the
    /// commit compares again and refuses, changing nothing.
    #[test]
    fn a_stamp_skips_the_compare_only_for_its_own_entry() {
        let cas = CasStore::new();
        let clean: &[u8] = b"clean chunk";
        let h = ChunkHash::of(clean);
        cas.commit_addressed(0, 0, 1, &[(h, Some(clean))], &[]).unwrap();
        let stamp = cas.matches_stamped(&h, clean).expect("the walk's compare");
        assert!(cas.unregister(0, 0, 1));
        let planted: &[u8] = b"other bytes";
        cas.commit_addressed(1, 1, 1, &[(h, Some(planted))], &[]).unwrap();
        let before = (cas.unique_chunks(), cas.unique_bytes());

        let err = cas.commit_addressed(0, 0, 2, &[(h, Some(clean))], &[Some(stamp)]).unwrap_err();
        assert!(matches!(&err, Refused::Mismatch(e) if e.contains("content mismatch")), "{err}");
        assert_eq!((cas.unique_chunks(), cas.unique_bytes()), before);
        assert_eq!(cas.get(&h).as_deref(), Some(planted));
        assert_eq!(cas.inserted_by(0, 0, 2, &[h]), None);
        // The planted entry took no extra reference: its one owner frees it.
        assert!(cas.unregister(1, 1, 1));
        assert_eq!(cas.unique_chunks(), 0);

        // The live entry's own stamp does skip the compare: the caller
        // vouches that these are the bytes that stamp's compare saw.
        cas.commit_addressed(1, 1, 1, &[(h, Some(planted))], &[]).unwrap();
        let live = cas.matches_stamped(&h, planted).expect("stored");
        assert_ne!(live, stamp, "stamps are never reused");
        assert!(cas.commit_addressed(0, 0, 2, &[(h, Some(clean))], &[Some(live)]).is_ok());
    }

    #[test]
    fn missing_reports_unknown_indices() {
        let cas = CasStore::new();
        commit(&cas, 0, 0, 1, &[b"here"]);
        let hashes = [ChunkHash::of(b"here"), ChunkHash::of(b"absent"), ChunkHash::of(b"gone")];
        assert_eq!(cas.missing(&hashes), vec![1, 2]);
    }

    /// Every stored body hashes to its key, however local commits (which
    /// skip re-hashing addresses they computed or byte-confirmed), partner
    /// adoptions of manifests and of inline payloads, GC and same-epoch
    /// re-commits interleave.
    #[test]
    fn every_stored_entry_hashes_to_its_key() {
        use crate::cdc::CdcParams;
        use crate::service::{Adoption, CkptStoreService, StoreConfig};
        use mini_mpi::types::RankId;
        let audit = |cas: &CasStore, step: usize| {
            for (key, e) in cas.inner.read().unwrap().chunks.iter() {
                assert_eq!(ChunkHash::of(&e.bytes), *key, "step {step}: entry under {key:?}");
            }
        };
        let cfg = StoreConfig {
            cdc: true,
            cdc_params: CdcParams { min: 64, avg: 256, max: 1024 },
            ..Default::default()
        };
        let svc = CkptStoreService::in_memory(3, cfg);
        let mut rng = 0x5bd1_e995_u64;
        let mut next = move |n: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        // Every rank starts from the same 8 KiB of SPMD state.
        let base: Vec<u8> =
            (0..8192u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        let mut bodies = vec![base.clone(); 3];
        let mut epochs = [0u64; 3];
        for step in 0..120 {
            let r = next(3) as usize;
            let (me, holder) = (RankId(r as u32), RankId(((r + 1) % 3) as u32));
            match next(4) {
                // A local wave (or, one time in four, a re-commit of the
                // last one), replicated the way the protocol does it.
                0 | 1 => {
                    let at = next(bodies[r].len() as u64 - 64) as usize;
                    let tag = next(256) as u8;
                    bodies[r][at..at + 64].iter_mut().for_each(|b| *b ^= tag);
                    if epochs[r] == 0 || next(4) != 0 {
                        epochs[r] += 1;
                    }
                    let (blob, _) = svc.encode_commit(me, epochs[r], &bodies[r]).unwrap();
                    let manifest = crate::chunk::manifest_only_v4(&blob).unwrap();
                    match svc.store_partner_copy(holder, me, epochs[r], &manifest).unwrap() {
                        Adoption::Stored { .. } => {}
                        Adoption::Missing(idx) => panic!("shared store misses {idx:?}"),
                    }
                }
                // A partner adopting every chunk inline.
                2 if epochs[r] > 0 => {
                    let (blob, _) = svc.encode_commit(me, epochs[r], &bodies[r]).unwrap();
                    let n = CasView::parse(&blob).unwrap().n_chunks() as u32;
                    let full = svc.subset_blob(&blob, &(0..n).collect::<Vec<_>>()).unwrap();
                    svc.store_partner_copy(holder, me, epochs[r], &full).unwrap();
                }
                // GC of everything below the rank's newest wave.
                _ => {
                    svc.gc_local(me, epochs[r]).unwrap();
                }
            }
            audit(svc.cas(), step);
        }
    }

    /// The cas-gc race, distilled: one thread commits manifests that share
    /// content with another owner while that owner's GC prunes. Because
    /// insert+register is one critical section, the shared chunk must be
    /// retrievable after every commit.
    #[test]
    fn concurrent_commit_and_gc_never_drop_referenced_chunks() {
        let cas = Arc::new(CasStore::new());
        let shared: Vec<u8> = vec![7u8; 512];
        let committer = {
            let cas = Arc::clone(&cas);
            let shared = shared.clone();
            std::thread::spawn(move || {
                for epoch in 1..200u64 {
                    let unique = epoch.to_le_bytes().to_vec();
                    let manifest = [
                        (ChunkHash::of(&shared), Some(shared.as_slice())),
                        (ChunkHash::of(&unique), Some(unique.as_slice())),
                    ];
                    cas.commit_insert(0, 0, 0, epoch, &manifest).unwrap();
                    assert!(
                        cas.get(&ChunkHash::of(&shared)).is_some(),
                        "registered chunk vanished at epoch {epoch}"
                    );
                    cas.unregister_below(0, 0, epoch);
                }
            })
        };
        let gcer = {
            let cas = Arc::clone(&cas);
            let shared = shared.clone();
            std::thread::spawn(move || {
                for epoch in 1..200u64 {
                    let manifest = [(ChunkHash::of(&shared), Some(shared.as_slice()))];
                    cas.commit_insert(0, 1, 1, epoch, &manifest).unwrap();
                    cas.unregister_below(1, 1, epoch);
                    assert!(cas.get(&ChunkHash::of(&shared)).is_some());
                }
                cas.unregister_below(1, 1, u64::MAX);
            })
        };
        committer.join().unwrap();
        gcer.join().unwrap();
        // Rank 0's final epoch registration is still live.
        assert!(cas.contains(&ChunkHash::of(&shared)));
        cas.unregister_below(0, 0, u64::MAX);
        assert_eq!(cas.unique_chunks(), 0, "all refs released leaves an empty store");
    }

    /// A commit below a previous GC bound (a restarted rank re-walking
    /// old waves) is freed by the next sweep at that bound.
    #[test]
    fn commit_below_a_previous_gc_bound_is_freed_by_the_next_sweep() {
        let cas = CasStore::new();
        for e in 1..=3u64 {
            commit(&cas, 0, 0, e, &[e.to_le_bytes().as_slice()]);
        }
        assert_eq!(cas.unregister_below(0, 0, 3).0, 2);
        assert_eq!(cas.unregister_below(0, 0, 3), (0, 0));
        // A restarted rank re-commits epoch 1; GC below 3 must see it.
        commit(&cas, 0, 0, 1, &[b"reborn"]);
        let (dropped, freed) = cas.unregister_below(0, 0, 3);
        assert_eq!((dropped, freed), (1, 1));
        // Epoch 3's registration is untouched throughout.
        assert!(cas.unregister(0, 0, 3));
    }
}
