//! Erasure coding for redundancy sets: XOR and table-driven GF(2^8)
//! Reed–Solomon parity over the sealed blobs of a set, plus the `SPBCPAR1`
//! parity-shard framing.
//!
//! The scheme follows SCR's redundancy-set design: the ranks of a cluster
//! are grouped into sets of size `g` (see [`crate::set`]), and each
//! checkpoint wave computes `m` parity shards over the set's sealed blobs.
//! `xor` is the `m = 1` special case (row 0 of the Vandermonde matrix is
//! all ones, so the first parity shard is a plain XOR of the data shards);
//! `rs(m)` survives the loss of any `m` data shards. Losses beyond `m`
//! must fail loudly — [`reconstruct`] returns a distinct
//! "erasure budget exceeded" error rather than fabricating bytes.
//!
//! A member's shard is its wave's *self-contained* sealed blob: for a
//! content-addressed wave, the manifest plus the chunk bodies that wave
//! brought into the store, so parity covers those bodies and not only
//! their addresses. The storage service builds that form from its chunk
//! store where a member keeps only the manifest, both before encoding and
//! before reconstructing.
//!
//! Shards may be ragged (each rank's sealed blob has its own length); the
//! codec pads to the longest shard and the parity frame records every
//! member's true length so reconstruction trims exactly.

use mini_mpi::error::{MpiError, Result};
use std::sync::OnceLock;

use crate::crc::crc32;

/// Parity-shard framing magic: magic + crc32 + header + shard bytes.
pub const MAGIC_PAR: &[u8; 8] = b"SPBCPAR1";

/// Which redundancy scheme a store runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EcScheme {
    /// No erasure coding; full partner copies only (the legacy path).
    Off,
    /// Single XOR parity shard per set; survives any one loss.
    Xor,
    /// Reed–Solomon with `m` parity shards; survives any `m` losses.
    Rs(usize),
}

impl EcScheme {
    /// Parse a scheme string (`off`, `xor`, `rs`, `rs2`, `rs(2)`), using
    /// `default_m` when `rs` carries no explicit parity count.
    pub fn parse(s: &str, default_m: usize) -> Option<EcScheme> {
        let s = s.trim().to_ascii_lowercase();
        match s.as_str() {
            "" | "off" | "0" | "none" => Some(EcScheme::Off),
            "xor" => Some(EcScheme::Xor),
            "rs" => Some(EcScheme::Rs(default_m.max(1))),
            _ => {
                let inner = s
                    .strip_prefix("rs(")
                    .and_then(|r| r.strip_suffix(')'))
                    .or_else(|| s.strip_prefix("rs:"))
                    .or_else(|| s.strip_prefix("rs"))?;
                let m: usize = inner.parse().ok()?;
                if m == 0 || m > 128 {
                    return None;
                }
                Some(EcScheme::Rs(m))
            }
        }
    }

    /// Number of parity shards this scheme produces per set.
    pub fn m(&self) -> usize {
        match self {
            EcScheme::Off => 0,
            EcScheme::Xor => 1,
            EcScheme::Rs(m) => *m,
        }
    }

    /// Whether parity is computed at all.
    pub fn is_on(&self) -> bool {
        !matches!(self, EcScheme::Off)
    }
}

impl std::fmt::Display for EcScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcScheme::Off => write!(f, "off"),
            EcScheme::Xor => write!(f, "xor"),
            EcScheme::Rs(m) => write!(f, "rs{m}"),
        }
    }
}

impl std::str::FromStr for EcScheme {
    type Err = String;
    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        EcScheme::parse(s, 2).ok_or_else(|| format!("unknown EC scheme {s:?}"))
    }
}

// ---------------------------------------------------------------------------
// GF(2^8) arithmetic, log/exp table driven (polynomial 0x11d).
// ---------------------------------------------------------------------------

/// log table (index 0 unused) and exp table (doubled so lookups skip a mod).
fn gf_tables() -> &'static ([u8; 256], [u8; 512]) {
    static TABLES: OnceLock<([u8; 256], [u8; 512])> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut log = [0u8; 256];
        let mut exp = [0u8; 512];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(255) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= 0x11d;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        (log, exp)
    })
}

/// Multiply in GF(2^8) via log/exp lookup.
#[inline]
pub fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let (log, exp) = gf_tables();
    exp[log[a as usize] as usize + log[b as usize] as usize]
}

/// `a^k` in GF(2^8).
pub fn gf_pow(a: u8, k: usize) -> u8 {
    if k == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    let (log, exp) = gf_tables();
    let l = (log[a as usize] as usize * k) % 255;
    exp[l]
}

/// Multiplicative inverse; panics on 0 (a coding bug, not a data fault).
fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "gf_inv(0)");
    let (log, exp) = gf_tables();
    exp[255 - log[a as usize] as usize]
}

/// The Vandermonde evaluation point for data shard `i`: `x_i = i + 1`
/// (nonzero and distinct for every `i < 255`).
#[inline]
fn x_of(i: usize) -> u8 {
    (i + 1) as u8
}

// ---------------------------------------------------------------------------
// Encode / reconstruct
// ---------------------------------------------------------------------------

/// Compute `m` parity shards over `shards` (ragged allowed; shorter shards
/// are implicitly zero-padded to the longest). Parity shard `j` is
/// `sum_i x_i^j * shard_i`; with `m = 1` that degenerates to plain XOR.
pub fn encode(shards: &[&[u8]], m: usize) -> Vec<Vec<u8>> {
    let width = shards.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut parity = vec![vec![0u8; width]; m];
    for (i, shard) in shards.iter().enumerate() {
        for (j, p) in parity.iter_mut().enumerate() {
            let c = gf_pow(x_of(i), j);
            if c == 1 {
                for (pb, &sb) in p.iter_mut().zip(shard.iter()) {
                    *pb ^= sb;
                }
            } else if c != 0 {
                for (pb, &sb) in p.iter_mut().zip(shard.iter()) {
                    *pb ^= gf_mul(c, sb);
                }
            }
        }
    }
    parity
}

/// Rebuild every missing data shard in place.
///
/// `data[i]` is `Some(bytes)` for present members and `None` for lost ones;
/// `parity[j]` likewise for the `m` parity shards. `lens[i]` is each data
/// shard's true (unpadded) length, taken from the parity frame header.
/// Losses exceeding the available parity budget fail loudly with the
/// distinct "erasure budget exceeded" error.
pub fn reconstruct(
    data: &mut [Option<Vec<u8>>],
    parity: &[Option<Vec<u8>>],
    lens: &[usize],
    m: usize,
) -> Result<()> {
    let missing: Vec<usize> = (0..data.len()).filter(|&i| data[i].is_none()).collect();
    if missing.is_empty() {
        return Ok(());
    }
    let avail: Vec<usize> = (0..parity.len()).filter(|&j| parity[j].is_some()).collect();
    if missing.len() > avail.len() {
        return Err(MpiError::app(format!(
            "erasure budget exceeded: {} members lost with only {} parity shard(s) present \
             (parity budget m={m})",
            missing.len(),
            avail.len(),
        )));
    }
    let width = parity[avail[0]].as_ref().unwrap().len();
    let u = missing.len();

    // Syndromes: for each chosen parity row j, parity_j minus the known
    // members' contributions leaves exactly the missing members' part.
    let rows: Vec<usize> = avail[..u].to_vec();
    let mut rhs: Vec<Vec<u8>> = rows
        .iter()
        .map(|&j| {
            let mut s = parity[j].as_ref().unwrap().clone();
            debug_assert_eq!(s.len(), width);
            for (i, d) in data.iter().enumerate() {
                if let Some(d) = d {
                    let c = gf_pow(x_of(i), j);
                    for (sb, &db) in s.iter_mut().zip(d.iter()) {
                        *sb ^= gf_mul(c, db);
                    }
                }
            }
            s
        })
        .collect();

    // Solve the u x u system A * missing = rhs by Gaussian elimination.
    let mut a: Vec<Vec<u8>> =
        rows.iter().map(|&j| missing.iter().map(|&i| gf_pow(x_of(i), j)).collect()).collect();
    for col in 0..u {
        let pivot = (col..u).find(|&r| a[r][col] != 0).ok_or_else(|| {
            MpiError::app(format!(
                "erasure decode matrix singular at column {col} (m={m}); cannot reconstruct"
            ))
        })?;
        a.swap(col, pivot);
        rhs.swap(col, pivot);
        let inv = gf_inv(a[col][col]);
        for v in a[col].iter_mut() {
            *v = gf_mul(*v, inv);
        }
        for b in rhs[col].iter_mut() {
            *b = gf_mul(*b, inv);
        }
        for r in 0..u {
            if r != col && a[r][col] != 0 {
                let f = a[r][col];
                {
                    let (head, tail) = a.split_at_mut(r.max(col));
                    let (src, dst) =
                        if r < col { (&tail[0], &mut head[r]) } else { (&head[col], &mut tail[0]) };
                    for (dv, &sv) in dst.iter_mut().zip(src.iter()) {
                        *dv ^= gf_mul(f, sv);
                    }
                }
                let (head, tail) = rhs.split_at_mut(r.max(col));
                let (src, dst) =
                    if r < col { (&tail[0], &mut head[r]) } else { (&head[col], &mut tail[0]) };
                for (db, &sb) in dst.iter_mut().zip(src.iter()) {
                    *db ^= gf_mul(f, sb);
                }
            }
        }
    }
    for (k, &i) in missing.iter().enumerate() {
        let mut shard = std::mem::take(&mut rhs[k]);
        shard.truncate(*lens.get(i).unwrap_or(&width));
        data[i] = Some(shard);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// SPBCPAR1 parity frame
// ---------------------------------------------------------------------------

/// Is this blob a sealed parity shard?
pub fn is_parity(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC_PAR.len() && &bytes[..MAGIC_PAR.len()] == MAGIC_PAR
}

/// Frame one parity shard: magic, crc32 of everything after it, then
/// `set_id | shard_idx | m | epoch | members (rank, true_len)* | shard`.
pub fn seal_parity(
    set_id: u32,
    shard_idx: u32,
    m: u32,
    epoch: u64,
    members: &[(u32, u64)],
    shard: &[u8],
) -> Vec<u8> {
    let mut body = Vec::with_capacity(32 + members.len() * 12 + shard.len());
    body.extend_from_slice(&set_id.to_le_bytes());
    body.extend_from_slice(&shard_idx.to_le_bytes());
    body.extend_from_slice(&m.to_le_bytes());
    body.extend_from_slice(&(members.len() as u32).to_le_bytes());
    body.extend_from_slice(&epoch.to_le_bytes());
    for &(rank, len) in members {
        body.extend_from_slice(&rank.to_le_bytes());
        body.extend_from_slice(&len.to_le_bytes());
    }
    body.extend_from_slice(&(shard.len() as u64).to_le_bytes());
    body.extend_from_slice(shard);
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(MAGIC_PAR);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// A parsed (and checksum-verified) `SPBCPAR1` parity shard.
pub struct ParityView<'a> {
    /// Redundancy-set id this shard belongs to.
    pub set_id: u32,
    /// Which of the `m` parity shards this is.
    pub shard_idx: u32,
    /// The scheme's parity budget when this shard was written.
    pub m: u32,
    /// Checkpoint epoch the shard protects.
    pub epoch: u64,
    /// The set's members in shard order with each one's true blob length.
    pub members: Vec<(u32, u64)>,
    /// The parity bytes (padded width = longest member blob).
    pub shard: &'a [u8],
}

impl<'a> ParityView<'a> {
    /// Parse and verify a sealed parity shard.
    pub fn parse(bytes: &'a [u8]) -> Result<ParityView<'a>> {
        if !is_parity(bytes) {
            return Err(MpiError::Codec("not a parity blob (SPBCPAR1)".into()));
        }
        if bytes.len() < 12 {
            return Err(MpiError::Codec("parity blob truncated before checksum".into()));
        }
        let stored = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let body = &bytes[12..];
        let actual = crc32(body);
        if stored != actual {
            return Err(MpiError::Codec(format!(
                "parity blob checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let mut off = 0usize;
        let u32_at = |o: &mut usize| -> Result<u32> {
            let end = o
                .checked_add(4)
                .filter(|&e| e <= body.len())
                .ok_or_else(|| MpiError::Codec("parity blob header truncated".into()))?;
            let v = u32::from_le_bytes(body[*o..end].try_into().unwrap());
            *o = end;
            Ok(v)
        };
        let set_id = u32_at(&mut off)?;
        let shard_idx = u32_at(&mut off)?;
        let m = u32_at(&mut off)?;
        let n = u32_at(&mut off)? as usize;
        let u64_at = |o: &mut usize| -> Result<u64> {
            let end = o
                .checked_add(8)
                .filter(|&e| e <= body.len())
                .ok_or_else(|| MpiError::Codec("parity blob header truncated".into()))?;
            let v = u64::from_le_bytes(body[*o..end].try_into().unwrap());
            *o = end;
            Ok(v)
        };
        let epoch = u64_at(&mut off)?;
        if n > 4096 {
            return Err(MpiError::Codec(format!("parity blob claims {n} members")));
        }
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            let mut o2 = off;
            let end = o2
                .checked_add(4)
                .filter(|&e| e <= body.len())
                .ok_or_else(|| MpiError::Codec("parity blob member table truncated".into()))?;
            let rank = u32::from_le_bytes(body[o2..end].try_into().unwrap());
            o2 = end;
            let len = u64_at(&mut o2)?;
            off = o2;
            members.push((rank, len));
        }
        let shard_len = u64_at(&mut off)? as usize;
        if body.len() - off != shard_len {
            return Err(MpiError::Codec(format!(
                "parity blob shard length mismatch: header says {shard_len}, body has {}",
                body.len() - off
            )));
        }
        Ok(ParityView { set_id, shard_idx, m, epoch, members, shard: &body[off..] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bitwise "Russian peasant" multiply — the differential oracle for the
    /// table-driven [`gf_mul`].
    fn gf_mul_slow(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let carry = a & 0x80 != 0;
            a <<= 1;
            if carry {
                a ^= 0x1d; // 0x11d reduced to 8 bits
            }
            b >>= 1;
        }
        acc
    }

    #[test]
    fn table_mul_matches_bitwise_oracle_exhaustively() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(gf_mul(a, b), gf_mul_slow(a, b), "gf_mul({a},{b})");
            }
        }
    }

    #[test]
    fn field_axioms_hold() {
        for a in 1..=255u8 {
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "inv({a})");
            assert_eq!(gf_pow(a, 0), 1);
            assert_eq!(gf_pow(a, 1), a);
            assert_eq!(gf_pow(a, 2), gf_mul(a, a));
        }
    }

    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn random_shards(seed: &mut u64, n: usize, max_len: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| {
                let len = (splitmix(seed) as usize) % (max_len + 1);
                (0..len).map(|_| splitmix(seed) as u8).collect()
            })
            .collect()
    }

    /// Encode/decode round-trip proptest: for random ragged shard groups and
    /// every loss pattern within budget, reconstruction is bitwise exact.
    #[test]
    fn reconstruct_roundtrip_within_budget() {
        let mut seed = 0x5eed_0001u64;
        for case in 0..64 {
            let n = 2 + (splitmix(&mut seed) as usize) % 5; // 2..=6 members
            let m = 1 + (splitmix(&mut seed) as usize) % 3; // 1..=3 parity
            let shards = random_shards(&mut seed, n, 200);
            let lens: Vec<usize> = shards.iter().map(|s| s.len()).collect();
            let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
            let parity = encode(&refs, m);

            // Lose up to m data shards, chosen pseudo-randomly.
            let losses = 1 + (splitmix(&mut seed) as usize) % m.min(n);
            let mut data: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            let mut lost = 0;
            while lost < losses {
                let i = (splitmix(&mut seed) as usize) % n;
                if data[i].is_some() {
                    data[i] = None;
                    lost += 1;
                }
            }
            // Also lose one parity shard whenever the budget allows it —
            // reconstruction must succeed from any sufficient subset.
            let spare = m > losses;
            let pav: Vec<Option<Vec<u8>>> = parity
                .iter()
                .enumerate()
                .map(|(j, p)| if spare && j == m - 1 { None } else { Some(p.clone()) })
                .collect();
            reconstruct(&mut data, &pav, &lens, m).unwrap();
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(data[i].as_ref().unwrap(), s, "case {case} shard {i}");
            }
        }
    }

    #[test]
    fn xor_is_rs_row_zero() {
        let shards: Vec<Vec<u8>> = vec![vec![1, 2, 3, 4], vec![5, 6, 7], vec![8]];
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let parity = encode(&refs, 1);
        let mut expect = vec![0u8; 4];
        for s in &shards {
            for (i, &b) in s.iter().enumerate() {
                expect[i] ^= b;
            }
        }
        assert_eq!(parity[0], expect);
    }

    #[test]
    fn over_budget_loss_fails_loudly() {
        let shards: Vec<Vec<u8>> = vec![vec![1; 16], vec![2; 16], vec![3; 16], vec![4; 16]];
        let lens: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let parity = encode(&refs, 2);
        let mut data: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        data[0] = None;
        data[1] = None;
        data[2] = None; // 3 losses > m = 2
        let pav: Vec<Option<Vec<u8>>> = parity.into_iter().map(Some).collect();
        let err = reconstruct(&mut data, &pav, &lens, 2).unwrap_err();
        assert!(format!("{err}").contains("erasure budget exceeded"), "{err}");
    }

    #[test]
    fn missing_parity_counts_against_budget() {
        let shards: Vec<Vec<u8>> = vec![vec![9; 8], vec![7; 8], vec![5; 8]];
        let lens: Vec<usize> = shards.iter().map(|s| s.len()).collect();
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let parity = encode(&refs, 2);
        let mut data: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        data[0] = None;
        data[2] = None;
        // Only one of the two parity shards survives: 2 losses > 1 parity.
        let pav = vec![Some(parity[0].clone()), None];
        let err = reconstruct(&mut data, &pav, &lens, 2).unwrap_err();
        assert!(format!("{err}").contains("erasure budget exceeded"), "{err}");
        // With both present the same loss pattern reconstructs.
        let pav: Vec<Option<Vec<u8>>> = parity.into_iter().map(Some).collect();
        let mut data: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        data[0] = None;
        data[2] = None;
        reconstruct(&mut data, &pav, &lens, 2).unwrap();
        assert_eq!(data[0].as_ref().unwrap(), &shards[0]);
        assert_eq!(data[2].as_ref().unwrap(), &shards[2]);
    }

    #[test]
    fn parity_frame_roundtrip_and_corruption() {
        let members = vec![(0u32, 100u64), (1, 80), (5, 120)];
        let sealed = seal_parity(3, 1, 2, 42, &members, b"parity bytes here");
        assert!(is_parity(&sealed));
        let v = ParityView::parse(&sealed).unwrap();
        assert_eq!(v.set_id, 3);
        assert_eq!(v.shard_idx, 1);
        assert_eq!(v.m, 2);
        assert_eq!(v.epoch, 42);
        assert_eq!(v.members, members);
        assert_eq!(v.shard, b"parity bytes here");

        for i in 8..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x10;
            assert!(ParityView::parse(&bad).is_err(), "flip at {i} undetected");
        }
        for len in [0, 7, 11, 20] {
            assert!(ParityView::parse(&sealed[..len.min(sealed.len())]).is_err());
        }
    }

    #[test]
    fn scheme_parsing() {
        assert_eq!(EcScheme::parse("off", 2), Some(EcScheme::Off));
        assert_eq!(EcScheme::parse("xor", 2), Some(EcScheme::Xor));
        assert_eq!(EcScheme::parse("rs", 3), Some(EcScheme::Rs(3)));
        assert_eq!(EcScheme::parse("rs2", 3), Some(EcScheme::Rs(2)));
        assert_eq!(EcScheme::parse("rs(4)", 2), Some(EcScheme::Rs(4)));
        assert_eq!(EcScheme::parse("RS2", 2), Some(EcScheme::Rs(2)));
        assert_eq!(EcScheme::parse("bogus", 2), None);
        assert_eq!(EcScheme::parse("rs0", 2), None);
        assert_eq!(format!("{}", EcScheme::Rs(2)), "rs2");
        assert_eq!("rs2".parse::<EcScheme>().unwrap(), EcScheme::Rs(2));
    }
}
