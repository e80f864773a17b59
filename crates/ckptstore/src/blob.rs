//! Checkpoint blob framing: `SPBCCKP2` = magic + CRC32 over the body.
//!
//! Full blobs written by this crate are V2; incremental delta blobs use the
//! `SPBCCKP3` framing and content-addressed manifests the `SPBCCKP4` framing
//! in [`crate::chunk`]. Anything else — including the retired, unchecksummed
//! V1 — is rejected as an unknown version.

use crate::crc::crc32;
use mini_mpi::error::{MpiError, Result};

/// Current format: magic, little-endian CRC32 of the body, then the body.
pub const MAGIC_V2: &[u8; 8] = b"SPBCCKP2";

/// Frame `body` as a V2 blob: magic + crc32(body) + body.
pub fn seal(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(MAGIC_V2);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// A sealed blob routed to its version's reader by [`unseal_any`]. Every
/// variant has already passed that version's structural + checksum
/// verification.
pub enum Unsealed<'a> {
    /// V2 full blob: the verified body bytes.
    Full(&'a [u8]),
    /// V3 fixed-grid delta: needs [`crate::chunk::materialize`] with
    /// epoch-addressed base fetches.
    Delta(crate::chunk::DeltaView<'a>),
    /// V4 content-addressed manifest: needs
    /// [`crate::chunk::CasView::materialize`] against the chunk store.
    Cas(crate::chunk::CasView<'a>),
    /// `SPBCPAR1` erasure-parity shard: not a checkpoint body at all —
    /// input to [`crate::ec::reconstruct`] for set rebuild.
    Parity(crate::ec::ParityView<'a>),
}

impl std::fmt::Debug for Unsealed<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unsealed::Full(b) => write!(f, "Unsealed::Full({} bytes)", b.len()),
            Unsealed::Delta(v) => write!(f, "Unsealed::Delta({} chunks)", v.n_chunks()),
            Unsealed::Cas(v) => write!(f, "Unsealed::Cas({} chunks)", v.n_chunks()),
            Unsealed::Parity(v) => {
                write!(f, "Unsealed::Parity(set {} shard {}/{})", v.set_id, v.shard_idx, v.m)
            }
        }
    }
}

/// The single version dispatcher: route a sealed blob of **any** known
/// version (V2 checksum, V3 delta, V4 content-addressed, parity)
/// through its verifier, or fail with one loud unknown-version error.
///
/// Every read path funnels through here, so a blob from a newer build that
/// this build cannot read is always reported as such — never misparsed as
/// a different version's framing.
pub fn unseal_any(bytes: &[u8]) -> Result<Unsealed<'_>> {
    if crate::chunk::is_delta(bytes) {
        return crate::chunk::DeltaView::parse(bytes).map(Unsealed::Delta);
    }
    if crate::chunk::is_cas(bytes) {
        return crate::chunk::CasView::parse(bytes).map(Unsealed::Cas);
    }
    if crate::ec::is_parity(bytes) {
        return crate::ec::ParityView::parse(bytes).map(Unsealed::Parity);
    }
    if bytes.len() >= MAGIC_V2.len() && &bytes[..MAGIC_V2.len()] == MAGIC_V2 {
        if bytes.len() < MAGIC_V2.len() + 4 {
            return Err(MpiError::Codec("checkpoint blob truncated before checksum".into()));
        }
        let stored = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        let body = &bytes[12..];
        let actual = crc32(body);
        if stored != actual {
            return Err(MpiError::Codec(format!(
                "checkpoint checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        return Ok(Unsealed::Full(body));
    }
    Err(MpiError::Codec(format!(
        "unknown checkpoint blob version (first bytes {:02x?}); \
         this build reads SPBCCKP2-SPBCCKP4 and SPBCPAR1",
        &bytes[..bytes.len().min(8)]
    )))
}

/// Validate a sealed blob and return its body.
///
/// Accepts V2 (checksum verified). Any framing or checksum failure is a `Codec` error — callers treat it as
/// a corrupt copy and fall back to a partner replica. V3 delta and V4
/// content-addressed blobs are *not* body containers — they need chain or
/// store materialization — so they are rejected here with a distinct error
/// rather than silently misread.
pub fn unseal(bytes: &[u8]) -> Result<&[u8]> {
    match unseal_any(bytes)? {
        Unsealed::Full(body) => Ok(body),
        Unsealed::Delta(_) => Err(MpiError::Codec(
            "delta checkpoint blob (SPBCCKP3) requires chain materialization".into(),
        )),
        Unsealed::Cas(_) => Err(MpiError::Codec(
            "content-addressed blob (SPBCCKP4) requires store materialization".into(),
        )),
        Unsealed::Parity(_) => Err(MpiError::Codec(
            "parity shard (SPBCPAR1) is redundancy data, not a checkpoint body".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_roundtrip() {
        let body = b"hello checkpoint".to_vec();
        let sealed = seal(&body);
        assert_eq!(&sealed[..8], MAGIC_V2);
        assert_eq!(unseal(&sealed).unwrap(), &body[..]);
    }

    #[test]
    fn empty_body_roundtrips() {
        let sealed = seal(&[]);
        assert_eq!(unseal(&sealed).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn any_flipped_byte_is_detected() {
        let sealed = seal(&[7u8; 128]);
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert!(unseal(&bad).is_err(), "flip at offset {i} undetected");
        }
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let sealed = seal(&[1, 2, 3]);
        for len in [0, 4, 8, 11] {
            assert!(unseal(&sealed[..len]).is_err(), "len {len} accepted");
        }
        // Body truncation (valid header, short body) must fail the checksum.
        assert!(unseal(&sealed[..sealed.len() - 1]).is_err());
    }

    /// The retired V1 magic: V2's with version digit `1`.
    fn v1_blob(body: &[u8]) -> Vec<u8> {
        let mut v1 = MAGIC_V2.to_vec();
        v1[7] = b'1';
        v1.extend_from_slice(body);
        v1
    }

    #[test]
    fn legacy_v1_is_rejected() {
        let err = format!("{}", unseal(&v1_blob(b"old body")).unwrap_err());
        assert!(err.contains("unknown checkpoint blob version"), "{err}");
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(unseal(b"garbage").is_err());
        assert!(unseal(b"SPBCCKP9........").is_err());
    }

    #[test]
    fn unseal_any_routes_every_version() {
        use crate::cas::ChunkHash;
        use crate::chunk::{DeltaEncoder, V4Chunk};

        // V2: sealed full blob.
        let sealed = seal(b"v2 body");
        assert!(matches!(unseal_any(&sealed).unwrap(), Unsealed::Full(b"v2 body")));

        // V3: a real delta from the encoder round-trips through the view.
        let mut enc = DeltaEncoder::new(4, 8);
        let b1: Vec<u8> = (0u8..32).collect();
        let (full1, _) = enc.encode(1, &b1);
        let mut b2 = b1.clone();
        b2[9] ^= 0xFF;
        let (delta2, _) = enc.encode(2, &b2);
        match unseal_any(&delta2).unwrap() {
            Unsealed::Delta(view) => {
                let mut fetch = |e: u64| {
                    assert_eq!(e, 1);
                    Ok(full1.clone())
                };
                assert_eq!(crate::chunk::materialize(&delta2, &mut fetch).unwrap(), b2);
                assert!(view.n_chunks() > 0);
            }
            _ => panic!("V3 delta misrouted"),
        }

        // V4: content-addressed manifest round-trips through its view.
        let chunk = b"v4 chunk body".to_vec();
        let v4 = crate::chunk::seal_v4(&[V4Chunk {
            hash: ChunkHash::of(&chunk),
            len: chunk.len() as u32,
            inline: Some(&chunk),
        }]);
        match unseal_any(&v4).unwrap() {
            Unsealed::Cas(view) => {
                let mut lookup = |_: &ChunkHash| None;
                assert_eq!(view.materialize(&mut lookup).unwrap(), chunk);
            }
            _ => panic!("V4 blob misrouted"),
        }

        // Parity frame routes to its view.
        let par = crate::ec::seal_parity(0, 0, 1, 3, &[(0, 4), (1, 4)], b"pppp");
        match unseal_any(&par).unwrap() {
            Unsealed::Parity(v) => assert_eq!(v.epoch, 3),
            other => panic!("parity misrouted: {other:?}"),
        }

        // Exactly one loud unknown-version error for anything else.
        let err = format!("{}", unseal_any(b"SPBCCKP9........").unwrap_err());
        assert!(err.contains("unknown checkpoint blob version"), "{err}");
        // And V3/V4/parity are rejected by the body-only reader with
        // distinct errors.
        assert!(format!("{}", unseal(&delta2).unwrap_err()).contains("SPBCCKP3"));
        assert!(format!("{}", unseal(&v4).unwrap_err()).contains("SPBCCKP4"));
        assert!(format!("{}", unseal(&par).unwrap_err()).contains("SPBCPAR1"));
    }

    /// Truncated and corrupted headers of every framing this build knows
    /// (V2, V3, V4, parity) fail loudly through `unseal_any` — the right
    /// error kind, never a panic, and corrupt framings never misroute to a
    /// different version. The retired V1 is rejected whole and in part.
    #[test]
    fn unseal_any_rejects_damage_in_every_framing() {
        use crate::cas::ChunkHash;
        use crate::chunk::{DeltaEncoder, V4Chunk};

        let v2 = seal(b"v2 body bytes");
        let mut enc = DeltaEncoder::new(4, 8);
        let base: Vec<u8> = (0u8..64).collect();
        let (_, _) = enc.encode(1, &base);
        let mut next = base.clone();
        next[5] ^= 1;
        let (v3, _) = enc.encode(2, &next);
        let chunk = b"v4 chunk".to_vec();
        let v4 = crate::chunk::seal_v4(&[V4Chunk {
            hash: ChunkHash::of(&chunk),
            len: chunk.len() as u32,
            inline: Some(&chunk),
        }]);
        let par = crate::ec::seal_parity(1, 0, 2, 9, &[(0, 8), (1, 8)], b"parity!!");

        let cases: [(&str, &[u8]); 4] = [("V2", &v2), ("V3", &v3), ("V4", &v4), ("parity", &par)];
        for (name, sealed) in cases {
            // Sanity: the intact blob parses.
            assert!(unseal_any(sealed).is_ok(), "{name}: intact blob rejected");
            // Truncation at every prefix errs — never panics.
            for len in 0..sealed.len() {
                assert!(
                    unseal_any(&sealed[..len]).is_err(),
                    "{name}: truncation to {len} accepted"
                );
            }
            // Header corruption: flip a bit in each of the first 12 bytes.
            for i in 0..12.min(sealed.len()) {
                let mut bad = sealed.to_vec();
                bad[i] ^= 0x04;
                let err =
                    format!("{}", unseal_any(&bad).expect_err(&format!("{name}: flip at {i}")));
                assert!(
                    err.contains("checksum")
                        || err.contains("truncated")
                        || err.contains("unknown checkpoint blob version")
                        || err.contains("mismatch"),
                    "{name}: flip at {i} gave unexpected error: {err}"
                );
            }
        }

        let v1 = v1_blob(b"v1 body bytes");
        for len in 0..=v1.len() {
            let err = format!("{}", unseal_any(&v1[..len]).expect_err("V1 accepted"));
            assert!(err.contains("unknown checkpoint blob version"), "V1 prefix {len}: {err}");
        }

        // V4's CRC covers only the frame: a flipped payload byte still
        // routes through `unseal_any`, and is caught by the payload's
        // address — in `verify` and in every read of the chunk.
        let mut bad = v4.clone();
        *bad.last_mut().unwrap() ^= 0x04;
        let Ok(Unsealed::Cas(view)) = unseal_any(&bad) else {
            panic!("V4 with an intact frame must route to its view");
        };
        assert!(view.inline_chunk(0).is_err());
        assert!(view.materialize(&mut |_| None).is_err());
        assert!(crate::chunk::verify(&bad).is_err());
    }
}
