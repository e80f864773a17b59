//! A minimal Fx-style hasher for small fixed-width keys on hot paths.
//!
//! The matching engine hashes a `(CommId, RankId, Tag)` or `(CommId, Tag)`
//! key on every receive and arrival; with the standard library's SipHash
//! that single hash costs more than the rest of an indexed match combined
//! and erases the index's win at small queue depths. Channel keys are program-controlled
//! (communicator ids, ranks, tags), not attacker-controlled, so a fast
//! non-cryptographic mix is appropriate.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor word hasher (the `rustc-hash` recipe): fold each input word
/// with a rotate, xor and odd-constant multiply.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth's 2^64 / golden-ratio constant; any odd multiplier with well-mixed
/// high bits works.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn distinct_keys_hash_differently() {
        let b = FxBuildHasher::default();
        let hashes: Vec<u64> = (0u64..1000).map(|i| b.hash_one((i, i as u32, 7u32))).collect();
        let mut dedup = hashes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), hashes.len());
    }

    #[test]
    fn equal_keys_hash_equal() {
        let b = FxBuildHasher::default();
        assert_eq!(b.hash_one((3u64, 4u32)), b.hash_one((3u64, 4u32)));
    }

    #[test]
    fn byte_stream_matches_word_stream_padding() {
        // write() must consume trailing partial words deterministically.
        let mut h1 = FxHasher::default();
        h1.write(&[1, 2, 3]);
        let mut h2 = FxHasher::default();
        h2.write(&[1, 2, 3]);
        assert_eq!(h1.finish(), h2.finish());
    }
}
