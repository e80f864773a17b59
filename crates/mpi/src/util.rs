//! Small shared utilities.

/// FNV-1a continuation: fold `bytes` into an existing hash state.
///
/// Derives communicator ids (`collectives.rs`); not on the send path.
pub fn fnv1a_seeded(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Fold a `u64` into a hash chain.
///
/// The state is multiplied by the FNV prime before folding, so the pairs
/// `(a, b)` and `(b, a)` hash differently (plain FNV would xor the first byte
/// straight into the state, making small swapped pairs collide).
pub fn chain_u64(h: u64, v: u64) -> u64 {
    fnv1a_seeded(h.wrapping_mul(0x100000001b3), &v.to_le_bytes())
}

// xxh64's primes: odd 64-bit multipliers with well-spread bits.
const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes consumed per step: one little-endian u64 per lane.
const STRIPE: usize = 32;

/// One lane step; for a fixed `acc` it is a bijection of `input`, and for a
/// fixed `input` a bijection of `acc`, so a lane never forgets a difference.
#[inline(always)]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// Fold one lane into an output word.
#[inline(always)]
fn merge(h: u64, lane: u64) -> u64 {
    (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

/// Final bijective bit mix (xorshift-multiply).
#[inline(always)]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

#[inline(always)]
fn stripe(v: &mut [u64; 4], s: &[u8]) {
    for (i, lane) in v.iter_mut().enumerate() {
        let word = u64::from_le_bytes(s[8 * i..8 * i + 8].try_into().expect("8-byte word"));
        *lane = round(*lane, word);
    }
}

/// A 128-bit non-cryptographic content hash at memory speed: four
/// independent xxh64-style lanes over 32-byte stripes (the tail zero-padded
/// into one last stripe; the length is mixed into the output, so padding is
/// unambiguous), then two output words each folded from all four lanes in a
/// different order and with different rotations, with the length and the
/// low word mixed into the high one.
///
/// The checkpoint store's chunk addresses are these bytes in little-endian
/// order, and the low 64 bits are the payload digest of the determinism
/// chains ([`crate::stats`]). The low word never depends on the high one.
#[inline]
pub fn hash128(data: &[u8]) -> u128 {
    let mut v = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut stripes = data.chunks_exact(STRIPE);
    for s in &mut stripes {
        stripe(&mut v, s);
    }
    let rem = stripes.remainder();
    if !rem.is_empty() {
        let mut last = [0u8; STRIPE];
        last[..rem.len()].copy_from_slice(rem);
        stripe(&mut v, &last);
    }
    let len = data.len() as u64;
    let mut lo = v[0]
        .rotate_left(1)
        .wrapping_add(v[1].rotate_left(7))
        .wrapping_add(v[2].rotate_left(12))
        .wrapping_add(v[3].rotate_left(18));
    let mut hi = v[3]
        .rotate_left(5)
        .wrapping_add(v[2].rotate_left(23))
        .wrapping_add(v[1].rotate_left(37))
        .wrapping_add(v[0].rotate_left(49))
        ^ P5;
    for &lane in &v {
        lo = merge(lo, lane);
    }
    for &lane in v.iter().rev() {
        hi = merge(hi, lane.rotate_left(17));
    }
    let lo = avalanche(lo ^ len.wrapping_mul(P5));
    let hi = avalanche(hi ^ len.rotate_left(32) ^ lo.wrapping_mul(P3));
    (hi as u128) << 64 | lo as u128
}

/// A tiny xorshift PRNG for perturbation delays (self-contained so the
/// runtime's determinism does not depend on `rand`'s stream stability).
#[derive(Clone, Debug)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeded constructor; a zero seed is remapped to a fixed constant.
    pub fn new(seed: u64) -> Self {
        XorShift64 { state: if seed == 0 { 0x9E3779B97F4A7C15 } else { seed } }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_deterministic_and_sensitive() {
        assert_eq!(fnv1a_seeded(1, b"abc"), fnv1a_seeded(1, b"abc"));
        assert_ne!(fnv1a_seeded(1, b"abc"), fnv1a_seeded(1, b"abd"));
        assert_ne!(chain_u64(1, 2), chain_u64(2, 1));
    }

    #[test]
    fn hash128_low_word_tells_bytes_and_lengths_apart() {
        // The payload digest is the low word: it must distinguish lengths
        // and bytes on its own.
        let lo = |d: &[u8]| hash128(d) as u64;
        assert_ne!(lo(b""), lo(&[0]));
        assert_ne!(lo(b"abc"), lo(b"abd"));
        assert_eq!(hash128(b"abc"), hash128(b"abc"));
    }

    #[test]
    fn xorshift_basic() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift64::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn xorshift_zero_seed_ok() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn below_and_unit_in_range() {
        let mut r = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
