//! FastCDC-style content-defined chunking: the boundary finder behind the
//! `SPBCCKP4` content-addressed checkpoint format.
//!
//! A fixed chunk grid earns nothing on real serialized state: inserting or
//! removing a single byte shifts every later chunk boundary, so no chunk
//! ever re-matches. Content-defined
//! chunking cuts where the *content* says to cut — a rolling gear hash over
//! a small window, with a boundary wherever the hash's top bits are zero —
//! so an edit disturbs only the chunk it lands in (and at most its
//! neighbor): every other chunk keeps its exact bytes and therefore its
//! content address.
//!
//! This is the FastCDC variant (Xia et al., ATC'16):
//!
//! * **gear hash** — `h = (h << 1) + GEAR[byte]`: one shift and one table
//!   lookup per byte, with the table's randomness standing in for a real
//!   sliding window (old bytes age out of the top bits as they shift left);
//! * **min-skip** — the first `min` bytes of each chunk are never tested,
//!   bounding metadata overhead and skipping ~`min` bytes of hashing;
//! * **normalized chunking** — below the target size a *harder* mask
//!   (more bits) must zero out; past it an *easier* mask applies. This
//!   squeezes the chunk-size distribution toward `avg` instead of the bare
//!   geometric distribution, without a second pass;
//! * **max cap** — a cut is forced at `max` so a pathological byte stream
//!   (e.g. all zeros, which gear-hashes to a constant) cannot produce an
//!   unbounded chunk.
//!
//! Determinism: the gear table is generated from a fixed SplitMix64 seed at
//! first use, so every build of this crate cuts identically — chunk
//! boundaries are part of the on-wire dedup contract across ranks.
//!
//! **Reusing clean cuts.** Most of a checkpoint body does not change from
//! one wave to the next, so [`chunk_reusing`] walks the new body with the
//! previous wave's [`Cuts`] as a hint: wherever the previous wave cut a
//! chunk at the current cut point and the caller confirms the new bytes
//! there equal that chunk's stored bytes, the chunk's cut and address are
//! taken as they are, with no gear scan and no hash. Everywhere else the
//! walk runs [`chunk_spans`]' own `first_cut` and hashes the chunk. The
//! cut points are `chunk_spans`' by construction (see [`chunk_reusing`]).

use crate::cas::ChunkHash;
use std::ops::Range;
use std::sync::OnceLock;

/// Default minimum chunk length.
pub const DEFAULT_CDC_MIN: usize = 256;
/// Default target (average) chunk length.
pub const DEFAULT_CDC_AVG: usize = 1024;
/// Default maximum chunk length.
pub const DEFAULT_CDC_MAX: usize = 4096;

/// Content-defined chunking bounds: every emitted chunk has
/// `min <= len <= max` (the final chunk of a buffer may be shorter than
/// `min`), with the size distribution centered on `avg`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CdcParams {
    /// Minimum chunk length in bytes (also the min-skip distance).
    pub min: usize,
    /// Target chunk length in bytes.
    pub avg: usize,
    /// Maximum chunk length in bytes (forced cut).
    pub max: usize,
}

impl Default for CdcParams {
    fn default() -> Self {
        CdcParams { min: DEFAULT_CDC_MIN, avg: DEFAULT_CDC_AVG, max: DEFAULT_CDC_MAX }
    }
}

impl CdcParams {
    /// Clamp the bounds into a consistent order: `16 <= min <= avg <= max`.
    /// Misconfigured environments degrade to the nearest sane chunker
    /// instead of panicking mid-commit.
    pub fn normalized(self) -> Self {
        let min = self.min.max(16);
        let avg = self.avg.max(min);
        let max = self.max.max(avg);
        CdcParams { min, avg, max }
    }

    /// `(hard, easy)` boundary masks for normalized chunking: `hard` (more
    /// set bits, rarer) applies below `avg`, `easy` past it.
    fn masks(&self) -> (u64, u64) {
        // floor(log2(avg)) bits give the geometric mean; +/-2 bits is the
        // normalization level FastCDC found best (NC-2).
        let bits = (63 - (self.avg as u64).leading_zeros()).clamp(4, 48);
        let mask = |b: u32| !0u64 << (64 - b);
        (mask((bits + 2).min(62)), mask(bits.saturating_sub(2).max(1)))
    }
}

/// The 256-entry gear table, generated once from a fixed SplitMix64 seed.
fn gear() -> &'static [u64; 256] {
    static GEAR: OnceLock<[u64; 256]> = OnceLock::new();
    GEAR.get_or_init(|| {
        let mut state: u64 = 0x5bbc_cdc0_4ea7_ab1e;
        let mut table = [0u64; 256];
        for slot in table.iter_mut() {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *slot = z ^ (z >> 31);
        }
        table
    })
}

/// Roll the gear hash `h` over `data[start..end]`, four bytes per step, and
/// return the cut length (`index + 1`) of the first byte after which
/// `h & mask == 0`. On no hit, `h` has rolled over every byte of the range,
/// exactly as the bytewise loop leaves it.
///
/// The four hashes of a step come straight from the step's entry `h`:
/// `h_k = (h << k) + t_k` with `t_k = (t_{k-1} << 1) + gear[b_k]`. The `t`s
/// do not depend on `h`, so the loop-carried chain is one shift and one add
/// per four bytes instead of per byte; the cut points are the bytewise
/// loop's by construction.
#[inline(always)]
fn scan(
    data: &[u8],
    gear: &[u64; 256],
    h: &mut u64,
    start: usize,
    end: usize,
    mask: u64,
) -> Option<usize> {
    let span = &data[start..end];
    let quads = span.chunks_exact(4);
    let tail = start + span.len() - quads.remainder().len();
    for (q, b) in quads.enumerate() {
        let t1 = gear[b[0] as usize];
        let t2 = (t1 << 1).wrapping_add(gear[b[1] as usize]);
        let t3 = (t2 << 1).wrapping_add(gear[b[2] as usize]);
        let t4 = (t3 << 1).wrapping_add(gear[b[3] as usize]);
        let hs = [
            (*h << 1).wrapping_add(t1),
            (*h << 2).wrapping_add(t2),
            (*h << 3).wrapping_add(t3),
            (*h << 4).wrapping_add(t4),
        ];
        if let Some(k) = hs.iter().position(|x| x & mask == 0) {
            return Some(start + 4 * q + k + 1);
        }
        *h = hs[3];
    }
    for (i, &b) in data.iter().enumerate().take(end).skip(tail) {
        *h = (*h << 1).wrapping_add(gear[b as usize]);
        if *h & mask == 0 {
            return Some(i + 1);
        }
    }
    None
}

/// Length of the first chunk of `data` (all of it if no boundary fires
/// before `max` or the end).
fn first_cut(data: &[u8], p: &CdcParams, hard: u64, easy: u64) -> usize {
    let n = data.len();
    if n <= p.min {
        return n;
    }
    let gear = gear();
    let cap = n.min(p.max);
    let center = cap.min(p.avg);
    let mut h: u64 = 0;
    scan(data, gear, &mut h, p.min, center, hard)
        .or_else(|| scan(data, gear, &mut h, center, cap, easy))
        .unwrap_or(cap)
}

/// Split `data` into content-defined chunk spans, in order, covering every
/// byte exactly once. Empty input yields no spans.
pub fn chunk_spans(data: &[u8], params: CdcParams) -> Vec<Range<usize>> {
    let p = params.normalized();
    let (hard, easy) = p.masks();
    let mut spans = Vec::with_capacity(data.len() / p.avg + 1);
    let mut start = 0;
    while start < data.len() {
        let len = first_cut(&data[start..], &p, hard, easy);
        spans.push(start..start + len);
        start += len;
    }
    spans
}

/// One chunk of a cut body: where it starts, how long it is, and its
/// content address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cut {
    /// Offset of the chunk's first byte in the body.
    pub start: usize,
    /// Chunk length in bytes.
    pub len: usize,
    /// Content address of the chunk's bytes ([`ChunkHash::of`]).
    pub hash: ChunkHash,
}

impl Cut {
    /// The chunk's byte range in the body.
    pub fn span(&self) -> Range<usize> {
        self.start..self.start + self.len
    }
}

/// A body's complete cut: its chunks in order, the body length and the
/// bounds it was cut with. What [`chunk_reusing`] returns, and the hint it
/// takes for the next body.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cuts {
    /// Length of the body that was cut.
    pub body_len: usize,
    /// The (normalized) bounds the body was cut with.
    pub params: CdcParams,
    /// The chunks, in order, covering every byte exactly once.
    pub cuts: Vec<Cut>,
}

/// Cut `data` exactly as [`chunk_spans`] does and address every chunk
/// exactly as [`ChunkHash::of`] does, reusing what `prev` — an earlier cut,
/// typically the previous wave's of the same rank — already computed.
///
/// At each cut point the walk looks for a `prev` chunk starting at the same
/// offset. It takes that chunk's cut and address without scanning or
/// hashing when three things hold:
///
/// * `prev` was cut with the same bounds;
/// * the bytes left from here, capped at `max`, number the same in both
///   bodies — `first_cut` depends on the remaining length only through
///   `cap = min(remaining, max)`, and on the bytes only up to the cut;
/// * `same(cut, bytes)` confirms the new bytes under that `prev` chunk's
///   span equal the stored bytes of its hash. The caller byte-compares
///   against its store, whose entries hash to their keys, so the confirmed
///   bytes hash to `cut.hash` and cut where the old bytes did. A `true` means
///   the returned cuts hold that very chunk at `cut.start`.
///
/// Otherwise it runs `first_cut` and hashes the chunk, as `chunk_spans`
/// plus `ChunkHash::of` would. A stale hint (another rank's, a body before
/// a rollback, chunks since freed) costs one failed lookup or compare per
/// cut point and changes no result.
pub fn chunk_reusing(
    data: &[u8],
    params: CdcParams,
    prev: &Cuts,
    mut same: impl FnMut(&Cut, &[u8]) -> bool,
) -> Cuts {
    let p = params.normalized();
    let (hard, easy) = p.masks();
    let hints = if prev.params == p { prev.cuts.as_slice() } else { &[] };
    let mut hints = hints.iter().peekable();
    let mut cuts = Vec::with_capacity(data.len() / p.avg + 1);
    let mut start = 0;
    while start < data.len() {
        let rest = data.len() - start;
        while hints.next_if(|c| c.start < start).is_some() {}
        let reused = hints.peek().copied().filter(|c| {
            c.start == start
                && (1..=rest).contains(&c.len)
                && rest.min(p.max) == prev.body_len.saturating_sub(start).min(p.max)
                && same(c, &data[c.span()])
        });
        let cut = match reused {
            Some(c) => *c,
            None => {
                let len = first_cut(&data[start..], &p, hard, easy);
                Cut { start, len, hash: ChunkHash::of(&data[start..start + len]) }
            }
        };
        cuts.push(cut);
        start += cut.len;
    }
    Cuts { body_len: data.len(), params: p, cuts }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        // SplitMix64-driven bytes: enough entropy for boundaries to fire.
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (z ^ (z >> 27)) as u8
            })
            .collect()
    }

    fn p(min: usize, avg: usize, max: usize) -> CdcParams {
        CdcParams { min, avg, max }
    }

    #[test]
    fn spans_cover_input_exactly() {
        let data = noise(50_000, 1);
        let spans = chunk_spans(&data, p(256, 1024, 4096));
        assert_eq!(spans.first().unwrap().start, 0);
        assert_eq!(spans.last().unwrap().end, data.len());
        for w in spans.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap or overlap between spans");
        }
    }

    #[test]
    fn bounds_hold_except_final_chunk() {
        let data = noise(100_000, 2);
        let params = p(256, 1024, 4096);
        let spans = chunk_spans(&data, params);
        assert!(spans.len() > 10, "expected many chunks, got {}", spans.len());
        for (i, s) in spans.iter().enumerate() {
            assert!(s.len() <= params.max, "chunk {i} over max: {}", s.len());
            if i + 1 < spans.len() {
                assert!(s.len() >= params.min, "chunk {i} under min: {}", s.len());
            }
        }
        // Sizes center near avg (loose band: geometric-ish distribution).
        let mean = data.len() / spans.len();
        assert!(mean >= params.min && mean <= params.max, "mean {mean} out of band");
    }

    #[test]
    fn chunking_is_deterministic() {
        let data = noise(20_000, 3);
        assert_eq!(chunk_spans(&data, p(64, 256, 1024)), chunk_spans(&data, p(64, 256, 1024)));
    }

    #[test]
    fn constant_input_is_capped_at_max() {
        // All-equal bytes gear-hash to a fixed point: only the max cap cuts.
        let data = vec![0u8; 10_000];
        let params = p(256, 1024, 2048);
        let spans = chunk_spans(&data, params);
        for s in &spans[..spans.len() - 1] {
            assert_eq!(s.len(), params.max);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(chunk_spans(&[], CdcParams::default()).is_empty());
        let tiny = noise(10, 4);
        let spans = chunk_spans(&tiny, p(256, 1024, 4096));
        assert_eq!(spans, vec![0..10], "sub-min input is one final chunk");
    }

    #[test]
    fn an_edit_disturbs_only_nearby_boundaries() {
        // The property the fixed grid lacks: boundaries after the edited
        // region re-synchronize, so nearly all spans (as byte strings)
        // survive an insertion.
        let a = noise(60_000, 5);
        let mut b = a.clone();
        let edit_at = 30_000;
        for (i, byte) in noise(48, 6).into_iter().enumerate() {
            b.insert(edit_at + i, byte);
        }
        let params = p(256, 1024, 4096);
        let chunks = |data: &[u8]| -> Vec<Vec<u8>> {
            chunk_spans(data, params).into_iter().map(|s| data[s].to_vec()).collect()
        };
        let ca = chunks(&a);
        let cb = chunks(&b);
        let sa: std::collections::HashSet<&Vec<u8>> = ca.iter().collect();
        let changed = cb.iter().filter(|c| !sa.contains(c)).count();
        assert!(
            changed <= 3,
            "a 48-byte insertion changed {changed} of {} chunks (fixed grid would change ~half)",
            cb.len()
        );
    }

    #[test]
    fn degenerate_params_are_normalized() {
        let bad = CdcParams { min: 0, avg: 0, max: 0 }.normalized();
        assert!(bad.min >= 16 && bad.min <= bad.avg && bad.avg <= bad.max);
        let data = noise(5_000, 7);
        // Must terminate and cover the input even with hostile params.
        let spans = chunk_spans(&data, CdcParams { min: 9999, avg: 1, max: 2 });
        assert_eq!(spans.last().unwrap().end, data.len());
    }
}
