//! Property tests of the content-defined chunker's invariants.
//!
//! * `spans_partition_the_input` — for arbitrary data and arbitrary
//!   (possibly degenerate) parameters, the spans are a contiguous
//!   partition: start at 0, end at `len`, never empty, and every span
//!   except the final one respects the normalized `[min, max]` bounds
//!   (the final span only the `max` bound).
//! * `concatenation_is_identity` — reassembling the chunks byte-for-byte
//!   reproduces the input (the property the CAS materialization path
//!   stands on).
//! * `small_edits_change_few_chunk_hashes` — inserting or deleting up to
//!   64 bytes mid-buffer changes at most 40 of the 512–768 chunk hashes:
//!   boundaries are content-determined, so the cut points re-synchronize
//!   shortly after the edit instead of shifting every downstream chunk (the
//!   failure mode of the fixed grid, where a mid-buffer insert rewrites
//!   every chunk past the edit point — over 200 here).
//! * `strided_scan_equals_the_bytewise_scan` — the chunker rolls its gear
//!   hash four bytes per step; its spans must be exactly those of the plain
//!   one-byte-per-step FastCDC loop kept here as the reference, on random
//!   data and random parameters (chunk boundaries are part of the dedup
//!   contract across ranks and builds).
//! * `reuse_walk_equals_a_fresh_cut` — [`chunk_reusing`] with an earlier
//!   cut as its hint and a real [`CasStore`] confirming bytes must cut
//!   exactly as `chunk_spans` and address exactly as `ChunkHash::of`, for
//!   every kind of (previous, new) body pair: overwritten runs, inserts,
//!   deletes, length changes within `max` of the end (over zero runs, where
//!   only the cap cuts), identical and empty bodies, a hint cut from
//!   another rank's body, and a hint whose chunks were freed from the
//!   store.

use proptest::prelude::*;
use spbc_ckptstore::{chunk_reusing, chunk_spans, CasStore, CdcParams, ChunkHash, Cut, Cuts};
use std::collections::HashSet;
use std::ops::Range;

/// The gear table, generated exactly as the chunker documents it: a fixed
/// SplitMix64 stream.
fn gear() -> [u64; 256] {
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
}

/// Reference chunker: the bytewise FastCDC loop (min-skip, hard mask below
/// `avg`, easy mask past it, forced cut at `max`).
fn bytewise_spans(data: &[u8], params: CdcParams) -> Vec<Range<usize>> {
    let p = params.normalized();
    let bits = (63 - (p.avg as u64).leading_zeros()).clamp(4, 48);
    let mask = |b: u32| !0u64 << (64 - b);
    let (hard, easy) = (mask((bits + 2).min(62)), mask(bits.saturating_sub(2).max(1)));
    let gear = gear();
    let first_cut = |data: &[u8]| -> usize {
        let n = data.len();
        if n <= p.min {
            return n;
        }
        let cap = n.min(p.max);
        let center = cap.min(p.avg);
        let mut h: u64 = 0;
        for (i, &b) in data.iter().enumerate().take(cap).skip(p.min) {
            h = (h << 1).wrapping_add(gear[b as usize]);
            let m = if i < center { hard } else { easy };
            if h & m == 0 {
                return i + 1;
            }
        }
        cap
    };
    let mut spans = Vec::new();
    let mut start = 0;
    while start < data.len() {
        let len = first_cut(&data[start..]);
        spans.push(start..start + len);
        start += len;
    }
    spans
}

/// Deterministic pseudo-random body (SplitMix64 stream).
fn body(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

fn hashes(data: &[u8], p: CdcParams) -> HashSet<ChunkHash> {
    chunk_spans(data, p).into_iter().map(|s| ChunkHash::of(&data[s])).collect()
}

/// How the new body is derived from the previous one.
#[derive(Clone, Copy, Debug)]
enum Edit {
    Overwrite,
    Insert,
    Delete,
    /// Grow or shrink by up to `max` bytes at the end.
    Tail,
    Identical,
    Empty,
}

const EDITS: [Edit; 6] =
    [Edit::Overwrite, Edit::Insert, Edit::Delete, Edit::Tail, Edit::Identical, Edit::Empty];

fn edit(prev: &[u8], how: Edit, pos: usize, n: usize, seed: u64, max: usize) -> Vec<u8> {
    let mut new = prev.to_vec();
    let pos = pos.min(prev.len());
    let patch = body(seed ^ 0x5EED, n);
    match how {
        Edit::Overwrite => {
            let end = (pos + n).min(new.len());
            new[pos..end].copy_from_slice(&patch[..end - pos]);
        }
        Edit::Insert => drop(new.splice(pos..pos, patch)),
        Edit::Delete => drop(new.drain(pos..(pos + n).min(prev.len()))),
        Edit::Tail => {
            // `n` in 0..2·max+1 maps to a length change in -max..=max.
            let delta = n as isize - max as isize;
            if delta < 0 {
                new.truncate(prev.len().saturating_sub(delta.unsigned_abs()));
            } else {
                new.extend(std::iter::repeat_n(0u8, delta as usize));
            }
        }
        Edit::Identical => {}
        Edit::Empty => new.clear(),
    }
    new
}

/// Cut `data` from scratch (`chunk_spans` + `ChunkHash::of`) and store
/// every chunk whose per-chunk coin (`keep_pct` percent) comes up, under
/// one registration: the hint plus the store a later walk confirms bytes
/// against.
fn cut_and_store(cas: &CasStore, owner: u32, data: &[u8], p: CdcParams, keep_pct: u64) -> Cuts {
    let cuts = Cuts {
        body_len: data.len(),
        params: p.normalized(),
        cuts: chunk_spans(data, p)
            .into_iter()
            .map(|s| Cut { start: s.start, len: s.len(), hash: ChunkHash::of(&data[s]) })
            .collect(),
    };
    let manifest: Vec<(ChunkHash, Option<&[u8]>)> = cuts
        .cuts
        .iter()
        .filter(|c| (c.hash.0[0] as u64 * 100) / 256 < keep_pct)
        .map(|c| (c.hash, Some(&data[c.span()])))
        .collect();
    cas.commit_insert(0, owner, owner, 1, &manifest).expect("store the hint's chunks");
    cuts
}

/// The reuse walk's cut of `new` must be the fresh cut; returns how many
/// chunks it reused.
fn check_reuse(new: &[u8], p: CdcParams, hint: &Cuts, cas: &CasStore) -> usize {
    let mut reused = 0;
    let cuts = chunk_reusing(new, p, hint, |c, b| {
        let same = cas.matches(&c.hash, b);
        reused += same as usize;
        same
    });
    let spans: Vec<Range<usize>> = cuts.cuts.iter().map(|c| c.span()).collect();
    assert_eq!(spans, chunk_spans(new, p), "cut points differ from a fresh cut");
    for c in &cuts.cuts {
        assert_eq!(c.hash, ChunkHash::of(&new[c.span()]), "address of {:?}", c.span());
    }
    assert_eq!(cuts.body_len, new.len());
    reused
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn spans_partition_the_input(
        seed: u64,
        len in 0usize..6000,
        min in 0usize..300,
        avg in 0usize..600,
        max in 0usize..1200,
    ) {
        let data = body(seed, len);
        let p = CdcParams { min, avg, max };
        let n = p.normalized();
        let spans = chunk_spans(&data, p);
        let mut cursor = 0usize;
        for (i, s) in spans.iter().enumerate() {
            prop_assert_eq!(s.start, cursor, "spans must be contiguous");
            prop_assert!(s.end > s.start, "spans are never empty");
            let chunk_len = s.end - s.start;
            prop_assert!(chunk_len <= n.max, "span {i} over max: {chunk_len} > {}", n.max);
            if i + 1 < spans.len() {
                prop_assert!(
                    chunk_len >= n.min,
                    "non-final span {i} under min: {chunk_len} < {}",
                    n.min
                );
            }
            cursor = s.end;
        }
        prop_assert_eq!(cursor, data.len(), "spans must cover the whole input");
        prop_assert_eq!(spans.is_empty(), data.is_empty());
    }

    #[test]
    fn concatenation_is_identity(seed: u64, len in 0usize..6000) {
        let data = body(seed, len);
        let p = CdcParams { min: 32, avg: 128, max: 512 };
        let rebuilt: Vec<u8> =
            chunk_spans(&data, p).into_iter().flat_map(|s| data[s].to_vec()).collect();
        prop_assert_eq!(rebuilt, data);
    }

    #[test]
    fn small_edits_change_few_chunk_hashes(
        seed: u64,
        len in 65_536usize..98_304,
        pos_pct in 10usize..60,
        edit_len in 1usize..=64,
        insert: bool,
    ) {
        const BOUND: usize = 40;
        let p = CdcParams { min: 32, avg: 128, max: 512 };
        let before = body(seed, len);
        let pos = len * pos_pct / 100;
        // The bound only means something if a fixed grid of avg-sized chunks
        // would blow through it: every grid chunk past the edit changes.
        prop_assert!((len - pos) / p.avg >= 4 * BOUND);
        let mut after = before.clone();
        if insert {
            let patch = body(seed ^ 0xED17, edit_len);
            after.splice(pos..pos, patch);
        } else {
            after.drain(pos..(pos + edit_len).min(len));
        }
        let old = hashes(&before, p);
        let new = hashes(&after, p);
        let fresh = new.difference(&old).count();
        let dropped = old.difference(&new).count();
        // The min-skip makes cut points depend on the chunk *start*, so an
        // edit cascades until a new cut happens to land on an old boundary —
        // a geometric tail, not a single chunk. Over 200 000 random edits
        // drawn as here, the cascade is 1–3 chunks in 59 % of them, exceeds
        // 10 in 3.6 %, 32 in 4 and never exceeds 37; a fixed grid would churn
        // every chunk past the edit point — over 200 of the 512–768 here.
        prop_assert!(
            fresh <= BOUND && dropped <= BOUND,
            "a {}-byte {} changed {fresh} new / {dropped} dropped chunk hashes \
             (expected <= {BOUND} each; {} chunks total)",
            edit_len,
            if insert { "insert" } else { "delete" },
            new.len()
        );
    }

    #[test]
    fn strided_scan_equals_the_bytewise_scan(
        seed: u64,
        len in 0usize..12_000,
        min in 0usize..300,
        avg in 0usize..1200,
        max in 0usize..2400,
        zeros_from in 0usize..12_000,
    ) {
        // Random bytes with an all-zero tail from a random point: the tail
        // gear-hashes to a fixed point, so only the max cap cuts there.
        let mut data = body(seed, len);
        data.iter_mut().skip(zeros_from).for_each(|b| *b = 0);
        let p = CdcParams { min, avg, max };
        prop_assert_eq!(chunk_spans(&data, p), bytewise_spans(&data, p), "params {:?}", p);
    }

    #[test]
    fn reuse_walk_equals_a_fresh_cut(
        seed: u64,
        len in 0usize..12_000,
        zeros_from in 0usize..12_000,
        min in 16usize..200,
        avg in 16usize..800,
        max in 16usize..1600,
        how in 0usize..6,
        pos in 0usize..12_000,
        n in 0usize..3_200,
        from_other_rank: bool,
        keep_pct in 0u64..=100,
    ) {
        let p = CdcParams { min, avg, max };
        let mut prev = body(seed, len);
        prev.iter_mut().skip(zeros_from).for_each(|b| *b = 0);
        let max = p.normalized().max;
        let how = EDITS[how];
        let n = if matches!(how, Edit::Tail) { n % (2 * max + 1) } else { n % 600 };
        let new = edit(&prev, how, pos, n, seed, max);
        // The hint comes from this rank's previous body or from another
        // rank's (the same body with its first kilobyte rewritten), and
        // only `keep_pct` percent of its chunks are still stored.
        let source = if from_other_rank {
            let mut other = prev.clone();
            let head = other.len().min(1024);
            other[..head].copy_from_slice(&body(!seed, head));
            other
        } else {
            prev.clone()
        };
        let cas = CasStore::new();
        let hint = cut_and_store(&cas, from_other_rank as u32, &source, p, keep_pct);
        let reused = check_reuse(&new, p, &hint, &cas);
        if matches!(how, Edit::Identical) && !from_other_rank && keep_pct == 100 {
            prop_assert_eq!(reused, hint.cuts.len(), "an unchanged body reuses every chunk");
        }
    }
}

/// On an unchanged body with every chunk stored, the walk reuses every
/// chunk (nothing is scanned or hashed); with every chunk freed, or under
/// different bounds, it reuses none and still cuts identically.
#[test]
fn reuse_walk_reuses_every_clean_chunk_and_only_those() {
    let p = CdcParams { min: 64, avg: 256, max: 1024 };
    let data = body(7, 40_000);
    let cas = CasStore::new();
    let hint = cut_and_store(&cas, 0, &data, p, 100);
    assert_eq!(check_reuse(&data, p, &hint, &cas), hint.cuts.len());
    let other = CdcParams { min: 64, avg: 512, max: 1024 };
    assert_eq!(check_reuse(&data, other, &hint, &cas), 0, "a hint cut with other bounds");
    cas.unregister(0, 0, 1);
    assert_eq!(check_reuse(&data, p, &hint, &cas), 0, "every hinted chunk was freed");
    // An edit in the middle costs only the chunks around it.
    let mut edited = data.clone();
    edited[20_000] ^= 0xFF;
    let cas = CasStore::new();
    let hint = cut_and_store(&cas, 0, &data, p, 100);
    let reused = check_reuse(&edited, p, &hint, &cas);
    assert!(reused + 4 >= hint.cuts.len(), "{reused} of {} reused", hint.cuts.len());
}

/// The strided scan on the edge shapes: the minimum (all-16) bounds, odd
/// bounds, lengths that are not a multiple of four, all-zero input and
/// inputs within a few bytes of `min`.
#[test]
fn strided_scan_equals_the_bytewise_scan_on_edge_shapes() {
    let params = [
        CdcParams { min: 16, avg: 16, max: 16 },
        CdcParams { min: 17, avg: 33, max: 70 },
        CdcParams { min: 32, avg: 128, max: 512 },
        CdcParams { min: 256, avg: 1024, max: 4096 },
        CdcParams { min: 0, avg: 0, max: 0 },
    ];
    for p in params {
        let min = p.normalized().min;
        let mut lens: Vec<usize> = (min.saturating_sub(3)..=min + 3).collect();
        lens.extend([0, 1, 2, 3, 4, 5, 4093, 4097, 9_999, 20_002]);
        for len in lens {
            for seed in 0..8u64 {
                let data = body(seed, len);
                assert_eq!(chunk_spans(&data, p), bytewise_spans(&data, p), "{p:?} len {len}");
            }
            let zeros = vec![0u8; len];
            assert_eq!(chunk_spans(&zeros, p), bytewise_spans(&zeros, p), "{p:?} zeros {len}");
        }
    }
}
