//! Witness tests of the determinism chains (`RankStats::on_send`).
//!
//! The chains fold `(tag, plen, payload digest, ident)` per send, with the
//! digest the low word of `util::hash128`. A chain that misses a payload
//! difference would let a channel-determinism check pass on two executions
//! that sent different bytes.
//!
//! * `every_byte_flip_up_to_300_bytes_changes_the_chain` and
//!   `every_byte_flip_of_a_1k_payload_changes_the_chain` — exhaustive over
//!   positions, for every length 0..=300 and at 1 KiB.
//! * `any_single_byte_flip_changes_the_chain` — random lengths (1..=300,
//!   1 KiB, 256 KiB), contents, positions and xor masks; the difference also
//!   survives a later identical send.
//! * `swapping_two_sends_changes_the_process_chain` — order is witnessed.
//! * `zero_padded_tails_do_not_collide` — the digest's zero-padded last
//!   stripe is told apart by length.

use mini_mpi::stats::RankStats;
use mini_mpi::types::{ChannelId, RankId, COMM_WORLD};
use mini_mpi::util::{hash128, XorShift64};
use proptest::prelude::*;

fn chan(dst: u32) -> ChannelId {
    ChannelId::new(RankId(0), RankId(dst), COMM_WORLD)
}

fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut r = XorShift64::new(seed);
    (0..len).map(|_| r.next_u64() as u8).collect()
}

/// The stats of one rank after sending each payload, in order, on channel
/// 0 → 1 with tag 7.
fn sent(payloads: &[&[u8]]) -> RankStats {
    let mut s = RankStats::new(RankId(0), 2);
    for p in payloads {
        s.on_send(chan(1), 7, p, (0, 1));
    }
    s
}

/// Flip byte `pos` of `payload` by `mask` and assert both chains see it.
fn assert_flip_changes_chains(payload: &[u8], pos: usize, mask: u8) {
    let mut flipped = payload.to_vec();
    flipped[pos] ^= mask;
    let (a, b) = (sent(&[payload]), sent(&[&flipped]));
    assert_ne!(a.process_chain, b.process_chain, "len {} pos {pos} mask {mask:#x}", payload.len());
    assert_ne!(a.channel_chains, b.channel_chains, "len {} pos {pos}", payload.len());
    assert_eq!(a.process_chain.count, b.process_chain.count);
}

#[test]
fn every_byte_flip_up_to_300_bytes_changes_the_chain() {
    for len in 0..=300 {
        let payload = noise(len, len as u64 + 1);
        for pos in 0..len {
            assert_flip_changes_chains(&payload, pos, 0x80 >> (pos % 8));
        }
    }
}

#[test]
fn every_byte_flip_of_a_1k_payload_changes_the_chain() {
    let payload = noise(1024, 1024);
    for pos in 0..payload.len() {
        assert_flip_changes_chains(&payload, pos, 1 << (pos % 8));
    }
}

#[test]
fn zero_padded_tails_do_not_collide() {
    let zeros = [0u8; 300];
    let mut digests = std::collections::HashSet::new();
    let mut chains = std::collections::HashSet::new();
    for n in 0..=zeros.len() {
        assert!(digests.insert(hash128(&zeros[..n]) as u64), "digest of {n} zeros collides");
        assert!(
            chains.insert(sent(&[&zeros[..n]]).process_chain.hash),
            "chain of {n} zeros collides"
        );
    }
    // A payload and the same payload with a trailing zero differ too.
    for n in 0..64 {
        let p = noise(n, 9);
        let mut padded = p.clone();
        padded.push(0);
        assert_ne!(hash128(&p) as u64, hash128(&padded) as u64, "length {n}");
    }
}

fn payload_len() -> impl Strategy<Value = usize> {
    // Length 0 has no byte to flip; the exhaustive tests cover it.
    prop_oneof![1usize..=300, Just(1024), Just(256 * 1024)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_single_byte_flip_changes_the_chain(
        len in payload_len(),
        seed in any::<u64>(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let payload = noise(len, seed);
        let pos = at % len;
        let mut flipped = payload.clone();
        flipped[pos] ^= mask;
        let after: &[u8] = b"the same next send";
        let (a, b) = (sent(&[&payload, after]), sent(&[&flipped, after]));
        prop_assert_ne!(a.process_chain, b.process_chain);
        prop_assert_ne!(a.channel_chains, b.channel_chains);
    }

    #[test]
    fn swapping_two_sends_changes_the_process_chain(
        x in proptest::collection::vec(any::<u8>(), 0..64),
        y in proptest::collection::vec(any::<u8>(), 0..64),
        tags in (0u32..4, 0u32..4),
    ) {
        if (tags.0, &x) == (tags.1, &y) {
            continue;
        }
        let mut xy = RankStats::new(RankId(0), 3);
        xy.on_send(chan(1), tags.0, &x, (0, 1));
        xy.on_send(chan(2), tags.1, &y, (0, 1));
        let mut yx = RankStats::new(RankId(0), 3);
        yx.on_send(chan(2), tags.1, &y, (0, 1));
        yx.on_send(chan(1), tags.0, &x, (0, 1));
        // Per channel the sequences are the same; across channels the order
        // differs, and the process chain must say so.
        prop_assert_eq!(&xy.channel_chains, &yx.channel_chains);
        prop_assert_ne!(xy.process_chain, yx.process_chain);
    }
}
