//! Property tests of the wire codec: every encodable value round-trips, and
//! corrupted inputs never panic.
//!
//! The bulk slice path (`Encode::encode_slice` / `Decode::decode_vec` on
//! integers and floats) is checked byte for byte against a per-element
//! reference encoder kept here, and its decoder against every truncation
//! point and hostile length prefix.

use bytes::Bytes;
use proptest::prelude::*;
use spbc::core::store::CheckpointData;
use spbc::mpi::envelope::{CtrlMsg, Envelope, Message, Packet, Transfer};
use spbc::mpi::types::{ChannelId, CommId, MatchIdent, RankId};
use spbc::mpi::wire::{from_bytes, to_bytes, Decode, Reader};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The element-by-element wire encoding: a `u64` length, then each element
/// in turn. The bulk codec must reproduce it byte for byte.
trait RefEncode {
    fn ref_encode(&self, out: &mut Vec<u8>);
}

macro_rules! ref_scalar {
    ($($t:ty),*) => {$(
        impl RefEncode for $t {
            fn ref_encode(&self, out: &mut Vec<u8>) {
                for b in self.to_le_bytes() {
                    out.push(b);
                }
            }
        }
    )*};
}
ref_scalar!(u8, u16, u64, i64, f64);

impl<T: RefEncode> RefEncode for Vec<T> {
    fn ref_encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).ref_encode(out);
        for item in self {
            item.ref_encode(out);
        }
    }
}

impl<A: RefEncode, B: RefEncode> RefEncode for (A, B) {
    fn ref_encode(&self, out: &mut Vec<u8>) {
        self.0.ref_encode(out);
        self.1.ref_encode(out);
    }
}

impl<A: RefEncode, B: RefEncode, C: RefEncode> RefEncode for (A, B, C) {
    fn ref_encode(&self, out: &mut Vec<u8>) {
        self.0.ref_encode(out);
        self.1.ref_encode(out);
        self.2.ref_encode(out);
    }
}

fn reference<T: RefEncode>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.ref_encode(&mut out);
    out
}

/// Floats that stress a bit-exact codec: NaNs with payloads (quiet and
/// signalling, both signs), `-0.0`, infinities, subnormals; otherwise
/// arbitrary bit patterns.
fn arb_f64() -> impl Strategy<Value = f64> {
    const SPECIAL: [u64; 8] = [
        0x7ff8_0000_0000_0001, // quiet NaN, payload 1
        0xfff8_dead_beef_0000, // negative quiet NaN with payload
        0x7ff0_0000_0000_0001, // signalling NaN
        0x8000_0000_0000_0000, // -0.0
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x0000_0000_0000_0001, // smallest subnormal
        0x800f_ffff_ffff_ffff, // largest negative subnormal
    ];
    any::<u64>().prop_map(|bits| {
        let b = if bits % 4 == 0 { SPECIAL[(bits >> 2) as usize % SPECIAL.len()] } else { bits };
        f64::from_bits(b)
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Largest single allocation the current thread made since the last reset.
/// Lets a test assert that a hostile length prefix is rejected before any
/// buffer of that length is reserved.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's `GlobalAlloc` contract is exactly the one `System` requires;
// `note` only touches a const-initialized, drop-free thread-local and never
// allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

fn peak_alloc_during(f: impl FnOnce()) -> usize {
    PEAK.with(|p| p.set(0));
    f();
    PEAK.with(|p| p.get())
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        (any::<u32>(), any::<u32>(), any::<u64>(), 0u32..1_000_000),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u32>(), any::<u32>()),
    )
        .prop_map(|((src, dst, comm, tag), (seqnum, plen, lamport, pat, iter))| Envelope {
            src: RankId(src),
            dst: RankId(dst),
            comm: CommId(comm),
            tag,
            seqnum,
            plen,
            lamport,
            ident: MatchIdent::new(pat, iter),
        })
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..4096)
}

fn arb_transfer() -> impl Strategy<Value = Transfer> {
    prop_oneof![
        (arb_envelope(), arb_payload())
            .prop_map(|(env, p)| Transfer::Eager(Message { env, payload: Bytes::from(p) })),
        (arb_envelope(), any::<u64>()).prop_map(|(env, token)| Transfer::Rts { env, token }),
        (any::<u64>(), any::<u64>(), any::<u32>()).prop_map(|(token, recv_req, dst)| {
            Transfer::Cts { token, recv_req, dst: RankId(dst) }
        }),
        (arb_envelope(), any::<u64>(), arb_payload()).prop_map(|(env, recv_req, p)| {
            Transfer::Data { env, recv_req, payload: Bytes::from(p) }
        }),
    ]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        arb_transfer().prop_map(Packet::Msg),
        (any::<u32>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..4096)).prop_map(
            |(from, kind, data)| Packet::Ctrl(CtrlMsg {
                from: RankId(from),
                kind,
                data: Bytes::from(data),
            })
        ),
    ]
}

proptest! {
    #[test]
    fn u64_roundtrip(v: u64) {
        prop_assert_eq!(from_bytes::<u64>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn f64_roundtrip(v: f64) {
        let back = from_bytes::<f64>(&to_bytes(&v)).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn vec_u32_roundtrip(v: Vec<u32>) {
        prop_assert_eq!(from_bytes::<Vec<u32>>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn string_roundtrip(s in ".*") {
        prop_assert_eq!(from_bytes::<String>(&to_bytes(&s)).unwrap(), s);
    }

    #[test]
    fn nested_roundtrip(v: Vec<(u64, Vec<i32>)>) {
        prop_assert_eq!(from_bytes::<Vec<(u64, Vec<i32>)>>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn option_roundtrip(v: Option<(u8, u64)>) {
        prop_assert_eq!(from_bytes::<Option<(u8, u64)>>(&to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn domain_ids_roundtrip(r: u32, c: u64, p: u32, i: u32) {
        let chan = ChannelId::new(RankId(r), RankId(r.wrapping_add(1)), CommId(c));
        prop_assert_eq!(from_bytes::<ChannelId>(&to_bytes(&chan)).unwrap(), chan);
        let ident = MatchIdent::new(p, i);
        prop_assert_eq!(from_bytes::<MatchIdent>(&to_bytes(&ident)).unwrap(), ident);
    }

    #[test]
    fn arbitrary_bytes_never_panic(data: Vec<u8>) {
        // Decoding garbage must error gracefully, never panic or OOM.
        let _ = from_bytes::<Vec<u64>>(&data);
        let _ = from_bytes::<String>(&data);
        let _ = from_bytes::<Option<Vec<u32>>>(&data);
        let _ = from_bytes::<spbc::mpi::envelope::Message>(&data);
        let _ = from_bytes::<spbc::core::store::CheckpointData>(&data);
    }

    #[test]
    fn truncated_encoding_never_panics(v: Vec<u64>, cut in 0usize..64) {
        let mut b = to_bytes(&v);
        let keep = b.len().saturating_sub(cut);
        b.truncate(keep);
        let _ = from_bytes::<Vec<u64>>(&b);
    }

    #[test]
    fn envelope_roundtrip(env in arb_envelope()) {
        prop_assert_eq!(from_bytes::<Envelope>(&to_bytes(&env)).unwrap(), env);
    }

    #[test]
    fn packet_roundtrip(pkt in arb_packet()) {
        // Every packet kind — eager, rendezvous legs, control — survives the
        // wire bit-for-bit: this is what the UDS transport ships.
        prop_assert_eq!(from_bytes::<Packet>(&to_bytes(&pkt)).unwrap(), pkt);
    }

    #[test]
    fn truncated_packet_is_rejected_loudly(pkt in arb_packet(), cut in 1usize..64) {
        // Any strict prefix must decode to an error — never a panic, never a
        // silently shortened value.
        let b = to_bytes(&pkt);
        let keep = b.len().saturating_sub(cut);
        prop_assert!(from_bytes::<Packet>(&b[..keep]).is_err(),
            "prefix of {} bytes (of {}) decoded successfully", keep, b.len());
    }

    #[test]
    fn patterns_roundtrip(iters in proptest::collection::vec(0u32..1000, 0..8), active: bool) {
        let mut p = spbc::core::Patterns::new();
        for _ in &iters {
            p.declare();
        }
        // Encode/decode preserves the registry (iteration counters survive
        // checkpoints).
        let bytes = to_bytes(&p);
        let back: spbc::core::Patterns = from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, p);
        let _ = active;
    }

    #[test]
    fn bulk_scalar_vecs_match_the_element_loop(
        b in proptest::collection::vec(any::<u8>(), 0..2048),
        h in proptest::collection::vec(any::<u16>(), 0..512),
        i in proptest::collection::vec(any::<i64>(), 0..256),
        f in proptest::collection::vec(arb_f64(), 0..256),
    ) {
        prop_assert_eq!(to_bytes(&b), reference(&b));
        prop_assert_eq!(to_bytes(&h), reference(&h));
        prop_assert_eq!(to_bytes(&i), reference(&i));
        prop_assert_eq!(to_bytes(&f), reference(&f));
        prop_assert_eq!(from_bytes::<Vec<u8>>(&reference(&b)).unwrap(), b);
        prop_assert_eq!(from_bytes::<Vec<u16>>(&reference(&h)).unwrap(), h);
        prop_assert_eq!(from_bytes::<Vec<i64>>(&reference(&i)).unwrap(), i);
        prop_assert_eq!(bits(&from_bytes::<Vec<f64>>(&reference(&f)).unwrap()), bits(&f));
    }

    #[test]
    fn bulk_nested_and_tuples_match_the_element_loop(
        nested in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..16),
        step: u64,
        field in proptest::collection::vec(arb_f64(), 0..128),
        coeffs in proptest::collection::vec(arb_f64(), 0..128),
        pairs in proptest::collection::vec((any::<u16>(), any::<i64>()), 0..32),
    ) {
        prop_assert_eq!(to_bytes(&nested), reference(&nested));
        prop_assert_eq!(from_bytes::<Vec<Vec<u8>>>(&reference(&nested)).unwrap(), nested);
        // MiniGhost's checkpointed state shape.
        let state = (step, field, coeffs);
        let b = to_bytes(&state);
        prop_assert_eq!(&b, &reference(&state));
        let back: (u64, Vec<f64>, Vec<f64>) = from_bytes(&b).unwrap();
        prop_assert_eq!(back.0, state.0);
        prop_assert_eq!(bits(&back.1), bits(&state.1));
        prop_assert_eq!(bits(&back.2), bits(&state.2));
        prop_assert_eq!(to_bytes(&pairs), reference(&pairs));
        prop_assert_eq!(from_bytes::<Vec<(u16, i64)>>(&reference(&pairs)).unwrap(), pairs);
    }

    #[test]
    fn checkpoint_app_state_is_encoded_as_the_element_loop(
        epoch: u64,
        app_state in proptest::collection::vec(any::<u8>(), 0..4096),
        lamport: u64,
    ) {
        let ck = CheckpointData { ckpt_epoch: epoch, app_state, lamport, ..Default::default() };
        let empty = CheckpointData { app_state: Vec::new(), ..ck.clone() };
        // Layout: epoch, then `app_state` as a byte vector, then the rest —
        // which must be what the same checkpoint without state ends with.
        let head = reference(&(epoch, ck.app_state.clone()));
        let b = to_bytes(&ck);
        prop_assert_eq!(&b[..head.len()], &head[..]);
        prop_assert_eq!(&b[head.len()..], &to_bytes(&empty)[16..]);
        let back: CheckpointData = from_bytes(&b).unwrap();
        prop_assert_eq!(back.app_state, ck.app_state);
        prop_assert_eq!((back.ckpt_epoch, back.lamport), (epoch, lamport));
    }

    #[test]
    fn every_prefix_of_a_scalar_vec_is_an_error(
        b in proptest::collection::vec(any::<u8>(), 0..512),
        f in proptest::collection::vec(arb_f64(), 0..128),
    ) {
        let eb = to_bytes(&b);
        for keep in 0..eb.len() {
            prop_assert!(from_bytes::<Vec<u8>>(&eb[..keep]).is_err(),
                "Vec<u8>: {}-byte prefix (of {}) decoded", keep, eb.len());
        }
        let ef = to_bytes(&f);
        for keep in 0..ef.len() {
            prop_assert!(from_bytes::<Vec<f64>>(&ef[..keep]).is_err(),
                "Vec<f64>: {}-byte prefix (of {}) decoded", keep, ef.len());
        }
    }
}

/// A length prefix of `u64::MAX`, or one whose byte size `len * W`
/// overflows, is rejected before anything of that size is allocated.
#[test]
fn hostile_length_prefixes_are_rejected_without_allocating() {
    let mut hostile = to_bytes(&u64::MAX);
    hostile.extend_from_slice(&[0u8; 64]);
    let peak = peak_alloc_during(|| {
        assert!(from_bytes::<Vec<u8>>(&hostile).is_err());
        assert!(from_bytes::<Vec<u16>>(&hostile).is_err());
        assert!(from_bytes::<Vec<i64>>(&hostile).is_err());
        assert!(from_bytes::<Vec<f64>>(&hostile).is_err());
        assert!(from_bytes::<Vec<Vec<u8>>>(&hostile).is_err());
        assert!(from_bytes::<(u64, Vec<f64>, Vec<f64>)>(&hostile).is_err());
    });
    assert!(peak < 1024, "a hostile length allocated {peak} bytes");

    // `len * W` overflows `usize`: only reachable through the bulk hook
    // itself (`Vec<T>::decode` caps `len` by the bytes remaining first).
    let body = [0u8; 64];
    let peak = peak_alloc_during(|| {
        assert!(f64::decode_vec(&mut Reader::new(&body), usize::MAX / 4).is_err());
        assert!(i64::decode_vec(&mut Reader::new(&body), usize::MAX / 8 + 1).is_err());
        assert!(u16::decode_vec(&mut Reader::new(&body), usize::MAX / 2 + 1).is_err());
    });
    assert!(peak < 1024, "an overflowing length allocated {peak} bytes");

    // Within the one-byte-per-element cap but short of `len * 8` bytes.
    let mut short = to_bytes(&64u64);
    short.extend_from_slice(&[0u8; 64]);
    assert!(from_bytes::<Vec<f64>>(&short).is_err());
    assert_eq!(from_bytes::<Vec<u8>>(&short).unwrap(), vec![0u8; 64]);
}

/// Table-driven truncation: one representative of every packet kind, cut at
/// every single byte boundary. Exhaustive where the proptest samples.
#[test]
fn every_packet_kind_rejects_every_truncation_point() {
    let env = Envelope {
        src: RankId(3),
        dst: RankId(4),
        comm: CommId(1),
        tag: 42,
        seqnum: 7,
        plen: 5,
        lamport: 11,
        ident: MatchIdent::new(2, 9),
    };
    let cases: Vec<(&str, Packet)> = vec![
        (
            "eager",
            Packet::Msg(Transfer::Eager(Message {
                env,
                payload: Bytes::from(vec![1, 2, 3, 4, 5]),
            })),
        ),
        ("rts", Packet::Msg(Transfer::Rts { env, token: 77 })),
        ("cts", Packet::Msg(Transfer::Cts { token: 77, recv_req: 5, dst: RankId(4) })),
        (
            "data",
            Packet::Msg(Transfer::Data { env, recv_req: 5, payload: Bytes::from(vec![9, 8, 7]) }),
        ),
        (
            "ctrl",
            Packet::Ctrl(CtrlMsg { from: RankId(1), kind: 6, data: Bytes::from(vec![0xAB; 16]) }),
        ),
    ];
    for (name, pkt) in cases {
        let b = to_bytes(&pkt);
        assert_eq!(from_bytes::<Packet>(&b).unwrap(), pkt, "{name}: full roundtrip");
        for keep in 0..b.len() {
            assert!(
                from_bytes::<Packet>(&b[..keep]).is_err(),
                "{name}: {keep}-byte prefix (of {}) must be rejected",
                b.len()
            );
        }
    }
}
