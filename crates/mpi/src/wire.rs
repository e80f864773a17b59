//! A minimal, self-contained binary codec.
//!
//! Used for: checkpointed application state, fault-tolerance control message
//! bodies, and typed message payloads. We deliberately avoid pulling in a
//! serialization framework — the formats we need are tiny, and owning the
//! codec lets checkpoints and control traffic stay allocation-lean.
//!
//! Format: little-endian fixed-width integers; `Vec<T>`/`String` are a `u64`
//! length followed by elements; `Option<T>` is a `u8` discriminant followed by
//! the value if present. There is no schema evolution — both ends are always
//! the same binary.
//!
//! Slices of integers and floats are encoded and decoded in bulk — one
//! reserve and one little-endian copy, one bounds check on the way back
//! ([`Encode::encode_slice`], [`Decode::decode_vec`]) — so a multi-MiB
//! checkpoint state costs about a memcpy. The bytes are exactly those of the
//! element-by-element loop; the format is unchanged.

use crate::error::{MpiError, Result};

/// Serialize a value into a fresh byte vector.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    value.encode(&mut out);
    out
}

/// Deserialize a value from a byte slice, requiring full consumption.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T> {
    let mut r = Reader::new(bytes);
    let v = T::decode(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Types that can be written to the wire.
pub trait Encode {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Append the encodings of `items`, back to back (no length prefix).
    /// Fixed-width scalars override this with one bulk copy; the result is
    /// always byte-identical to encoding each item in turn.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(out);
        }
    }
}

/// Types that can be read back from the wire.
pub trait Decode: Sized {
    /// Decode a value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self>;

    /// Decode `len` back-to-back values (the body of a `Vec<Self>`).
    /// Fixed-width scalars override this with one bounds check and one bulk
    /// conversion.
    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>> {
        let mut v = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            v.push(Self::decode(r)?);
        }
        Ok(v)
    }
}

/// Cursor over a byte slice with bounds-checked reads.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Create a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(MpiError::Codec(format!(
                "short read: want {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Error unless the reader is fully consumed.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(MpiError::Codec(format!("{} trailing bytes", self.remaining())));
        }
        Ok(())
    }
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                const W: usize = std::mem::size_of::<$t>();
                let start = out.len();
                out.resize(start + items.len() * W, 0);
                for (dst, x) in out[start..].chunks_exact_mut(W).zip(items) {
                    dst.copy_from_slice(&x.to_le_bytes());
                }
            }
        }
        impl Decode for $t {
            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                let b = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(b.try_into().unwrap()))
            }

            fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>> {
                const W: usize = std::mem::size_of::<$t>();
                let n = len
                    .checked_mul(W)
                    .ok_or_else(|| MpiError::Codec(format!("length {len} overflows")))?;
                let b = r.take(n)?;
                Ok(b.chunks_exact(W)
                    .map(|c| <$t>::from_le_bytes(c.try_into().expect("W-byte chunk")))
                    .collect())
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Encode for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
}
impl Decode for usize {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| MpiError::Codec("usize overflow".into()))
    }
}

impl Encode for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
}
impl Decode for bool {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            x => Err(MpiError::Codec(format!("bad bool {x}"))),
        }
    }
}

fn decode_len(r: &mut Reader<'_>) -> Result<usize> {
    let len = usize::decode(r)?;
    // Defensive cap: an element is at least one byte on the wire, so a valid
    // length can never exceed what remains.
    if len > r.remaining() {
        return Err(MpiError::Codec(format!("length {len} exceeds remaining {}", r.remaining())));
    }
    Ok(len)
}

impl Encode for bytes::Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self);
    }
}
impl Decode for bytes::Bytes {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = decode_len(r)?;
        Ok(bytes::Bytes::copy_from_slice(r.take(len)?))
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        T::encode_slice(self, out);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = decode_len(r)?;
        T::decode_vec(r, len)
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let len = decode_len(r)?;
        let b = r.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|e| MpiError::Codec(e.to_string()))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            x => Err(MpiError::Codec(format!("bad option tag {x}"))),
        }
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$idx.encode(out);)+
            }
        }
        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut Reader<'_>) -> Result<Self> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

impl_wire_tuple!(A: 0);
impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl Encode for crate::types::RankId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}
impl Decode for crate::types::RankId {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(crate::types::RankId(u32::decode(r)?))
    }
}

impl Encode for crate::types::CommId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}
impl Decode for crate::types::CommId {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(crate::types::CommId(u64::decode(r)?))
    }
}

impl Encode for crate::types::MatchIdent {
    fn encode(&self, out: &mut Vec<u8>) {
        self.pattern.encode(out);
        self.iteration.encode(out);
    }
}
impl Decode for crate::types::MatchIdent {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(crate::types::MatchIdent { pattern: u32::decode(r)?, iteration: u32::decode(r)? })
    }
}

impl Encode for crate::types::ChannelId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.src.encode(out);
        self.dst.encode(out);
        self.comm.encode(out);
    }
}
impl Decode for crate::types::ChannelId {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(crate::types::ChannelId {
            src: Decode::decode(r)?,
            dst: Decode::decode(r)?,
            comm: Decode::decode(r)?,
        })
    }
}

/// Encode a `HashMap`-like sequence of key/value pairs deterministically
/// (sorted by key) — used by checkpoint serialization so identical states
/// produce identical bytes.
pub fn encode_map<K, V>(map: &std::collections::HashMap<K, V>, out: &mut Vec<u8>)
where
    K: Encode + Ord + Clone + Eq + std::hash::Hash,
    V: Encode,
{
    let mut keys: Vec<&K> = map.keys().collect();
    keys.sort();
    (keys.len() as u64).encode(out);
    for k in keys {
        k.encode(out);
        map[k].encode(out);
    }
}

/// Decode a map written by [`encode_map`].
pub fn decode_map<K, V>(r: &mut Reader<'_>) -> Result<std::collections::HashMap<K, V>>
where
    K: Decode + Eq + std::hash::Hash,
    V: Decode,
{
    let len = decode_len(r)?;
    let mut m = std::collections::HashMap::with_capacity(len.min(4096));
    for _ in 0..len {
        let k = K::decode(r)?;
        let v = V::decode(r)?;
        m.insert(k, v);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ChannelId, CommId, MatchIdent, RankId};
    use std::collections::HashMap;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let b = to_bytes(&v);
        let back: T = from_bytes(&b).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn ints_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-1234567890123i64);
        roundtrip(std::f64::consts::PI);
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip("hello wörld".to_string());
        roundtrip(Some(vec![1.5f64, -2.5]));
        roundtrip(Option::<u32>::None);
        roundtrip((RankId(3), CommId(1), 42u64));
    }

    #[test]
    fn domain_types_roundtrip() {
        roundtrip(RankId(17));
        roundtrip(MatchIdent::new(3, 99));
        roundtrip(ChannelId::new(RankId(1), RankId(2), CommId(5)));
    }

    #[test]
    fn map_roundtrip_is_deterministic() {
        let mut m = HashMap::new();
        m.insert(3u32, 30u64);
        m.insert(1u32, 10u64);
        m.insert(2u32, 20u64);
        let mut a = Vec::new();
        encode_map(&m, &mut a);
        let mut b = Vec::new();
        encode_map(&m, &mut b);
        assert_eq!(a, b);
        let back: HashMap<u32, u64> = {
            let mut r = Reader::new(&a);
            let m = decode_map(&mut r).unwrap();
            r.finish().unwrap();
            m
        };
        assert_eq!(back, m);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = to_bytes(&7u32);
        b.push(0);
        assert!(from_bytes::<u32>(&b).is_err());
    }

    #[test]
    fn short_read_rejected() {
        let b = to_bytes(&7u32);
        assert!(from_bytes::<u64>(&b).is_err());
    }

    #[test]
    fn hostile_length_rejected() {
        // A Vec<u8> claiming u64::MAX elements must not allocate.
        let b = to_bytes(&u64::MAX);
        assert!(from_bytes::<Vec<u8>>(&b).is_err());
    }

    #[test]
    fn bad_bool_and_option_tags_rejected() {
        assert!(from_bytes::<bool>(&[2]).is_err());
        assert!(from_bytes::<Option<u8>>(&[9]).is_err());
    }
}
