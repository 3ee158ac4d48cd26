//! The [`Wire`] trait: typed encode/decode over Madeleine payloads.
//!
//! `Wire` gives PM2's little-endian framing one canonical, composable
//! definition per type, so a protocol message is a struct of typed fields
//! — the `pm2` crate declares its whole control plane that way — rather
//! than a sequence of [`PayloadWriter`]/[`PayloadReader`] calls at every
//! site, and the typed LRPC / value-join layers can ship any `Wire` value
//! without bespoke codecs.
//!
//! Framing rules (all little-endian):
//!
//! * fixed-width integers and floats: their byte representation;
//! * `usize`/`isize`: always 8 bytes (u64/i64) — node-independent;
//! * `bool`: one byte, 0 or 1 (any other value fails to decode);
//! * `String`, `Vec<T>`: u32 element count, then the elements;
//! * `Option<T>`: one presence byte, then the value if present;
//! * tuples: fields in order, no header.
//!
//! `Vec<T>` and `String` move their elements as one *run*
//! ([`Wire::encode_run`] / [`Wire::decode_run`]).  The provided run methods
//! loop per element; `u8` and `i8` override them, so a byte string is copied
//! in one step, not pushed a byte at a time.  The bytes on the wire are the
//! same either way.
//!
//! Decoding is total: every method returns `None` on underrun or invalid
//! encoding instead of panicking, because payloads cross node boundaries,
//! and a length read off the wire is checked against the bytes that remain
//! before anything is allocated for it.

use crate::message::{PayloadReader, PayloadWriter};

/// A value that can be encoded onto / decoded from a Madeleine payload.
pub trait Wire: Sized {
    /// Append this value's encoding to `w`.
    fn encode(&self, w: &mut PayloadWriter);

    /// Decode one value, advancing `r`; `None` on underrun or bad bytes.
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self>;

    /// A lower bound on the encoded size in bytes — exact for every type
    /// this module implements.  Encoders size their buffer from it; it is
    /// never a substitute for checking the length actually written.
    fn size_hint(&self) -> usize {
        0
    }

    /// Append the encodings of `run` back to back (no count prefix).
    fn encode_run(run: &[Self], w: &mut PayloadWriter) {
        for v in run {
            v.encode(w);
        }
    }

    /// Decode `n` values back to back; `None` on underrun or bad bytes.
    fn decode_run(r: &mut PayloadReader<'_>, n: usize) -> Option<Vec<Self>> {
        // `n` may be a corrupt length: never reserve more memory than the
        // remaining bytes occupy.
        let fits = r.remaining() / std::mem::size_of::<Self>().max(1);
        let mut out = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            out.push(Self::decode(r)?);
        }
        Some(out)
    }

    /// Encode into a fresh byte vector.
    fn encode_vec(&self) -> Vec<u8> {
        let mut w = PayloadWriter::with_capacity(self.size_hint());
        self.encode(&mut w);
        w.finish_vec()
    }

    /// Decode from a complete buffer; `None` unless exactly consumed.
    fn decode_vec(buf: &[u8]) -> Option<Self> {
        let mut r = PayloadReader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() == 0 {
            Some(v)
        } else {
            None
        }
    }
}

macro_rules! impl_wire_int {
    ($($t:ty => $wide:ty, $write:ident, $read:ident);* $(;)?) => {$(
        impl Wire for $t {
            fn encode(&self, w: &mut PayloadWriter) {
                w.$write(*self as $wide);
            }
            fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
                r.$read().map(|v| v as $t)
            }
            fn size_hint(&self) -> usize {
                std::mem::size_of::<$wide>()
            }
        }
    )*};
}

impl_wire_int! {
    u16 => u16, u16, u16;
    i16 => u16, u16, u16;
    u32 => u32, u32, u32;
    i32 => u32, u32, u32;
    u64 => u64, u64, u64;
    i64 => u64, u64, u64;
    usize => u64, u64, u64;
    isize => u64, u64, u64;
}

impl Wire for u8 {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u8(*self);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
        r.u8()
    }
    fn size_hint(&self) -> usize {
        1
    }
    fn encode_run(run: &[Self], w: &mut PayloadWriter) {
        w.bytes(run);
    }
    fn decode_run(r: &mut PayloadReader<'_>, n: usize) -> Option<Vec<Self>> {
        r.bytes(n).map(<[u8]>::to_vec)
    }
}

impl Wire for i8 {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u8(*self as u8);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
        r.u8().map(|v| v as i8)
    }
    fn size_hint(&self) -> usize {
        1
    }
    fn encode_run(run: &[Self], w: &mut PayloadWriter) {
        w.extend(run.iter().map(|&v| v as u8));
    }
    fn decode_run(r: &mut PayloadReader<'_>, n: usize) -> Option<Vec<Self>> {
        Some(r.bytes(n)?.iter().map(|&v| v as i8).collect())
    }
}

impl Wire for bool {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u8(*self as u8);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    fn size_hint(&self) -> usize {
        1
    }
}

impl Wire for f32 {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u32(self.to_bits());
    }
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
        r.u32().map(f32::from_bits)
    }
    fn size_hint(&self) -> usize {
        4
    }
}

impl Wire for f64 {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u64(self.to_bits());
    }
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
        r.u64().map(f64::from_bits)
    }
    fn size_hint(&self) -> usize {
        8
    }
}

impl Wire for () {
    fn encode(&self, _w: &mut PayloadWriter) {}
    fn decode(_r: &mut PayloadReader<'_>) -> Option<Self> {
        Some(())
    }
}

impl Wire for String {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u32(self.len() as u32);
        u8::encode_run(self.as_bytes(), w);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
        let n = r.u32()? as usize;
        String::from_utf8(u8::decode_run(r, n)?).ok()
    }
    fn size_hint(&self) -> usize {
        4 + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut PayloadWriter) {
        w.u32(self.len() as u32);
        T::encode_run(self, w);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
        let n = r.u32()? as usize;
        T::decode_run(r, n)
    }
    fn size_hint(&self) -> usize {
        4 + self.iter().map(T::size_hint).sum::<usize>()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut PayloadWriter) {
        match self {
            None => {
                w.u8(0);
            }
            Some(v) => {
                w.u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }
    fn size_hint(&self) -> usize {
        1 + self.as_ref().map_or(0, T::size_hint)
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident),+) => {
        #[allow(non_snake_case)]
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, w: &mut PayloadWriter) {
                let ($($name,)+) = self;
                $($name.encode(w);)+
            }
            fn decode(r: &mut PayloadReader<'_>) -> Option<Self> {
                Some(($($name::decode(r)?,)+))
            }
            fn size_hint(&self) -> usize {
                let ($($name,)+) = self;
                0 $(+ $name.size_hint())+
            }
        }
    };
}

impl_wire_tuple!(A);
impl_wire_tuple!(A, B);
impl_wire_tuple!(A, B, C);
impl_wire_tuple!(A, B, C, D);
impl_wire_tuple!(A, B, C, D, E);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.encode_vec();
        assert_eq!(T::decode_vec(&bytes), Some(v));
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(-7i32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.25f64);
        roundtrip(());
    }

    #[test]
    fn compounds_roundtrip() {
        roundtrip(String::from("héllo"));
        roundtrip(String::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u8>::new());
        roundtrip(Some(42u64));
        roundtrip(Option::<String>::None);
        roundtrip((1u32, String::from("x"), vec![9u8], false));
    }

    #[test]
    fn invalid_bool_and_trailing_bytes_rejected() {
        assert_eq!(bool::decode_vec(&[2]), None);
        assert_eq!(u8::decode_vec(&[1, 2]), None, "trailing bytes");
        assert_eq!(String::decode_vec(&[255, 0, 0, 0]), None, "length underrun");
    }

    #[test]
    fn corrupt_vec_length_is_safe() {
        let mut w = PayloadWriter::with_capacity(8);
        w.u32(u32::MAX);
        assert_eq!(Vec::<u64>::decode_vec(&w.finish()), None);
    }
}
