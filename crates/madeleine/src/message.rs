//! Message framing.
//!
//! Madeleine messages are tagged, ordered, point-to-point byte buffers.  The
//! tag space belongs to the layer above (the PM2 runtime defines migration,
//! negotiation, spawn, … tags); this crate only transports them.
//!
//! Payloads are [`Payload`] values: sealed, refcounted, usually pooled (see
//! [`crate::buf`]).  Receivers read them through `Deref<Target = [u8]>`;
//! dropping the message recycles a pooled buffer (where it is dropped: see
//! [`crate::buf`]).

use crate::buf::{BufPool, Payload, PayloadBuf};

/// A point-to-point message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Protocol tag (namespace owned by the layer above).
    pub tag: u16,
    /// Modelled wire time for this message, charged at the receiver
    /// (nanoseconds).
    pub wire_ns: u64,
    /// Payload bytes (refcounted; cloning the message does not copy them).
    pub payload: Payload,
}

impl Message {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

enum WriterBuf {
    /// A plain vector (tests, cold paths, [`crate::Wire::encode_vec`]).
    Plain(Vec<u8>),
    /// A pool checkout — the hot protocol-encoder path.
    Pooled(PayloadBuf),
}

/// Little helper for writing framed integers into payloads.
///
/// Construct with [`PayloadWriter::with_capacity`] (plain vector) or
/// [`PayloadWriter::pooled`] (pool checkout — no allocation in steady
/// state); [`PayloadWriter::finish`] seals either into a [`Payload`].
pub struct PayloadWriter {
    buf: WriterBuf,
}

impl Default for PayloadWriter {
    fn default() -> Self {
        PayloadWriter {
            buf: WriterBuf::Plain(Vec::new()),
        }
    }
}

impl std::fmt::Debug for PayloadWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PayloadWriter")
            .field("len", &self.vec().len())
            .field("pooled", &matches!(self.buf, WriterBuf::Pooled(_)))
            .finish()
    }
}

impl PayloadWriter {
    /// Start a payload on a fresh vector, reserving `cap` bytes.
    pub fn with_capacity(cap: usize) -> Self {
        PayloadWriter {
            buf: WriterBuf::Plain(Vec::with_capacity(cap)),
        }
    }

    /// Start a payload on a buffer checked out of `pool`, reserving `cap`
    /// bytes.  [`PayloadWriter::finish`] then seals it with no copy, and
    /// the eventual receiver's drop recycles it.
    pub fn pooled(pool: &BufPool, cap: usize) -> Self {
        PayloadWriter {
            buf: WriterBuf::Pooled(pool.checkout(cap)),
        }
    }

    fn vec(&self) -> &Vec<u8> {
        match &self.buf {
            WriterBuf::Plain(v) => v,
            WriterBuf::Pooled(b) => b,
        }
    }

    fn vec_mut(&mut self) -> &mut Vec<u8> {
        match &mut self.buf {
            WriterBuf::Plain(v) => v,
            WriterBuf::Pooled(b) => b,
        }
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.vec_mut().push(v);
        self
    }

    /// Append a `u16` (little-endian).
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.vec_mut().extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.vec_mut().extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.vec_mut().extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.vec_mut().extend_from_slice(b);
        self
    }

    /// Append a length-prefixed byte string.
    pub fn lp_bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u32(b.len() as u32);
        self.vec_mut().extend_from_slice(b);
        self
    }

    /// Make room for `additional` more bytes in one step (encoders that
    /// know their size up front grow the buffer at most once).
    pub fn reserve(&mut self, additional: usize) -> &mut Self {
        self.vec_mut().reserve(additional);
        self
    }

    /// Overwrite the four bytes at offset `at` with `v` (little-endian):
    /// the back-patch for a length field written before its body.
    ///
    /// # Panics
    /// If `at + 4` exceeds the bytes written so far.
    pub fn patch_u32(&mut self, at: usize, v: u32) -> &mut Self {
        self.vec_mut()[at..at + 4].copy_from_slice(&v.to_le_bytes());
        self
    }

    /// Keep only the first `len` bytes written (a writer rewinding to
    /// write something else in the same buffer).
    pub fn truncate(&mut self, len: usize) -> &mut Self {
        self.vec_mut().truncate(len);
        self
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.vec().len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.vec().is_empty()
    }

    /// Finish and seal the payload.  Zero-copy for both variants: a pooled
    /// buffer freezes in place, a plain vector is adopted by refcount.
    pub fn finish(self) -> Payload {
        match self.buf {
            WriterBuf::Plain(v) => v.into(),
            WriterBuf::Pooled(b) => b.freeze(),
        }
    }

    /// Finish into a plain byte vector (the [`crate::Wire::encode_vec`]
    /// path, which hands callers an owned `Vec`).  Copies if the writer was
    /// pooled — prefer [`PayloadWriter::finish`] on the message path.
    pub fn finish_vec(self) -> Vec<u8> {
        match self.buf {
            WriterBuf::Plain(v) => v,
            WriterBuf::Pooled(b) => b.to_vec(),
        }
    }
}

impl Extend<u8> for PayloadWriter {
    /// Append bytes from an iterator; an exact-size iterator reserves once.
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.vec_mut().extend(iter);
    }
}

/// Cursor for reading framed integers back out of payloads.
#[derive(Debug)]
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// Wrap a payload.
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read a `u8`; `None` on underrun.
    pub fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    /// Read a `u16`; `None` on underrun.
    pub fn u16(&mut self) -> Option<u16> {
        let s = self.buf.get(self.pos..self.pos + 2)?;
        self.pos += 2;
        Some(u16::from_le_bytes(s.try_into().ok()?))
    }

    /// Read a `u64`; `None` on underrun.
    pub fn u64(&mut self) -> Option<u64> {
        let s = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }

    /// Read a `u32`; `None` on underrun.
    pub fn u32(&mut self) -> Option<u32> {
        let s = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }

    /// Read `n` raw bytes; `None` (for any `n`) on underrun.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf[self.pos..].get(..n)?;
        self.pos += n;
        Some(s)
    }

    /// Read a length-prefixed byte string.
    pub fn lp_bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.bytes(n)
    }

    /// Everything not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = PayloadWriter::with_capacity(64);
        w.u64(0xDEAD_BEEF)
            .u32(42)
            .lp_bytes(b"hello")
            .bytes(&[1, 2, 3]);
        let payload = w.finish();
        let mut r = PayloadReader::new(&payload);
        assert_eq!(r.u64(), Some(0xDEAD_BEEF));
        assert_eq!(r.u32(), Some(42));
        assert_eq!(r.lp_bytes(), Some(&b"hello"[..]));
        assert_eq!(r.rest(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn pooled_writer_recycles_through_payload_drop() {
        let pool = BufPool::new();
        let mut w = PayloadWriter::pooled(&pool, 32);
        w.u64(7).lp_bytes(b"abc");
        let p = w.finish();
        let ptr = p.as_ptr();
        assert_eq!(PayloadReader::new(&p).u64(), Some(7));
        drop(p);
        assert_eq!(pool.free_len(), 1);
        let mut w = PayloadWriter::pooled(&pool, 32);
        w.u8(1);
        assert_eq!(w.finish().as_ptr(), ptr, "writer reuses the pooled buffer");
    }

    #[test]
    fn patch_u32_back_fills_a_length_field() {
        let mut w = PayloadWriter::with_capacity(0);
        w.u8(9).u32(0).reserve(3).bytes(b"abc");
        let body = (w.len() - 5) as u32;
        w.patch_u32(1, body);
        w.extend([7u8, 8]);
        let p = w.finish();
        let mut r = PayloadReader::new(&p);
        assert_eq!(r.u8(), Some(9));
        assert_eq!(r.lp_bytes(), Some(&b"abc"[..]));
        assert_eq!(r.rest(), &[7, 8]);
    }

    #[test]
    fn reader_underrun_is_none() {
        let mut r = PayloadReader::new(&[1, 2, 3]);
        assert_eq!(r.u64(), None);
        assert_eq!(r.u32(), None);
        assert_eq!(r.bytes(4), None);
        assert_eq!(r.bytes(3), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn message_len() {
        let m = Message {
            src: 0,
            dst: 1,
            tag: 7,
            wire_ns: 0,
            payload: vec![0; 10].into(),
        };
        assert_eq!(m.len(), 10);
        assert!(!m.is_empty());
    }
}
