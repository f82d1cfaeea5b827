//! Offline stand-in for the `bytes` crate.
//!
//! [`Bytes`] is a cheaply clonable, sliceable view of immutable bytes
//! (shared `Arc<[u8]>` plus a window); [`BytesMut`] is a growable buffer
//! that freezes into `Bytes`. The [`Buf`]/[`BufMut`] traits carry the
//! big-endian cursor accessors the cluster wire codec uses. Semantics
//! match upstream for this subset: reads consume from the front, and
//! the get/put accessors panic when the buffer is too short.

#![warn(missing_docs)]

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Read cursor over a byte buffer (big-endian accessors).
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skips `cnt` bytes. Panics if fewer remain.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        let v = u16::from_be_bytes(self.chunk()[..2].try_into().expect("2 bytes"));
        self.advance(2);
        v
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let v = u32::from_be_bytes(self.chunk()[..4].try_into().expect("4 bytes"));
        self.advance(4);
        v
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let v = u64::from_be_bytes(self.chunk()[..8].try_into().expect("8 bytes"));
        self.advance(8);
        v
    }
}

/// Write cursor appending to a byte buffer (big-endian accessors).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

/// A cheaply clonable, sliceable, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Number of readable bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether no bytes remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A buffer holding a copy of `data` (one allocation).
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    /// A sub-view sharing the same allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of Bytes");
        self.start += cnt;
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{:?}", &self[..])
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes pre-reserved.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    /// Number of written bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Appends raw bytes.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }

    /// Converts into an immutable [`Bytes`].
    #[must_use]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut { vec: v.to_vec() }
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{:?}", &self.vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip_big_endian() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u32(0xDEAD_BEEF);
        w.put_u8(7);
        w.put_u16(513);
        w.put_u64(u64::MAX - 1);
        let mut r = w.freeze();
        assert_eq!(r.len(), 15);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 513);
        assert_eq!(r.get_u64(), u64::MAX - 1);
        assert!(r.is_empty());
    }

    #[test]
    fn slices_share_and_window() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let s2 = s.slice(..2);
        assert_eq!(&s2[..], &[2, 3]);
        assert_eq!(b.len(), 5, "parent unaffected");
    }

    #[test]
    fn advance_moves_the_window() {
        let mut b = Bytes::from(vec![9, 8, 7, 6]);
        assert_eq!(b[0], 9);
        b.advance(2);
        assert_eq!(b[0], 7);
        assert_eq!(b.remaining(), 2);
    }

    #[test]
    fn bytesmut_indexing_is_writable() {
        let mut w = BytesMut::from(&[1u8, 2, 3][..]);
        w[1] = 99;
        assert_eq!(w.freeze(), Bytes::from(vec![1, 99, 3]));
    }
}
