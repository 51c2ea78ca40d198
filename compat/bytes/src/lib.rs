//! In-tree compatibility shim for the subset of the `bytes` API used by the
//! WBAM workspace: cheaply cloneable immutable [`Bytes`], a growable
//! [`BytesMut`] with a consuming front cursor, and the [`Buf`] / [`BufMut`]
//! trait methods the wire codec calls.
//!
//! [`Bytes`] is an `Arc<[u8]>` (clone = refcount bump); [`BytesMut`] is a
//! plain `Vec<u8>`, so `advance`/`split_to` are O(n) moves — fine for the
//! workspace's small frames, not a drop-in for high-throughput IO.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use serde::de::{DeError, Source};
use serde::ser::Sink;
use serde::{Deserialize, Serialize};

/// A cheaply cloneable immutable byte buffer (reference counted).
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Creates a buffer from a static byte string. Unlike the real crate's,
    /// this copies the bytes once into a fresh `Arc<[u8]>`: the shim has no
    /// borrowed representation. Clones after that share the copy.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes { data: bytes.into() }
    }

    /// Creates a buffer by copying a slice.
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Bytes { data: bytes.into() }
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: v.into() }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl Serialize for Bytes {
    fn serialize<S: Sink>(&self, sink: &mut S) {
        sink.bytes(&self.data);
    }
}

impl Deserialize for Bytes {
    fn deserialize<'de, S: Source<'de>>(src: &mut S) -> Result<Self, DeError> {
        match src.bytes()? {
            Some(bytes) => Ok(Bytes::copy_from_slice(bytes)),
            None => Vec::<u8>::deserialize(src).map(Bytes::from),
        }
    }
}

/// A growable byte buffer that also supports consuming bytes from the front.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with at least the given capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Length of the buffer in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends a slice to the end of the buffer.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Removes the first `at` bytes and returns them as a new buffer.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.data.len(), "split_to out of bounds");
        let head = self.data.drain(..at).collect();
        BytesMut { data: head }
    }

    /// Freezes the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        BytesMut { data: v.to_vec() }
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", Bytes::copy_from_slice(&self.data))
    }
}

/// Read-side buffer operations (the subset the wire codec uses).
pub trait Buf {
    /// Discards the first `cnt` bytes.
    fn advance(&mut self, cnt: usize);
}

impl Buf for BytesMut {
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.data.len(), "advance out of bounds");
        self.data.drain(..cnt);
    }
}

/// Write-side buffer operations (the subset the wire codec uses).
pub trait BufMut {
    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, n: u32);
    /// Appends a slice.
    fn put_slice(&mut self, bytes: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u32(&mut self, n: u32) {
        self.data.extend_from_slice(&n.to_be_bytes());
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_round_trip_and_clone_are_cheap_views() {
        let b = Bytes::from(vec![1, 2, 3]);
        let c = b.clone();
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b, c);
        assert_eq!(Bytes::from_static(b"xy").len(), 2);
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn bytes_mut_cursor_operations() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_u32(0xDEADBEEF);
        buf.put_slice(b"abc");
        assert_eq!(buf.len(), 7);
        assert_eq!(&buf[..4], &0xDEADBEEFu32.to_be_bytes());
        buf.advance(4);
        let head = buf.split_to(2);
        assert_eq!(&head[..], b"ab");
        assert_eq!(&buf.freeze()[..], b"c");
    }
}
