//! Stand-in for `bytes`: a refcounted immutable slice ([`Bytes`]), a
//! growable buffer with a read cursor ([`BytesMut`]) and the big-endian
//! [`Buf`] / [`BufMut`] accessors — the surface the kmsg crates use.
//!
//! Cost model kept close to the real crate where it matters to the
//! benchmark: `Bytes::from(Vec)` takes ownership without copying, `clone`
//! and `slice` bump a refcount, `BytesMut::advance` moves a cursor.
//! `BytesMut::split_to` copies the split-off head (the real crate shares
//! the allocation), so frame reassembly pays one extra memcpy per frame.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// A cheaply cloneable, sliceable chunk of immutable memory.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty `Bytes` (no allocation).
    #[must_use]
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// Wraps a static slice (no allocation).
    #[must_use]
    pub const fn from_static(data: &'static [u8]) -> Bytes {
        Bytes {
            repr: Repr::Static(data),
            off: 0,
            len: data.len(),
        }
    }

    /// Copies `data` into a new buffer.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn as_slice(&self) -> &[u8] {
        let whole: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        };
        &whole[self.off..self.off + self.len]
    }

    /// A sub-view sharing the same memory.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[must_use]
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(begin <= end && end <= self.len, "slice out of bounds");
        Bytes {
            repr: self.repr.clone(),
            off: self.off + begin,
            len: end - begin,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len, "split_to out of bounds");
        let head = self.slice(0..at);
        self.off += at;
        self.len -= at;
        head
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
            off: 0,
            len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.as_slice().to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == other.as_slice()
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
/// A growable byte buffer with a read cursor.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
    /// Bytes before `start` were consumed by `advance`/`split_to`.
    start: usize,
}

impl BytesMut {
    /// An empty buffer (no allocation).
    #[must_use]
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with room for `cap` bytes.
    #[must_use]
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            vec: Vec::with_capacity(cap),
            start: 0,
        }
    }

    /// Readable bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vec.len() - self.start
    }

    /// Whether no readable bytes remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops the consumed prefix once it dominates the buffer, so a
    /// long-lived decoder does not grow without bound.
    fn compact(&mut self) {
        if self.start == self.vec.len() {
            self.vec.clear();
            self.start = 0;
        } else if self.start >= 4096 && self.start >= self.vec.len() / 2 {
            self.vec.drain(..self.start);
            self.start = 0;
        }
    }

    /// Appends `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.compact();
        self.vec.extend_from_slice(data);
    }

    /// Empties the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.vec.clear();
        self.start = 0;
    }

    /// Converts into an immutable [`Bytes`] without copying.
    #[must_use]
    pub fn freeze(self) -> Bytes {
        let BytesMut { vec, start } = self;
        let len = vec.len() - start;
        Bytes {
            repr: Repr::Shared(Arc::new(vec)),
            off: start,
            len,
        }
    }

    /// Splits off and returns the first `at` readable bytes.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.vec[self.start..self.start + at].to_vec();
        self.start += at;
        self.compact();
        BytesMut {
            vec: head,
            start: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.vec[self.start..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec[self.start..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BytesMut")
            .field("len", &self.len())
            .finish()
    }
}

macro_rules! buf_get {
    ($($name:ident -> $ty:ty),* $(,)?) => {$(
        /// Reads one big-endian value, advancing the cursor.
        ///
        /// # Panics
        ///
        /// Panics if too few bytes remain.
        fn $name(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_be_bytes(raw)
        }
    )*};
}

/// Read access to a byte cursor (big-endian accessors).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes as one contiguous slice.
    fn chunk(&self) -> &[u8];
    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Fills `dst` from the cursor.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `dst.len()` bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads one byte.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is exhausted.
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    buf_get!(
        get_u16 -> u16, get_u32 -> u32, get_u64 -> u64,
        get_f32 -> f32, get_f64 -> f64,
    );
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len, "advance past end");
        self.off += cnt;
        self.len -= cnt;
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
        self.compact();
    }
}

macro_rules! buf_put {
    ($($name:ident($ty:ty)),* $(,)?) => {$(
        /// Appends one big-endian value.
        fn $name(&mut self, v: $ty) {
            self.put_slice(&v.to_be_bytes());
        }
    )*};
}

/// Append access to a growable buffer (big-endian accessors).
pub trait BufMut {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    buf_put!(
        put_u16(u16),
        put_u32(u32),
        put_u64(u64),
        put_i16(i16),
        put_i32(i32),
        put_i64(i64),
        put_f32(f32),
        put_f64(f64),
    );
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_share_and_compare() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let mut c = b.clone();
        let head = c.split_to(2);
        assert_eq!(head, Bytes::from_static(&[1, 2]));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn round_trip_big_endian() {
        let mut m = BytesMut::new();
        m.put_u32(0xdead_beef);
        m.put_u64(7);
        m.put_u8(9);
        let mut b = m.freeze();
        assert_eq!(b.get_u32(), 0xdead_beef);
        assert_eq!(b.get_u64(), 7);
        assert_eq!(b.get_u8(), 9);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn bytes_mut_cursor() {
        let mut m = BytesMut::new();
        m.extend_from_slice(&[0, 0, 0, 2, 7, 8, 9]);
        m.advance(4);
        let frame = m.split_to(2).freeze();
        assert_eq!(&frame[..], &[7, 8]);
        assert_eq!(&m[..], &[9]);
        m[0] = 1;
        assert_eq!(m.len(), 1);
    }
}
