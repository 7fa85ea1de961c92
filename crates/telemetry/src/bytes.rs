//! Shared byte buffers: [`Bytes`], a cheaply cloned view of immutable
//! bytes, and [`BytesMut`], the buffer such bytes are written in, with the
//! big-endian [`Buf`] / [`BufMut`] cursors the wire code reads and writes
//! through. The subset of the `bytes` crate's surface the workspace uses,
//! std only.
//!
//! A buffer is one `Arc<[u8]>`: its reference counts and its bytes are a
//! single allocation. A `BytesMut` writes into that allocation in place
//! while it is the only owner, so [`BytesMut::freeze`] hands the same
//! allocation on, and `Bytes::clone`, [`Bytes::slice`] and
//! [`Bytes::split_to`] only bump its count. The empty buffer allocates
//! nothing.

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable, sliceable view of shared immutable bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    /// The shared allocation; `None` for the empty buffer.
    data: Option<Arc<[u8]>>,
    /// The view: `data[off..off + len]`.
    off: usize,
    len: usize,
}

// A queued payload is one of these: every flow of a 10⁴-flow world holds
// some, so a wider `Bytes` shows in its peak heap.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Bytes>() == 32);
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<Bytes>();
    shareable::<BytesMut>();
};

/// `len` zero bytes in one allocation (an exact-size iterator is collected
/// in one call).
fn zeroed(len: usize) -> Arc<[u8]> {
    std::iter::repeat_n(0, len).collect()
}

impl Bytes {
    /// An empty `Bytes` (no allocation).
    #[must_use]
    pub const fn new() -> Bytes {
        Bytes {
            data: None,
            off: 0,
            len: 0,
        }
    }

    /// Copies a static slice into a new buffer (the empty one allocates
    /// nothing).
    #[must_use]
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    /// Copies `data` into a new buffer of exactly its length: one
    /// allocation, none if `data` is empty.
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        if data.is_empty() {
            return Bytes::new();
        }
        Bytes::from(Arc::<[u8]>::from(data))
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
        match &self.data {
            Some(data) => &data[self.off..self.off + self.len],
            None => &[],
        }
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
            data: self.data.clone(),
            off: self.off + begin,
            len: end - begin,
        }
    }

    /// Splits off and returns the first `at` bytes, sharing the same
    /// memory; `self` keeps the rest.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.advance(at);
        head
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Arc<[u8]>> for Bytes {
    /// Takes the allocation as it is, without copying.
    fn from(data: Arc<[u8]>) -> Bytes {
        Bytes {
            len: data.len(),
            data: Some(data),
            off: 0,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    /// Copies the vector's bytes into a buffer of their exact length: one
    /// allocation, none if it is empty.
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Arc<[u8]>>())
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

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
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

/// A growable byte buffer with a read cursor, written in place in the one
/// allocation [`BytesMut::freeze`] hands on.
#[derive(Default)]
pub struct BytesMut {
    /// The readable bytes. The allocation behind them, whose room past
    /// them takes what is written next, is never shared while it is here.
    buf: Bytes,
}

impl BytesMut {
    /// An empty buffer (no allocation).
    #[must_use]
    pub const fn new() -> BytesMut {
        BytesMut { buf: Bytes::new() }
    }

    /// An empty buffer with room for `cap` bytes: one allocation, none if
    /// `cap` is 0.
    #[must_use]
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Bytes {
                data: (cap > 0).then(|| zeroed(cap)),
                off: 0,
                len: 0,
            },
        }
    }

    /// Readable bytes.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.buf.len
    }

    fn capacity(&self) -> usize {
        self.buf.data.as_ref().map_or(0, |data| data.len())
    }

    /// The whole allocation, writable.
    fn storage(&mut self) -> &mut [u8] {
        match &mut self.buf.data {
            Some(data) => Arc::get_mut(data).expect("a BytesMut owns its buffer alone"),
            None => &mut [],
        }
    }

    /// Makes room for `n` more bytes after the readable ones. The consumed
    /// prefix is reclaimed in place once it is at least as long as what is
    /// left to read, so a byte is moved at most once per byte consumed; the
    /// buffer at least doubles when that is not enough.
    fn make_room(&mut self, n: usize) {
        let (off, len, cap) = (self.buf.off, self.buf.len, self.capacity());
        if off + len + n <= cap {
            return;
        }
        if off >= len && len + n <= cap {
            self.storage().copy_within(off..off + len, 0);
            self.buf.off = 0;
            return;
        }
        // From 64 bytes up, so a buffer written from empty skips the
        // smallest steps.
        let mut grown = zeroed((len + n).max(2 * cap).max(64));
        Arc::get_mut(&mut grown).expect("just allocated")[..len].copy_from_slice(&self.buf);
        self.buf = Bytes {
            data: Some(grown),
            off: 0,
            len,
        };
    }

    /// Appends `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.make_room(data.len());
        let end = self.buf.off + self.buf.len;
        self.storage()[end..end + data.len()].copy_from_slice(data);
        self.buf.len += data.len();
    }

    /// Empties the buffer, keeping its allocation.
    pub fn clear(&mut self) {
        self.buf.off = 0;
        self.buf.len = 0;
    }

    /// Converts into an immutable [`Bytes`] over the same allocation.
    #[must_use]
    pub fn freeze(self) -> Bytes {
        self.buf
    }

    /// Splits off and returns a copy of the first `at` readable bytes, in a
    /// buffer of exactly that length.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let head = BytesMut {
            buf: Bytes::copy_from_slice(&self[..at]),
        };
        self.advance(at);
        head
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let (off, len) = (self.buf.off, self.buf.len);
        &mut self.storage()[off..off + len]
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

    buf_get!(get_u16 -> u16, get_u32 -> u32, get_u64 -> u64, get_f32 -> f32);
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
    /// Skips `cnt` bytes; once none are left to read, writing starts over
    /// at the front of the buffer.
    fn advance(&mut self, cnt: usize) {
        self.buf.advance(cnt);
        if self.buf.is_empty() {
            self.buf.off = 0;
        }
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

    buf_put!(put_u16(u16), put_u32(u32), put_u64(u64), put_f32(f32));
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
        assert_eq!(s.as_ptr(), b[1..].as_ptr(), "a slice is a view, not a copy");
        let mut c = b.clone();
        let head = c.split_to(2);
        assert_eq!(head, Bytes::from_static(&[1, 2]));
        assert_eq!(c.len(), 3);
        assert_eq!(c.as_ptr(), b[2..].as_ptr());
    }

    #[test]
    fn round_trip_big_endian() {
        let mut m = BytesMut::new();
        m.put_u32(0xdead_beef);
        m.put_u64(7);
        m.put_u16(0x0102);
        m.put_f32(1.5);
        m.put_u8(9);
        let mut b = m.freeze();
        assert_eq!(b.get_u32(), 0xdead_beef);
        assert_eq!(b.get_u64(), 7);
        assert_eq!(b.get_u16(), 0x0102);
        assert_eq!(b.get_f32(), 1.5);
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
        assert_eq!(&m[..], &[1]);
    }

    #[test]
    fn freeze_hands_on_the_allocation_it_was_written_in() {
        let mut m = BytesMut::with_capacity(16);
        m.extend_from_slice(b"abc");
        let at = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), at);
        assert_eq!(b, b"abc"[..]);
        assert_eq!(format!("{:?}", Bytes::from_static(b"a\n\"")), r#"b"a\n\"""#);
    }

    #[test]
    fn empty_buffers_hold_no_allocation() {
        for empty in [
            Bytes::new(),
            Bytes::default(),
            Bytes::copy_from_slice(&[]),
            Bytes::from(Vec::new()),
            BytesMut::with_capacity(0).freeze(),
            Bytes::from_static(b"ab").slice(1..1),
        ] {
            assert!(empty.is_empty());
            assert_eq!(empty, Bytes::new());
        }
        assert!(Bytes::from(Vec::new()).data.is_none());
        assert!(BytesMut::new().buf.data.is_none());
    }

    /// SplitMix64: `kmsg-telemetry` depends on nothing, so it seeds its
    /// own streams.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Random sequences of writes, reads, splits, freezes, slices and
    /// clones against a `Vec<u8>` model: every view reads what the model
    /// says, whatever the buffer did to make room, and a frozen or cloned
    /// view never changes under later writes.
    #[test]
    fn buffers_behave_as_a_vec_model_does() {
        for seed in 0..300 {
            let mut rng = SplitMix(seed);
            let mut m = BytesMut::new();
            let mut model: Vec<u8> = Vec::new();
            let mut kept: Vec<(Bytes, Vec<u8>)> = Vec::new();
            for step in 0..200 {
                match rng.below(9) {
                    0 => {
                        let v = rng.next() as u32;
                        m.put_u32(v);
                        model.extend_from_slice(&v.to_be_bytes());
                    }
                    1 | 2 => {
                        let most = if rng.below(8) == 0 { 300 } else { 20 };
                        let len = rng.below(most);
                        let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                        m.extend_from_slice(&data);
                        model.extend_from_slice(&data);
                    }
                    3 => {
                        let cnt = rng.below(model.len() + 1);
                        m.advance(cnt);
                        model.drain(..cnt);
                    }
                    4 => {
                        let at = rng.below(model.len() + 1);
                        let head = m.split_to(at);
                        let want: Vec<u8> = model.drain(..at).collect();
                        assert_eq!(&head[..], &want[..]);
                        kept.push((head.freeze(), want));
                    }
                    5 => {
                        if !model.is_empty() {
                            let i = rng.below(model.len());
                            let v = rng.next() as u8;
                            m[i] = v;
                            model[i] = v;
                        }
                    }
                    6 => {
                        let frozen = std::mem::take(&mut m).freeze();
                        assert_eq!(frozen, model);
                        kept.push((frozen.clone(), model.clone()));
                        // Writing starts again in a buffer of its own.
                        m.extend_from_slice(&frozen);
                    }
                    7 => {
                        if let Some((b, want)) = kept.last().cloned() {
                            let end = rng.below(want.len() + 1);
                            let begin = rng.below(end + 1);
                            let mut s = b.slice(begin..end);
                            assert_eq!(&s[..], &want[begin..end]);
                            let at = rng.below(s.len() + 1);
                            let head = s.split_to(at);
                            assert_eq!(&head[..], &want[begin..begin + at]);
                            assert_eq!(&s[..], &want[begin + at..end]);
                            kept.push((s, want[begin + at..end].to_vec()));
                        }
                    }
                    _ => {
                        m.clear();
                        model.clear();
                    }
                }
                assert_eq!(&m[..], &model[..], "seed {seed} step {step}");
                assert_eq!(m.remaining(), model.len());
            }
            for (b, want) in &kept {
                assert_eq!(b, want, "seed {seed}");
                assert_eq!(b.clone(), *want);
            }
        }
    }
}
