//! A fast LZ77-style block codec — the reproduction's stand-in for the
//! Snappy handler the paper notes sits in its Netty channel pipeline by
//! default ("the exact results might differ if the experiments are
//! repeated with data that can easily be compressed").
//!
//! Format (byte-oriented, no entropy coding; back-references reach
//! 1..=65 535 bytes, offset 0 is the terminator):
//!
//! ```text
//! sequence := lit_len:varint  literals:lit_len bytes  offset:u16le
//!             [ match_extra:varint ]        -- present iff offset != 0
//! block    := sequence*                     -- ends at offset == 0
//! ```
//!
//! A match covers `4 + match_extra` bytes copied from `offset` bytes back.
//! The final sequence carries `offset == 0` and no match.
//!
//! The format and the matcher (greedy, one probe of a 14-bit hash table per
//! position) are frozen: [`compress`] must keep producing the bytes of the
//! `reference` module below, which the tests hold it to.

/// Errors from [`decompress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-sequence.
    Truncated,
    /// A back-reference pointed before the start of the output.
    BadOffset,
    /// Output would exceed the caller's size limit.
    TooLarge,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            CodecError::Truncated => "truncated compressed block",
            CodecError::BadOffset => "back-reference before start of output",
            CodecError::TooLarge => "decompressed output exceeds the size limit",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for CodecError {}

const MIN_MATCH: usize = 4;
const WINDOW: usize = 65_535;
const HASH_BITS: u32 = 14;

fn load32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4-byte slice"))
}

fn hash(v: u32) -> usize {
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the longest common prefix of `a` and `b`, eight bytes a step.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut n = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return n + (diff.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    n + a[n..].iter().zip(&b[n..]).take_while(|(x, y)| x == y).count()
}

/// Writes `v` as a varint at `out[at..]`; returns the position after it,
/// or `None` if it does not fit.
fn put_varint(out: &mut [u8], mut at: usize, mut v: u32) -> Option<usize> {
    while v >= 0x80 {
        *out.get_mut(at)? = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    *out.get_mut(at)? = v as u8;
    Some(at + 1)
}

/// Copies `src` to `out[at..]`; returns the position after it, or `None`
/// if it does not fit.
fn put_slice(out: &mut [u8], at: usize, src: &[u8]) -> Option<usize> {
    let end = at + src.len();
    out.get_mut(at..end)?.copy_from_slice(src);
    Some(end)
}

fn get_varint(data: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let mut v: u32 = 0;
    let mut shift = 0;
    loop {
        let b = *data.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        v |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 28 {
            return Err(CodecError::Truncated);
        }
    }
}

/// The most bytes [`compress`] can produce for `len` input bytes. A match
/// costs at least one byte less than it covers, which pays for the first
/// length byte of the literals before it; a literal run adds one more
/// length byte per 128 literals; the closing sequence adds its length byte
/// and the two-byte terminator.
fn max_compressed_len(len: usize) -> usize {
    len + len / 128 + 3
}

/// Compresses `input` into `out` and returns the number of bytes written,
/// or `None` if the block does not fit (`out` is then scratch). A caller
/// that only wants the block when it saves something passes `input.len()`
/// bytes; [`compress`] passes the worst case.
///
/// # Panics
///
/// Panics if `input` is 4 GiB or longer.
pub fn compress_into(input: &[u8], out: &mut [u8]) -> Option<usize> {
    assert!(u32::try_from(input.len()).is_ok(), "block codec input must be under 4 GiB");
    // Latest position of each hash. A zeroed slot needs no "empty" mark: it
    // reads as position 0, and the four bytes there can only equal the
    // probe's if both hash to this slot — where position 0 then really was
    // stored, and not yet overwritten. Only position 0 probing itself
    // (distance 0) has to be turned away.
    let mut table = [0u32; 1 << HASH_BITS];
    let mut at = 0;
    let mut pos = 0;
    let mut literal_start = 0;

    while pos + MIN_MATCH <= input.len() {
        let v = load32(input, pos);
        let slot = &mut table[hash(v)];
        let candidate = *slot as usize;
        *slot = pos as u32;
        if load32(input, candidate) != v || (pos - candidate).wrapping_sub(1) >= WINDOW {
            pos += 1;
            continue;
        }
        let len = MIN_MATCH
            + common_prefix(&input[candidate + MIN_MATCH..], &input[pos + MIN_MATCH..]);
        // Emit: literals since literal_start, then the match.
        at = put_varint(out, at, (pos - literal_start) as u32)?;
        at = put_slice(out, at, &input[literal_start..pos])?;
        at = put_slice(out, at, &((pos - candidate) as u16).to_le_bytes())?;
        at = put_varint(out, at, (len - MIN_MATCH) as u32)?;
        // Index a few positions inside the match to keep finding
        // repeats (cheap approximation of full indexing).
        let end = pos + len;
        for p in pos + 1..(pos + 8).min(end - (MIN_MATCH - 1)) {
            table[hash(load32(input, p))] = p as u32;
        }
        pos = end;
        literal_start = pos;
    }
    // Final literal-only sequence (offset 0 terminator).
    at = put_varint(out, at, (input.len() - literal_start) as u32)?;
    at = put_slice(out, at, &input[literal_start..])?;
    put_slice(out, at, &0u16.to_le_bytes())
}

/// Compresses `input`. The output is self-terminating; decompress with
/// [`decompress`]. Worst case the output is slightly larger than the input
/// (incompressible data) — callers should keep the raw form when that
/// happens.
///
/// # Panics
///
/// Panics if `input` is 4 GiB or longer.
#[must_use]
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = vec![0; max_compressed_len(input.len())];
    let len = compress_into(input, &mut out).expect("worst-case buffer fits any block");
    out.truncate(len);
    out
}

/// How many bytes a short literal run or match is copied in: one
/// fixed-width copy, whatever its length up to this.
const WIDE: usize = 16;

/// Zero-fills `out` up to `need` bytes plus [`WIDE`] of room for a
/// fixed-width copy to overrun into, but never past `max_len`. Each fill
/// at least doubles what is there, so the bytes filled stay within about
/// twice what is written: a block that claims a huge raw length and ends
/// early touches no more than it wrote.
fn make_room(out: &mut Vec<u8>, need: usize, max_len: usize) {
    if out.len() < need + WIDE && out.len() < max_len {
        out.resize((need + WIDE).max(2 * out.len()).min(max_len), 0);
    }
}

/// Decompresses a block produced by [`compress`]. Room for `max_len` bytes
/// is reserved up front and never grown, so pass the raw length when it is
/// known.
///
/// The output is written by index. A literal run or a match of up to
/// [`WIDE`] bytes is copied [`WIDE`] bytes at a time wherever source and
/// destination both have that much room — the match only if it does not
/// overlap itself — and the bytes beyond its end are overwritten by what
/// follows, or cut off at the end.
///
/// # Errors
///
/// Returns [`CodecError`] on malformed input or if the output would exceed
/// `max_len` (or `max_len` itself cannot be reserved).
pub fn decompress(data: &[u8], max_len: usize) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    out.try_reserve_exact(max_len).map_err(|_| CodecError::TooLarge)?;
    // `out[..len]` is the output so far; the rest of `out` is room that
    // fixed-width copies may overrun into.
    let mut len = 0;
    let mut pos = 0;
    loop {
        let lit_len = get_varint(data, &mut pos)? as usize;
        if lit_len > data.len() - pos {
            return Err(CodecError::Truncated);
        }
        if lit_len > max_len - len {
            return Err(CodecError::TooLarge);
        }
        make_room(&mut out, len + lit_len, max_len);
        if lit_len <= WIDE && data.len() - pos >= WIDE && out.len() - len >= WIDE {
            out[len..len + WIDE].copy_from_slice(&data[pos..pos + WIDE]);
        } else {
            out[len..len + lit_len].copy_from_slice(&data[pos..pos + lit_len]);
        }
        len += lit_len;
        pos += lit_len;
        let offset = data.get(pos..pos + 2).ok_or(CodecError::Truncated)?;
        let offset = usize::from(u16::from_le_bytes([offset[0], offset[1]]));
        pos += 2;
        if offset == 0 {
            out.truncate(len);
            return Ok(out);
        }
        let mut remaining = (get_varint(data, &mut pos)? as usize).saturating_add(MIN_MATCH);
        if offset > len {
            return Err(CodecError::BadOffset);
        }
        if remaining > max_len - len {
            return Err(CodecError::TooLarge);
        }
        make_room(&mut out, len + remaining, max_len);
        let start = len - offset;
        if remaining <= WIDE && offset >= WIDE && out.len() - len >= WIDE {
            // The source ends at or before `len`: only output is read.
            out.copy_within(start..start + WIDE, len);
            len += remaining;
            continue;
        }
        // An overlapping reference (offset < length) repeats its `offset`
        // bytes: each pass copies everything written since `start`, so the
        // span doubles.
        while remaining > 0 {
            let span = remaining.min(len - start);
            out.copy_within(start..start + span, len);
            len += span;
            remaining -= span;
        }
    }
}

/// `compress` as it stood before the word-at-a-time rewrite, and
/// `decompress` as it stood before it wrote by index, verbatim. The format
/// is frozen and identity with these is what "same behaviour" means, so the
/// differential tests hold [`compress`] to the first's bytes and
/// [`decompress`] to the second's `Result` on any input.
#[cfg(test)]
mod reference {
    use super::{get_varint, CodecError, HASH_BITS, MIN_MATCH, WINDOW};

    /// Decompresses a block produced by [`compress`]. Room for `max_len` bytes
    /// is reserved up front and never grown, so pass the raw length when it is
    /// known.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on malformed input or if the output would exceed
    /// `max_len` (or `max_len` itself cannot be reserved).
    pub fn decompress(data: &[u8], max_len: usize) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        out.try_reserve_exact(max_len).map_err(|_| CodecError::TooLarge)?;
        let mut pos = 0;
        loop {
            let lit_len = get_varint(data, &mut pos)? as usize;
            if lit_len > data.len() - pos {
                return Err(CodecError::Truncated);
            }
            if lit_len > max_len - out.len() {
                return Err(CodecError::TooLarge);
            }
            out.extend_from_slice(&data[pos..pos + lit_len]);
            pos += lit_len;
            let offset = data.get(pos..pos + 2).ok_or(CodecError::Truncated)?;
            let offset = usize::from(u16::from_le_bytes([offset[0], offset[1]]));
            pos += 2;
            if offset == 0 {
                return Ok(out);
            }
            let mut remaining = (get_varint(data, &mut pos)? as usize).saturating_add(MIN_MATCH);
            if offset > out.len() {
                return Err(CodecError::BadOffset);
            }
            if remaining > max_len - out.len() {
                return Err(CodecError::TooLarge);
            }
            // An overlapping reference (offset < length) repeats its `offset`
            // bytes: each pass copies everything written since `start`, so the
            // span doubles.
            let start = out.len() - offset;
            while remaining > 0 {
                let span = remaining.min(out.len() - start);
                out.extend_from_within(start..start + span);
                remaining -= span;
            }
        }
    }

    fn hash4(data: &[u8]) -> usize {
        let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
        (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    }

    fn put_varint(out: &mut Vec<u8>, mut v: u32) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(b);
                return;
            }
            out.push(b | 0x80);
        }
    }

    /// Compresses `input`. The output is self-terminating; decompress with
    /// [`decompress`]. Worst case the output is slightly larger than the input
    /// (incompressible data) — callers should keep the raw form when that
    /// happens.
    #[must_use]
    pub fn compress(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut pos = 0;
        let mut literal_start = 0;

        while pos + MIN_MATCH <= input.len() {
            let h = hash4(&input[pos..]);
            let candidate = table[h];
            table[h] = pos;
            let is_match = candidate != usize::MAX
                && pos - candidate <= WINDOW
                && input[candidate..candidate + MIN_MATCH] == input[pos..pos + MIN_MATCH];
            if is_match {
                // Extend the match.
                let mut len = MIN_MATCH;
                while pos + len < input.len()
                    && input[candidate + len] == input[pos + len]
                {
                    len += 1;
                }
                // Emit: literals since literal_start, then the match.
                let lits = &input[literal_start..pos];
                put_varint(&mut out, u32::try_from(lits.len()).expect("literal run too long"));
                out.extend_from_slice(lits);
                let offset = u16::try_from(pos - candidate).expect("offset fits window");
                out.extend_from_slice(&offset.to_le_bytes());
                put_varint(&mut out, u32::try_from(len - MIN_MATCH).expect("match too long"));
                // Index a few positions inside the match to keep finding
                // repeats (cheap approximation of full indexing).
                let end = pos + len;
                let mut p = pos + 1;
                while p + MIN_MATCH <= end.min(input.len()) && p < pos + 8 {
                    table[hash4(&input[p..])] = p;
                    p += 1;
                }
                pos = end;
                literal_start = pos;
            } else {
                pos += 1;
            }
        }
        // Final literal-only sequence (offset 0 terminator).
        let lits = &input[literal_start..];
        put_varint(&mut out, u32::try_from(lits.len()).expect("literal run too long"));
        out.extend_from_slice(lits);
        out.extend_from_slice(&0u16.to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmsg_netsim::rng::RngStream;
    use kmsg_netsim::testutil::PropRunner;
    use rand::Rng;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn empty_and_tiny() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_data_shrinks() {
        let data: Vec<u8> = b"climate-sample-0012;".repeat(500);
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 4,
            "repetitive data should compress 4x+: {} -> {}",
            data.len(),
            c.len()
        );
        round_trip(&data);
    }

    #[test]
    fn overlapping_match_rle() {
        let data = vec![7u8; 10_000];
        let c = compress(&data);
        assert!(c.len() < 100, "RLE-like data must collapse, got {}", c.len());
        round_trip(&data);
    }

    #[test]
    fn random_data_survives() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
        let data: Vec<u8> = (0..65_000).map(|_| rng.gen()).collect();
        round_trip(&data);
        // Incompressible data may grow slightly but not much.
        let c = compress(&data);
        assert!(c.len() < data.len() + data.len() / 16 + 64);
    }

    #[test]
    fn structured_mixed_data() {
        let mut data = Vec::new();
        for i in 0..2000u32 {
            data.extend_from_slice(&i.to_le_bytes());
            data.extend_from_slice(b"station");
            data.extend_from_slice(&(f64::from(i) * 0.25).to_le_bytes());
        }
        let c = compress(&data);
        assert!(c.len() < data.len());
        round_trip(&data);
    }

    #[test]
    fn truncated_input_errors() {
        let data: Vec<u8> = b"hello world hello world hello world".to_vec();
        let c = compress(&data);
        for cut in [0, 1, c.len() / 2, c.len() - 1] {
            let r = decompress(&c[..cut], data.len());
            assert!(r.is_err() || r.expect("ok") != data);
        }
    }

    #[test]
    fn size_limit_enforced() {
        let data = vec![7u8; 1000];
        let c = compress(&data);
        assert_eq!(decompress(&c, 999), Err(CodecError::TooLarge));
    }

    #[test]
    fn bad_offset_detected() {
        // lit_len=0, offset=5 with empty output so far.
        let bad = [0u8, 5, 0, 0];
        assert_eq!(decompress(&bad, 100), Err(CodecError::BadOffset));
    }

    /// NetCDF-like records (tag, counter, two floats), as the transfer
    /// datasets generate them.
    fn climate_like(first_record: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 16);
        for rec in first_record.. {
            if out.len() >= len {
                break;
            }
            let field = ((rec as f64 * 0.01).sin() * 120.0) as f32;
            out.extend_from_slice(b"CAM5");
            out.extend_from_slice(&(rec as u32).to_le_bytes());
            out.extend_from_slice(&field.to_le_bytes());
            out.extend_from_slice(&(field * 0.731).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    fn gen_input(rng: &mut RngStream) -> Vec<u8> {
        let len = match rng.gen_range(0u32..4) {
            0 => rng.gen_range(0usize..=80),
            1 => [65_535, 65_536, 65_537, 200_000][rng.gen_range(0usize..4)],
            _ => rng.gen_range(0usize..70_000),
        };
        match rng.gen_range(0u32..5) {
            0 => climate_like(rng.gen_range(0usize..1_000_000), len),
            1 => (0..len).map(|_| rng.gen()).collect(),
            // Run-length: a few long runs.
            2 => {
                let mut out = Vec::with_capacity(len);
                while out.len() < len {
                    let run = rng.gen_range(1usize..5_000).min(len - out.len());
                    out.extend(std::iter::repeat_n(rng.gen::<u8>(), run));
                }
                out
            }
            // Repeating text: the block ends inside a match.
            3 => {
                let period = rng.gen_range(1usize..40);
                let text: Vec<u8> = (0..period).map(|_| rng.gen_range(b'a'..=b'z')).collect();
                text.iter().copied().cycle().take(len).collect()
            }
            // Small alphabet: short matches at every distance.
            _ => (0..len).map(|_| rng.gen_range(0u8..4)).collect(),
        }
    }

    /// `decompress` and the reference give the same `Result`: the same
    /// bytes, or the same error.
    fn same_as_reference(block: &[u8], max_len: usize) {
        assert!(
            decompress(block, max_len) == reference::decompress(block, max_len),
            "decompress differs from reference: block of {} B, limit {max_len}",
            block.len()
        );
    }

    /// `compress` against the reference, then back through `decompress`,
    /// which must agree with its reference one byte short of the raw
    /// length, at it, and with room to spare.
    fn check(input: &[u8]) -> Vec<u8> {
        let packed = compress(input);
        assert!(packed == reference::compress(input), "differs from reference, len {}", input.len());
        assert!(packed.len() <= max_compressed_len(input.len()));
        assert!(decompress(&packed, input.len()).expect("decompress") == input);
        for limit in [input.len().wrapping_sub(1), input.len(), input.len() + 17] {
            same_as_reference(&packed, limit);
        }
        packed
    }

    #[test]
    fn matches_reference_on_sampled_inputs() {
        PropRunner::new("codec-differential").cases(160).run(gen_input, |input| {
            check(input);
        });
    }

    #[test]
    fn matches_reference_at_every_short_length() {
        for len in 0..=80 {
            check(&climate_like(7, len));
            check(&vec![9u8; len]);
            check(&b"abcab".iter().copied().cycle().take(len).collect::<Vec<u8>>());
            check(&(0..len).map(|i| (i * 37 % 251) as u8).collect::<Vec<u8>>());
        }
    }

    #[test]
    fn matches_reference_at_the_window_edge() {
        let marker = *b"\x01\x02\x03\x04\x05\x06\x07\x08";
        for len in [65_535usize, 65_536, 65_537, 200_000] {
            // A marker, a run of zeros (one long match, so the marker's
            // table slot survives), the marker again `distance` later.
            let packed_len = |distance: usize| {
                let mut input = vec![0u8; len];
                let first = len - distance - marker.len();
                input[first..first + marker.len()].copy_from_slice(&marker);
                input[len - marker.len()..].copy_from_slice(&marker);
                check(&input).len()
            };
            if len >= WINDOW + 1 + marker.len() {
                assert!(
                    packed_len(WINDOW) < packed_len(WINDOW + 1),
                    "a repeat {WINDOW} back is in reach, one byte further is not"
                );
            } else {
                packed_len(len / 2);
            }
        }
    }

    #[test]
    fn worst_case_bound_is_tight() {
        // 127 literals: one length byte, the literals, the terminator.
        let input: Vec<u8> = (0..127).collect();
        assert_eq!(check(&input).len(), max_compressed_len(127));
        let mut small = vec![0u8; max_compressed_len(127) - 1];
        assert_eq!(compress_into(&input, &mut small), None);
    }

    #[test]
    fn overlapping_copies_repeat_their_pattern() {
        for offset in [1usize, 2, 3, 7, 8, 9] {
            let pattern: Vec<u8> = (1..=offset as u8).collect();
            let lengths = (4..=40).chain([63, 64, 65, 127, 128, 129, 1_000]);
            for match_len in lengths {
                let mut block = vec![offset as u8];
                block.extend_from_slice(&pattern);
                block.extend_from_slice(&(offset as u16).to_le_bytes());
                let mut extra = [0u8; 5];
                let n = put_varint(&mut extra, 0, (match_len - MIN_MATCH) as u32).expect("fits");
                block.extend_from_slice(&extra[..n]);
                block.extend_from_slice(&[0, 0, 0]);
                let total = offset + match_len;
                let expected: Vec<u8> = pattern.iter().copied().cycle().take(total).collect();
                assert_eq!(decompress(&block, total).expect("valid block"), expected);
                assert_eq!(decompress(&block, total - 1), Err(CodecError::TooLarge));
                for limit in [total - 1, total, total + 17] {
                    same_as_reference(&block, limit);
                }
            }
        }
    }

    #[test]
    fn every_prefix_of_a_block_decodes_as_the_reference_does() {
        let noise: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let inputs = [
            climate_like(3, 700),
            b"abcab".iter().copied().cycle().take(500).collect(),
            vec![7u8; 1_000],
            noise,
            // Matches at offsets 16 and up, short and long, between short
            // literal runs: the fixed-width copies' own cases.
            b"0123456789abcdefXY0123456789abcdefZ0123456789ab".repeat(12),
        ];
        for input in inputs {
            let packed = check(&input);
            for cut in 0..=packed.len() {
                same_as_reference(&packed[..cut], input.len());
                same_as_reference(&packed[..cut], input.len() + 17);
            }
        }
    }

    /// Random bytes and random well-shaped sequences (literals, offsets that
    /// may reach before the output, matches that may outrun the limit),
    /// cut anywhere, under random limits.
    #[test]
    fn arbitrary_blocks_decode_as_the_reference_does() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(27);
        for _ in 0..12_000 {
            let mut block = Vec::new();
            if rng.gen() {
                let len = rng.gen_range(0usize..64);
                block.extend((0..len).map(|_| rng.gen::<u8>()));
            } else {
                let mut varint = [0u8; 5];
                for _ in 0..rng.gen_range(1usize..12) {
                    let lit_len = rng.gen_range(0u32..40);
                    let n = put_varint(&mut varint, 0, lit_len).expect("fits");
                    block.extend_from_slice(&varint[..n]);
                    block.extend((0..lit_len).map(|_| rng.gen::<u8>()));
                    let offset = rng.gen_range(0u16..64);
                    block.extend_from_slice(&offset.to_le_bytes());
                    if offset != 0 {
                        let n = put_varint(&mut varint, 0, rng.gen_range(0u32..200)).expect("fits");
                        block.extend_from_slice(&varint[..n]);
                    }
                }
                block.truncate(rng.gen_range(0..=block.len()));
            }
            let limit = rng.gen_range(0usize..2_500);
            same_as_reference(&block, limit);
        }
    }

    /// A frame may claim up to 16 MiB of raw payload in a block a few
    /// bytes long. The reference reserved that room and left it untouched;
    /// the room `decompress` fills grows with what it writes.
    #[test]
    fn a_huge_claimed_length_with_a_tiny_block_decodes_as_the_reference_does() {
        let max_frame = crate::net::frame::MAX_FRAME;
        // An empty literal run, then the terminator: ends after three bytes.
        same_as_reference(&[0, 0, 0], max_frame);
        assert_eq!(decompress(&[0, 0, 0], max_frame), Ok(Vec::new()));
        same_as_reference(&compress(b"abcabcabcabc"), max_frame);
        same_as_reference(&[5, b'a'], max_frame);
    }

    #[test]
    fn unreservable_limit_is_an_error() {
        assert_eq!(decompress(&compress(b"abc"), usize::MAX), Err(CodecError::TooLarge));
        same_as_reference(&compress(b"abc"), usize::MAX);
    }

    #[test]
    fn error_display() {
        assert!(CodecError::Truncated.to_string().contains("truncated"));
    }
}
