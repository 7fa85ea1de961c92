//! Synthetic transfer datasets.
//!
//! The paper transfers a ~395 MB NetCDF climate file (CESM/CAM5 output)
//! and notes that, with the Snappy handler in the pipeline, results depend
//! on the data's compressibility. [`Dataset`] generates deterministic
//! synthetic data in two flavours:
//!
//! * [`DatasetKind::Climate`] — gridded floating-point fields with
//!   embedded metadata tags: lightly compressible (~10%), like Snappy on
//!   real NetCDF float data;
//! * [`DatasetKind::Random`] — incompressible noise.
//!
//! Chunks are a pure function of `(seed, offset)`, so sender and receiver
//! can independently verify content without sharing the data.

use kmsg_telemetry::bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::sync::{Arc, OnceLock};

/// The paper's transfer size: ~395 MB.
pub const PAPER_DATASET_SIZE: usize = 395 * 1024 * 1024;

/// The paper's message chunk size (fits the serialisation buffers).
pub const PAPER_CHUNK_SIZE: usize = 65 * 1000;

/// Dataset flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// NetCDF-like gridded climate data (compressible).
    Climate,
    /// Incompressible random bytes.
    Random,
}

/// A deterministic synthetic dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dataset {
    /// Flavour.
    pub kind: DatasetKind,
    /// Total size in bytes.
    pub size: usize,
    /// Content seed.
    pub seed: u64,
}

impl Dataset {
    /// A climate-like dataset of `size` bytes.
    #[must_use]
    pub fn climate(size: usize, seed: u64) -> Self {
        Dataset {
            kind: DatasetKind::Climate,
            size,
            seed,
        }
    }

    /// An incompressible dataset of `size` bytes.
    #[must_use]
    pub fn random(size: usize, seed: u64) -> Self {
        Dataset {
            kind: DatasetKind::Random,
            size,
            seed,
        }
    }

    /// The bytes at `[offset, offset + len)`, clamped to the dataset end.
    #[must_use]
    pub fn chunk(&self, offset: usize, len: usize) -> Bytes {
        let end = self.size.min(offset.saturating_add(len));
        if offset >= end {
            return Bytes::new();
        }
        // Zeroed and filled in place: one allocation, which the `Bytes` takes.
        let mut out: Arc<[u8]> = std::iter::repeat_n(0, end - offset).collect();
        self.fill(offset, Arc::get_mut(&mut out).expect("not shared yet"));
        Bytes::from(out)
    }

    /// Writes the bytes at `[offset, offset + out.len())`, which must lie
    /// inside the dataset: the one writer behind `chunk` and `checksum`.
    fn fill(&self, offset: usize, out: &mut [u8]) {
        match self.kind {
            DatasetKind::Random => {
                // Incompressible: a counter-mode stream, restartable at any
                // 64-byte block boundary.
                const BLOCK: usize = 64;
                let end = offset + out.len();
                for block in offset / BLOCK..end.div_ceil(BLOCK) {
                    let mut rng =
                        ChaCha12Rng::seed_from_u64(self.seed ^ (block as u64).wrapping_mul(0x9e37));
                    let mut data = [0u8; BLOCK];
                    rng.fill(&mut data[..]);
                    let block_start = block * BLOCK;
                    let (from, to) = (offset.max(block_start), end.min(block_start + BLOCK));
                    out[from - offset..to - offset]
                        .copy_from_slice(&data[from - block_start..to - block_start]);
                }
            }
            DatasetKind::Climate => {
                // A "record" stream, restartable at record boundaries. Whole
                // records go straight into their slots; a partial first or
                // last record is cut from one made on its own.
                let bias = (self.seed % 17) as f64;
                let skip = offset % REC;
                let (head, body) = out.split_at_mut(((REC - skip) % REC).min(out.len()));
                let first = offset.div_ceil(REC);
                let (body, tail) = body.split_at_mut(body.len() / REC * REC);
                climate_records(first, bias, body);
                let last = first + body.len() / REC;
                let mut data = [0; REC];
                for (part, rec, from) in [(head, offset / REC, skip), (tail, last, 0)] {
                    climate_records(rec, bias, &mut data);
                    part.copy_from_slice(&data[from..from + part.len()]);
                }
            }
        }
    }

    /// Order-independent checksum over all chunk-aligned pieces of the
    /// dataset: wrapping sum of per-chunk hashes keyed by offset.
    /// Receivers can accumulate the same value chunk by chunk, in any
    /// arrival order; `n` repeated transfers accumulate `n × checksum`.
    ///
    /// # Panics
    ///
    /// If `chunk_size` is zero.
    #[must_use]
    pub fn checksum(&self, chunk_size: usize) -> u64 {
        assert!(chunk_size > 0, "chunk size must be positive");
        let mut buf = vec![0; chunk_size.min(self.size)];
        let mut acc = 0u64;
        for offset in (0..self.size).step_by(chunk_size) {
            let piece = &mut buf[..chunk_size.min(self.size - offset)];
            self.fill(offset, piece);
            acc = acc.wrapping_add(chunk_hash(offset as u64, piece));
        }
        acc
    }

    /// Number of chunks of `chunk_size` covering the dataset.
    ///
    /// # Panics
    ///
    /// If `chunk_size` is zero.
    #[must_use]
    pub fn chunk_count(&self, chunk_size: usize) -> usize {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.size.div_ceil(chunk_size)
    }
}

/// Bytes per climate record, and records per anchor.
const REC: usize = 16;
const ANCHOR: usize = 64;

/// Half-width of the rounding guard: far wider than an anchored sine's
/// distance from libm's, at most 3.4e-16 over the first 2²⁵ records.
const GUARD: f64 = 1e-12;

/// Writes whole climate records from `first` on into `out`: 16 bytes of
/// [station tag | two smoothly-varying float fields]. Floating-point model
/// output is nearly incompressible for byte-oriented codecs like Snappy
/// (the mantissa bits are high-entropy even when the signal is smooth), so
/// this compresses only lightly (~10%) — matching the paper's NetCDF
/// dataset, whose results were network-bound despite the Snappy handler.
///
/// The field is libm's `sin(rec × 0.01)` scaled and biased, at the cost of
/// one `sin` and `cos` per block of 64: record `k` of the block anchored at
/// `b` has `t − b = x + e` (exact by Sterbenz; `x = k × 0.01` tabled, `e`
/// a few ulps of `t`), so `sin t ≈ sin(b + x) + cos(b + x)·e`. The field's
/// two f64 roundings and one f32 rounding are monotone in the sine: where
/// both ends of the guard round alike, libm's sine rounds so too; where
/// they differ the record takes libm's `sin`.
fn climate_records(first: usize, bias: f64, out: &mut [u8]) {
    static TABLE: OnceLock<[(f64, f64, f64); ANCHOR]> = OnceLock::new();
    let table = TABLE
        .get_or_init(|| std::array::from_fn(|k| k as f64 * 0.01).map(|x| (x.sin(), x.cos(), x)));
    let field = |s: f64| (s * 120.0 + bias) as f32;
    let (mut lo, mut hi) = ([0f32; ANCHOR], [0f32; ANCHOR]);
    let mut tag = (first % 1_000_000) as u32;
    let (mut rec, mut rest) = (first, out);
    while rest.len() >= REC {
        let (anchor, k0) = (rec - rec % ANCHOR, rec % ANCHOR);
        let n = (rest.len() / REC).min(ANCHOR - k0);
        let (slots, more) = std::mem::take(&mut rest).split_at_mut(n * REC);
        rest = more;
        let b = anchor as f64 * 0.01;
        let (sb, cb) = b.sin_cos();
        for (k, &(sx, cx, x)) in table[k0..k0 + n].iter().enumerate() {
            let e = ((rec + k) as f64 * 0.01 - b) - x;
            let s = sb * cx + cb * sx + (cb * cx - sb * sx) * e;
            (lo[k], hi[k]) = (field(s - GUARD), field(s + GUARD));
        }
        for (k, slot) in slots.chunks_exact_mut(REC).enumerate() {
            let exact = lo[k].to_bits() == hi[k].to_bits();
            let f = if exact {
                lo[k]
            } else {
                field(((rec + k) as f64 * 0.01).sin())
            };
            slot[0..4].copy_from_slice(b"CAM5");
            slot[4..8].copy_from_slice(&tag.to_le_bytes());
            slot[8..12].copy_from_slice(&f.to_le_bytes());
            slot[12..16].copy_from_slice(&(f * 0.731).to_le_bytes());
            tag = if tag == 999_999 { 0 } else { tag + 1 };
        }
        rec += n;
    }
}

/// Per-chunk hash used by the order-independent [`Dataset::checksum`]:
/// a multiply-rotate mix over little-endian 8-byte words, keyed by the
/// chunk's offset, closed by the zero-padded tail and the length. Every
/// step is a bijection of the state for a given word, so chunks of one
/// length that differ anywhere hash differently. The value never travels:
/// sender and receiver both compute it locally.
#[must_use]
pub fn chunk_hash(offset: u64, data: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(K).rotate_left(29);
    let mut h = 0xcbf2_9ce4_8422_2325 ^ offset.wrapping_mul(K);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    h = mix(h, u64::from_le_bytes(tail));
    h = mix(h, data.len() as u64);
    h ^ (h >> 32)
}

/// `Dataset::chunk` and the record it was built from as they stood before
/// the anchored generator, verbatim: the bytes are frozen, and identity
/// with these is what "same bytes" means.
#[cfg(test)]
mod reference {
    use super::{Dataset, DatasetKind};
    use kmsg_telemetry::bytes::Bytes;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    /// The bytes at `[offset, offset + len)`, clamped to the dataset end.
    pub(crate) fn chunk(ds: &Dataset, offset: usize, len: usize) -> Bytes {
        let end = ds.size.min(offset + len);
        if offset >= end {
            return Bytes::new();
        }
        let len = end - offset;
        let mut out = Vec::with_capacity(len);
        match ds.kind {
            DatasetKind::Random => {
                // Incompressible: a counter-mode stream, restartable at any
                // 64-byte block boundary.
                const BLOCK: usize = 64;
                let first_block = offset / BLOCK;
                let last_block = (end - 1) / BLOCK;
                for block in first_block..=last_block {
                    let mut rng =
                        ChaCha12Rng::seed_from_u64(ds.seed ^ (block as u64).wrapping_mul(0x9e37));
                    let mut data = [0u8; BLOCK];
                    rng.fill(&mut data[..]);
                    let block_start = block * BLOCK;
                    let from = offset.max(block_start) - block_start;
                    let to = end.min(block_start + BLOCK) - block_start;
                    out.extend_from_slice(&data[from..to]);
                }
            }
            DatasetKind::Climate => {
                // A "record" stream: 16-byte records of [station tag |
                // smooth field value], restartable at record boundaries.
                const REC: usize = 16;
                let first_rec = offset / REC;
                let last_rec = (end - 1) / REC;
                for rec in first_rec..=last_rec {
                    let data = climate_record(ds.seed, rec);
                    let rec_start = rec * REC;
                    let from = offset.max(rec_start) - rec_start;
                    let to = end.min(rec_start + REC) - rec_start;
                    out.extend_from_slice(&data[from..to]);
                }
            }
        }
        Bytes::from(out)
    }

    /// 16 bytes of climate-like record `rec`: a repeating variable tag plus
    /// two smoothly-varying float fields.
    pub(crate) fn climate_record(seed: u64, rec: usize) -> [u8; 16] {
        let t = rec as f64 * 0.01;
        let field = (t.sin() * 120.0 + (seed % 17) as f64) as f32;
        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(b"CAM5");
        out[4..8].copy_from_slice(&u32::try_from(rec % 1_000_000).expect("fits").to_le_bytes());
        out[8..12].copy_from_slice(&field.to_le_bytes());
        out[12..16].copy_from_slice(&(field * 0.731).to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmsg_netsim::rng::RngStream;
    use kmsg_netsim::testutil::PropRunner;

    #[test]
    fn chunks_are_deterministic() {
        let ds = Dataset::climate(100_000, 42);
        assert_eq!(ds.chunk(1000, 500), ds.chunk(1000, 500));
        let ds2 = Dataset::climate(100_000, 43);
        assert_ne!(ds.chunk(1000, 500), ds2.chunk(1000, 500));
    }

    #[test]
    fn chunks_tile_the_dataset() {
        for kind in [DatasetKind::Climate, DatasetKind::Random] {
            let ds = Dataset {
                kind,
                size: 10_000,
                seed: 7,
            };
            let whole = ds.chunk(0, 10_000);
            let mut tiled = Vec::new();
            let mut offset = 0;
            while offset < ds.size {
                let c = ds.chunk(offset, 777);
                tiled.extend_from_slice(&c);
                offset += 777;
            }
            assert_eq!(whole, Bytes::from(tiled), "{kind:?}");
        }
    }

    #[test]
    fn chunk_clamps_at_end() {
        let ds = Dataset::random(1000, 1);
        assert_eq!(ds.chunk(900, 500).len(), 100);
        assert_eq!(ds.chunk(1000, 500).len(), 0);
        assert_eq!(ds.chunk(2000, 500).len(), 0);
    }

    #[test]
    fn climate_is_compressible_random_is_not() {
        let climate = Dataset::climate(60_000, 1).chunk(0, 60_000);
        let random = Dataset::random(60_000, 1).chunk(0, 60_000);
        let c1 = kmsg_core::codec::compress(&climate);
        let c2 = kmsg_core::codec::compress(&random);
        assert!(
            c1.len() < climate.len() * 97 / 100,
            "climate data should compress a little (like Snappy on floats), got {} -> {}",
            climate.len(),
            c1.len()
        );
        assert!(
            c2.len() > random.len() * 9 / 10,
            "random data should not compress, got {} -> {}",
            random.len(),
            c2.len()
        );
    }

    #[test]
    fn checksum_is_order_independent() {
        let ds = Dataset::climate(50_000, 3);
        let expected = ds.checksum(7000);
        // Accumulate in reverse order.
        let mut acc = 0u64;
        let mut offsets: Vec<usize> = (0..ds.chunk_count(7000)).map(|i| i * 7000).collect();
        offsets.reverse();
        for off in offsets {
            let chunk = ds.chunk(off, 7000);
            acc = acc.wrapping_add(chunk_hash(off as u64, &chunk));
        }
        assert_eq!(acc, expected);
    }

    #[test]
    fn checksum_detects_corruption() {
        let ds = Dataset::climate(10_000, 3);
        let good = ds.checksum(1000);
        let mut acc = 0u64;
        for i in 0..ds.chunk_count(1000) {
            let off = i * 1000;
            let mut data = ds.chunk(off, 1000).to_vec();
            if i == 3 {
                data[5] ^= 0xff;
            }
            acc = acc.wrapping_add(chunk_hash(off as u64, &data));
        }
        assert_ne!(acc, good);
    }

    /// `Dataset::checksum`-style accumulation over explicit pieces.
    fn accumulate<'a>(pieces: impl IntoIterator<Item = (usize, &'a [u8])>) -> u64 {
        pieces.into_iter().fold(0u64, |acc, (off, data)| {
            acc.wrapping_add(chunk_hash(off as u64, data))
        })
    }

    fn gen_chunks(rng: &mut RngStream) -> (Dataset, usize) {
        let chunk = rng.gen_range(16usize..2_000);
        let size = rng.gen_range(1usize..6 * chunk);
        let ds = if rng.gen_bool(0.5) {
            Dataset::climate(size, rng.gen())
        } else {
            Dataset::random(size, rng.gen())
        };
        (ds, chunk)
    }

    fn pieces(ds: &Dataset, chunk: usize) -> Vec<(usize, Vec<u8>)> {
        (0..ds.chunk_count(chunk))
            .map(|i| (i * chunk, ds.chunk(i * chunk, chunk).to_vec()))
            .collect()
    }

    fn borrowed(pieces: &[(usize, Vec<u8>)]) -> impl Iterator<Item = (usize, &[u8])> {
        pieces.iter().map(|(off, data)| (*off, data.as_slice()))
    }

    #[test]
    fn checksum_sees_any_single_byte_change() {
        PropRunner::new("chunk-hash-byte-change").cases(64).run(
            |rng| {
                let (ds, chunk) = gen_chunks(rng);
                (
                    ds,
                    chunk,
                    rng.gen_range(0..ds.size),
                    rng.gen_range(1u8..=255),
                )
            },
            |&(ds, chunk, at, flip)| {
                let mut parts = pieces(&ds, chunk);
                assert_eq!(accumulate(borrowed(&parts)), ds.checksum(chunk));
                parts[at / chunk].1[at % chunk] ^= flip;
                assert_ne!(accumulate(borrowed(&parts)), ds.checksum(chunk));
            },
        );
    }

    #[test]
    fn checksum_sees_truncation_and_extension() {
        PropRunner::new("chunk-hash-length-change").cases(64).run(
            |rng| {
                let (ds, chunk) = gen_chunks(rng);
                (ds, chunk, rng.gen_range(1usize..=8), rng.gen_bool(0.5))
            },
            |&(ds, chunk, by, zeros)| {
                let mut parts = pieces(&ds, chunk);
                let last = parts.pop().expect("one chunk");
                let padding = (0..by).map(|i| if zeros { 0 } else { i as u8 + 1 });
                let longer: Vec<u8> = last.1.iter().copied().chain(padding).collect();
                let shorter = last.1[..last.1.len().saturating_sub(by)].to_vec();
                for changed in [longer, shorter] {
                    let all = borrowed(&parts).chain([(last.0, changed.as_slice())]);
                    assert_ne!(accumulate(all), ds.checksum(chunk));
                }
            },
        );
    }

    #[test]
    fn every_tail_length_is_hashed() {
        // 0..=40 bytes: tails of 0..=7 after zero to five whole words.
        for len in 0..=40usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 29 + 3) as u8).collect();
            let h = chunk_hash(5, &data);
            for at in 0..len {
                let mut flipped = data.clone();
                flipped[at] ^= 0x80;
                assert_ne!(chunk_hash(5, &flipped), h, "len {len}, byte {at}");
            }
            assert_ne!(
                chunk_hash(5, &[&data[..], &[0]].concat()),
                h,
                "len {len} + a zero"
            );
            assert_ne!(chunk_hash(6, &data), h, "len {len} at another offset");
        }
    }

    #[test]
    fn checksum_sees_swapped_offsets() {
        PropRunner::new("chunk-hash-offset-swap").cases(64).run(
            |rng| {
                let (ds, chunk) = gen_chunks(rng);
                let n = ds.chunk_count(chunk);
                (ds, chunk, rng.gen_range(0..n), rng.gen_range(0..n))
            },
            |&(ds, chunk, i, j)| {
                let mut parts = pieces(&ds, chunk);
                if parts[i].1 == parts[j].1 {
                    return;
                }
                let (a, b) = (parts[i].0, parts[j].0);
                parts[i].0 = b;
                parts[j].0 = a;
                assert_ne!(accumulate(borrowed(&parts)), ds.checksum(chunk));
            },
        );
    }

    #[test]
    fn chunks_match_the_reference() {
        // Every offset residue mod 16 from a random record, at lengths
        // inside one record, across anchor blocks and past the dataset end.
        PropRunner::new("dataset-chunk-reference").cases(64).run(
            |rng| {
                let rec = if rng.gen_bool(0.25) {
                    rng.gen_range(0usize..3 * ANCHOR)
                } else {
                    rng.gen_range(0usize..1 << 27)
                };
                let kind = if rng.gen_bool(0.8) {
                    DatasetKind::Climate
                } else {
                    DatasetKind::Random
                };
                let size = rec * REC + rng.gen_range(0usize..3_000);
                let ds = Dataset {
                    kind,
                    size,
                    seed: rng.gen(),
                };
                (
                    ds,
                    rec * REC,
                    rng.gen_range(1usize..REC),
                    rng.gen_range(0usize..3_000),
                )
            },
            |&(ds, base, short, long)| {
                for offset in base..base + REC {
                    for len in [short.min(base + REC - offset), short, long, ds.size] {
                        assert!(
                            ds.chunk(offset, len) == reference::chunk(&ds, offset, len),
                            "{ds:?}: chunk({offset}, {len}) differs from the reference"
                        );
                    }
                }
            },
        );
    }

    /// Every record of the first 2²⁵ (512 MiB: `adaptive_wan`'s file and
    /// the paper's) in each of the 17 `seed % 17` classes. About half a
    /// minute in the debug build, seconds in release.
    #[test]
    fn every_record_below_2_pow_25_is_libms() {
        const SPAN: usize = 1 << 16;
        let mut sins = vec![0f64; SPAN];
        let mut buf = vec![0; SPAN * REC];
        for first in (0..1 << 25).step_by(SPAN) {
            for (i, s) in sins.iter_mut().enumerate() {
                *s = ((first + i) as f64 * 0.01).sin();
            }
            for bias in 0..17u8 {
                climate_records(first, f64::from(bias), &mut buf);
                for (i, (got, s)) in buf.chunks_exact(REC).zip(&sins).enumerate() {
                    let rec = first + i;
                    let field = (s * 120.0 + f64::from(bias)) as f32;
                    let mut want = [0u8; REC];
                    want[0..4].copy_from_slice(b"CAM5");
                    want[4..8].copy_from_slice(&((rec % 1_000_000) as u32).to_le_bytes());
                    want[8..12].copy_from_slice(&field.to_le_bytes());
                    want[12..16].copy_from_slice(&(field * 0.731).to_le_bytes());
                    assert!(got == want, "record {rec}, seed % 17 = {bias}");
                }
            }
        }
    }

    #[test]
    fn a_guarded_record_falls_back_to_libm() {
        // The one record of the first 2²⁵ whose anchored sine rounds to
        // another field than libm's (in class 14); the guard sends it to
        // libm.
        let ds = Dataset::climate(1 << 30, 14);
        let offset = 33_418_366 * REC;
        assert_eq!(ds.chunk(offset, REC), reference::chunk(&ds, offset, REC));
        assert_eq!(
            ds.chunk(offset - 40, 100),
            reference::chunk(&ds, offset - 40, 100)
        );
    }

    #[test]
    fn chunk_near_the_address_limit_is_empty() {
        let ds = Dataset::climate(1000, 1);
        assert!(ds.chunk(usize::MAX - 1, 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn checksum_rejects_a_zero_chunk_size() {
        let _ = Dataset::climate(1000, 1).checksum(0);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn chunk_count_rejects_a_zero_chunk_size() {
        let _ = Dataset::climate(1000, 1).chunk_count(0);
    }

    #[test]
    fn paper_constants() {
        assert_eq!(PAPER_DATASET_SIZE, 414_187_520);
        assert_eq!(PAPER_CHUNK_SIZE, 65_000);
    }
}
