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

use bytes::Bytes;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

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
        let end = self.size.min(offset + len);
        if offset >= end {
            return Bytes::new();
        }
        let len = end - offset;
        let mut out = Vec::with_capacity(len);
        match self.kind {
            DatasetKind::Random => {
                // Incompressible: a counter-mode stream, restartable at any
                // 64-byte block boundary.
                const BLOCK: usize = 64;
                let first_block = offset / BLOCK;
                let last_block = (end - 1) / BLOCK;
                for block in first_block..=last_block {
                    let mut rng =
                        ChaCha12Rng::seed_from_u64(self.seed ^ (block as u64).wrapping_mul(0x9e37));
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
                    let data = climate_record(self.seed, rec);
                    let rec_start = rec * REC;
                    let from = offset.max(rec_start) - rec_start;
                    let to = end.min(rec_start + REC) - rec_start;
                    out.extend_from_slice(&data[from..to]);
                }
            }
        }
        Bytes::from(out)
    }

    /// Order-independent checksum over all chunk-aligned pieces of the
    /// dataset: wrapping sum of per-chunk hashes keyed by offset.
    /// Receivers can accumulate the same value chunk by chunk, in any
    /// arrival order; `n` repeated transfers accumulate `n × checksum`.
    #[must_use]
    pub fn checksum(&self, chunk_size: usize) -> u64 {
        let mut acc = 0u64;
        let mut offset = 0;
        while offset < self.size {
            let chunk = self.chunk(offset, chunk_size);
            acc = acc.wrapping_add(chunk_hash(offset as u64, &chunk));
            offset += chunk_size;
        }
        acc
    }

    /// Number of chunks of `chunk_size` covering the dataset.
    #[must_use]
    pub fn chunk_count(&self, chunk_size: usize) -> usize {
        self.size.div_ceil(chunk_size)
    }
}

/// 16 bytes of climate-like record `rec`: a repeating variable tag plus
/// two smoothly-varying float fields. Floating-point model output is
/// nearly incompressible for byte-oriented codecs like Snappy (the
/// mantissa bits are high-entropy even when the signal is smooth), so
/// this compresses only lightly (~10%) — matching the paper's NetCDF
/// dataset, whose results were network-bound despite the Snappy handler.
fn climate_record(seed: u64, rec: usize) -> [u8; 16] {
    let t = rec as f64 * 0.01;
    let field = (t.sin() * 120.0 + (seed % 17) as f64) as f32;
    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(b"CAM5");
    out[4..8].copy_from_slice(&u32::try_from(rec % 1_000_000).expect("fits").to_le_bytes());
    out[8..12].copy_from_slice(&field.to_le_bytes());
    out[12..16].copy_from_slice(&(field * 0.731).to_le_bytes());
    out
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
        pieces
            .into_iter()
            .fold(0u64, |acc, (off, data)| acc.wrapping_add(chunk_hash(off as u64, data)))
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
                (ds, chunk, rng.gen_range(0..ds.size), rng.gen_range(1u8..=255))
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
            assert_ne!(chunk_hash(5, &[&data[..], &[0]].concat()), h, "len {len} + a zero");
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
    fn paper_constants() {
        assert_eq!(PAPER_DATASET_SIZE, 414_187_520);
        assert_eq!(PAPER_CHUNK_SIZE, 65_000);
    }
}
