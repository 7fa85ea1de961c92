//! Stand-in for `rand_chacha` 0.3: the real ChaCha stream cipher as a
//! random number generator, so the simulator's seeded streams are genuine
//! ChaCha12 output.
//!
//! Layout follows the published crate: a 256-bit key from the seed, a
//! 64-bit block counter in state words 12–13, stream id zero in words
//! 14–15, four blocks generated per refill into a 64-word buffer,
//! and `rand_core`'s `BlockRng` rules for reading words, `u64`s that
//! straddle a refill, and bytes.

use rand::{RngCore, SeedableRng};

const BLOCK_WORDS: usize = 16;
const BUF_BLOCKS: usize = 4;
const BUF_WORDS: usize = BLOCK_WORDS * BUF_BLOCKS;

/// A ChaCha generator with `DOUBLE_ROUNDS` double rounds per block.
#[derive(Clone)]
pub struct ChaChaRng<const DOUBLE_ROUNDS: usize> {
    key: [u32; 8],
    counter: u64,
    results: [u32; BUF_WORDS],
    index: usize,
}

/// ChaCha with 12 rounds.
pub type ChaCha12Rng = ChaChaRng<6>;
/// ChaCha with 20 rounds.
pub type ChaCha20Rng = ChaChaRng<10>;

#[inline(always)]
fn quarter_round(s: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl<const DOUBLE_ROUNDS: usize> ChaChaRng<DOUBLE_ROUNDS> {
    fn block(&self, counter: u64, out: &mut [u32]) {
        let mut init = [0u32; BLOCK_WORDS];
        // "expand 32-byte k"
        init[0] = 0x6170_7865;
        init[1] = 0x3320_646e;
        init[2] = 0x7962_2d32;
        init[3] = 0x6b20_6574;
        init[4..12].copy_from_slice(&self.key);
        init[12] = counter as u32;
        init[13] = (counter >> 32) as u32;
        let mut s = init;
        for _ in 0..DOUBLE_ROUNDS {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for ((o, s), i) in out.iter_mut().zip(s).zip(init) {
            *o = s.wrapping_add(i);
        }
    }

    /// Refills the buffer with the next four blocks and sets the read
    /// position.
    fn generate_and_set(&mut self, index: usize) {
        let mut results = [0u32; BUF_WORDS];
        for (i, out) in results.chunks_exact_mut(BLOCK_WORDS).enumerate() {
            self.block(self.counter.wrapping_add(i as u64), out);
        }
        self.results = results;
        self.counter = self.counter.wrapping_add(BUF_BLOCKS as u64);
        self.index = index;
    }
}

impl<const DOUBLE_ROUNDS: usize> SeedableRng for ChaChaRng<DOUBLE_ROUNDS> {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (word, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaChaRng {
            key,
            counter: 0,
            results: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl<const DOUBLE_ROUNDS: usize> RngCore for ChaChaRng<DOUBLE_ROUNDS> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.generate_and_set(0);
        }
        let value = self.results[self.index];
        self.index += 1;
        value
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < BUF_WORDS - 1 {
            self.index += 2;
            (u64::from(self.results[index + 1]) << 32) | u64::from(self.results[index])
        } else if index >= BUF_WORDS {
            self.generate_and_set(2);
            (u64::from(self.results[1]) << 32) | u64::from(self.results[0])
        } else {
            // The low half is the buffer's last word, the high half the
            // first word of the next refill.
            let lo = u64::from(self.results[BUF_WORDS - 1]);
            self.generate_and_set(1);
            (u64::from(self.results[0]) << 32) | lo
        }
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut filled = 0;
        while filled < dest.len() {
            if self.index >= BUF_WORDS {
                self.generate_and_set(0);
            }
            // Whole words are consumed even when the tail of the last one
            // is not needed.
            let want = dest.len() - filled;
            let words = want.div_ceil(4).min(BUF_WORDS - self.index);
            let bytes = want.min(words * 4);
            for (chunk, word) in dest[filled..filled + bytes]
                .chunks_mut(4)
                .zip(&self.results[self.index..self.index + words])
            {
                chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
            }
            self.index += words;
            filled += bytes;
        }
    }
}

impl<const DOUBLE_ROUNDS: usize> std::fmt::Debug for ChaChaRng<DOUBLE_ROUNDS> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChaCha{}Rng {{ .. }}", DOUBLE_ROUNDS * 2)
    }
}

impl<const DOUBLE_ROUNDS: usize> PartialEq for ChaChaRng<DOUBLE_ROUNDS> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.counter == other.counter && self.index == other.index
    }
}
impl<const DOUBLE_ROUNDS: usize> Eq for ChaChaRng<DOUBLE_ROUNDS> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn chacha20_zero_key_keystream_matches_the_reference() {
        // The widely published ChaCha20 keystream for an all-zero key and
        // nonce: 76 b8 e0 ad a0 f1 3d 90 40 5d 6a e5 53 86 bd 28 ...
        let mut rng = ChaCha20Rng::from_seed([0; 32]);
        let mut out = [0u8; 32];
        rng.fill_bytes(&mut out);
        let expect: [u8; 32] = [
            0x76, 0xb8, 0xe0, 0xad, 0xa0, 0xf1, 0x3d, 0x90, 0x40, 0x5d, 0x6a, 0xe5, 0x53, 0x86,
            0xbd, 0x28, 0xbd, 0xd2, 0x19, 0xb8, 0xa0, 0x8d, 0xed, 0x1a, 0xa8, 0x36, 0xef, 0xcc,
            0x8b, 0x77, 0x0d, 0xc7,
        ];
        assert_eq!(out, expect);
    }

    #[test]
    fn words_and_u64s_read_the_same_stream() {
        let mut a = ChaCha12Rng::seed_from_u64(9);
        let mut b = a.clone();
        for _ in 0..200 {
            let lo = u64::from(a.next_u32());
            let hi = u64::from(a.next_u32());
            assert_eq!(b.next_u64(), (hi << 32) | lo);
        }
    }

    #[test]
    fn u64_straddles_a_refill() {
        let mut a = ChaCha12Rng::seed_from_u64(3);
        let mut b = a.clone();
        for _ in 0..63 {
            a.next_u32();
            b.next_u32();
        }
        let lo = u64::from(a.next_u32());
        let hi = u64::from(a.next_u32());
        assert_eq!(b.next_u64(), (hi << 32) | lo);
        assert_eq!(a.next_u32(), b.next_u32());
    }

    #[test]
    fn fill_bytes_discards_a_partial_word() {
        let mut a = ChaCha12Rng::seed_from_u64(5);
        let mut b = a.clone();
        let mut three = [0u8; 3];
        a.fill_bytes(&mut three);
        let first = b.next_u32().to_le_bytes();
        assert_eq!(three, first[..3]);
        assert_eq!(a.next_u32(), b.next_u32());
    }

    #[test]
    fn seeds_differ_and_repeat() {
        let a: u64 = ChaCha12Rng::seed_from_u64(1).gen();
        let b: u64 = ChaCha12Rng::seed_from_u64(2).gen();
        assert_ne!(a, b);
        assert_eq!(a, ChaCha12Rng::seed_from_u64(1).gen::<u64>());
    }
}
