//! Deterministic random number streams for reproducible experiments.
//!
//! All stochastic behaviour in the simulator (packet loss, jitter, workload
//! generation, ε-greedy exploration) draws from named [`RngStream`]s derived
//! from a single experiment seed. Two runs with the same seed and the same
//! stream names produce byte-identical results, while distinct subsystems
//! never perturb each other's streams.
//!
//! # Examples
//!
//! ```
//! use kmsg_netsim::rng::SeedSource;
//! use rand::Rng;
//!
//! let seeds = SeedSource::new(42);
//! let mut loss = seeds.stream("link-loss");
//! let mut workload = seeds.stream("workload");
//! let a: f64 = loss.gen();
//! let b: f64 = workload.gen();
//! // Streams are independent and reproducible.
//! let mut loss2 = SeedSource::new(42).stream("link-loss");
//! assert_eq!(a, loss2.gen::<f64>());
//! assert_ne!(a, b);
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// A deterministic random stream (a seeded ChaCha12 generator).
pub type RngStream = ChaCha12Rng;

/// Derives independent, named random streams from one experiment seed.
///
/// The derivation hashes the stream name into the 32-byte ChaCha seed
/// together with the root seed (an FNV-1a style mix), so renaming or adding
/// streams never shifts unrelated streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSource {
    root: u64,
}

impl SeedSource {
    /// Creates a seed source from a root experiment seed.
    #[must_use]
    pub const fn new(root: u64) -> Self {
        SeedSource { root }
    }

    /// The root seed this source was created with.
    #[must_use]
    pub(crate) const fn root(&self) -> u64 {
        self.root
    }

    /// Derives the named random stream.
    #[must_use]
    pub fn stream(&self, name: &str) -> RngStream {
        let mut seed = [0u8; 32];
        let h1 = fnv1a(self.root, name.as_bytes());
        let h2 = fnv1a(h1, b"kmsg-netsim-stream");
        let h3 = fnv1a(h2, name.as_bytes());
        let h4 = fnv1a(h3, &self.root.to_le_bytes());
        seed[0..8].copy_from_slice(&h1.to_le_bytes());
        seed[8..16].copy_from_slice(&h2.to_le_bytes());
        seed[16..24].copy_from_slice(&h3.to_le_bytes());
        seed[24..32].copy_from_slice(&h4.to_le_bytes());
        ChaCha12Rng::from_seed(seed)
    }

    /// Derives a numbered sub-source, e.g. one per experiment repetition.
    #[must_use]
    pub fn sub_source(&self, index: u64) -> SeedSource {
        SeedSource {
            root: fnv1a(self.root, &index.to_le_bytes()),
        }
    }
}

/// FNV-1a hash seeded with `init`, folded over `data`.
fn fnv1a(init: u64, data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = init ^ 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u32> = SeedSource::new(7)
            .stream("x")
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        let b: Vec<u32> = SeedSource::new(7)
            .stream("x")
            .sample_iter(rand::distributions::Standard)
            .take(16)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_names_differ() {
        let a: u64 = SeedSource::new(7).stream("x").gen();
        let b: u64 = SeedSource::new(7).stream("y").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn different_roots_differ() {
        let a: u64 = SeedSource::new(7).stream("x").gen();
        let b: u64 = SeedSource::new(8).stream("x").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn sub_sources_are_independent() {
        let s = SeedSource::new(1);
        let a: u64 = s.sub_source(0).stream("x").gen();
        let b: u64 = s.sub_source(1).stream("x").gen();
        assert_ne!(a, b);
        assert_eq!(s.sub_source(0), s.sub_source(0));
    }

    #[test]
    fn root_accessor() {
        assert_eq!(SeedSource::new(99).root(), 99);
    }
}
