//! Property-based tests on the workload generators, sampled by the
//! deterministic [`PropRunner`] — every case replays from its seeded
//! stream.

use kmsg_apps::dataset::{chunk_hash, Dataset, DatasetKind};
use kmsg_netsim::testutil::PropRunner;
use rand::Rng;

#[test]
fn dataset_chunks_tile() {
    PropRunner::new("dataset-chunks-tile").cases(64).run(
        |rng| {
            (
                rng.gen_range(1usize..50_000),
                rng.gen_range(1usize..9_999),
                rng.gen_range(0u64..50),
                rng.gen_bool(0.5),
            )
        },
        |&(size, chunk, seed, climate)| {
            let kind = if climate {
                DatasetKind::Climate
            } else {
                DatasetKind::Random
            };
            let ds = Dataset { kind, size, seed };
            let whole = ds.chunk(0, size);
            let mut tiled = Vec::new();
            let mut offset = 0;
            while offset < size {
                tiled.extend_from_slice(&ds.chunk(offset, chunk));
                offset += chunk;
            }
            assert_eq!(whole.to_vec(), tiled);
        },
    );
}

#[test]
fn checksum_order_independent() {
    PropRunner::new("dataset-checksum-order-independent")
        .cases(64)
        .run(
            |rng| {
                (
                    rng.gen_range(1usize..20_000),
                    rng.gen_range(100usize..5_000),
                    rng.gen_range(0u64..50),
                    rng.gen_range(0u64..50),
                )
            },
            |&(size, chunk, seed, shuffle_seed)| {
                use rand::SeedableRng;
                let ds = Dataset::climate(size, seed);
                let expected = ds.checksum(chunk);
                let mut offsets: Vec<usize> =
                    (0..ds.chunk_count(chunk)).map(|i| i * chunk).collect();
                let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(shuffle_seed);
                // Fisher–Yates.
                for i in (1..offsets.len()).rev() {
                    offsets.swap(i, rng.gen_range(0..=i));
                }
                let mut acc = 0u64;
                for off in offsets {
                    acc = acc.wrapping_add(chunk_hash(off as u64, &ds.chunk(off, chunk)));
                }
                assert_eq!(acc, expected);
            },
        );
}

#[test]
fn disk_model_completion_monotonic() {
    PropRunner::new("disk-completion-monotonic").cases(64).run(
        |rng| {
            let n = rng.gen_range(1usize..20);
            (0..n)
                .map(|_| rng.gen_range(1usize..1_000_000))
                .collect::<Vec<usize>>()
        },
        |sizes| {
            let mut disk = kmsg_apps::DiskModel::new(100e6);
            let mut last = kmsg_netsim::time::SimTime::ZERO;
            for &s in sizes {
                let done = disk.access(kmsg_netsim::time::SimTime::ZERO, s);
                assert!(done >= last, "completions must be ordered");
                last = done;
            }
        },
    );
}
