//! B8 — arena labeling: chunked encode throughput and zero-copy decode.
//!
//! Exercises the paths the arena refactor changed: `encode` measures the
//! chunked threshold encoder at 1 and 4 worker threads (same bits either
//! way — the chunks are stitched in vertex order); `decode` measures
//! adjacency queries over borrowed [`pl_labeling::LabelRef`] views at
//! several label counts. Decode latency should be flat in `n`: a query
//! touches two bit windows of the shared arena and never allocates.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use pl_labeling::scheme::AdjacencyDecoder;
use pl_labeling::threshold::{encode_with_stats_threads, ThresholdDecoder};
use pl_labeling::PowerLawScheme;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_arena_encode(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0xA2E7A);
    let n = 20_000usize;
    let g = pl_gen::chung_lu_power_law(n, 2.5, 5.0, &mut rng);
    let tau = PowerLawScheme::new(2.5).tau(n);

    let mut group = c.benchmark_group("arena_encode");
    group.sample_size(20);
    for threads in [1usize, 4] {
        group.bench_function(BenchmarkId::new("threshold", threads), |b| {
            b.iter(|| encode_with_stats_threads(&g, tau, threads));
        });
    }
    group.finish();
}

fn bench_arena_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("arena_decode");
    let dec = ThresholdDecoder;
    for n in [5_000usize, 20_000, 80_000] {
        let mut rng = StdRng::seed_from_u64(0xA2E7A ^ n as u64);
        let g = pl_gen::chung_lu_power_law(n, 2.5, 5.0, &mut rng);
        let tau = PowerLawScheme::new(2.5).tau(n);
        let (labeling, _) = encode_with_stats_threads(&g, tau, 1);
        let mut pair_rng = StdRng::seed_from_u64(n as u64);
        let mut pair = move || {
            (
                pair_rng.gen_range(0..n as u32),
                pair_rng.gen_range(0..n as u32),
            )
        };
        group.bench_function(BenchmarkId::new("threshold", n), |b| {
            b.iter_batched(
                &mut pair,
                |(u, v)| dec.adjacent(labeling.label(u), labeling.label(v)),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_arena_encode, bench_arena_decode);
criterion_main!(benches);
