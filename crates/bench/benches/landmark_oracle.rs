//! Benchmarks the hierarchical (landmark-approximate) distance scheme
//! against the exact oracle on ts5k-large: throughput of bound/estimate
//! queries vs cached exact point queries, the oracle build itself, and —
//! printed once at startup — the filter hit rate: the fraction of random
//! pairs whose triangle-inequality bounds already pin the distance, i.e.
//! the share of transfer-pair queries that never need exact refinement.

use criterion::{criterion_group, criterion_main, Criterion};
use proxbal_topology::{
    select_landmarks, DistanceOracle, LandmarkOracle, TransitStubConfig, TransitStubTopology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn bench_landmark_oracle(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let topo = TransitStubTopology::generate(TransitStubConfig::ts5k_large(), &mut rng);
    let landmarks = select_landmarks(&topo, 15, &mut rng);
    let graph = Arc::clone(&topo.graph);
    let n = graph.node_count() as u32;
    let oracle = DistanceOracle::new(Arc::clone(&graph));
    let lm = LandmarkOracle::build(&oracle, &landmarks, 1);

    // Random pairs drawn once so every benchmark measures the same queries.
    let pairs: Vec<(u32, u32)> = (0..4096)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();

    // Filter-then-refine hit rate: pairs whose bounds already meet.
    let exact_hits = pairs
        .iter()
        .filter(|&&(a, b)| {
            let (lo, hi) = lm.bounds(a, b);
            lo == hi
        })
        .count();
    eprintln!(
        "landmark filter hit rate: {}/{} random pairs exact from bounds ({:.1}%), {} landmarks, {} bytes resident",
        exact_hits,
        pairs.len(),
        100.0 * exact_hits as f64 / pairs.len() as f64,
        lm.landmarks().len(),
        lm.size_bytes()
    );

    let mut group = c.benchmark_group("landmark_oracle");
    group.sample_size(10);

    group.bench_function("build_15_landmarks", |b| {
        b.iter(|| {
            let fresh = DistanceOracle::new(Arc::clone(&graph));
            std::hint::black_box(LandmarkOracle::build(&fresh, &landmarks, 1))
        });
    });

    group.bench_function("bounds_query", |b| {
        b.iter(|| {
            for &(a, s) in &pairs {
                std::hint::black_box(lm.bounds(a, s));
            }
        });
    });

    group.bench_function("estimate_query", |b| {
        b.iter(|| {
            for &(a, s) in &pairs {
                std::hint::black_box(lm.estimate(a, s));
            }
        });
    });

    // The exact path the approximate scheme displaces: cached rows for
    // every distinct source (the best exact case — no Dijkstra in the
    // timed loop).
    let sources: Vec<u32> = {
        let mut s: Vec<u32> = pairs.iter().map(|&(a, _)| a).collect();
        s.sort_unstable();
        s.dedup();
        s
    };
    oracle.precompute(&sources, 1);
    group.bench_function("exact_cached_query", |b| {
        b.iter(|| {
            for &(a, s) in &pairs {
                std::hint::black_box(oracle.distance(a, s));
            }
        });
    });

    group.finish();
}

criterion_group!(benches, bench_landmark_oracle);
criterion_main!(benches);
