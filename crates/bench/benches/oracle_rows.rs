//! Benchmarks the [`DistanceOracle`] row cache under the three regimes the
//! balancer actually exercises: a cold row fill (Dijkstra + insert), a
//! cached point query (pure lookup), and point queries under eviction
//! pressure — a capacity-bounded cache cycling through more sources than it
//! can hold, so the clock hand keeps evicting and refilling rows.

use criterion::{criterion_group, criterion_main, Criterion};
use proxbal_topology::{DistanceOracle, TransitStubConfig, TransitStubTopology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn topology() -> TransitStubTopology {
    let mut rng = StdRng::seed_from_u64(42);
    TransitStubTopology::generate(TransitStubConfig::ts5k_large(), &mut rng)
}

fn bench_oracle_rows(c: &mut Criterion) {
    let topo = topology();
    let graph = Arc::clone(&topo.graph);
    let n = graph.node_count() as u32;
    let sources: Vec<u32> = (0..n).step_by((n as usize / 64).max(1)).take(64).collect();

    let mut group = c.benchmark_group("oracle_rows");
    group.sample_size(10);

    group.bench_function("cold_row_fill", |b| {
        b.iter(|| {
            let oracle = DistanceOracle::new(Arc::clone(&graph));
            for &s in &sources[..8] {
                std::hint::black_box(oracle.distance(s, s ^ 1));
            }
        });
    });

    let warm = DistanceOracle::new(Arc::clone(&graph));
    warm.precompute(&sources, 1);
    group.bench_function("cached_point_query", |b| {
        b.iter(|| {
            for &s in &sources {
                std::hint::black_box(warm.distance(s, n - 1 - s));
            }
        });
    });

    // Capacity of 16 rows but 64 distinct sources: every pass evicts and
    // refills rows, measuring the clock sweep + re-Dijkstra path.
    let bounded = DistanceOracle::with_capacity(Arc::clone(&graph), 16);
    group.bench_function("eviction_pressure_query", |b| {
        b.iter(|| {
            for &s in &sources {
                std::hint::black_box(bounded.distance(s, n - 1 - s));
            }
        });
    });

    group.finish();
}

criterion_group!(benches, bench_oracle_rows);
criterion_main!(benches);
