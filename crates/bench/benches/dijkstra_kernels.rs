//! Benchmarks the single-source shortest-path kernels behind the distance
//! oracle: the binary-heap baseline (`dijkstra_reference`), the bucket-queue
//! kernel with a fresh allocation per call (`dijkstra`), and the zero-alloc
//! `dijkstra_into` that reuses a [`DijkstraScratch`] across calls — the form
//! the oracle's row fills actually use.
//!
//! Two weight regimes on ts5k-large: the hop-cost graph (weights 1/3, well
//! inside the bucket threshold) and the latency graph (Euclidean weights,
//! the regime where the kernel may fall back to the heap); and the ts50k
//! hop graph, the size the xl runs and `exact_16k` fill rows on.
//!
//! `stub_index_build` times what replaced row fills for point queries on
//! the hop-cost graph: the first `DistanceOracle::distance` on a fresh
//! oracle, which builds the transit-stub index (per-stub tables by bit-row
//! BFS, then the transit core) — the profiler's `oracle/index_build`.
//!
//! `topology_generate` times `TransitStubTopology::generate` whole: the
//! generator's edge list, the flat hop graph built from it and the latency
//! graph derived from its arcs — the profiler's `prepare/topology`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use proxbal_topology::{
    DijkstraScratch, DistanceOracle, Graph, TransitStubConfig, TransitStubTopology,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_graph(c: &mut Criterion, name: &str, graph: &Graph) {
    let mut group = c.benchmark_group(format!("dijkstra_{name}"));
    group.sample_size(20);
    // Spread sources over the graph so no kernel wins by cache luck.
    let n = graph.node_count() as u32;
    let sources: Vec<u32> = (0..8).map(|i| i * (n / 8)).collect();

    group.bench_function("heap_reference", |b| {
        b.iter(|| {
            for &src in &sources {
                std::hint::black_box(graph.dijkstra_reference(src));
            }
        });
    });
    group.bench_function("bucket_alloc", |b| {
        b.iter(|| {
            for &src in &sources {
                std::hint::black_box(graph.dijkstra(src));
            }
        });
    });
    group.bench_function("bucket_scratch", |b| {
        let mut scratch = DijkstraScratch::new();
        b.iter(|| {
            for &src in &sources {
                std::hint::black_box(graph.dijkstra_into(src, &mut scratch));
            }
        });
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let topo = TransitStubTopology::generate(TransitStubConfig::ts5k_large(), &mut rng);
    bench_graph(c, "ts5k_large_hops", &topo.graph);
    bench_graph(c, "ts5k_large_latency", &topo.latency_graph);

    let topo = TransitStubTopology::generate(TransitStubConfig::ts50k(), &mut rng);
    bench_graph(c, "ts50k_hops", &topo.graph);
}

fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_generate");
    group.sample_size(10);
    for (name, config) in [
        ("ts5k_large", TransitStubConfig::ts5k_large()),
        ("ts5k_small", TransitStubConfig::ts5k_small()),
        ("ts50k", TransitStubConfig::ts50k()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| TransitStubTopology::generate(config, &mut StdRng::seed_from_u64(1)));
        });
    }
    group.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("stub_index_build");
    group.sample_size(10);
    for (name, config) in [
        ("ts5k_large", TransitStubConfig::ts5k_large()),
        ("ts5k_small", TransitStubConfig::ts5k_small()),
        ("ts50k", TransitStubConfig::ts50k()),
    ] {
        let topo = TransitStubTopology::generate(config, &mut StdRng::seed_from_u64(1));
        let far = topo.node_count() as u32 - 1;
        group.bench_function(name, |b| {
            b.iter_batched(
                || DistanceOracle::for_topology(&topo, 0),
                |oracle| oracle.distance(0, far),
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_index_build, bench_generate);
criterion_main!(benches);
