//! Benchmarks the two bulk constructions of the million-peer set-up at the
//! kernel level, so they keep a number between `pbench` runs of
//! `approx_1m` (`setup_s`): `ChordNetwork::join_peers_at` — one sort of the
//! drawn positions instead of one ring search per virtual server — and
//! `shard::build_tree_sharded`, the K-nary tree grown in place from one
//! sorted snapshot of the ring. Both are linear-ish in the number of
//! virtual servers; 4× the peers should cost about 4× the time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proxbal_chord::ChordNetwork;
use proxbal_id::Id;
use proxbal_sim::experiments::XL2_SPLIT_DEPTH;
use proxbal_sim::shard::build_tree_sharded;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VS_PER_PEER: usize = 5;

fn bench_setup_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("setup_kernels");
    group.sample_size(10);

    for peers in [65_536usize, 262_144] {
        let mut rng = StdRng::seed_from_u64(42);
        let positions: Vec<Id> = (0..peers * VS_PER_PEER)
            .map(|_| Id::new(rng.gen()))
            .collect();
        let joined = |positions: &[Id]| {
            let mut net = ChordNetwork::new();
            net.join_peers_at(positions, VS_PER_PEER, &mut StdRng::seed_from_u64(7));
            net
        };

        group.bench_function(BenchmarkId::new("ring_bulk_join", peers), |b| {
            b.iter(|| std::hint::black_box(joined(&positions)).alive_vs_count());
        });

        let net = joined(&positions);
        group.bench_function(BenchmarkId::new("tree_build_split", peers), |b| {
            b.iter(|| std::hint::black_box(build_tree_sharded(&net, 2, XL2_SPLIT_DEPTH, 1)).len());
        });
    }

    group.finish();
}

criterion_group!(benches, bench_setup_kernels);
criterion_main!(benches);
