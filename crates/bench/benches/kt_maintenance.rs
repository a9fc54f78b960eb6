//! Benchmarks K-nary-tree maintenance at the kernel level, beside the
//! end-to-end `engine_4k` number: `KTree::repair` when nothing changed (the
//! common engine epoch — must not depend on tree size) and after 1 % of the
//! peers crashed and as many joined (work proportional to the root paths
//! the changed ring positions disturb, not to the tree), and the walk that
//! answers a round's message depths and edge counts (`KTree::aggregate`
//! with no inputs: one pass over the tree, nothing cached between rounds).
//!
//! The `kt_layout` group times what the arena's layout decides — growing
//! the tree in place and the bulk report-target descent — at 65,536 peers
//! for the paper's two degrees.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use proxbal_chord::ChordNetwork;
use proxbal_core::Lbi;
use proxbal_ktree::KTree;
use rand::rngs::StdRng;
use rand::SeedableRng;

const VS_PER_PEER: usize = 5;

fn bench_kt_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("kt_maintenance");
    group.sample_size(10);

    for peers in [4_096usize, 65_536] {
        let mut rng = StdRng::seed_from_u64(42);
        let mut net = ChordNetwork::new();
        for _ in 0..peers {
            net.join_peer(VS_PER_PEER, &mut rng);
        }
        let mut tree = KTree::build(&net, 2);

        group.bench_function(BenchmarkId::new("noop_repair", peers), |b| {
            b.iter(|| std::hint::black_box(tree.repair(&net, 256)));
        });

        group.bench_function(BenchmarkId::new("message_depths_walk", peers), |b| {
            b.iter(|| std::hint::black_box(tree.aggregate::<Lbi>(&net, &[], 1)));
        });

        // One fixed churned network per size; each iteration repairs a
        // fresh clone of the pre-churn tree against it (a binary tree's
        // arena is one allocation, so dropping the clone is not the cost).
        let churn = peers / 200;
        let mut churned = net.clone();
        for p in churned.alive_peers().into_iter().take(churn) {
            churned.crash_peer(p);
        }
        for _ in 0..churn {
            churned.join_peer(VS_PER_PEER, &mut rng);
        }
        group.bench_function(BenchmarkId::new("repair_after_1pct_churn", peers), |b| {
            b.iter_batched(
                || tree.clone(),
                |mut tree| std::hint::black_box(tree.repair(&churned, 256)),
                BatchSize::LargeInput,
            );
        });
    }

    group.finish();
}

fn bench_kt_layout(c: &mut Criterion) {
    let mut group = c.benchmark_group("kt_layout");
    group.sample_size(10);

    let mut rng = StdRng::seed_from_u64(42);
    let mut net = ChordNetwork::new();
    for _ in 0..65_536 {
        net.join_peer(VS_PER_PEER, &mut rng);
    }
    let ring_order: Vec<_> = net.ring().iter().map(|(_, vs)| vs).collect();
    for k in [2usize, 8] {
        group.bench_function(BenchmarkId::new("build", k), |b| {
            b.iter(|| std::hint::black_box(KTree::build(&net, k).len()));
        });
        let tree = KTree::build(&net, k);
        group.bench_function(BenchmarkId::new("report_targets", k), |b| {
            b.iter(|| std::hint::black_box(tree.report_targets(&net, ring_order.iter().copied())));
        });
    }

    group.finish();
}

criterion_group!(benches, bench_kt_maintenance, bench_kt_layout);
criterion_main!(benches);
