//! Micro-benchmarks of the substrates: ring ownership, Hilbert
//! encode/decode, Dijkstra, shed-set selection, rendezvous pairing and the
//! DES event queue.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proxbal_chord::ChordNetwork;
use proxbal_hilbert::HilbertCurve;
use proxbal_id::Id;
use proxbal_topology::{TransitStubConfig, TransitStubTopology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_chord(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(21);
    let mut net = ChordNetwork::new();
    for _ in 0..512 {
        net.join_peer(5, &mut rng);
    }
    let mut group = c.benchmark_group("chord");
    group.bench_function("ring_owner", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(0x9E3779B9);
            std::hint::black_box(net.ring().owner(Id::new(i)))
        });
    });
    group.finish();
}

fn bench_hilbert(c: &mut Criterion) {
    let curve = HilbertCurve::new(15, 2); // the paper's configuration
    let mut group = c.benchmark_group("hilbert_15d");
    group.bench_function("encode", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let p: Vec<u32> = (0..15).map(|d| (i >> d) & 3).collect();
            std::hint::black_box(curve.encode(&p))
        });
    });
    group.bench_function("decode", |b| {
        let mut i = 0u128;
        b.iter(|| {
            i = (i + 0x9E3779B9) & ((1 << 30) - 1);
            std::hint::black_box(curve.decode(i))
        });
    });
    group.finish();
}

fn bench_topology(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let topo = TransitStubTopology::generate(TransitStubConfig::ts5k_large(), &mut rng);
    let mut group = c.benchmark_group("topology");
    group.sample_size(20);
    group.bench_function("dijkstra_ts5k_large", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 37) % topo.node_count() as u32;
            std::hint::black_box(topo.graph.dijkstra(i))
        });
    });
    group.bench_with_input(BenchmarkId::new("generate", "ts5k_large"), &(), |b, ()| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            std::hint::black_box(TransitStubTopology::generate(
                TransitStubConfig::ts5k_large(),
                &mut rng,
            ))
        });
    });
    group.finish();
}

fn bench_core_pieces(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(29);
    let mut group = c.benchmark_group("core");
    group.bench_function("shed_selection_12vss", |b| {
        let vss: Vec<(proxbal_chord::VsId, f64)> = (0..12)
            .map(|i| (proxbal_chord::VsId(i), rng.gen_range(1.0..100.0)))
            .collect();
        let total: f64 = vss.iter().map(|x| x.1).sum();
        let mut chosen = Vec::new();
        b.iter(|| {
            proxbal_core::choose_shed_set(&vss, total * 0.4, &mut chosen);
            std::hint::black_box(&chosen);
        });
    });
    group.bench_function("rendezvous_pairing_200", |b| {
        b.iter_batched(
            || {
                let mut lists = proxbal_core::RendezvousLists::new();
                let mut r = StdRng::seed_from_u64(31);
                for i in 0..100u32 {
                    lists.push_shed(proxbal_core::ShedCandidate {
                        load: r.gen_range(1.0..50.0),
                        vs: proxbal_chord::VsId(i),
                        from: proxbal_chord::PeerId(i),
                    });
                    lists.push_light(proxbal_core::LightSlot {
                        spare: r.gen_range(1.0..80.0),
                        peer: proxbal_chord::PeerId(1000 + i),
                    });
                }
                lists
            },
            |mut lists| std::hint::black_box(lists.pair(1.0)),
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

/// The event queue at the depth the engine's DES shadow reaches on 4,096
/// peers: 50,000 events pending, then one pop and one schedule per
/// iteration (the classic hold model), with the delay mix of a phase — the
/// current instant, edge latencies, retry timeouts.
fn bench_des_queue(c: &mut Criterion) {
    use proxbal_sim::des::EventQueue;
    const PENDING: usize = 50_000;
    let delay = |rng: &mut StdRng| -> u64 {
        match rng.gen_range(0..10) {
            0..=3 => 0,
            4..=8 => rng.gen_range(1..200),
            _ => 30 << rng.gen_range(0..6),
        }
    };
    let mut group = c.benchmark_group("des_queue");
    group.bench_function("hold_50k_pending", |b| {
        let mut rng = StdRng::seed_from_u64(37);
        let mut queue: EventQueue<u32> = EventQueue::new();
        for i in 0..PENDING {
            queue.schedule(delay(&mut rng), i as u32);
        }
        b.iter(|| {
            let (now, event) = queue.pop().expect("the hold model keeps the depth");
            queue.schedule(now + delay(&mut rng), event);
            std::hint::black_box(event)
        });
    });
    group.bench_function("fill_and_drain_50k", |b| {
        let mut rng = StdRng::seed_from_u64(41);
        let mut queue: EventQueue<u32> = EventQueue::new();
        b.iter(|| {
            queue.reset();
            for i in 0..PENDING {
                queue.schedule(delay(&mut rng), i as u32);
            }
            let mut last = 0;
            while let Some((t, _)) = queue.pop() {
                last = t;
            }
            std::hint::black_box(last)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_chord,
    bench_hilbert,
    bench_topology,
    bench_core_pieces,
    bench_des_queue
);
criterion_main!(benches);
