//! Benchmarks the parallel kernels *inside* a balancing round — the hot
//! per-peer loops the `--threads` knob accelerates: node classification,
//! shed-candidate/light-slot extraction, the LBI walk over the K-nary tree
//! (per virtual server, and as a round binds it), the VSA phase's
//! per-participant half at the xl scale, and the complete proximity-aware
//! four-phase round. Each
//! kernel runs at 1 and 8 worker threads so the
//! scaling (and the fixed-chunk merge overhead at 1 thread) is visible in
//! one report. Outputs are byte-identical across thread counts — the
//! determinism tests pin that — so these benches measure pure wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proxbal_chord::ChordNetwork;
use proxbal_core::reports::{light_slots, proximity_inputs, shed_candidates};
use proxbal_core::{
    BalancerConfig, Classification, ClassifyParams, Lbi, LoadBalancer, ProximityMode,
    ProximityParams, RoundWalls, Underlay,
};
use proxbal_ktree::{AggregateInput, KTree};
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 2] = [1, 8];

fn bench_round_kernels(c: &mut Criterion) {
    let mut scenario = Scenario::builder().small().seed(7).build();
    scenario.peers = 4096;
    scenario.topology = TopologyKind::Ts5kSmall;
    let prepared = scenario.prepare();
    let params = ClassifyParams {
        epsilon: prepared.scenario.balancer.epsilon,
    };
    let system = prepared.loads.totals(&prepared.net);

    let mut group = c.benchmark_group("round_kernels");
    group.sample_size(20);

    for threads in THREAD_COUNTS {
        group.bench_function(format!("classify_t{threads}"), |b| {
            b.iter(|| {
                std::hint::black_box(Classification::compute(
                    &prepared.net,
                    &prepared.loads,
                    &params,
                    system,
                    threads,
                ))
            });
        });
    }

    let classification =
        Classification::compute(&prepared.net, &prepared.loads, &params, system, 1);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("shed_and_light_t{threads}"), |b| {
            b.iter(|| {
                let shed = shed_candidates(
                    &prepared.net,
                    &prepared.loads,
                    &params,
                    &classification,
                    threads,
                );
                let light = light_slots(
                    &prepared.net,
                    &prepared.loads,
                    &params,
                    &classification,
                    threads,
                );
                std::hint::black_box((shed, light))
            });
        });
    }

    // The complete proximity-aware round (all four phases, exact transfer
    // distances — the refinement path) from a cloned initial state. One
    // untimed warm-up round first: the prepared oracle caches distance rows
    // across calls, so without it the first thread count measured would pay
    // every Dijkstra fill and the later ones would ride its warm cache.
    let aware_round = |threads: usize| {
        let mut net = prepared.net.clone();
        let mut loads = prepared.loads.clone();
        let underlay = Underlay {
            oracle: prepared.oracle.as_ref().expect("topology present"),
            latency_oracle: prepared.latency_oracle.as_ref(),
            landmarks: &prepared.landmarks,
            approx: None,
        };
        let cfg = BalancerConfig {
            mode: ProximityMode::Aware(ProximityParams::default()),
            ..prepared.scenario.balancer
        };
        let mut tree = KTree::build(&net, cfg.k);
        let mut rng = prepared.derived_rng(78);
        let mut walls = RoundWalls::default();
        LoadBalancer::new(cfg)
            .with_threads(threads)
            .run_with_tree_walls(
                &mut net,
                &mut loads,
                &mut tree,
                Some(underlay),
                &mut rng,
                &mut Trace::disabled(),
                &mut walls,
            )
            .expect("attached network")
    };
    std::hint::black_box(aware_round(1));
    for threads in THREAD_COUNTS {
        group.bench_function(format!("aware_round_t{threads}"), |b| {
            b.iter(|| std::hint::black_box(aware_round(threads)));
        });
    }
    group.finish();
}

/// Phase 1's tree half in isolation: one LBI per virtual server's leaf,
/// folded to the root by the walk that also counts the round's messages
/// and dissemination rounds. Inputs are built before timing starts.
fn bench_aggregate_root(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregate_root");
    group.sample_size(10);
    for peers in [16_384usize, 65_536] {
        let mut rng = StdRng::seed_from_u64(42);
        let mut net = ChordNetwork::new();
        for _ in 0..peers {
            net.join_peer(5, &mut rng);
        }
        let tree = KTree::build(&net, 2);
        let mut inputs: Vec<AggregateInput<Lbi>> = net
            .ring()
            .iter()
            .enumerate()
            .map(|(i, (_, vs))| AggregateInput {
                at: tree.report_target(&net, vs),
                value: Lbi {
                    load: 1.0 + i as f64,
                    capacity: 10.0,
                    min_vs_load: 1.0 + i as f64,
                },
                sent: true,
            })
            .collect();
        inputs.sort_unstable_by_key(|input| input.at);
        for threads in THREAD_COUNTS {
            group.bench_function(BenchmarkId::new(format!("t{threads}"), peers), |b| {
                b.iter(|| std::hint::black_box(tree.aggregate(&net, &inputs, threads)));
            });
        }
    }
    group.finish();
}

/// The LBI phase's walk as a round runs it, at 65,536 peers: every peer's
/// LBI at the leaf of one random virtual server of its own, merged per
/// leaf in peer order, a third of the peers re-reporting (the rest sent
/// nothing this round). Network, tree, loads and inputs are prepared
/// untimed; the timed call is the one `run_round` makes under
/// `round/aggregate`.
fn bench_lbi_walk(c: &mut Criterion) {
    use rand::seq::SliceRandom;
    let mut scenario = Scenario::builder().small().seed(3).build();
    scenario.peers = 65_536;
    scenario.topology = TopologyKind::None;
    let prepared = scenario.prepare();
    let net = &prepared.net;
    let tree = KTree::build(net, prepared.scenario.balancer.k);
    let mut rng = prepared.derived_rng(29);
    let mut inputs: Vec<AggregateInput<Lbi>> = Vec::new();
    let mut bound: Vec<(proxbal_ktree::KtNodeId, usize)> = net
        .alive_peers()
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let vs = *net
                .vss_of(p)
                .choose(&mut rng)
                .expect("every peer hosts one");
            (tree.report_target(net, vs), i)
        })
        .collect();
    bound.sort_unstable();
    let peers = net.alive_peers();
    for (at, i) in bound {
        let lbi = prepared.loads.node_lbi(net, peers[i]);
        match inputs.last_mut() {
            Some(last) if last.at == at => {
                proxbal_ktree::Merge::merge(&mut last.value, lbi);
                last.sent |= i % 3 == 0;
            }
            _ => inputs.push(AggregateInput {
                at,
                value: lbi,
                sent: i % 3 == 0,
            }),
        }
    }
    let mut group = c.benchmark_group("lbi_walk");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("t{threads}"), |b| {
            b.iter(|| std::hint::black_box(tree.aggregate(net, &inputs, threads)));
        });
    }
    group.finish();
}

/// Phase 3's per-participant half at the xl scale (65,536 peers on ts50k):
/// every heavy peer's shed set, then every record published at the entry
/// node of its landmark vector's DHT key. Scenario, tree, classification
/// and light slots are prepared once, untimed; one untimed call first
/// fills the pinned landmark rows.
fn bench_vsa_inputs(c: &mut Criterion) {
    let prepared = Scenario::builder().xl().seed(1).build().prepare();
    let net = &prepared.net;
    let tree = KTree::build(net, prepared.scenario.balancer.k);
    let params = ClassifyParams {
        epsilon: prepared.scenario.balancer.epsilon,
    };
    let system = prepared.loads.totals(net);
    let classification = Classification::compute(net, &prepared.loads, &params, system, 1);
    let light = light_slots(net, &prepared.loads, &params, &classification, 1);
    let underlay = Underlay {
        oracle: prepared.oracle.as_ref().expect("topology present"),
        latency_oracle: prepared.latency_oracle.as_ref(),
        landmarks: &prepared.landmarks,
        approx: None,
    };
    let publish = |threads: usize| {
        let shed = shed_candidates(net, &prepared.loads, &params, &classification, threads);
        let inputs = proximity_inputs(
            net,
            &tree,
            &shed,
            &light,
            &ProximityParams::default(),
            underlay.latency(),
            underlay.landmarks,
            threads,
        )
        .expect("attached network");
        (shed, inputs)
    };
    std::hint::black_box(publish(1));
    let mut group = c.benchmark_group("vsa_inputs");
    group.sample_size(10);
    for threads in THREAD_COUNTS {
        group.bench_function(format!("t{threads}"), |b| {
            b.iter(|| std::hint::black_box(publish(threads)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_round_kernels,
    bench_aggregate_root,
    bench_lbi_walk,
    bench_vsa_inputs
);
criterion_main!(benches);
