//! Benchmarks the tree phases behind the O(log_K N) round claims: tree
//! construction, LBI aggregation and the VSA sweep, for K = 2 and K = 8.
//! Round *counts* come from `repro claims rounds`; this bench tracks the
//! wall-clock of each phase.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use proxbal_core::{ClassifyParams, Lbi};
use proxbal_ktree::{AggregateInput, KTree};
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;

fn bench_phases(c: &mut Criterion) {
    let mut scenario = Scenario::builder().small().seed(13).build();
    scenario.peers = 1024;
    scenario.topology = TopologyKind::None;
    let prepared = scenario.prepare();
    let net = &prepared.net;
    let loads = &prepared.loads;

    let mut group = c.benchmark_group("tree_phases");
    group.sample_size(10);
    for k in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("build", k), &k, |b, &k| {
            b.iter(|| std::hint::black_box(KTree::build(net, k)));
        });

        let tree = KTree::build(net, k);
        group.bench_with_input(BenchmarkId::new("lbi_aggregate", k), &k, |b, _| {
            b.iter(|| {
                let mut inputs: Vec<AggregateInput<Lbi>> = net
                    .alive_peers()
                    .into_iter()
                    .map(|p| AggregateInput {
                        at: tree.report_target(net, net.vss_of(p)[0]),
                        value: loads.node_lbi(net, p),
                        sent: true,
                    })
                    .collect();
                inputs.sort_unstable_by_key(|input| input.at);
                std::hint::black_box(tree.aggregate(net, &inputs, 1))
            });
        });

        group.bench_with_input(BenchmarkId::new("vsa_sweep", k), &k, |b, _| {
            let params = ClassifyParams::default();
            let system = loads.totals(net);
            let classification =
                proxbal_core::Classification::compute(net, loads, &params, system, 1);
            let shed =
                proxbal_core::reports::shed_candidates(net, loads, &params, &classification, 1);
            let light = proxbal_core::reports::light_slots(net, loads, &params, &classification, 1);
            b.iter(|| {
                let mut rng = prepared.derived_rng(99);
                let inputs =
                    proxbal_core::reports::ignorant_inputs(net, &tree, &shed, &light, &mut rng);
                let vsa_params = proxbal_core::VsaParams::paper(system.min_vs_load);
                std::hint::black_box(proxbal_core::run_vsa(
                    &tree,
                    inputs,
                    &vsa_params,
                    &mut Trace::disabled(),
                ))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_phases);
criterion_main!(benches);
