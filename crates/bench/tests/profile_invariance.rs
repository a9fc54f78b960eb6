//! Profiling-layer contracts (DESIGN.md §5c): the virtual-time flamegraph
//! is byte-identical at any thread count, and enabling the profiler or the
//! allocation counter never perturbs a run's deterministic output.

use proxbal_profile::NullSink;
use proxbal_sim::experiments::{fault_sweep, fig4_unit_load};
use proxbal_sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;

#[global_allocator]
static ALLOC: proxbal_profile::CountingAlloc = proxbal_profile::CountingAlloc;

/// A fast fault sweep that exercises parallel workers, per-cell child
/// traces and the repair path — the trace shape the flamegraph folds.
fn sweep_trace(threads: usize) -> Trace {
    let mut s = Scenario::builder().small().seed(60).build();
    s.peers = 96;
    s.topology = TopologyKind::Tiny;
    let mut trace = Trace::enabled("repro");
    fault_sweep(&s, &[0.0, 0.05], threads, &mut trace, &NullSink);
    trace
}

#[test]
fn virtual_time_flamegraph_is_thread_invariant() {
    let artifacts: Vec<(String, String)> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            let trace = sweep_trace(threads);
            let folded = proxbal_bench::fold_trace(&trace);
            (
                folded.to_collapsed(),
                folded.to_speedscope("repro (virtual time)"),
            )
        })
        .collect();
    assert!(
        !artifacts[0].0.is_empty(),
        "sweep produced no folded stacks"
    );
    assert_eq!(artifacts[0], artifacts[1], "1 vs 2 threads");
    assert_eq!(artifacts[0], artifacts[2], "1 vs 8 threads");
}

#[test]
fn enabling_profiler_and_counting_does_not_perturb_results() {
    let run = || {
        let mut s = Scenario::builder().small().peers(128).seed(7).build();
        s.topology = TopologyKind::None;
        let mut prepared = s.prepare_run(2, &NullSink);
        let out = fig4_unit_load(&mut prepared);
        serde_json::to_string(&out).expect("serialize fig4 output")
    };
    let baseline = run();
    proxbal_profile::enable_counting();
    proxbal_profile::enable_profiler();
    let profiled = {
        let _guard = proxbal_profile::phase("perturbation-check");
        run()
    };
    assert_eq!(baseline, profiled);
    let rows = proxbal_profile::report().rows;
    assert!(rows.iter().any(|r| r.name == "perturbation-check"));
    assert!(proxbal_profile::AllocSnapshot::global().allocs > 0);
}
