//! The headline experiment (Figure 7): on a transit-stub Internet topology,
//! proximity-aware virtual-server assignment moves most load between
//! physically close nodes, while the proximity-ignorant sweep scatters
//! transfers across the wide area.
//!
//! ```text
//! cargo run --release --example proximity_transfer
//! ```

use proxbal::sim::experiments::fig78_moved_load;
use proxbal::sim::{Scenario, TopologyKind};
use proxbal_trace::Trace;

fn main() {
    let mut scenario = Scenario::builder().seed(3).build();
    scenario.peers = 1024; // example-sized; `repro figs 7` runs 4096
    scenario.topology = TopologyKind::Ts5kLarge;
    let prepared = scenario.prepare();

    println!(
        "overlay: {} peers on a {}-node transit-stub topology, {} landmarks",
        prepared.net.alive_peers().len(),
        prepared.topo.as_ref().unwrap().node_count(),
        prepared.landmarks.len()
    );

    let out = fig78_moved_load(&prepared, &mut Trace::disabled());

    println!("\n{:>24} {:>14} {:>14}", "", "prox-aware", "prox-ignorant");
    for d in [1u32, 2, 5, 10, 15, 20] {
        println!(
            "{:>24} {:>13.1}% {:>13.1}%",
            format!("moved load within {d} hops"),
            100.0 * out.aware.fraction_within(d),
            100.0 * out.ignorant.fraction_within(d)
        );
    }
    println!(
        "{:>24} {:>14.2} {:>14.2}",
        "mean transfer distance",
        out.aware.mean_distance(),
        out.ignorant.mean_distance()
    );
    println!(
        "\nboth modes fully balance: heavy after = {} (aware), {} (ignorant)",
        out.aware_report.heavy_after(),
        out.ignorant_report.heavy_after()
    );
    println!(
        "assignments made at deep rendezvous points pair physically close \
         nodes;\nthe aware run produced {} of its {} assignments below tree \
         depth 8.",
        out.aware_report
            .vsa
            .assignments_per_depth
            .iter()
            .skip(8)
            .sum::<usize>(),
        out.aware_report.vsa.assignments.len()
    );
}
