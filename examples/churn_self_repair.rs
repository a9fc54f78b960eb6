//! Churn and self-repair (§3.1.1): peers join and crash under a Poisson
//! process while the engine repairs the K-nary tree every epoch and
//! balances on its schedule. Debug builds audit the ring and tree
//! invariants after every repair; key ownership on churned rings is
//! chord's `prop_owner_equals_a_scan_of_the_ring` test.
//!
//! ```text
//! cargo run --release --example churn_self_repair
//! ```

use proxbal::sim::churn::ChurnConfig;
use proxbal::sim::{run_engine, EngineConfig, Scenario};

fn main() {
    let scenario = Scenario::builder()
        .small()
        .churn(ChurnConfig {
            join_rate: 0.08,
            crash_rate: 0.08,
        })
        .seed(17)
        .build();
    let mut prepared = scenario.prepare();
    println!(
        "start: {} peers, {} virtual servers",
        prepared.net.alive_peers().len(),
        prepared.net.alive_vs_count()
    );

    let cfg = EngineConfig {
        epochs: 200,
        ..EngineConfig::default()
    };
    let report = run_engine(&mut prepared, &cfg).expect("engine run");

    let rounds: Vec<usize> = report
        .samples
        .iter()
        .map(|s| s.maintenance_rounds)
        .collect();
    println!(
        "churn: {} joins, {} crashes over {} epochs",
        report.joins, report.crashes, cfg.epochs
    );
    println!(
        "tree repair: every epoch, <= {} rounds each ({} in all)",
        rounds.iter().max().unwrap_or(&0),
        rounds.iter().sum::<usize>()
    );
    println!(
        "balancing: {} rounds ({} emergency), final heavy {}",
        report.balances,
        report.emergencies,
        report.final_heavy()
    );
    println!(
        "end: {} peers, {} virtual servers",
        prepared.net.alive_peers().len(),
        prepared.net.alive_vs_count()
    );

    prepared
        .net
        .check_invariants()
        .expect("chord invariants hold");
    println!("ring invariants verified.");
}
