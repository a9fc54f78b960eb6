//! The metric registry: every name `pbench` prints, with its unit, its
//! direction, where it is defined, and — for end-to-end metrics — how much
//! worse it may get. `BENCHMARK.json`, the tables `pbench all` prints and
//! `pbench compare` all read this one table; `tests/smoke.rs` checks that
//! `BENCHMARK.json` still agrees with it.

use crate::stats::Better;

/// The four workloads. Names are fixed: later issues cite them.
pub const WORKLOADS: [&str; 4] = ["exact_16k", "approx_1m", "engine_4k", "paper_all"];

pub const EXACT: u8 = 1;
pub const APPROX: u8 = 2;
pub const ENGINE: u8 = 4;
pub const PAPER: u8 = 8;
pub const ROUNDS: u8 = EXACT | APPROX;
pub const ALL: u8 = ROUNDS | ENGINE | PAPER;

/// Bit of `workload` in a metric's `on` mask.
pub fn workload_bit(workload: &str) -> u8 {
    let index = WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .unwrap_or_else(|| panic!("unknown workload {workload}"));
    1 << index
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// What a user of the simulator sees. `bound` is the share of the
    /// reference median by which the metric may get worse before `compare`
    /// says *worse* (never less than the absolute `floor`), for two runs of
    /// the **same seed**. `driver_bound` is the bound `BENCHMARK.json` states
    /// for the acceptance driver, which compares medians over ten
    /// **different** seeds and so also sees the seed-to-seed variation of
    /// the simulated metrics; `None` keeps the metric out of
    /// `BENCHMARK.json`'s `end_to_end` (it is listed under `per_layer`
    /// instead), because it is not defined on every workload.
    EndToEnd {
        bound: f64,
        floor: f64,
        driver_bound: Option<f64>,
    },
    /// A single layer's share. `moves` names the end-to-end metric it
    /// should move and `most_on` the workload where that shows.
    Layer {
        moves: &'static str,
        most_on: &'static str,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// A pure function of (workload, seed): bit-identical across
    /// repetitions, thread counts and the traced run. Reported by every
    /// child, traced or not, so the harness can check exactly that.
    pub deterministic: bool,
    /// Workloads the metric is defined on (bit mask).
    pub on: u8,
}

impl MetricDef {
    pub fn is_end_to_end(&self) -> bool {
        matches!(self.kind, Kind::EndToEnd { .. })
    }

    pub fn defined_on(&self, workload: &str) -> bool {
        self.on & workload_bit(workload) != 0
    }

    /// Whether `BENCHMARK.json` lists the metric under `end_to_end`.
    pub fn driver_bound(&self) -> Option<f64> {
        match self.kind {
            Kind::EndToEnd { driver_bound, .. } => driver_bound,
            Kind::Layer { .. } => None,
        }
    }
}

#[allow(clippy::too_many_arguments)]
const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    floor: f64,
    driver_bound: Option<f64>,
    deterministic: bool,
    on: u8,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::EndToEnd {
            bound,
            floor,
            driver_bound,
        },
        deterministic,
        on,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    most_on: &'static str,
    on: u8,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        kind: Kind::Layer { moves, most_on },
        deterministic: false,
        on,
    }
}

/// A layer count that is a pure function of (workload, seed).
const fn count(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    most_on: &'static str,
    on: u8,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        kind: Kind::Layer { moves, most_on },
        deterministic: true,
        on,
    }
}

use Better::{Higher, Lower};

/// Tracing overhead is a layer metric the parent computes from a traced and
/// an untraced child; the child itself never reports it.
pub const OVERHEAD_FRAC: &str = "profile.overhead_frac";

// One metric per line reads as the table it is.
#[rustfmt::skip]
pub const METRICS: &[MetricDef] = &[
    // ── end to end ──────────────────────────────────────────────────────
    e2e("setup_s", "s", Lower, 0.25, 0.25, Some(0.25), false, ALL),
    e2e("run_wall_s", "s", Lower, 0.10, 0.05, Some(0.25), false, ALL),
    e2e("peak_rss_mib", "MiB", Lower, 0.05, 1.0, Some(0.25), false, ALL),
    e2e("epoch_p50_ms", "ms", Lower, 0.10, 1.0, None, false, ENGINE),
    e2e("epoch_p90_ms", "ms", Lower, 0.15, 1.0, None, false, ENGINE),
    e2e("heavy_after_frac", "fraction", Lower, 0.005, 0.0, None, true, ALL),
    e2e("moved_load_frac", "fraction", Lower, 0.005, 0.0, Some(0.15), true, ALL),
    e2e("moved_within2_frac", "fraction", Higher, 0.005, 0.0, None, true, ROUNDS | PAPER),
    e2e("mean_transfer_hops", "hops", Lower, 0.005, 0.0, None, true, ROUNDS | PAPER),
    e2e("msgs_per_peer", "messages", Lower, 0.005, 0.0, Some(0.25), true, ALL),
    e2e("failed_ops_frac", "fraction", Lower, 0.0, 0.0, None, false, ALL),
    // ── sim: scenario preparation ───────────────────────────────────────
    layer("sim.prepare_s", "s", Lower, "setup_s", "approx_1m", ALL),
    layer("sim.prepare.topology_s", "s", Lower, "setup_s", "exact_16k", ALL),
    layer("sim.prepare.ring_s", "s", Lower, "setup_s", "approx_1m", ALL),
    layer("sim.prepare.attach_landmarks_s", "s", Lower, "setup_s", "approx_1m", ALL),
    layer("sim.prepare.loads_s", "s", Lower, "setup_s", "approx_1m", ALL),
    layer("sim.prepare.hop_landmarks_s", "s", Lower, "setup_s", "approx_1m", ALL),
    layer("sim.prepare.other_s", "s", Lower, "setup_s", "approx_1m", ALL),
    // ── ktree: the aggregation tree ─────────────────────────────────────
    layer("ktree.build_s", "s", Lower, "setup_s", "approx_1m", ROUNDS),
    count("ktree.nodes", "count", "setup_s", "approx_1m", ROUNDS),
    count("ktree.height", "count", "setup_s", "approx_1m", ROUNDS),
    layer("ktree.aggregate_s", "s", Lower, "run_wall_s", "approx_1m", ALL),
    // ── core: one balancing round ───────────────────────────────────────
    layer("core.round_s", "s", Lower, "run_wall_s", "approx_1m", ALL),
    layer("core.round.lbi_s", "s", Lower, "run_wall_s", "approx_1m", ALL),
    layer("core.round.vsa_s", "s", Lower, "run_wall_s", "approx_1m", ALL),
    layer("core.round.transfer_s", "s", Lower, "run_wall_s", "exact_16k", ALL),
    layer("core.round.other_s", "s", Lower, "run_wall_s", "approx_1m", ROUNDS),
    layer("core.round.lbi.alloc_mib", "MiB", Lower, "peak_rss_mib", "approx_1m", ALL),
    layer("core.round.aggregate.alloc_mib", "MiB", Lower, "peak_rss_mib", "approx_1m", ALL),
    layer("core.round.vsa.alloc_mib", "MiB", Lower, "peak_rss_mib", "approx_1m", ALL),
    layer("core.round.transfer.alloc_mib", "MiB", Lower, "peak_rss_mib", "exact_16k", ALL),
    count("core.assignments", "count", "heavy_after_frac", "approx_1m", ROUNDS),
    count("core.transfers", "count", "msgs_per_peer", "approx_1m", ROUNDS),
    count("core.vsa_rounds", "count", "run_wall_s", "approx_1m", ROUNDS),
    count("core.vsa_unassigned", "count", "heavy_after_frac", "approx_1m", ROUNDS),
    layer("core.pair_misfit_ratio", "ratio", Lower, "run_wall_s", "approx_1m", ROUNDS),
    // ── topology: distances ─────────────────────────────────────────────
    layer("topology.rows_computed", "count", Lower, "run_wall_s", "exact_16k", ALL),
    layer("topology.row_hits", "count", Higher, "run_wall_s", "exact_16k", ALL),
    layer("topology.row_evictions", "count", Lower, "run_wall_s", "approx_1m", ALL),
    layer("topology.row_hit_ratio", "ratio", Higher, "run_wall_s", "exact_16k", ALL),
    layer("topology.oracle_resident_mib", "MiB", Lower, "peak_rss_mib", "exact_16k", ALL),
    layer("topology.landmark_oracle_mib", "MiB", Lower, "peak_rss_mib", "approx_1m", APPROX),
    layer("topology.dijkstra_row_us", "us", Lower, "run_wall_s", "exact_16k", ROUNDS),
    layer("topology.landmark_bounds_ns", "ns", Lower, "run_wall_s", "approx_1m", APPROX),
    // ── hilbert, chord: per-call probes ─────────────────────────────────
    layer("hilbert.key_ns", "ns", Lower, "run_wall_s", "approx_1m", APPROX),
    layer("chord.ring_owner_ns", "ns", Lower, "setup_s", "approx_1m", APPROX),
    layer("ktree.report_target_ns", "ns", Lower, "run_wall_s", "approx_1m", APPROX),
    // ── sim: the continuous engine ──────────────────────────────────────
    layer("sim.engine.epoch_quiet_ms", "ms", Lower, "epoch_p50_ms", "engine_4k", ENGINE),
    layer("sim.engine.epoch_balanced_ms", "ms", Lower, "epoch_p90_ms", "engine_4k", ENGINE),
    count("sim.engine.balances", "count", "run_wall_s", "engine_4k", ENGINE),
    count("sim.engine.emergencies", "count", "run_wall_s", "engine_4k", ENGINE),
    count("sim.engine.passes", "count", "run_wall_s", "engine_4k", ENGINE),
    layer("ktree.repair_noop_ms", "ms", Lower, "epoch_p50_ms", "engine_4k", ENGINE),
    count("ktree.repair_reattached", "count", "epoch_p50_ms", "engine_4k", ENGINE),
    count("ktree.repair_pruned", "count", "epoch_p50_ms", "engine_4k", ENGINE),
    count("ktree.maintenance_rounds", "count", "epoch_p50_ms", "engine_4k", ENGINE),
    layer("sim.faults.des_probe_ms", "ms", Lower, "epoch_p90_ms", "engine_4k", ENGINE),
    count("sim.faults.des_messages", "messages", "epoch_p90_ms", "engine_4k", ENGINE),
    count("sim.faults.des_retries", "messages", "epoch_p90_ms", "engine_4k", ENGINE),
    count("sim.faults.retry_ratio", "ratio", "epoch_p90_ms", "engine_4k", ENGINE),
    // ── sim: the paper's twelve phases ──────────────────────────────────
    layer("sim.paper.figure_4_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    layer("sim.paper.figure_5_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    layer("sim.paper.figure_6_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    layer("sim.paper.figure_7_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    layer("sim.paper.figure_8_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    layer("sim.paper.claim_rounds_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    layer("sim.paper.claim_repair_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    layer("sim.paper.claim_baselines_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    layer("sim.paper.claim_ablations_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    layer("sim.paper.claim_overhead_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    layer("sim.paper.claim_latency_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    layer("sim.paper.claim_drift_s", "s", Lower, "run_wall_s", "paper_all", PAPER),
    // ── parallel, process, profile, trace ───────────────────────────────
    layer("parallel.busy_cores", "cores", Higher, "run_wall_s", "exact_16k", ALL),
    layer("process.cpu_s", "s", Lower, "run_wall_s", "engine_4k", ALL),
    layer("profile.alloc_mib", "MiB", Lower, "peak_rss_mib", "approx_1m", ALL),
    layer("profile.alloc_calls", "count", Lower, "run_wall_s", "approx_1m", ALL),
    layer("profile.peak_live_mib", "MiB", Lower, "peak_rss_mib", "approx_1m", ALL),
    layer(OVERHEAD_FRAC, "fraction", Lower, "none", "all", ALL),
    layer("trace.events", "count", Lower, "none", "all", ALL),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|m| m.name == name)
}

/// Names `BENCHMARK.json` lists under `end_to_end`.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(|m| m.driver_bound().is_some())
}

/// Names `BENCHMARK.json` lists under `per_layer`: every layer metric, and
/// the end-to-end metrics that are not defined on all four workloads.
pub fn driver_per_layer() -> impl Iterator<Item = &'static MetricDef> {
    METRICS.iter().filter(|m| m.driver_bound().is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        let mut seen = BTreeSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(legal(m.name, 64, "_.-"), "name {}", m.name);
            assert!(legal(m.unit, 16, "_/%.-"), "unit {} of {}", m.unit, m.name);
            assert!(m.on != 0 && m.on <= ALL, "{} is defined nowhere", m.name);
        }
        assert_eq!(METRICS.iter().filter(|m| m.is_end_to_end()).count(), 11);
        assert!(METRICS.len() - 11 <= 128);
    }

    #[test]
    fn driver_end_to_end_metrics_cover_every_workload() {
        let names: Vec<&str> = driver_end_to_end().map(|m| m.name).collect();
        assert!(names.contains(&"setup_s"));
        for m in driver_end_to_end() {
            assert_eq!(m.on, ALL, "{} must be defined on all workloads", m.name);
            assert!(m.driver_bound().unwrap() <= 0.25);
        }
    }

    #[test]
    fn layer_metrics_name_an_end_to_end_metric() {
        for m in METRICS {
            if let Kind::Layer { moves, most_on } = m.kind {
                assert!(
                    moves == "none" || lookup(moves).is_some_and(MetricDef::is_end_to_end),
                    "{} moves unknown metric {moves}",
                    m.name
                );
                assert!(most_on == "all" || WORKLOADS.contains(&most_on));
            }
        }
    }
}
