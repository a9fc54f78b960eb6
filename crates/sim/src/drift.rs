//! Load drift and periodic re-balancing.
//!
//! The paper assumes "the load on a virtual server is stable over the
//! timescale it takes for the load balancing algorithm to perform" and
//! leaves dynamic loads to future work. This module stresses that
//! assumption: per-virtual-server loads follow a geometric random walk
//! between balancing passes, and the balancer runs periodically. The
//! output tracks balance quality (unit-load Gini, heavy-node counts) over
//! time and the cumulative load moved — the operational cost of keeping a
//! drifting system balanced.

use crate::metrics::LoadColumn;
use proxbal_chord::ChordNetwork;
use proxbal_core::{BalancerConfig, DirtySet, LoadBalancer, LoadState, Underlay};
use proxbal_workload::sample_gaussian;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Drift-experiment parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Number of drift steps to simulate.
    pub steps: usize,
    /// Run the balancer every this many steps.
    pub rebalance_every: usize,
    /// Volatility of the per-VS geometric random walk: each step the load
    /// is multiplied by `exp(σ·Z)`, `Z ~ N(0,1)`.
    pub sigma: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            steps: 40,
            rebalance_every: 10,
            sigma: 0.08,
        }
    }
}

/// One sample of the drift timeline.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DriftSample {
    /// Step index.
    pub step: usize,
    /// Unit-load Gini at this step (after any rebalance).
    pub gini: f64,
    /// Heavy-node count at this step (against fresh system totals).
    pub heavy: usize,
    /// Load moved by the rebalance at this step (0 when none ran).
    pub moved: f64,
}

/// Result of a drift run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DriftStats {
    /// Per-step samples.
    pub timeline: Vec<DriftSample>,
    /// Total load moved across all rebalances.
    pub total_moved: f64,
    /// Number of rebalances executed.
    pub rebalances: usize,
}

impl DriftStats {
    /// Mean Gini over the steps *without* a rebalance (steady-state drift
    /// inequality).
    pub fn mean_gini(&self) -> f64 {
        if self.timeline.is_empty() {
            return 0.0;
        }
        self.timeline.iter().map(|s| s.gini).sum::<f64>() / self.timeline.len() as f64
    }

    /// The worst heavy-node count seen on the timeline.
    pub fn max_heavy(&self) -> usize {
        self.timeline.iter().map(|s| s.heavy).max().unwrap_or(0)
    }
}

/// Runs the drift experiment: loads drift every step, the balancer runs
/// every `rebalance_every` steps.
pub fn run_drift<R: Rng>(
    net: &mut ChordNetwork,
    loads: &mut LoadState,
    cfg: &DriftConfig,
    balancer_cfg: BalancerConfig,
    underlay: Option<Underlay<'_>>,
    rng: &mut R,
) -> DriftStats {
    assert!(cfg.rebalance_every > 0);
    let balancer = LoadBalancer::new(balancer_cfg);
    let mut stats = DriftStats::default();

    for step in 0..cfg.steps {
        // Drift: geometric random walk per virtual server.
        let vss: Vec<_> = net.ring().iter().map(|(_, v)| v).collect();
        for vs in vss {
            let factor = (cfg.sigma * sample_gaussian(rng)).exp();
            let new = loads.vs_load(vs) * factor;
            loads.set_vs_load(vs, new);
        }

        let mut moved = 0.0;
        if (step + 1) % cfg.rebalance_every == 0 {
            let report = balancer
                .run(net, loads, underlay, rng)
                .expect("attached network");
            moved = proxbal_core::total_moved_load(&report.transfers);
            stats.total_moved += moved;
            stats.rebalances += 1;
        }

        let column = LoadColumn::read(net, loads);
        stats.timeline.push(DriftSample {
            step,
            gini: column.gini(),
            heavy: column.heavy(balancer_cfg.epsilon),
            moved,
        });
    }
    stats
}

/// Geometric load drift as a pluggable [`EventSource`]: every epoch, each
/// virtual server's load is multiplied by `exp(σ·Z)` — the same random
/// walk [`run_drift`] applies per step. Every alive peer's load changes,
/// so the dirty set becomes [`DirtySet::All`] — no set to fill.
///
/// [`EventSource`]: crate::engine::EventSource
pub struct DriftSource {
    cfg: DriftConfig,
    rng: rand::rngs::StdRng,
}

impl DriftSource {
    /// Builds the source; `rng` must be a private stream (e.g.
    /// `Prepared::derived_rng`) so drift never perturbs other randomness.
    pub fn new(cfg: DriftConfig, rng: rand::rngs::StdRng) -> Self {
        DriftSource { cfg, rng }
    }
}

impl crate::engine::EventSource for DriftSource {
    fn name(&self) -> &'static str {
        "drift"
    }

    fn on_epoch(
        &mut self,
        _epoch: usize,
        _window: u64,
        world: &mut crate::engine::World<'_>,
    ) -> crate::engine::SourceActivity {
        let vss: Vec<_> = world.net.ring().iter().map(|(_, v)| v).collect();
        let drifted = vss.len();
        for vs in vss {
            let factor = (self.cfg.sigma * sample_gaussian(&mut self.rng)).exp();
            let new = world.loads.vs_load(vs) * factor;
            world.loads.set_vs_load(vs, new);
        }
        *world.dirty = DirtySet::All;
        crate::engine::SourceActivity {
            drifted,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxbal_workload::{CapacityProfile, LoadModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(seed: u64) -> (ChordNetwork, LoadState, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = ChordNetwork::new();
        for _ in 0..96 {
            net.join_peer(5, &mut rng);
        }
        let loads = LoadState::generate(
            &net,
            &CapacityProfile::gnutella(),
            &LoadModel::gaussian(1e6, 1e4),
            &mut rng,
        );
        (net, loads, rng)
    }

    #[test]
    fn rebalancing_keeps_drifting_system_balanced() {
        let (mut net, mut loads, mut rng) = setup(1);
        let cfg = DriftConfig {
            steps: 30,
            rebalance_every: 5,
            sigma: 0.1,
        };
        // Repeated balancing concentrates large virtual servers on the few
        // high-capacity peers; once such a peer drifts heavy, its oversized
        // virtual servers fit no light node — the case the VS-splitting
        // extension exists for. Enable it.
        let balancer_cfg = BalancerConfig {
            max_splits: 16,
            ..BalancerConfig::default()
        };
        let stats = run_drift(&mut net, &mut loads, &cfg, balancer_cfg, None, &mut rng);
        assert_eq!(stats.rebalances, 6);
        assert!(stats.total_moved > 0.0);
        net.check_invariants().unwrap();
        // Right after each rebalance, heavy count drops to a small residue.
        let peers = net.alive_peers().len();
        for s in stats.timeline.iter().filter(|s| s.moved > 0.0) {
            assert!(
                s.heavy <= peers / 12,
                "step {}: {} heavy right after rebalance",
                s.step,
                s.heavy
            );
        }
        // And it is always far below the un-rebalanced steady state.
        let worst_after_rebalance = stats
            .timeline
            .iter()
            .filter(|s| s.moved > 0.0)
            .map(|s| s.heavy)
            .max()
            .unwrap();
        assert!(worst_after_rebalance < stats.max_heavy());
    }

    #[test]
    fn without_rebalancing_imbalance_grows() {
        let (mut net, mut loads, mut rng) = setup(2);
        // One initial balance, then pure drift.
        let balancer = LoadBalancer::new(BalancerConfig::default());
        let _ = balancer
            .run(&mut net, &mut loads, None, &mut rng)
            .expect("attached network");
        let balanced = LoadColumn::read(&net, &loads).heavy(BalancerConfig::default().epsilon);
        let cfg = DriftConfig {
            steps: 60,
            rebalance_every: 1000, // never fires within the horizon
            sigma: 0.15,
        };
        let stats = run_drift(
            &mut net,
            &mut loads,
            &cfg,
            BalancerConfig::default(),
            None,
            &mut rng,
        );
        assert_eq!(stats.rebalances, 0);
        // Compare against the freshly balanced state rather than an early
        // timeline sample: heavy counts saturate within a few steps at this
        // volatility, so any single early-vs-late pair is noise-sensitive.
        let late = stats.timeline.last().unwrap().heavy;
        assert!(
            late > balanced,
            "heavy nodes should accumulate under drift: {balanced} -> {late}"
        );
    }

    #[test]
    fn frequent_rebalancing_beats_rare_on_quality() {
        let (net, loads, _) = setup(3);
        let run_with = |every: usize, seed: u64| -> f64 {
            let mut net = net.clone();
            let mut loads = loads.clone();
            let mut rng = StdRng::seed_from_u64(seed);
            let cfg = DriftConfig {
                steps: 40,
                rebalance_every: every,
                sigma: 0.1,
            };
            let stats = run_drift(
                &mut net,
                &mut loads,
                &cfg,
                BalancerConfig::default(),
                None,
                &mut rng,
            );
            stats.mean_gini()
        };
        let frequent = run_with(4, 9);
        let rare = run_with(40, 9);
        assert!(
            frequent < rare,
            "frequent rebalancing should keep Gini lower: {frequent:.3} vs {rare:.3}"
        );
    }
}
