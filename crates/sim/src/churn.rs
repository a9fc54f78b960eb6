//! Churn: Poisson joins and crashes as an [`EventSource`] of the engine,
//! whose per-epoch K-nary tree repair is the setting behind the paper's
//! self-repair claims (§3.1.1: the tree "can be completely reconstructed in
//! `O(log_K N)` time").
//!
//! [`EventSource`]: crate::engine::EventSource

use crate::des::SimTime;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Churn process parameters. Rates are Poisson intensities per time unit.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Mean joins per time unit.
    pub join_rate: f64,
    /// Mean crashes per time unit.
    pub crash_rate: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            join_rate: 0.05,
            crash_rate: 0.05,
        }
    }
}

/// Exponential inter-arrival delay for a Poisson process of intensity
/// `rate` (rounded up to ≥ 1 time unit).
fn poisson_delay<R: Rng>(rate: f64, rng: &mut R) -> SimTime {
    assert!(rate > 0.0);
    let u: f64 = 1.0 - rng.gen::<f64>();
    ((-u.ln() / rate).ceil() as SimTime).max(1)
}

/// Poisson membership churn as a pluggable [`EventSource`]: joins and
/// crashes whose inter-arrival times accumulate across epoch windows, so
/// the event stream is identical to one long continuous run regardless of
/// how the engine slices time. A joining peer brings the scenario's
/// `vs_per_peer` virtual servers and a fresh capacity class, absorbs its
/// region shares from its successors, and samples its intrinsic load from
/// the model.
///
/// [`EventSource`]: crate::engine::EventSource
pub struct ChurnSource {
    cfg: ChurnConfig,
    vs_per_peer: usize,
    capacity: proxbal_workload::CapacityProfile,
    load_model: proxbal_workload::LoadModel,
    /// Underlay stub nodes joining peers attach to (end hosts live in stub
    /// domains, like the initial population). Empty without a topology.
    attach_pool: Vec<u32>,
    rng: rand::rngs::StdRng,
    now: SimTime,
    next_join: SimTime,
    next_crash: SimTime,
}

impl ChurnSource {
    /// Builds the source; `rng` must be a private stream (e.g.
    /// `Prepared::derived_rng`) so churn never perturbs other randomness.
    /// `attach_pool` holds the underlay nodes joining peers may attach to —
    /// required whenever the scenario has a topology, or proximity queries
    /// for the newcomers would fail.
    pub fn new(
        cfg: ChurnConfig,
        vs_per_peer: usize,
        capacity: proxbal_workload::CapacityProfile,
        load_model: proxbal_workload::LoadModel,
        attach_pool: Vec<u32>,
        mut rng: rand::rngs::StdRng,
    ) -> Self {
        let next_join = if cfg.join_rate > 0.0 {
            poisson_delay(cfg.join_rate, &mut rng)
        } else {
            SimTime::MAX
        };
        let next_crash = if cfg.crash_rate > 0.0 {
            poisson_delay(cfg.crash_rate, &mut rng)
        } else {
            SimTime::MAX
        };
        ChurnSource {
            cfg,
            vs_per_peer,
            capacity,
            load_model,
            attach_pool,
            rng,
            now: 0,
            next_join,
            next_crash,
        }
    }

    fn join(&mut self, world: &mut crate::engine::World<'_>) {
        let p = world.net.join_peer(self.vs_per_peer, &mut self.rng);
        if let Some(&node) = self.attach_pool.choose(&mut self.rng) {
            world.net.attach(p, node);
        }
        let class = self.capacity.sample_class(&mut self.rng);
        world.loads.set_class(p, class);
        world
            .loads
            .set_capacity(p, self.capacity.capacity_of(class));
        let vss: Vec<_> = world.net.vss_of(p).to_vec();
        for vs in vss {
            // The successor sheds part of its region (and load) to the
            // newcomer — both peers changed, both re-report.
            if let Some((_, succ)) = world.net.ring().successor_after(world.net.vs(vs).position) {
                world.dirty.insert(world.net.vs(succ).host);
            }
            proxbal_core::absorb_join(world.net, world.loads, vs);
            let f = world.net.region_of(vs).fraction();
            world
                .loads
                .add_vs_load(vs, self.load_model.sample_vs_load(f, &mut self.rng));
        }
        world.dirty.insert(p);
    }

    fn crash(&mut self, world: &mut crate::engine::World<'_>) -> bool {
        let alive = world.net.alive_peers();
        if alive.len() <= 4 {
            return false;
        }
        let victim = *alive.choose(&mut self.rng).expect("non-empty");
        let positions: Vec<_> = world
            .net
            .vss_of(victim)
            .iter()
            .map(|&v| world.net.vs(v).position)
            .collect();
        world.net.crash_peer(victim);
        world.dirty.remove(&victim);
        // The successors that absorbed the dead regions notice the
        // departure and re-report.
        for pos in positions {
            if let Some((_, succ)) = world.net.ring().successor_after(pos) {
                world.dirty.insert(world.net.vs(succ).host);
            }
        }
        true
    }
}

impl crate::engine::EventSource for ChurnSource {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn on_epoch(
        &mut self,
        _epoch: usize,
        window: SimTime,
        world: &mut crate::engine::World<'_>,
    ) -> crate::engine::SourceActivity {
        let mut activity = crate::engine::SourceActivity::default();
        let end = self.now.saturating_add(window);
        // Drain both Poisson streams in time order (joins win ties).
        while self.next_join.min(self.next_crash) <= end {
            if self.next_join <= self.next_crash {
                self.join(world);
                activity.joins += 1;
                self.next_join = self
                    .next_join
                    .saturating_add(poisson_delay(self.cfg.join_rate, &mut self.rng));
            } else {
                if self.crash(world) {
                    activity.crashes += 1;
                }
                self.next_crash = self
                    .next_crash
                    .saturating_add(poisson_delay(self.cfg.crash_rate, &mut self.rng));
            }
        }
        self.now = end;
        activity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_delays_positive() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            assert!(poisson_delay(0.5, &mut rng) >= 1);
        }
    }
}
