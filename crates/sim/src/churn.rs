//! Churn simulation: Poisson joins and crashes drive the DHT while the
//! K-nary tree runs periodic maintenance — the setting behind the paper's
//! self-repair claims (§3.1.1: the tree "can be completely reconstructed in
//! `O(log_K N)` time").

use crate::des::{EventQueue, SimTime};
use proxbal_chord::{ChordNetwork, RoutingState};
use proxbal_ktree::KTree;
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
    /// Virtual servers created by each joining peer.
    pub vs_per_join: usize,
    /// Interval between K-nary tree maintenance rounds.
    pub maintenance_interval: SimTime,
    /// Interval between Chord stabilization (routing repair) rounds.
    pub stabilize_interval: SimTime,
    /// Simulation horizon.
    pub duration: SimTime,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            join_rate: 0.05,
            crash_rate: 0.05,
            vs_per_join: 5,
            maintenance_interval: 10,
            stabilize_interval: 10,
            duration: 1_000,
        }
    }
}

/// What happened during a churn run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ChurnStats {
    /// Peers that joined.
    pub joins: usize,
    /// Peers that crashed.
    pub crashes: usize,
    /// Maintenance rounds executed.
    pub maintenance_rounds: usize,
    /// Tree mutations applied across all maintenance rounds.
    pub tree_mutations: usize,
    /// Rounds needed to re-stabilize after the churn stopped.
    pub final_repair_rounds: usize,
    /// Lookup success rate sampled during churn (stale routing tolerated
    /// via successor lists).
    pub lookup_success_rate: f64,
    /// Lookups sampled.
    pub lookups: usize,
}

#[derive(Debug)]
enum Event {
    Join,
    Crash,
    Maintain,
    Stabilize,
    SampleLookup,
}

/// Exponential inter-arrival delay for a Poisson process of intensity
/// `rate` (rounded up to ≥ 1 time unit).
fn poisson_delay<R: Rng>(rate: f64, rng: &mut R) -> SimTime {
    assert!(rate > 0.0);
    let u: f64 = 1.0 - rng.gen::<f64>();
    ((-u.ln() / rate).ceil() as SimTime).max(1)
}

/// Runs the churn process over `net`/`tree`, returning statistics. The
/// network keeps at least two peers alive at all times (a degenerate ring
/// has no tree to maintain). After the horizon, maintenance runs to
/// stabilization and the tree invariants are verified.
pub fn run_churn<R: Rng>(
    net: &mut ChordNetwork,
    tree: &mut KTree,
    routing: &mut RoutingState,
    cfg: &ChurnConfig,
    rng: &mut R,
) -> ChurnStats {
    let mut stats = ChurnStats::default();
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut lookup_successes = 0usize;

    if cfg.join_rate > 0.0 {
        queue.schedule(poisson_delay(cfg.join_rate, rng), Event::Join);
    }
    if cfg.crash_rate > 0.0 {
        queue.schedule(poisson_delay(cfg.crash_rate, rng), Event::Crash);
    }
    queue.schedule(cfg.maintenance_interval, Event::Maintain);
    queue.schedule(cfg.stabilize_interval, Event::Stabilize);
    queue.schedule(cfg.maintenance_interval / 2 + 1, Event::SampleLookup);

    queue.run_until(cfg.duration, |q, _t, ev| match ev {
        Event::Join => {
            net.join_peer(cfg.vs_per_join, rng);
            stats.joins += 1;
            q.schedule_in(poisson_delay(cfg.join_rate, rng), Event::Join);
        }
        Event::Crash => {
            let alive = net.alive_peers();
            if alive.len() > 2 {
                let victim = *alive.choose(rng).expect("non-empty");
                net.crash_peer(victim);
                stats.crashes += 1;
            }
            q.schedule_in(poisson_delay(cfg.crash_rate, rng), Event::Crash);
        }
        Event::Maintain => {
            stats.tree_mutations += tree.maintain_round(net);
            stats.maintenance_rounds += 1;
            q.schedule_in(cfg.maintenance_interval, Event::Maintain);
        }
        Event::Stabilize => {
            // Incremental, protocol-faithful repair: successor refresh plus
            // one finger per VS per round.
            routing.stabilize_round(net);
            q.schedule_in(cfg.stabilize_interval, Event::Stabilize);
        }
        Event::SampleLookup => {
            let vss: Vec<_> = net.ring().iter().map(|(_, v)| v).collect();
            if !vss.is_empty() {
                let from = *vss.choose(rng).expect("non-empty");
                let key = proxbal_id::Id::new(rng.gen());
                let out = routing.lookup(net, from, key);
                stats.lookups += 1;
                if out.result == net.ring().owner(key) {
                    lookup_successes += 1;
                }
            }
            q.schedule_in(cfg.maintenance_interval, Event::SampleLookup);
        }
    });

    stats.final_repair_rounds = tree.maintain_until_stable(net, 128);
    tree.check_invariants(net)
        .expect("tree must satisfy invariants after repair");
    routing.stabilize(net);
    stats.lookup_success_rate = if stats.lookups == 0 {
        1.0
    } else {
        lookup_successes as f64 / stats.lookups as f64
    };
    stats
}

/// Poisson membership churn as a pluggable [`EventSource`]: joins and
/// crashes whose inter-arrival times accumulate across epoch windows, so
/// the event stream is identical to one long continuous run regardless of
/// how the engine slices time. A joining peer brings a fresh capacity
/// class, absorbs its region shares from its successors, and samples its
/// intrinsic load from the model.
///
/// [`EventSource`]: crate::engine::EventSource
pub struct ChurnSource {
    cfg: ChurnConfig,
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
        let p = world.net.join_peer(self.cfg.vs_per_join, &mut self.rng);
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
        // Drain both Poisson streams in time order (joins win ties), the
        // same interleaving the event queue of `run_churn` produces.
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

    fn setup(seed: u64) -> (ChordNetwork, KTree, RoutingState, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = ChordNetwork::new();
        for _ in 0..32 {
            net.join_peer(3, &mut rng);
        }
        let tree = KTree::build(&net, 2);
        let routing = RoutingState::build(&net);
        (net, tree, routing, rng)
    }

    #[test]
    fn churn_run_repairs_tree() {
        let (mut net, mut tree, mut routing, mut rng) = setup(1);
        let cfg = ChurnConfig::default();
        let stats = run_churn(&mut net, &mut tree, &mut routing, &cfg, &mut rng);
        assert!(stats.joins > 10, "joins {}", stats.joins);
        assert!(stats.crashes > 10, "crashes {}", stats.crashes);
        assert!(stats.maintenance_rounds > 50);
        assert!(stats.tree_mutations > 0);
        net.check_invariants().unwrap();
        // Every surviving VS has a self-hosted report target again.
        for (_, vs) in net.ring().iter() {
            assert_eq!(tree.node(tree.report_target(&net, vs)).host(), vs);
        }
    }

    #[test]
    fn churn_lookups_mostly_succeed() {
        let (mut net, mut tree, mut routing, mut rng) = setup(2);
        let cfg = ChurnConfig {
            duration: 2_000,
            ..ChurnConfig::default()
        };
        let stats = run_churn(&mut net, &mut tree, &mut routing, &cfg, &mut rng);
        assert!(stats.lookups > 50);
        assert!(
            stats.lookup_success_rate > 0.85,
            "success rate {}",
            stats.lookup_success_rate
        );
    }

    #[test]
    fn quiescent_churn_changes_nothing() {
        let (mut net, mut tree, mut routing, mut rng) = setup(3);
        let cfg = ChurnConfig {
            join_rate: 0.0,
            crash_rate: 0.0,
            duration: 100,
            ..ChurnConfig::default()
        };
        let before = net.alive_peers().len();
        let stats = run_churn(&mut net, &mut tree, &mut routing, &cfg, &mut rng);
        assert_eq!(stats.joins + stats.crashes, 0);
        assert_eq!(stats.tree_mutations, 0);
        assert_eq!(stats.final_repair_rounds, 0);
        assert_eq!(net.alive_peers().len(), before);
        assert!((stats.lookup_success_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_delays_positive() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            assert!(poisson_delay(0.5, &mut rng) >= 1);
        }
    }
}
