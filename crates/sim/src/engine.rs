//! The continuous-operation engine: churn, load drift, fault injection,
//! tree maintenance and *periodic + emergency* balancing composed on one
//! shared virtual clock.
//!
//! The paper describes periodic LBI reporting and an emergency re-balancing
//! trigger (§3.2) but evaluates only one-shot passes. This module is the
//! one loop that runs the dynamics: time is divided into **epochs** of
//! `EPOCH_LEN` = 10 virtual-time units, every epoch each pluggable
//! [`EventSource`] perturbs the [`World`] (joins, crashes, load drift, stale
//! tree links), the K-nary tree is repaired, and the four-phase balancer
//! runs **incrementally** ([`proxbal_core::LoadBalancer::run_round`]) on
//! the balancing cadence — or immediately, when any node's unit load
//! crosses `EMERGENCY_THRESHOLD` = 4 × the system target between rounds.
//!
//! # Determinism contract
//!
//! Every random choice derives from the scenario's master seed through a
//! labelled stream: each event source owns a private RNG
//! (`derived_rng(label)`), the balancer draws from a per-run engine stream,
//! and fault fates come from the plan's own stream. Nothing depends on
//! wall-clock time or thread identity, so a run's per-epoch time series —
//! and its trace — are byte-identical across repeats and `--threads`
//! settings, and a traced run never perturbs an untraced one.

use crate::churn::ChurnSource;
use crate::des::RetryPolicy;
use crate::drift::{heavy_count, DriftSource};
use crate::faults::{run_aggregation, run_dissemination, FaultPlan, FaultSource};
use crate::metrics::gini;
use crate::protocol::{ProtocolError, ProtocolScratch};
use crate::scenario::underlay_of;
use crate::Prepared;
use proxbal_chord::{ChordNetwork, PeerId};
use proxbal_core::{
    total_moved_load, DirtySet, Error, LoadBalancer, LoadState, RoundCache, RoundWalls,
};
use proxbal_ktree::{KTree, KtNodeId, RepairAction};
use proxbal_profile::{phase, NullSink, ProgressSink};
use proxbal_topology::DistanceOracle;
use proxbal_trace::Trace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::thread::ScopedJoinHandle;

/// RNG stream label of the churn source (see [`Prepared::derived_rng`]).
pub const CHURN_LABEL: u64 = 0xC4A1_0001;
/// RNG stream label of the drift source (see [`Prepared::derived_rng`]).
pub const DRIFT_LABEL: u64 = 0xD21F_0002;
/// RNG stream label of the engine's balancer (see
/// [`Prepared::derived_rng`]) — public so equivalence tests can replay the
/// exact stream against a one-shot [`LoadBalancer::run_round`].
pub const BALANCE_LABEL: u64 = 0xE791_E003;

/// Virtual-time units per epoch: the window the Poisson churn clocks
/// against.
const EPOCH_LEN: u64 = 10;
/// Emergency trigger: balance immediately when any node's unit load
/// `L_i/C_i` exceeds this multiple of the system target `L/C` — the
/// paper's "emergency load balancing … invoked on demand" (§3.2).
const EMERGENCY_THRESHOLD: f64 = 4.0;
/// Extra same-epoch passes while heavy nodes remain (each pass marks its
/// transfer participants dirty and re-runs).
const MAX_EMERGENCY_PASSES: usize = 4;

/// Scheduling knobs of the continuous-operation engine, in epochs. The
/// K-nary tree is repaired every epoch.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of epochs to run.
    pub epochs: usize,
    /// Run the balancer every this many epochs (plus emergencies, plus a
    /// forced final pass on the last epoch).
    pub balance_interval: usize,
    /// Inject the fault plan's stale tree links every this many epochs
    /// (`0` = only once, before the first epoch). Ignored without faults.
    pub stale_link_interval: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            epochs: 50,
            balance_interval: 5,
            stale_link_interval: 10,
        }
    }
}

impl EngineConfig {
    fn validate(&self) -> Result<(), Error> {
        if self.epochs == 0 {
            return Err(Error::InvalidEngineConfig("epochs must be >= 1"));
        }
        if self.balance_interval == 0 {
            return Err(Error::InvalidEngineConfig("balance_interval must be >= 1"));
        }
        Ok(())
    }
}

/// The mutable simulation state an [`EventSource`] perturbs.
pub struct World<'a> {
    /// The Chord overlay.
    pub net: &'a mut ChordNetwork,
    /// Per-VS loads and per-peer capacities.
    pub loads: &'a mut LoadState,
    /// The long-lived K-nary aggregation tree.
    pub tree: &'a mut KTree,
    /// Peers whose load, capacity, or membership changed since the last
    /// balancing round — they re-report at the next one
    /// ([`proxbal_core::DirtySet`]).
    pub dirty: &'a mut BTreeSet<PeerId>,
}

/// What one event source did during one epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceActivity {
    /// Peers that joined.
    pub joins: usize,
    /// Peers that crashed.
    pub crashes: usize,
    /// Virtual servers whose load drifted.
    pub drifted: usize,
    /// Tree links rewired to a stale parent.
    pub stale_links: usize,
}

impl SourceActivity {
    fn merge(&mut self, other: SourceActivity) {
        self.joins += other.joins;
        self.crashes += other.crashes;
        self.drifted += other.drifted;
        self.stale_links += other.stale_links;
    }
}

/// A pluggable perturbation: called once per epoch, in registration order,
/// before maintenance and balancing. Implementations own their RNG stream
/// so sources never perturb each other's randomness.
pub trait EventSource {
    /// Stable name for traces and logs.
    fn name(&self) -> &'static str;
    /// Perturbs the world for one epoch spanning `window` virtual-time
    /// units, reporting what happened.
    fn on_epoch(&mut self, epoch: usize, window: u64, world: &mut World<'_>) -> SourceActivity;
}

/// One row of the engine's per-epoch time series.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct EpochSample {
    /// Epoch index.
    pub epoch: usize,
    /// Alive peers at epoch end.
    pub alive_peers: usize,
    /// Unit-load Gini at epoch end.
    pub gini: f64,
    /// Heavy-node count at epoch end (against fresh system totals).
    pub heavy: usize,
    /// Peers that joined this epoch.
    pub joins: usize,
    /// Peers that crashed this epoch.
    pub crashes: usize,
    /// Stale tree links injected this epoch.
    pub stale_links: usize,
    /// Orphaned subtrees re-attached by maintenance this epoch.
    pub repair_reattached: usize,
    /// Tree nodes pruned by maintenance this epoch.
    pub repair_pruned: usize,
    /// Maintenance rounds run this epoch.
    pub maintenance_rounds: usize,
    /// Whether a balancing round ran this epoch.
    pub balanced: bool,
    /// Whether a balancing round ran this epoch with the emergency
    /// threshold crossed — also when the schedule or the final epoch would
    /// have balanced anyway ([`EngineReport::emergencies`] counts only the
    /// rounds the threshold alone triggered).
    pub emergency: bool,
    /// Balancing passes executed this epoch (> 1 when emergency re-passes
    /// chased residual heavy nodes).
    pub balance_passes: usize,
    /// Load moved by this epoch's balancing.
    pub moved: f64,
    /// Transfers executed by this epoch's balancing.
    pub transfers: usize,
    /// Protocol messages of this epoch's balancing (LBI + dissemination +
    /// VSA record·hops + notifications).
    pub messages: usize,
    /// Messages of the fault-injected DES shadow run (0 without faults).
    pub des_messages: usize,
    /// Retransmissions of the DES shadow run.
    pub des_retries: usize,
}

/// The engine's output: the full time series plus run totals.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EngineReport {
    /// The engine configuration that produced this report.
    pub config: EngineConfig,
    /// One row per epoch.
    pub samples: Vec<EpochSample>,
    /// Total peers joined.
    pub joins: usize,
    /// Total peers crashed.
    pub crashes: usize,
    /// Total stale links injected.
    pub stale_links: usize,
    /// Epochs on which balancing ran.
    pub balances: usize,
    /// Of those, how many the emergency threshold alone triggered: neither
    /// scheduled nor the final epoch. Fewer than the samples flagged
    /// [`EpochSample::emergency`] whenever the threshold is crossed on a
    /// scheduled or final epoch.
    pub emergencies: usize,
    /// Total load moved.
    pub total_moved: f64,
    /// Total transfers executed.
    pub total_transfers: usize,
    /// Total protocol messages.
    pub total_messages: usize,
}

impl EngineReport {
    /// Heavy-node count at the final epoch.
    pub fn final_heavy(&self) -> usize {
        self.samples.last().map_or(0, |s| s.heavy)
    }

    /// Mean unit-load Gini across the timeline.
    pub fn mean_gini(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.gini).sum::<f64>() / self.samples.len() as f64
    }

    /// Serializes the report to the stable pretty-printed JSON artifact the
    /// analyze layer consumes. Field order is declaration order and every
    /// value is virtual-time/seed-derived, so the bytes are identical for a
    /// given `(config, seed)` at any thread count.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("EngineReport serializes infallibly")
    }

    /// Parses a report from JSON — either a bare [`EngineReport`] document
    /// or the `repro engine --json` wrapper (`{"paper", "seed", "scale",
    /// "results": {...}}`), whose `results` field is the report.
    pub fn from_json_str(text: &str) -> Result<EngineReport, String> {
        let doc: serde_json::Value =
            serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let report_value = doc.get("results").unwrap_or(&doc);
        let rendered =
            serde_json::to_string(report_value).map_err(|e| format!("re-render failed: {e:?}"))?;
        serde_json::from_str(&rendered).map_err(|e| format!("not an EngineReport: {e:?}"))
    }
}

fn to_core(e: ProtocolError) -> Error {
    match e {
        ProtocolError::UnattachedPeer(p) => Error::UnattachedPeer(p),
    }
}

/// Runs the continuous-operation engine over a prepared scenario. Event
/// sources come from the scenario itself (`churn`, `drift`, `faults`); the
/// engine composes them with tree maintenance and periodic + emergency
/// balancing per `cfg`. The prepared network and loads are mutated in
/// place.
///
/// With more than one thread (`prepared.threads`) a balancing epoch's DES
/// shadow runs on a second thread beside its round and the quiet epochs
/// after it, and is joined at the next balancing epoch or after the last.
/// A failed shadow is therefore reported there — the same error at any
/// thread count, and ahead of any round failure since its epoch — after
/// the world has moved on to that epoch.
pub fn run_engine(prepared: &mut Prepared, cfg: &EngineConfig) -> Result<EngineReport, Error> {
    run_engine_with(prepared, cfg, &mut Trace::disabled(), &NullSink)
}

/// [`run_engine`] recording one relabelled child trace per epoch (`epoch0`,
/// `epoch1`, …) absorbed in order — the same idiom as
/// [`crate::parallel::map_indexed_traced`], so traces stay deterministic —
/// and emitting one heartbeat line per epoch (epoch k/N, heavy count, alive
/// peers) through `progress`. Heartbeats go to the sink (stderr in
/// practice), never stdout, so they cannot perturb the deterministic time
/// series or trace.
pub fn run_engine_with(
    prepared: &mut Prepared,
    cfg: &EngineConfig,
    trace: &mut Trace,
    progress: &dyn ProgressSink,
) -> Result<EngineReport, Error> {
    cfg.validate()?;
    let scenario = prepared.scenario.clone();
    let derived = |label: u64| prepared.derived_rng(label);

    let balancer = LoadBalancer::new(scenario.balancer).with_threads(prepared.threads);
    // A DES shadow in flight holds one of the run's threads; a round beside
    // it splits its parallel sections over the others.
    let beside_shadow =
        LoadBalancer::new(scenario.balancer).with_threads(prepared.threads.saturating_sub(1));
    let mut tree = KTree::build(&prepared.net, scenario.balancer.k);

    let mut sources: Vec<Box<dyn EventSource>> = Vec::new();
    if let Some(churn) = scenario.churn {
        // Joining peers attach to underlay stub nodes like the initial
        // population did, so proximity queries work for them too.
        let attach_pool = prepared
            .topo
            .as_ref()
            .map(|t| t.stub_nodes())
            .unwrap_or_default();
        sources.push(Box::new(ChurnSource::new(
            churn,
            scenario.vs_per_peer,
            scenario.capacity.clone(),
            scenario.load,
            attach_pool,
            derived(CHURN_LABEL),
        )));
    }
    if let Some(drift) = scenario.drift {
        sources.push(Box::new(DriftSource::new(drift, derived(DRIFT_LABEL))));
    }
    if let Some(faults) = scenario.faults {
        sources.push(Box::new(FaultSource::new(faults, cfg.stale_link_interval)));
    }

    // The DES shadow: on balancing epochs the LBI aggregation and
    // dissemination also run through the fault-injected message simulator,
    // which supplies the loss/retry metrics while the actual balancing
    // operates on ground truth (the same split `fault_sweep` uses — the
    // protocol *state* stays exact, the *transport* statistics degrade).
    // It needs latencies, so it runs only over a topology.
    let oracle = prepared.oracle.as_ref();
    let mut des = scenario
        .faults
        .filter(|_| oracle.is_some())
        .map(|f| (FaultPlan::new(f), ProtocolScratch::new()));

    let mut bal_rng = derived(BALANCE_LABEL);
    let mut cache = RoundCache::new();
    let mut dirty: BTreeSet<PeerId> = BTreeSet::new();

    // Retention accounting for the `kt_reorphaned` trace counter: the
    // regions, as (start, length), of subtrees a repair re-attached,
    // cleared whenever new faults (crashes, stale links) arrive — those
    // legitimately orphan subtrees again. A region re-orphaned *without*
    // intervening faults means a repair did not stick; the committed
    // retention gate requires that never happens.
    let mut retained: BTreeSet<(u32, u64)> = BTreeSet::new();
    let region = |a: &RepairAction| (a.region.start().raw(), a.region.len());

    let mut report = EngineReport {
        config: *cfg,
        samples: Vec::with_capacity(cfg.epochs),
        joins: 0,
        crashes: 0,
        stale_links: 0,
        balances: 0,
        emergencies: 0,
        total_moved: 0.0,
        total_transfers: 0,
        total_messages: 0,
    };

    let threads = prepared.threads;
    let traced = trace.is_enabled();
    std::thread::scope(|scope| {
        // The shadow of the last balancing epoch, in flight until the next
        // bind needs its scratch back, or until the loop ends.
        let mut shadow: Option<Shadow<'_>> = None;
        for epoch in 0..cfg.epochs {
            let mut tr = Trace::new(traced, "");
            tr.relabel(&format!("epoch{epoch}"));
            let clock = epoch as u64 * EPOCH_LEN;

            // 1. Event sources, in registration order.
            let prof = phase("engine/sources");
            let mut activity = SourceActivity::default();
            {
                let mut world = World {
                    net: &mut prepared.net,
                    loads: &mut prepared.loads,
                    tree: &mut tree,
                    dirty: &mut dirty,
                };
                for s in &mut sources {
                    activity.merge(s.on_epoch(epoch, EPOCH_LEN, &mut world));
                }
            }
            drop(prof);

            // 2. Tree maintenance, every epoch (balancing rounds also repair,
            // so this covers the quiet epochs in between).
            let prof = phase("engine/repair");
            if activity.crashes > 0 || activity.stale_links > 0 {
                retained.clear();
            }
            let (repair, actions) =
                tree.repair_traced_with_actions(&prepared.net, 256, clock, &mut tr);
            let reorphaned = actions
                .iter()
                .filter(|a| retained.contains(&region(a)))
                .count();
            if reorphaned > 0 {
                tr.count("kt_reorphaned", reorphaned as u64);
            }
            retained.extend(actions.iter().filter(|a| a.reattached).map(region));
            // Debug builds audit every repair (the engine tests run in
            // debug); release runs pay nothing.
            debug_assert_eq!(
                tree.check_invariants(&prepared.net),
                Ok(()),
                "epoch {epoch}"
            );
            debug_assert_eq!(prepared.net.check_invariants(), Ok(()), "epoch {epoch}");
            drop(prof);

            // 3. Emergency check against ground truth — the engine's stand-in
            // for each node comparing its own L_i/C_i against the last
            // disseminated target. Membership is settled for this epoch (a
            // round moves virtual servers, never peers), so this one walk of
            // the peer table also serves the sample in step 5.
            let prof = phase("engine/sample");
            let totals = prepared.loads.totals(&prepared.net);
            let target_unit = if totals.capacity > 0.0 {
                totals.load / totals.capacity
            } else {
                0.0
            };
            let alive = prepared.net.alive_peers();
            let max_unit = alive
                .iter()
                .map(|&p| prepared.loads.unit_load(&prepared.net, p))
                .fold(0.0_f64, f64::max);
            let emergency = target_unit > 0.0 && max_unit > EMERGENCY_THRESHOLD * target_unit;
            let scheduled = (epoch + 1) % cfg.balance_interval == 0;
            let last = epoch + 1 == cfg.epochs;
            let do_balance = scheduled || emergency || last;
            drop(prof);

            // 4. Balancing: one incremental round, plus emergency re-passes
            // while heavy nodes remain and transfers still happen.
            let mut moved = 0.0;
            let mut transfers = 0usize;
            let mut messages = 0usize;
            let mut passes = 0usize;
            if do_balance {
                // The scratch is about to be bound again: the last shadow
                // lands first.
                land(shadow.take(), &mut des, &mut report, trace)?;
                if let (Some((plan, mut scratch)), Some(oracle)) = (des.take(), oracle) {
                    // Everything the shadow reads of the world is read here:
                    // the tree's structure with every node's host, and every
                    // virtual server's report target. The rest is a job of
                    // (snapshot, plan, oracle) alone.
                    let prof = phase("engine/des/bind");
                    scratch.snapshot(&prepared.net, &tree);
                    let ring = prepared.net.ring().iter();
                    let contributors = tree.report_targets(&prepared.net, ring.map(|(_, vs)| vs));
                    drop(prof);
                    let job =
                        move || run_shadow(epoch, plan, scratch, &contributors, oracle, traced);
                    shadow = Some(if threads > 1 {
                        Shadow::Running(scope.spawn(job))
                    } else {
                        Shadow::Ran(Box::new(job()))
                    });
                }

                let _prof = phase("engine/round");
                // Field by field, not `Prepared::split`: the shadow holds
                // the oracle meanwhile.
                let underlay = underlay_of(
                    &scenario,
                    &prepared.oracle,
                    &prepared.latency_oracle,
                    &prepared.landmarks,
                    &prepared.hop_landmarks,
                );
                // A cold cache means every peer reports fresh regardless of
                // the dirty set; say so explicitly so the message accounting
                // matches a one-shot run.
                let mut round_dirty = if cache.is_empty() {
                    dirty.clear();
                    DirtySet::All
                } else {
                    DirtySet::Peers(std::mem::take(&mut dirty))
                };
                let balancer = match shadow {
                    Some(Shadow::Running(_)) => &beside_shadow,
                    _ => &balancer,
                };
                loop {
                    passes += 1;
                    let round = balancer.run_round(
                        &mut prepared.net,
                        &mut prepared.loads,
                        &mut tree,
                        underlay,
                        &mut cache,
                        &round_dirty,
                        &mut bal_rng,
                        &mut tr,
                        &mut RoundWalls::default(),
                    );
                    let round = match round {
                        Ok(round) => round,
                        Err(e) => {
                            // The shadow ran first in the epoch's order, so
                            // its failure is the one to report.
                            if let Some(s) = shadow.take() {
                                s.join().totals.map_err(to_core)?;
                            }
                            return Err(e);
                        }
                    };
                    moved += total_moved_load(&round.transfers);
                    transfers += round.transfers.len();
                    messages += round.messages.lbi_messages
                        + round.messages.dissemination_messages
                        + round.messages.vsa_record_hops
                        + round.messages.vsa_notifications;
                    let heavy_after = round.heavy_after();
                    let mut participants: BTreeSet<PeerId> = BTreeSet::new();
                    for t in &round.transfers {
                        participants.insert(t.assignment.from);
                        participants.insert(t.assignment.to);
                    }
                    let done = heavy_after == 0
                        || participants.is_empty()
                        || passes > MAX_EMERGENCY_PASSES;
                    // Transfer participants changed load: they re-report at
                    // the next pass (or the next epoch's round).
                    dirty = participants.clone();
                    if done {
                        break;
                    }
                    round_dirty = DirtySet::Peers(participants);
                }
                report.balances += 1;
                if emergency && !scheduled && !last {
                    report.emergencies += 1;
                }
            }

            // 5. Sample the epoch.
            let prof = phase("engine/sample");
            let heavy = heavy_count(&prepared.net, &prepared.loads, scenario.balancer.epsilon);
            let unit_loads: Vec<f64> = alive
                .iter()
                .map(|&p| prepared.loads.unit_load(&prepared.net, p))
                .collect();
            let gini = gini(&unit_loads);
            let alive_peers = alive.len();
            drop(prof);
            tr.span_args(
                "engine/epoch",
                clock,
                EPOCH_LEN,
                &[
                    ("joins", activity.joins.into()),
                    ("crashes", activity.crashes.into()),
                    ("heavy", heavy.into()),
                    ("passes", passes.into()),
                ],
            );
            report.samples.push(EpochSample {
                epoch,
                alive_peers,
                gini,
                heavy,
                joins: activity.joins,
                crashes: activity.crashes,
                stale_links: activity.stale_links,
                repair_reattached: repair.reattached,
                repair_pruned: repair.pruned,
                maintenance_rounds: repair.rounds,
                balanced: do_balance,
                emergency: emergency && do_balance,
                balance_passes: passes,
                moved,
                transfers,
                messages,
                // Filled in when the epoch's shadow lands.
                des_messages: 0,
                des_retries: 0,
            });
            report.joins += activity.joins;
            report.crashes += activity.crashes;
            report.stale_links += activity.stale_links;
            report.total_moved += moved;
            report.total_transfers += transfers;
            report.total_messages += messages;

            progress.event(&format!(
                "engine: epoch {}/{} heavy={heavy} alive={alive_peers}",
                epoch + 1,
                cfg.epochs
            ));

            trace.absorb(tr);
        }
        land(shadow.take(), &mut des, &mut report, trace)
    })?;

    Ok(report)
}

/// The DES shadow of one balancing epoch, run: its message totals (or its
/// failure), its counters and histograms, and the plan and scratch it ran
/// on, handed back for the next balancing epoch.
struct ShadowRun {
    epoch: usize,
    plan: FaultPlan,
    scratch: ProtocolScratch,
    /// `(des_messages, des_retries)`.
    totals: Result<(usize, usize), ProtocolError>,
    trace: Trace,
}

/// A shadow on the scope's second thread, or — at one thread — already run
/// in place at its bind, in the order the epoch always had.
enum Shadow<'scope> {
    Running(ScopedJoinHandle<'scope, ShadowRun>),
    Ran(Box<ShadowRun>),
}

impl Shadow<'_> {
    fn join(self) -> ShadowRun {
        match self {
            Shadow::Running(job) => job
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            Shadow::Ran(run) => *run,
        }
    }
}

/// The shadow's job: the latency half of the bind, then aggregation and
/// dissemination through the fault plan. Reads nothing but its arguments.
fn run_shadow(
    epoch: usize,
    mut plan: FaultPlan,
    mut scratch: ProtocolScratch,
    contributors: &[KtNodeId],
    oracle: &DistanceOracle,
    traced: bool,
) -> ShadowRun {
    let _prof = phase("engine/des/run");
    let mut trace = Trace::new(traced, "");
    scratch.resolve_latencies(oracle);
    let retry = RetryPolicy::protocol_default();
    let mut run = || {
        let agg = run_aggregation(
            &mut scratch,
            contributors,
            &mut plan,
            retry,
            &[],
            &mut trace,
        )?;
        let dis = run_dissemination(&mut scratch, &mut plan, retry, &[], &mut trace)?;
        Ok((
            agg.timing.messages + dis.timing.messages,
            agg.retries + dis.retries,
        ))
    };
    let totals = run();
    ShadowRun {
        epoch,
        plan,
        scratch,
        totals,
        trace,
    }
}

/// Lands the shadow in flight, if any: its totals go into its own epoch's
/// sample, its plan and scratch back to `des`, its failure to the caller.
fn land(
    shadow: Option<Shadow<'_>>,
    des: &mut Option<(FaultPlan, ProtocolScratch)>,
    report: &mut EngineReport,
    trace: &mut Trace,
) -> Result<(), Error> {
    let Some(shadow) = shadow else {
        return Ok(());
    };
    let run = shadow.join();
    // The shadow's trace goes into the run's trace here, not into its own
    // epoch's child, and that leaves the same bytes for two reasons: the
    // DES records counters and histograms, never events, so there is no
    // track whose place could move; and every histogram weight is 1.0, so
    // the f64 sums are exact integers that no merge order can round.
    debug_assert_eq!(run.trace.event_count(), 0);
    trace.absorb(run.trace);
    let (messages, retries) = run.totals.map_err(to_core)?;
    let sample = &mut report.samples[run.epoch];
    sample.des_messages = messages;
    sample.des_retries = retries;
    *des = Some((run.plan, run.scratch));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_core_preserves_protocol_failures() {
        // A protocol failure must not masquerade as an empty network.
        assert_eq!(
            to_core(ProtocolError::UnattachedPeer(PeerId(7))),
            Error::UnattachedPeer(PeerId(7))
        );
    }

    fn tiny_report() -> EngineReport {
        EngineReport {
            config: EngineConfig::default(),
            samples: vec![EpochSample {
                epoch: 0,
                alive_peers: 4,
                gini: 0.25,
                heavy: 1,
                joins: 2,
                crashes: 0,
                stale_links: 3,
                repair_reattached: 3,
                repair_pruned: 0,
                maintenance_rounds: 1,
                balanced: true,
                emergency: false,
                balance_passes: 1,
                moved: 1.5,
                transfers: 2,
                messages: 63,
                des_messages: 0,
                des_retries: 0,
            }],
            joins: 2,
            crashes: 0,
            stale_links: 3,
            balances: 1,
            emergencies: 0,
            total_moved: 1.5,
            total_transfers: 2,
            total_messages: 63,
        }
    }

    #[test]
    fn report_json_roundtrip_bare_and_wrapped() {
        let report = tiny_report();
        let bare = report.to_json_pretty();
        let back = EngineReport::from_json_str(&bare).unwrap();
        assert_eq!(back.to_json_pretty(), bare);

        // The `repro engine --json` wrapper nests the report under
        // `results`; the parser accepts both shapes.
        let wrapped =
            format!("{{\"paper\":\"x\",\"seed\":1,\"scale\":\"small\",\"results\":{bare}}}");
        let back = EngineReport::from_json_str(&wrapped).unwrap();
        assert_eq!(back.to_json_pretty(), bare);

        assert!(EngineReport::from_json_str("{\"nope\":1}").is_err());
        assert!(EngineReport::from_json_str("not json").is_err());
    }
}
