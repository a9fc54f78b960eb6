//! The message-level simulation of the tree protocols, under deterministic
//! fault injection.
//!
//! The round counts of [`crate::experiments::rounds_scaling`] abstract away
//! link latencies; the drivers here run the LBI aggregation and the
//! dissemination message by message over the physical topology. A seeded
//! [`FaultPlan`] is the adversary: it drops or delays individual messages,
//! crash-stops peers mid-round (their virtual servers and KT positions die
//! with them), and rewires KT links to stale parents. Against it stands the
//! robustness machinery the paper implies but never specifies: per-message
//! retry with exponential backoff ([`RetryPolicy`]) and sender-side give-up,
//! so a phase *degrades* (partial coverage, reported through
//! [`FaultPhaseOutcome`]) instead of hanging or panicking. Under the
//! identity plan ([`FaultConfig::none`]) every message is delivered after
//! its edge's latency and a phase completes at the analytic root-path
//! latency — this is the one simulator behind claim `latency`, the fault
//! sweep and the engine's DES shadow. A phase is
//! [`ProtocolScratch::bind`] (one flat snapshot of the tree) followed by
//! [`run_aggregation`] or [`run_dissemination`] over it; the
//! `simulate_*_faulty` drivers do both.
//!
//! Everything is a pure function of `(FaultConfig, scenario seed)`: the
//! plan owns its own RNG stream and every fate is drawn in event-queue
//! order, so a faulty run is bit-identical across repeats and thread
//! counts, matching the repo's determinism contract.

use crate::des::{RetryPolicy, SimTime};
use crate::protocol::{PhaseTiming, ProtocolError, ProtocolScratch, NIL};
use proxbal_chord::{ChordNetwork, PeerId};
use proxbal_ktree::{KTree, KtNodeId};
use proxbal_topology::DistanceOracle;
use proxbal_trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Declarative description of one fault regime. Embedded in
/// [`crate::Scenario`] so a faulty experiment round-trips through serde
/// like any other.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability that a single transmission is silently dropped.
    pub loss_rate: f64,
    /// Probability that a transmission is delayed (but delivered).
    pub delay_rate: f64,
    /// Maximum extra delay of a delayed transmission, in latency units.
    pub max_delay: SimTime,
    /// Fraction of peers crash-stopped at random times inside the phase
    /// window (the KT root's host is never picked).
    pub crash_fraction: f64,
    /// Number of KT links rewired to a stale parent before the run.
    pub stale_parents: usize,
    /// Seed of the plan's private RNG stream.
    pub seed: u64,
}

impl FaultConfig {
    /// No faults at all (the identity plan).
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            loss_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 0,
            crash_fraction: 0.0,
            stale_parents: 0,
            seed,
        }
    }

    /// The sweep shape used by `repro faults`: message loss at `rate`,
    /// delays at half that rate, and a crash wave of `rate/2` of the peers.
    /// `rate = 0` degenerates to [`FaultConfig::none`].
    pub fn with_loss(rate: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "loss rate must be in [0, 1)");
        FaultConfig {
            loss_rate: rate,
            delay_rate: rate / 2.0,
            max_delay: 50,
            crash_fraction: rate / 2.0,
            stale_parents: if rate > 0.0 { 3 } else { 0 },
            seed,
        }
    }
}

/// What the plan decides for one transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageFate {
    /// Delivered after the edge latency.
    Deliver,
    /// Delivered after the edge latency plus this much extra delay.
    DelayBy(SimTime),
    /// Silently dropped (the sender times out and retries).
    Drop,
}

/// A seeded source of fault decisions. One plan drives one experiment; its
/// RNG stream is private, so faulty runs never perturb the scenario RNG
/// and the fault-free code paths stay byte-identical.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: StdRng,
}

impl FaultPlan {
    /// Builds the plan for a config (the RNG derives from `cfg.seed`).
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA_17),
        }
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Draws the fate of one transmission. Fates are consumed in
    /// event-queue order, which is deterministic.
    pub fn message_fate(&mut self) -> MessageFate {
        if self.cfg.loss_rate == 0.0 && self.cfg.delay_rate == 0.0 {
            return MessageFate::Deliver;
        }
        let draw: f64 = self.rng.gen();
        if draw < self.cfg.loss_rate {
            MessageFate::Drop
        } else if draw < self.cfg.loss_rate + self.cfg.delay_rate {
            MessageFate::DelayBy(self.rng.gen_range(1..=self.cfg.max_delay.max(1)))
        } else {
            MessageFate::Deliver
        }
    }

    /// Draws the crash-stop schedule: `crash_fraction` of the alive peers
    /// (never `exclude`, the KT root's host) die at uniform times in
    /// `[1, horizon)`.
    pub fn crash_schedule(
        &mut self,
        net: &ChordNetwork,
        exclude: PeerId,
        horizon: SimTime,
    ) -> Vec<(SimTime, PeerId)> {
        use rand::seq::SliceRandom;
        let mut peers = net.alive_peers();
        peers.retain(|&p| p != exclude);
        let n = ((peers.len() as f64) * self.cfg.crash_fraction).round() as usize;
        peers.shuffle(&mut self.rng);
        peers.truncate(n);
        let mut schedule: Vec<(SimTime, PeerId)> = peers
            .into_iter()
            .map(|p| (self.rng.gen_range(1..horizon.max(2)), p))
            .collect();
        schedule.sort_unstable();
        schedule
    }

    /// Picks `stale_parents` KT links to rewire: children at depth ≥ 2
    /// whose parent pointer will be left dangling at the root (the one node
    /// every peer can always locate — exactly the stale pointer a pruned
    /// parent leaves behind). Returns the chosen children in the tree's
    /// preorder, deterministic for the plan's stream and the tree's shape.
    pub fn pick_stale_links(&mut self, tree: &KTree) -> Vec<KtNodeId> {
        use rand::seq::SliceRandom;
        let mut candidates: Vec<KtNodeId> = tree
            .preorder()
            .filter(|&id| tree.node(id).depth() >= 2)
            .collect();
        candidates.shuffle(&mut self.rng);
        candidates.truncate(self.cfg.stale_parents);
        candidates.sort_by_key(|&id| (tree.node(id).region().start(), tree.node(id).depth()));
        candidates
    }

    /// Picks a post-VSA crash wave among `candidates` (typically the
    /// receiving peers of the assignments): `crash_fraction` of them, used
    /// to exercise the transfer-requeue path.
    pub fn pick_transfer_victims(&mut self, candidates: &[PeerId]) -> Vec<PeerId> {
        use rand::seq::SliceRandom;
        let n = ((candidates.len() as f64) * self.cfg.crash_fraction).round() as usize;
        let mut victims = candidates.to_vec();
        victims.shuffle(&mut self.rng);
        victims.truncate(n);
        victims.sort_unstable();
        victims
    }
}

/// Outcome of one fault-injected phase: the usual timing plus coverage and
/// retry accounting. `timing.completion` is the instant the phase resolved
/// (last useful delivery or give-up at the root).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPhaseOutcome {
    /// Message-level timing (messages include retransmissions).
    pub timing: PhaseTiming,
    /// Units whose information made it through (aggregation: contributors
    /// whose whole root path delivered; dissemination: KT nodes reached).
    pub delivered: usize,
    /// Units that had to make it through under no faults.
    pub expected: usize,
    /// Retransmission attempts (subset of `timing.messages`).
    pub retries: usize,
    /// Edges abandoned after the retry budget was exhausted.
    pub gave_up: usize,
}

impl FaultPhaseOutcome {
    /// Fraction of expected units delivered (1.0 when nothing was expected).
    pub fn completion_rate(&self) -> f64 {
        if self.expected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.expected as f64
        }
    }
}

/// One scheduled step of a message's life on a tree edge; nodes are slots
/// of the bound tree.
#[derive(Debug)]
pub(crate) enum FEvent {
    /// `from` (re)transmits its message to `to`; `attempt` is 0-based.
    Send { from: u32, to: u32, attempt: u32 },
    /// The transmission arrives at `to`.
    Deliver { from: u32, to: u32, attempt: u32 },
}

/// Per-run node flag: participates in the current aggregation.
const ACTIVE: u8 = 1;
/// Per-run node flag: contributes its own report to the aggregation.
const CONTRIBUTOR: u8 = 1 << 1;
/// Per-run node flag: the edge from the node to its parent delivered in the
/// current aggregation.
const EDGE_DELIVERED: u8 = 1 << 2;
/// Per-run node flag: already received the current dissemination.
const REACHED: u8 = 1 << 3;

/// Shared state of one phase run: the caller's bound [`ProtocolScratch`]
/// (snapshot, node tables, event queue), the plan and the trace — nothing
/// of the network, the tree or the oracle.
struct FaultRun<'a> {
    scratch: &'a mut ProtocolScratch,
    plan: &'a mut FaultPlan,
    retry: RetryPolicy,
    timing: PhaseTiming,
    retries: usize,
    gave_up: usize,
    trace: &'a mut Trace,
}

impl<'a> FaultRun<'a> {
    fn new(
        scratch: &'a mut ProtocolScratch,
        plan: &'a mut FaultPlan,
        retry: RetryPolicy,
        crashes: &[(SimTime, PeerId)],
        trace: &'a mut Trace,
    ) -> Self {
        scratch.begin_run(crashes);
        FaultRun {
            scratch,
            plan,
            retry,
            timing: PhaseTiming::default(),
            retries: 0,
            gave_up: 0,
            trace,
        }
    }

    /// Pops the next event, sampling the queue depth into the trace.
    fn next_event(&mut self) -> Option<(SimTime, FEvent)> {
        let next = self.scratch.queue.pop()?;
        self.trace
            .record("des_queue_depth", self.scratch.queue.len() as u64);
        Some(next)
    }

    /// Records the end-of-phase counters into the trace and folds the run
    /// into its outcome.
    fn finish(self, delivered: usize, expected: usize) -> FaultPhaseOutcome {
        self.trace
            .count("des_messages", self.timing.messages as u64);
        self.trace.count("des_losses", self.timing.losses as u64);
        self.trace.count("des_retries", self.retries as u64);
        self.trace.count("des_gave_up", self.gave_up as u64);
        self.trace
            .record("des_queue_peak", self.scratch.queue.high_water() as u64);
        FaultPhaseOutcome {
            timing: self.timing,
            delivered,
            expected,
            retries: self.retries,
            gave_up: self.gave_up,
        }
    }

    /// Handles a `Send` at time `t`: draws the fate, schedules the delivery
    /// or the retry chain. Returns `Some(give_up_time)` when the sender
    /// exhausted its retry budget (or died), i.e. the edge failed.
    fn transmit(
        &mut self,
        t: SimTime,
        from: u32,
        to: u32,
        attempt: u32,
    ) -> Result<Option<SimTime>, ProtocolError> {
        if !self.scratch.alive_at(from, t) {
            // Crash-stop mid-retry-chain: the sender is gone; its parent
            // times out after the full remaining window.
            return Ok(Some(t + self.remaining_window(attempt)));
        }
        self.timing.messages += 1;
        if attempt > 0 {
            self.retries += 1;
        }
        // The edge is named by its child end: the one whose parent is the
        // other, whichever way the message travels.
        let child = if self.scratch.parent[from as usize] == to {
            from
        } else {
            to
        };
        let latency = self.scratch.edge_latency(child)?;
        let extra = match self.plan.message_fate() {
            MessageFate::Drop => {
                self.timing.losses += 1;
                return Ok(self.retry_or_fail(t, from, to, attempt));
            }
            MessageFate::DelayBy(extra) => extra,
            MessageFate::Deliver => 0,
        };
        self.scratch
            .queue
            .schedule(t + latency + extra, FEvent::Deliver { from, to, attempt });
        Ok(None)
    }

    /// After a failed attempt at time `t`: schedules the next retry, or
    /// reports the edge's give-up time once the budget is exhausted.
    fn retry_or_fail(&mut self, t: SimTime, from: u32, to: u32, attempt: u32) -> Option<SimTime> {
        let timeout = self.retry.timeout_after(attempt);
        if attempt < self.retry.max_retries {
            self.trace.record("des_backoff_delay", timeout);
            self.scratch.queue.schedule(
                t + timeout,
                FEvent::Send {
                    from,
                    to,
                    attempt: attempt + 1,
                },
            );
            None
        } else {
            self.gave_up += 1;
            Some(t + timeout)
        }
    }

    /// Worst-case remaining wait from attempt `attempt` to final give-up —
    /// the stand-in for the receiver-side wait timer when a sender dies
    /// silently.
    fn remaining_window(&self, attempt: u32) -> SimTime {
        (attempt..=self.retry.max_retries).fold(0, |acc: SimTime, a| {
            acc.saturating_add(self.retry.timeout_after(a))
        })
    }

    /// Aggregation: `node` has heard from (or given up on) every active
    /// child at `t` — it sends upward, or, at the root, resolves the phase.
    fn on_ready(&mut self, node: u32, t: SimTime) {
        match self.scratch.parent[node as usize] {
            NIL => self.timing.completion = self.timing.completion.max(t),
            parent => self.scratch.queue.schedule(
                t,
                FEvent::Send {
                    from: node,
                    to: parent,
                    attempt: 0,
                },
            ),
        }
    }

    /// Aggregation: the edge `child → parent` permanently failed at
    /// `fail_t`. The parent stops waiting; if that makes it ready but it is
    /// dead, its own edge fails one give-up window later, and so on up.
    fn edge_failed(&mut self, child: u32, fail_t: SimTime) {
        let (mut cur, mut t) = (child, fail_t);
        loop {
            let parent = self.scratch.parent[cur as usize];
            if parent == NIL {
                // The root's own information is never "sent"; a failed
                // chain ending at the root just resolves the wait.
                self.timing.completion = self.timing.completion.max(t);
                return;
            }
            let slot = parent as usize;
            self.scratch.pending[slot] -= 1;
            if self.scratch.pending[slot] > 0 {
                return;
            }
            if self.scratch.alive_at(parent, t) {
                self.on_ready(parent, t);
                return;
            }
            // Dead parent became "ready": its upward edge fails after the
            // full give-up window (nobody transmits for it).
            t = t.saturating_add(self.remaining_window(0));
            cur = parent;
        }
    }
}

/// Bottom-up LBI aggregation as individual messages under a fault plan:
/// every KT node on the path from a contributing node to the root forwards
/// upward once all its contributing children have reported (or were given
/// up on). Messages follow the plan's fates, senders retry with exponential
/// backoff and give up after the budget, and peers crash-stop mid-phase. A
/// parent whose child edge permanently failed stops waiting for it (the
/// fold of its wait timer into the give-up instant), so the phase always
/// terminates — with partial coverage instead of an error.
///
/// `contributors` may repeat nodes and come in any order; the simulation is
/// a function of the contributor *set*. Under [`FaultConfig::none`] the
/// completion time equals the analytic maximum root-path latency over the
/// contributing nodes.
///
/// [`ProtocolScratch::bind`] to `tree`, then [`run_aggregation`] without a
/// trace.
#[allow(clippy::too_many_arguments)]
pub fn simulate_aggregation_faulty(
    net: &ChordNetwork,
    tree: &KTree,
    oracle: &DistanceOracle,
    contributors: &[KtNodeId],
    plan: &mut FaultPlan,
    retry: RetryPolicy,
    crashes: &[(SimTime, PeerId)],
    scratch: &mut ProtocolScratch,
) -> Result<FaultPhaseOutcome, ProtocolError> {
    scratch.bind(net, tree, oracle);
    let mut trace = Trace::disabled();
    run_aggregation(scratch, contributors, plan, retry, crashes, &mut trace)
}

/// The aggregation over the tree `scratch` is bound to (see
/// [`simulate_aggregation_faulty`] for the protocol). Records
/// `des_messages` / `des_losses` / `des_retries` / `des_gave_up` counters,
/// the `des_backoff_delay` histogram (one sample per scheduled retry), and
/// `des_queue_depth` (pending events sampled at every pop) /
/// `des_queue_peak`; bit-identical with tracing on or off. Spans are the
/// caller's job — only the caller knows where this phase sits on the
/// virtual timeline.
pub fn run_aggregation(
    scratch: &mut ProtocolScratch,
    contributors: &[KtNodeId],
    plan: &mut FaultPlan,
    retry: RetryPolicy,
    crashes: &[(SimTime, PeerId)],
    trace: &mut Trace,
) -> Result<FaultPhaseOutcome, ProtocolError> {
    let mut run = FaultRun::new(scratch, plan, retry, crashes, trace);
    let bound = run.scratch.flags.len();

    // Active nodes: contributors and all their ancestors. Distinct
    // contributors are the unit of the completion rate.
    let mut distinct = 0usize;
    for &c in contributors {
        let c = run.scratch.index(c);
        let flags = &mut run.scratch.flags[c as usize];
        if *flags & CONTRIBUTOR != 0 {
            continue;
        }
        *flags |= CONTRIBUTOR;
        distinct += 1;
        let mut cur = c;
        while cur != NIL {
            let flags = &mut run.scratch.flags[cur as usize];
            if *flags & ACTIVE != 0 {
                break;
            }
            *flags |= ACTIVE;
            cur = run.scratch.parent[cur as usize];
        }
    }

    // pending[n] = number of active children n still waits for.
    for slot in 0..bound {
        if run.scratch.flags[slot] & ACTIVE == 0 {
            continue;
        }
        let active = |i: usize| {
            let child = run.scratch.child(i);
            child != NIL && run.scratch.flags[child as usize] & ACTIVE != 0
        };
        run.scratch.pending[slot] = run
            .scratch
            .children(slot as u32)
            .filter(|&i| active(i))
            .count() as u32;
    }

    // Leaves of the active set fire at t = 0 in the tree's preorder — a
    // walk from the root through active nodes, children in part order — so
    // fates bind to leaves by the tree's shape, not by its slots.
    let mut walk = std::mem::take(&mut run.scratch.walk);
    walk.clear();
    walk.push(run.scratch.root);
    while let Some(n) = walk.pop() {
        let slot = n as usize;
        if run.scratch.flags[slot] & ACTIVE == 0 {
            continue;
        }
        if run.scratch.pending[slot] != 0 {
            let children = run.scratch.children(n).rev().map(|i| run.scratch.child(i));
            walk.extend(children.filter(|&child| child != NIL));
        } else if run.scratch.alive_at(n, 0) {
            run.on_ready(n, 0);
        } else {
            run.edge_failed(n, run.remaining_window(0));
        }
    }
    run.scratch.walk = walk;

    while let Some((t, ev)) = run.next_event() {
        match ev {
            FEvent::Send { from, to, attempt } => {
                if let Some(fail_t) = run.transmit(t, from, to, attempt)? {
                    run.edge_failed(from, fail_t);
                }
            }
            FEvent::Deliver { from, to, attempt } => {
                if !run.scratch.alive_at(to, t) {
                    // Receiver crashed: no ack, the sender times out.
                    run.timing.losses += 1;
                    if let Some(fail_t) = run.retry_or_fail(t, from, to, attempt) {
                        run.edge_failed(from, fail_t);
                    }
                    continue;
                }
                run.scratch.flags[from as usize] |= EDGE_DELIVERED;
                let slot = to as usize;
                run.scratch.pending[slot] -= 1;
                if run.scratch.pending[slot] == 0 {
                    run.on_ready(to, t);
                }
            }
        }
    }

    debug_assert!(
        distinct == 0 || run.scratch.pending[run.scratch.root as usize] == 0,
        "every waiting chain resolves by construction"
    );

    // A contributor's LBI reached the root iff every edge on its root path
    // delivered (crash-stop losses show up as missing edges: a node that
    // died after receiving never forwarded).
    let delivered = (0..bound)
        .filter(|&slot| run.scratch.flags[slot] & CONTRIBUTOR != 0)
        .filter(|&slot| {
            let mut cur = slot;
            loop {
                let parent = run.scratch.parent[cur];
                if parent == NIL {
                    return true;
                }
                if run.scratch.flags[cur] & EDGE_DELIVERED == 0 {
                    return false;
                }
                cur = parent as usize;
            }
        })
        .count();
    Ok(run.finish(delivered, distinct))
}

/// Top-down dissemination as individual messages under a fault plan: the
/// root broadcasts, every node forwards to its children on arrival;
/// completion is the last first-time delivery. Lost edges orphan their
/// subtree (no upstream propagation needed — an unreached node simply never
/// forwards). Coverage is `delivered / tree.len()`.
///
/// [`ProtocolScratch::bind`] to `tree`, then [`run_dissemination`] without
/// a trace.
pub fn simulate_dissemination_faulty(
    net: &ChordNetwork,
    tree: &KTree,
    oracle: &DistanceOracle,
    plan: &mut FaultPlan,
    retry: RetryPolicy,
    crashes: &[(SimTime, PeerId)],
    scratch: &mut ProtocolScratch,
) -> Result<FaultPhaseOutcome, ProtocolError> {
    scratch.bind(net, tree, oracle);
    let mut trace = Trace::disabled();
    run_dissemination(scratch, plan, retry, crashes, &mut trace)
}

/// The dissemination over the tree `scratch` is bound to (see
/// [`simulate_dissemination_faulty`] for the protocol); same counters and
/// histograms as [`run_aggregation`].
pub fn run_dissemination(
    scratch: &mut ProtocolScratch,
    plan: &mut FaultPlan,
    retry: RetryPolicy,
    crashes: &[(SimTime, PeerId)],
    trace: &mut Trace,
) -> Result<FaultPhaseOutcome, ProtocolError> {
    let mut run = FaultRun::new(scratch, plan, retry, crashes, trace);
    let mut reached = 0usize;

    let fanout = |run: &mut FaultRun<'_>, node: u32, t: SimTime| {
        for i in run.scratch.children(node) {
            let child = run.scratch.child(i);
            if child == NIL {
                continue;
            }
            run.scratch.queue.schedule(
                t,
                FEvent::Send {
                    from: node,
                    to: child,
                    attempt: 0,
                },
            );
        }
    };

    let root = run.scratch.root;
    run.scratch.flags[root as usize] |= REACHED;
    reached += 1;
    fanout(&mut run, root, 0);

    while let Some((t, ev)) = run.next_event() {
        match ev {
            FEvent::Send { from, to, attempt } => {
                // A failed edge orphans `to`'s subtree; nothing to notify.
                let _ = run.transmit(t, from, to, attempt)?;
            }
            FEvent::Deliver { from, to, attempt } => {
                if !run.scratch.alive_at(to, t) {
                    run.timing.losses += 1;
                    let _ = run.retry_or_fail(t, from, to, attempt);
                    continue;
                }
                let flags = &mut run.scratch.flags[to as usize];
                if *flags & REACHED != 0 {
                    continue;
                }
                *flags |= REACHED;
                reached += 1;
                run.timing.completion = run.timing.completion.max(t);
                fanout(&mut run, to, t);
            }
        }
    }
    let expected = run.scratch.len;
    Ok(run.finish(reached, expected))
}

/// Stale-link injection as a pluggable [`EventSource`]: on a fixed epoch
/// cadence, `stale_parents` KT links are rewired to dangle at the root —
/// the pointer damage a pruned parent leaves behind — for the maintenance
/// machinery to repair. The plan is seeded independently of the engine's
/// DES shadow plan (label `0x57A1E`), so link damage and message fates
/// draw from disjoint streams.
///
/// [`EventSource`]: crate::engine::EventSource
pub struct FaultSource {
    plan: FaultPlan,
    interval: usize,
}

impl FaultSource {
    /// Builds the source: stale links are injected on epochs where
    /// `epoch % interval == 0` (`interval = 0` means only at epoch 0).
    pub fn new(cfg: FaultConfig, interval: usize) -> Self {
        let plan = FaultPlan::new(FaultConfig {
            seed: cfg.seed ^ 0x57A1E,
            ..cfg
        });
        FaultSource { plan, interval }
    }
}

impl crate::engine::EventSource for FaultSource {
    fn name(&self) -> &'static str {
        "faults"
    }

    fn on_epoch(
        &mut self,
        epoch: usize,
        _window: u64,
        world: &mut crate::engine::World<'_>,
    ) -> crate::engine::SourceActivity {
        let due = if self.interval == 0 {
            epoch == 0
        } else {
            epoch.is_multiple_of(self.interval)
        };
        let mut activity = crate::engine::SourceActivity::default();
        if due {
            let root = world.tree.root();
            for child in self.plan.pick_stale_links(world.tree) {
                world.tree.inject_stale_parent(child, root);
                activity.stale_links += 1;
            }
        }
        activity
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::root_path_latencies;
    use crate::{Scenario, TopologyKind};

    fn setup() -> (crate::Prepared, KTree) {
        let mut scenario = Scenario::builder().small().seed(60).build();
        scenario.peers = 96;
        scenario.topology = TopologyKind::Tiny;
        let prepared = scenario.prepare();
        let tree = KTree::build(&prepared.net, 2);
        (prepared, tree)
    }

    fn all_report_targets(prepared: &crate::Prepared, tree: &KTree) -> Vec<KtNodeId> {
        let mut targets: Vec<KtNodeId> = prepared
            .net
            .ring()
            .iter()
            .map(|(_, vs)| tree.report_target(&prepared.net, vs))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets
    }

    /// One aggregation of `contributors` in a fresh scratch, no crashes.
    fn aggregate(
        prepared: &crate::Prepared,
        tree: &KTree,
        contributors: &[KtNodeId],
        cfg: FaultConfig,
    ) -> Result<FaultPhaseOutcome, ProtocolError> {
        simulate_aggregation_faulty(
            &prepared.net,
            tree,
            prepared.oracle.as_ref().unwrap(),
            contributors,
            &mut FaultPlan::new(cfg),
            RetryPolicy::protocol_default(),
            &[],
            &mut ProtocolScratch::new(),
        )
    }

    /// Aggregation of every report target, then dissemination, from one
    /// plan under its crash schedule; both phases share `scratch`.
    fn run_phases(
        prepared: &crate::Prepared,
        tree: &KTree,
        cfg: FaultConfig,
        scratch: &mut ProtocolScratch,
    ) -> (FaultPhaseOutcome, FaultPhaseOutcome) {
        let oracle = prepared.oracle.as_ref().unwrap();
        let contributors = all_report_targets(prepared, tree);
        let mut plan = FaultPlan::new(cfg);
        let root_host = prepared.net.vs(tree.node(tree.root()).host()).host;
        let crashes = plan.crash_schedule(&prepared.net, root_host, 300);
        let agg = simulate_aggregation_faulty(
            &prepared.net,
            tree,
            oracle,
            &contributors,
            &mut plan,
            RetryPolicy::protocol_default(),
            &crashes,
            scratch,
        )
        .expect("attached");
        let dis = simulate_dissemination_faulty(
            &prepared.net,
            tree,
            oracle,
            &mut plan,
            RetryPolicy::protocol_default(),
            &crashes,
            scratch,
        )
        .expect("attached");
        (agg, dis)
    }

    fn run_agg(
        prepared: &crate::Prepared,
        tree: &KTree,
        cfg: FaultConfig,
    ) -> (FaultPhaseOutcome, FaultPhaseOutcome) {
        run_phases(prepared, tree, cfg, &mut ProtocolScratch::new())
    }

    #[test]
    fn no_faults_means_full_coverage_and_analytic_timing() {
        let (prepared, tree) = setup();
        let (agg, dis) = run_agg(&prepared, &tree, FaultConfig::none(7));
        for phase in [&agg, &dis] {
            assert_eq!(phase.completion_rate(), 1.0);
            assert_eq!(
                (phase.retries, phase.gave_up, phase.timing.losses),
                (0, 0, 0)
            );
        }
        // With every report target contributing, aggregation completes at
        // the max root-path latency over the contributing nodes.
        let oracle = prepared.oracle.as_ref().unwrap();
        let paths = root_path_latencies(&prepared.net, oracle, &tree);
        let contributors = all_report_targets(&prepared, &tree);
        let analytic = contributors.iter().map(|c| paths[c]).max().unwrap();
        assert_eq!(agg.timing.completion, analytic);
        assert!(agg.timing.messages > 0);
    }

    #[test]
    fn fault_free_dissemination_matches_analytic_latency() {
        let (prepared, tree) = setup();
        let oracle = prepared.oracle.as_ref().unwrap();
        let paths = root_path_latencies(&prepared.net, oracle, &tree);
        let analytic = *paths.values().max().unwrap();
        let disseminate = |scratch: &mut ProtocolScratch| {
            simulate_dissemination_faulty(
                &prepared.net,
                &tree,
                oracle,
                &mut FaultPlan::new(FaultConfig::none(4)),
                RetryPolicy::protocol_default(),
                &[],
                scratch,
            )
            .expect("attached")
        };
        // A downward message costs its edge's latency whichever phase
        // filled the scratch's memo first: fresh, and warmed by aggregation.
        let mut warm = ProtocolScratch::new();
        run_phases(&prepared, &tree, FaultConfig::none(4), &mut warm);
        for scratch in [&mut ProtocolScratch::new(), &mut warm] {
            let dis = disseminate(scratch);
            assert_eq!(dis.timing.completion, analytic);
            // Exactly one message per tree edge when nothing is lost.
            assert_eq!(dis.timing.messages, tree.len() - 1);
            assert_eq!(dis.delivered, tree.len());
        }
    }

    #[test]
    fn partial_contributors_complete_sooner_or_equal() {
        let (prepared, tree) = setup();
        let all = all_report_targets(&prepared, &tree);
        let cfg = FaultConfig::none(2);
        let t_all = aggregate(&prepared, &tree, &all, cfg).expect("attached");
        let t_few = aggregate(&prepared, &tree, &all[..3], cfg).expect("attached");
        assert!(t_few.timing.completion <= t_all.timing.completion);
        assert!(t_few.timing.messages < t_all.timing.messages);
        assert_eq!((t_few.delivered, t_few.expected), (3, 3));
    }

    #[test]
    fn empty_contributor_set_is_trivial() {
        let (prepared, tree) = setup();
        let out = aggregate(&prepared, &tree, &[], FaultConfig::none(5)).expect("attached");
        assert_eq!(out.timing, PhaseTiming::default());
        assert_eq!((out.delivered, out.expected), (0, 0));
    }

    #[test]
    fn unattached_peer_is_a_typed_error() {
        let (mut prepared, tree) = setup();
        let contributors = all_report_targets(&prepared, &tree);
        // Detach every peer: any inter-peer tree edge now has no latency.
        for p in prepared.net.alive_peers() {
            prepared.net.attach(p, u32::MAX);
        }
        let err = aggregate(&prepared, &tree, &contributors, FaultConfig::none(6))
            .expect_err("unattached peers must not simulate");
        assert!(matches!(err, ProtocolError::UnattachedPeer(_)));
    }

    fn lossy(seed: u64) -> FaultConfig {
        FaultConfig {
            loss_rate: 0.2,
            ..FaultConfig::none(seed)
        }
    }

    #[test]
    fn loss_delays_but_completes() {
        let (prepared, tree) = setup();
        let (agg0, dis0) = run_agg(&prepared, &tree, FaultConfig::none(3));
        let (agg, dis) = run_agg(&prepared, &tree, lossy(3));
        for (lossy, reliable) in [(&agg, &agg0), (&dis, &dis0)] {
            assert_eq!(lossy.delivered, lossy.expected);
            assert!(lossy.timing.losses > 0);
            assert!(lossy.timing.messages > reliable.timing.messages);
            assert!(lossy.timing.completion > reliable.timing.completion);
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let (prepared, tree) = setup();
        // One pooled scratch across a sequence of aggregation +
        // dissemination pairs against a fresh scratch per pair.
        let mut pooled = ProtocolScratch::new();
        for seed in 100..104 {
            let fresh = run_agg(&prepared, &tree, lossy(seed));
            assert_eq!(
                run_phases(&prepared, &tree, lossy(seed), &mut pooled),
                fresh
            );
        }
    }

    #[test]
    fn moving_a_virtual_server_rebinds_its_edge_latencies() {
        // A transfer changes `net.vs(host).host` — and with it the latency
        // of every tree edge at that virtual server — without changing the
        // tree's root, length or slot bound.
        let (mut prepared, tree) = setup();
        let contributors = all_report_targets(&prepared, &tree);
        let cfg = FaultConfig::none(8);
        let mut scratch = ProtocolScratch::new();
        let mut warm = |prepared: &crate::Prepared| {
            simulate_aggregation_faulty(
                &prepared.net,
                &tree,
                prepared.oracle.as_ref().unwrap(),
                &contributors,
                &mut FaultPlan::new(cfg),
                RetryPolicy::protocol_default(),
                &[],
                &mut scratch,
            )
            .expect("attached")
        };
        let before = warm(&prepared);

        // Move the hosts of the top of the tree onto the peer farthest from
        // the root's: every root path changes.
        let oracle = prepared.oracle.as_ref().unwrap();
        let underlay = |p: PeerId| prepared.net.peer(p).underlay;
        let root_peer = prepared.net.vs(tree.node(tree.root()).host()).host;
        let far = *prepared
            .net
            .alive_peers()
            .iter()
            .max_by_key(|&&p| (oracle.distance(underlay(root_peer), underlay(p)), p))
            .unwrap();
        let hosts: Vec<_> = tree
            .preorder()
            .filter(|&id| (1..=2).contains(&tree.node(id).depth()))
            .map(|id| tree.node(id).host())
            .collect();
        for vs in hosts {
            if prepared.net.vs(vs).host != far {
                prepared.net.transfer_vs(vs, far);
            }
        }

        let fresh = aggregate(&prepared, &tree, &contributors, cfg).expect("attached");
        assert_ne!(
            fresh.timing.completion, before.timing.completion,
            "the move must change the completion time, or this test shows nothing"
        );
        assert_eq!(warm(&prepared), fresh);
    }

    #[test]
    fn flat_snapshot_runs_match_the_tree_walking_reference() {
        for (k, seed) in [(2, 21), (2, 22), (8, 23)] {
            let (prepared, _) = setup();
            let mut tree = KTree::build(&prepared.net, k);
            let oracle = prepared.oracle.as_ref().unwrap();
            let cfg = FaultConfig::with_loss(0.1, seed);
            let retry = RetryPolicy::protocol_default();

            // The fault sweep's recipe: stale links, then a crash schedule,
            // then both phases from one plan. A third of the report targets
            // stay silent so inactive subtrees exist.
            let mut plan = FaultPlan::new(cfg);
            for child in plan.pick_stale_links(&tree) {
                let root = tree.root();
                tree.inject_stale_parent(child, root);
            }
            let root_host = prepared.net.vs(tree.node(tree.root()).host()).host;
            let crashes = plan.crash_schedule(&prepared.net, root_host, 300);
            assert!(!crashes.is_empty());
            let mut contributors = all_report_targets(&prepared, &tree);
            contributors.retain(|c| c.0 % 3 != 0);
            contributors.extend_from_within(..5);

            let mut ref_plan = plan.clone();
            let mut ref_trace = Trace::enabled("des");
            let ref_agg = reference::aggregation(
                &prepared.net,
                &tree,
                oracle,
                &contributors,
                &mut ref_plan,
                retry,
                &crashes,
                &mut ref_trace,
            );
            let ref_dis = reference::dissemination(
                &prepared.net,
                &tree,
                oracle,
                &mut ref_plan,
                retry,
                &crashes,
                &mut ref_trace,
            );

            let mut trace = Trace::enabled("des");
            let mut scratch = ProtocolScratch::new();
            scratch.bind(&prepared.net, &tree, oracle);
            let agg = run_aggregation(
                &mut scratch,
                &contributors,
                &mut plan,
                retry,
                &crashes,
                &mut trace,
            );
            let dis = run_dissemination(&mut scratch, &mut plan, retry, &crashes, &mut trace);

            assert_eq!((agg, dis), (ref_agg, ref_dis), "k {k}, seed {seed}");
            let agg = agg.expect("attached");
            assert!(agg.retries > 0 && agg.delivered < agg.expected);
            // Counters and histograms (queue depth at every pop, queue
            // peak, backoff delays) in one comparison.
            assert_eq!(
                trace.to_ndjson(),
                ref_trace.to_ndjson(),
                "k {k}, seed {seed}"
            );
            // Both plans drew the same number of fates.
            assert_eq!(plan.message_fate(), ref_plan.message_fate());
        }
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        let (prepared, tree) = setup();
        let cfg = FaultConfig::with_loss(0.1, 42);
        assert_eq!(
            run_agg(&prepared, &tree, cfg),
            run_agg(&prepared, &tree, cfg)
        );
    }

    #[test]
    fn more_loss_means_less_coverage_and_more_retries() {
        let (prepared, tree) = setup();
        let (mild_agg, mild_dis) = run_agg(&prepared, &tree, FaultConfig::with_loss(0.01, 9));
        let (harsh_agg, harsh_dis) = run_agg(&prepared, &tree, FaultConfig::with_loss(0.3, 9));
        assert!(harsh_agg.completion_rate() <= mild_agg.completion_rate());
        assert!(harsh_dis.completion_rate() <= mild_dis.completion_rate());
        assert!(harsh_agg.retries > mild_agg.retries);
        // Mild faults still deliver the vast majority.
        assert!(mild_agg.completion_rate() > 0.8);
        assert!(mild_dis.completion_rate() > 0.8);
    }

    #[test]
    fn crash_stop_takes_subtrees_with_it() {
        let (prepared, tree) = setup();
        // Pure crash regime: no message loss, a tenth of the peers die.
        let cfg = FaultConfig {
            loss_rate: 0.0,
            delay_rate: 0.0,
            max_delay: 0,
            crash_fraction: 0.1,
            stale_parents: 0,
            seed: 5,
        };
        let (agg, dis) = run_agg(&prepared, &tree, cfg);
        assert!(agg.delivered < agg.expected, "crashes must cost coverage");
        assert!(dis.delivered < dis.expected);
        assert!(
            agg.completion_rate() > 0.0,
            "the phase still degrades gracefully"
        );
    }

    #[test]
    fn fate_stream_is_seed_stable() {
        let mut a = FaultPlan::new(FaultConfig::with_loss(0.2, 11));
        let mut b = FaultPlan::new(FaultConfig::with_loss(0.2, 11));
        for _ in 0..100 {
            assert_eq!(a.message_fate(), b.message_fate());
        }
    }
}
