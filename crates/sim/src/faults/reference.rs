//! The phase simulations as they ran before the flat snapshot, kept as the
//! reference the production drivers are differentially tested against:
//! every step looks its node up in the [`KTree`], its host in the
//! [`ChordNetwork`], its latency in the oracle, its crash instant and its
//! per-run state in hash maps, and events go through the binary-heap queue. Same fates, same
//! event order, same trace counters — only the data access differs.

use super::{FaultPhaseOutcome, FaultPlan, MessageFate};
use crate::des::{HeapQueue, RetryPolicy, SimTime};
use crate::protocol::{PhaseTiming, ProtocolError};
use proxbal_chord::{ChordNetwork, PeerId};
use proxbal_ktree::{KTree, KtNodeId};
use proxbal_topology::DistanceOracle;
use proxbal_trace::Trace;
use std::collections::{HashMap, HashSet};

enum Event {
    Send {
        from: KtNodeId,
        to: KtNodeId,
        attempt: u32,
    },
    Deliver {
        from: KtNodeId,
        to: KtNodeId,
        attempt: u32,
    },
}

struct Run<'a> {
    net: &'a ChordNetwork,
    tree: &'a KTree,
    oracle: &'a DistanceOracle,
    plan: &'a mut FaultPlan,
    retry: RetryPolicy,
    crash_at: HashMap<PeerId, SimTime>,
    pending: HashMap<KtNodeId, u32>,
    queue: HeapQueue<Event>,
    timing: PhaseTiming,
    retries: usize,
    gave_up: usize,
    trace: &'a mut Trace,
}

impl<'a> Run<'a> {
    fn new(
        net: &'a ChordNetwork,
        tree: &'a KTree,
        oracle: &'a DistanceOracle,
        plan: &'a mut FaultPlan,
        retry: RetryPolicy,
        crashes: &[(SimTime, PeerId)],
        trace: &'a mut Trace,
    ) -> Self {
        Run {
            net,
            tree,
            oracle,
            plan,
            retry,
            crash_at: crashes.iter().map(|&(t, p)| (p, t)).collect(),
            pending: HashMap::new(),
            queue: HeapQueue::new(),
            timing: PhaseTiming::default(),
            retries: 0,
            gave_up: 0,
            trace,
        }
    }

    fn next_event(&mut self) -> Option<(SimTime, Event)> {
        let next = self.queue.pop()?;
        self.trace
            .record("des_queue_depth", self.queue.len() as u64);
        Some(next)
    }

    fn finish(self, delivered: usize, expected: usize) -> FaultPhaseOutcome {
        self.trace
            .count("des_messages", self.timing.messages as u64);
        self.trace.count("des_losses", self.timing.losses as u64);
        self.trace.count("des_retries", self.retries as u64);
        self.trace.count("des_gave_up", self.gave_up as u64);
        self.trace
            .record("des_queue_peak", self.queue.high_water() as u64);
        FaultPhaseOutcome {
            timing: self.timing,
            delivered,
            expected,
            retries: self.retries,
            gave_up: self.gave_up,
        }
    }

    fn host(&self, id: KtNodeId) -> PeerId {
        self.net.vs(self.tree.node(id).host()).host
    }

    fn alive_at(&self, id: KtNodeId, t: SimTime) -> bool {
        self.crash_at.get(&self.host(id)).is_none_or(|&ct| t < ct)
    }

    fn edge_latency(&self, a: KtNodeId, b: KtNodeId) -> Result<SimTime, ProtocolError> {
        let (child, parent) = if self.tree.node(a).parent() == Some(b) {
            (a, b)
        } else {
            (b, a)
        };
        let (a, b) = (self.host(child), self.host(parent));
        if a == b {
            return Ok(0);
        }
        let (ua, ub) = (self.net.peer(a).underlay, self.net.peer(b).underlay);
        if ua == u32::MAX {
            return Err(ProtocolError::UnattachedPeer(a));
        }
        if ub == u32::MAX {
            return Err(ProtocolError::UnattachedPeer(b));
        }
        Ok(SimTime::from(self.oracle.distance(ua, ub)))
    }

    fn transmit(
        &mut self,
        t: SimTime,
        from: KtNodeId,
        to: KtNodeId,
        attempt: u32,
    ) -> Result<Option<SimTime>, ProtocolError> {
        if !self.alive_at(from, t) {
            return Ok(Some(t + self.remaining_window(attempt)));
        }
        self.timing.messages += 1;
        if attempt > 0 {
            self.retries += 1;
        }
        let latency = self.edge_latency(from, to)?;
        let extra = match self.plan.message_fate() {
            MessageFate::Drop => {
                self.timing.losses += 1;
                return Ok(self.retry_or_fail(t, from, to, attempt));
            }
            MessageFate::DelayBy(extra) => extra,
            MessageFate::Deliver => 0,
        };
        self.queue
            .schedule(t + latency + extra, Event::Deliver { from, to, attempt });
        Ok(None)
    }

    fn retry_or_fail(
        &mut self,
        t: SimTime,
        from: KtNodeId,
        to: KtNodeId,
        attempt: u32,
    ) -> Option<SimTime> {
        let timeout = self.retry.timeout_after(attempt);
        if attempt < self.retry.max_retries {
            self.trace.record("des_backoff_delay", timeout);
            self.queue.schedule(
                t + timeout,
                Event::Send {
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

    fn remaining_window(&self, attempt: u32) -> SimTime {
        (attempt..=self.retry.max_retries).fold(0, |acc: SimTime, a| {
            acc.saturating_add(self.retry.timeout_after(a))
        })
    }

    fn on_ready(&mut self, node: KtNodeId, t: SimTime) {
        match self.tree.node(node).parent() {
            Some(parent) => self.queue.schedule(
                t,
                Event::Send {
                    from: node,
                    to: parent,
                    attempt: 0,
                },
            ),
            None => self.timing.completion = self.timing.completion.max(t),
        }
    }

    fn edge_failed(&mut self, child: KtNodeId, fail_t: SimTime) {
        let (mut cur, mut t) = (child, fail_t);
        loop {
            let Some(parent) = self.tree.node(cur).parent() else {
                self.timing.completion = self.timing.completion.max(t);
                return;
            };
            let pending = self.pending.entry(parent).or_default();
            *pending -= 1;
            if *pending > 0 {
                return;
            }
            if self.alive_at(parent, t) {
                self.on_ready(parent, t);
                return;
            }
            t = t.saturating_add(self.remaining_window(0));
            cur = parent;
        }
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn aggregation(
    net: &ChordNetwork,
    tree: &KTree,
    oracle: &DistanceOracle,
    contributors: &[KtNodeId],
    plan: &mut FaultPlan,
    retry: RetryPolicy,
    crashes: &[(SimTime, PeerId)],
    trace: &mut Trace,
) -> Result<FaultPhaseOutcome, ProtocolError> {
    let mut run = Run::new(net, tree, oracle, plan, retry, crashes, trace);
    let mut active = HashSet::new();
    let mut edge_delivered = HashSet::new();

    for &c in contributors {
        let mut cur = Some(c);
        while let Some(id) = cur {
            if !active.insert(id) {
                break;
            }
            cur = tree.node(id).parent();
        }
    }
    let mut distinct: Vec<KtNodeId> = contributors.to_vec();
    distinct.sort_unstable();
    distinct.dedup();

    for &id in &active {
        let children = tree.node(id).children().flatten();
        let waits = children.filter(|c| active.contains(c)).count() as u32;
        run.pending.insert(id, waits);
    }
    for n in tree.preorder().filter(|n| active.contains(n)) {
        if run.pending[&n] != 0 {
            continue;
        }
        if run.alive_at(n, 0) {
            run.on_ready(n, 0);
        } else {
            run.edge_failed(n, run.remaining_window(0));
        }
    }

    while let Some((t, ev)) = run.next_event() {
        match ev {
            Event::Send { from, to, attempt } => {
                if let Some(fail_t) = run.transmit(t, from, to, attempt)? {
                    run.edge_failed(from, fail_t);
                }
            }
            Event::Deliver { from, to, attempt } => {
                if !run.alive_at(to, t) {
                    run.timing.losses += 1;
                    if let Some(fail_t) = run.retry_or_fail(t, from, to, attempt) {
                        run.edge_failed(from, fail_t);
                    }
                    continue;
                }
                edge_delivered.insert(from);
                let pending = run.pending.entry(to).or_default();
                *pending -= 1;
                if *pending == 0 {
                    run.on_ready(to, t);
                }
            }
        }
    }

    let delivered = distinct
        .iter()
        .filter(|&&c| {
            let mut cur = c;
            while let Some(parent) = tree.node(cur).parent() {
                if !edge_delivered.contains(&cur) {
                    return false;
                }
                cur = parent;
            }
            true
        })
        .count();
    Ok(run.finish(delivered, distinct.len()))
}

pub(crate) fn dissemination(
    net: &ChordNetwork,
    tree: &KTree,
    oracle: &DistanceOracle,
    plan: &mut FaultPlan,
    retry: RetryPolicy,
    crashes: &[(SimTime, PeerId)],
    trace: &mut Trace,
) -> Result<FaultPhaseOutcome, ProtocolError> {
    let mut run = Run::new(net, tree, oracle, plan, retry, crashes, trace);
    let mut delivered = HashSet::new();
    let mut reached = 0usize;

    let fanout = |run: &mut Run<'_>, node: KtNodeId, t: SimTime| {
        for child in tree.node(node).children().flatten() {
            run.queue.schedule(
                t,
                Event::Send {
                    from: node,
                    to: child,
                    attempt: 0,
                },
            );
        }
    };

    delivered.insert(tree.root());
    reached += 1;
    fanout(&mut run, tree.root(), 0);

    while let Some((t, ev)) = run.next_event() {
        match ev {
            Event::Send { from, to, attempt } => {
                let _ = run.transmit(t, from, to, attempt)?;
            }
            Event::Deliver { from, to, attempt } => {
                if !run.alive_at(to, t) {
                    run.timing.losses += 1;
                    let _ = run.retry_or_fail(t, from, to, attempt);
                    continue;
                }
                if !delivered.insert(to) {
                    continue;
                }
                reached += 1;
                run.timing.completion = run.timing.completion.max(t);
                fanout(&mut run, to, t);
            }
        }
    }
    Ok(run.finish(reached, tree.len()))
}
