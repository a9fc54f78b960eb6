//! A minimal discrete-event engine: a time-ordered queue with stable FIFO
//! tie-breaking, used by the churn and latency simulations.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Simulated time in abstract latency units.
pub type SimTime = u64;

/// Per-message retry schedule with exponential backoff: attempt `n`
/// (0-based) times out after `base_timeout · backoff^n`, and a sender gives
/// up on an edge after `max_retries` failed attempts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RetryPolicy {
    /// Timeout of the first attempt.
    pub base_timeout: SimTime,
    /// Multiplier applied per failed attempt.
    pub backoff: u32,
    /// Failed attempts after which the sender abandons the edge (so a
    /// message gets `max_retries + 1` transmissions in total).
    pub max_retries: u32,
}

impl RetryPolicy {
    /// The default schedule of the protocol sims: 30 latency units base,
    /// doubling, give up after 5 retries.
    pub fn protocol_default() -> Self {
        RetryPolicy {
            base_timeout: 30,
            backoff: 2,
            max_retries: 5,
        }
    }

    /// Timeout of attempt `attempt` (0-based), saturating on overflow.
    pub fn timeout_after(&self, attempt: u32) -> SimTime {
        let factor = (self.backoff as SimTime).saturating_pow(attempt);
        self.base_timeout.saturating_mul(factor)
    }
}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq).
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Time-ordered event queue. Events scheduled for the same instant pop in
/// scheduling order (deterministic replay).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
            high_water: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Rewinds the queue to an empty state at time 0, keeping the heap's
    /// allocation — lets one queue (and the event objects it will hold) be
    /// pooled across many simulation runs instead of reallocating per run.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.now = 0;
        self.seq = 0;
        self.high_water = 0;
    }

    /// Peak number of simultaneously pending events since construction or
    /// the last [`EventQueue::reset`] — a pure function of the event
    /// schedule, so it is reproducible across runs and thread counts.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Schedules `event` at absolute time `at`. Panics if `at` is in the
    /// past (events may be scheduled at the current instant).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Schedules `event` `delay` units from now.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            debug_assert!(e.time >= self.now);
            self.now = e.time;
            (e.time, e.event)
        })
    }

    /// Drains events until the queue is empty or `horizon` is passed,
    /// calling `handler` for each. Events the handler schedules are
    /// processed too (if within the horizon). Returns the number of events
    /// processed.
    pub fn run_until(
        &mut self,
        horizon: SimTime,
        mut handler: impl FnMut(&mut Self, SimTime, E),
    ) -> usize {
        let mut processed = 0;
        loop {
            match self.heap.peek() {
                Some(e) if e.time <= horizon => {}
                _ => break,
            }
            let (t, ev) = self.pop().expect("peeked");
            handler(self, t, ev);
            processed += 1;
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.now(), 20);
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(5, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    #[should_panic(expected = "past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        q.schedule(1, ());
        q.schedule(2, ());
        q.schedule(3, ());
        q.pop();
        q.pop();
        q.schedule(9, ());
        assert_eq!(q.high_water(), 3);
        q.reset();
        assert_eq!(q.high_water(), 0);
        q.schedule(1, ());
        assert_eq!(q.high_water(), 1);
    }

    #[test]
    fn retry_policy_backs_off_exponentially() {
        let p = RetryPolicy::protocol_default();
        assert_eq!(p.timeout_after(0), 30);
        assert_eq!(p.timeout_after(1), 60);
        assert_eq!(p.timeout_after(2), 120);
        // Saturates instead of overflowing.
        assert_eq!(p.timeout_after(200), SimTime::MAX);
    }

    #[test]
    fn run_until_respects_horizon_and_cascades() {
        let mut q = EventQueue::new();
        q.schedule(1, 0u32);
        let mut seen = Vec::new();
        let n = q.run_until(5, |q, t, depth| {
            seen.push((t, depth));
            if depth < 10 {
                q.schedule_in(2, depth + 1); // cascade: 1, 3, 5, (7 beyond)
            }
        });
        assert_eq!(n, 3);
        assert_eq!(seen, vec![(1, 0), (3, 1), (5, 2)]);
        assert_eq!(q.len(), 1); // the event at t=7 remains
    }
}
