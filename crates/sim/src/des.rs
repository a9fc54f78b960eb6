//! A minimal discrete-event engine: a time-ordered queue with stable FIFO
//! tie-breaking, driven by [`crate::faults`]' message-level simulation of
//! the tree protocols, plus the retry schedule its senders follow.

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

/// Instants covered by the calendar window, `[now, now + WINDOW)`: one FIFO
/// bucket each. A power of two, wide enough for the protocol's whole retry
/// schedule (30 · 2⁵ = 960 units) and for an edge latency on the
/// transit-stub underlays, so the message-level simulations stay out of
/// the overflow tier.
const WINDOW: usize = 2048;
const WORDS: usize = WINDOW / 64;
/// "No slot": end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One pooled event; `next` threads the bucket it waits in, or the free
/// list once it has been popped.
struct Slot<E> {
    next: u32,
    event: Option<E>,
}

/// Time-ordered event queue. Events scheduled for the same instant pop in
/// scheduling order (deterministic replay).
///
/// A calendar queue over the integer clock. An event due within `WINDOW`
/// units of `now` is appended to the FIFO bucket `at % WINDOW`; the window
/// is exactly `WINDOW` instants wide, so a bucket only ever holds events of
/// one instant and "first occupied bucket at or after `now`, front of its
/// list" is the `(time, seq)` minimum a binary heap would pop. Events live
/// in one slab whose slots are linked per bucket and recycled through a
/// free list, so a warm queue schedules and pops without allocating. An
/// event due later waits in a `(time, seq)` min-heap and is moved into its
/// bucket the moment the clock advances far enough to cover it: it was
/// scheduled before anything that can be appended to that bucket directly
/// (which needs `at < now + WINDOW`, true only from then on), and the
/// overflow heap releases same-instant events in `seq` order, so every
/// bucket list stays in scheduling order for any schedule.
pub(crate) struct EventQueue<E> {
    slab: Vec<Slot<E>>,
    /// Head of the free list through `slab`.
    free: u32,
    /// `(head, tail)` of each of the `WINDOW` buckets' lists.
    buckets: Vec<(u32, u32)>,
    /// One bit per bucket: its list is non-empty.
    occupied: [u64; WORDS],
    /// Events waiting in buckets.
    in_window: usize,
    /// Events due at or after `now + WINDOW`.
    overflow: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            buckets: vec![(NIL, NIL); WINDOW],
            occupied: [0; WORDS],
            in_window: 0,
            overflow: BinaryHeap::new(),
            now: 0,
            seq: 0,
            high_water: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Current simulated time (the timestamp of the last popped event).
    #[cfg(test)]
    fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.in_window + self.overflow.len()
    }

    /// Rewinds the queue to an empty state at time 0, keeping the slab's
    /// allocation — lets one queue (and the event objects it will hold) be
    /// pooled across many simulation runs instead of reallocating per run.
    pub(crate) fn reset(&mut self) {
        self.slab.clear();
        self.free = NIL;
        if self.in_window > 0 {
            self.buckets.fill((NIL, NIL));
            self.occupied = [0; WORDS];
            self.in_window = 0;
        }
        self.overflow.clear();
        self.now = 0;
        self.seq = 0;
        self.high_water = 0;
    }

    /// Makes room for `additional` more in-window events, so the schedules
    /// that follow do not allocate.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.slab.reserve_exact(additional);
    }

    /// Peak number of simultaneously pending events since construction or
    /// the last [`EventQueue::reset`] — a pure function of the event
    /// schedule, so it is reproducible across runs and thread counts.
    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    /// Schedules `event` at absolute time `at`. Panics if `at` is in the
    /// past (events may be scheduled at the current instant).
    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        if at - self.now < WINDOW as SimTime {
            self.append(at, event);
        } else {
            self.overflow.push(Entry {
                time: at,
                seq,
                event,
            });
        }
        self.high_water = self.high_water.max(self.len());
    }

    /// Appends `event` to the bucket of instant `at`, which the window
    /// covers.
    fn append(&mut self, at: SimTime, event: E) {
        let slot = if self.free == NIL {
            assert!(self.slab.len() < NIL as usize, "event slab is full");
            self.slab.push(Slot {
                next: NIL,
                event: Some(event),
            });
            (self.slab.len() - 1) as u32
        } else {
            let slot = self.free;
            let s = &mut self.slab[slot as usize];
            self.free = std::mem::replace(&mut s.next, NIL);
            s.event = Some(event);
            slot
        };
        let b = (at % WINDOW as SimTime) as usize;
        let (head, tail) = &mut self.buckets[b];
        if *head == NIL {
            *head = slot;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.slab[*tail as usize].next = slot;
        }
        *tail = slot;
        self.in_window += 1;
    }

    /// The first occupied bucket at or after `now`'s, circularly, and its
    /// instant. Only called with `in_window > 0`.
    fn first_occupied(&self) -> (usize, SimTime) {
        let start = (self.now % WINDOW as SimTime) as usize;
        let (word, bit) = (start / 64, start % 64);
        // The word holding `start` is looked at twice: its high part first,
        // its low part (the far end of the circle) last.
        let bucket = (0..=WORDS)
            .find_map(|i| {
                let w = (word + i) % WORDS;
                let mask = match i {
                    0 => !0u64 << bit,
                    WORDS => !(!0u64 << bit),
                    _ => !0,
                };
                let bits = self.occupied[w] & mask;
                (bits != 0).then(|| w * 64 + bits.trailing_zeros() as usize)
            })
            .expect("in_window > 0 means an occupied bucket");
        let ahead = (bucket + WINDOW - start) % WINDOW;
        (bucket, self.now + ahead as SimTime)
    }

    /// Moves the clock to `t` and every overflow event the window now
    /// covers into its bucket, in `(time, seq)` order.
    fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        self.now = t;
        while let Some(e) = self.overflow.peek() {
            if e.time - t >= WINDOW as SimTime {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            self.append(e.time, e.event);
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.in_window == 0 {
            // Nothing within the window: jump to the earliest overflow
            // event, which brings it (at least) in.
            let t = self.overflow.peek()?.time;
            self.advance_to(t);
        }
        let (b, t) = self.first_occupied();
        let (head, _) = self.buckets[b];
        let s = &mut self.slab[head as usize];
        let event = s.event.take().expect("a linked slot holds an event");
        let next = std::mem::replace(&mut s.next, self.free);
        self.free = head;
        self.buckets[b].0 = next;
        if next == NIL {
            self.buckets[b].1 = NIL;
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.in_window -= 1;
        if t != self.now {
            self.advance_to(t);
        }
        Some((t, event))
    }
}

/// The binary-heap queue the calendar queue replaced, kept as the order
/// reference: `(time, seq)` min-heap, nothing else.
#[cfg(test)]
pub(crate) struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    high_water: usize,
}

#[cfg(test)]
impl<E> HeapQueue<E> {
    pub(crate) fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
            high_water: 0,
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn high_water(&self) -> usize {
        self.high_water
    }

    pub(crate) fn reset(&mut self) {
        *self = Self::new();
    }

    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
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

    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.event)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
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
        let mut q = EventQueue::default();
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
        let mut q = EventQueue::default();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q = EventQueue::default();
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

    /// A delay from the mix that exercises every tier: the current instant
    /// (its bucket may be draining), the same few near instants over and
    /// over (FIFO within a bucket), the window's edge on both sides, and
    /// far beyond it.
    fn random_delay(rng: &mut rand::rngs::StdRng) -> SimTime {
        use rand::Rng;
        let w = WINDOW as SimTime;
        match rng.gen_range(0..8) {
            0 | 1 => 0,
            2 | 3 => rng.gen_range(0..4),
            4 => rng.gen_range(0..w),
            5 => w - 1 + rng.gen_range(0..3),
            6 => rng.gen_range(w..4 * w),
            _ => rng.gen_range(0..40 * w),
        }
    }

    #[test]
    fn calendar_queue_pops_exactly_like_the_heap() {
        use rand::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut q: EventQueue<u32> = EventQueue::default();
            let mut h: HeapQueue<u32> = HeapQueue::new();
            let mut id = 0u32;
            for step in 0..6_000 {
                match rng.gen_range(0..100) {
                    // Bursts of schedules, then bursts of pops, so the
                    // queue both fills past one window and runs dry.
                    0..=54 => {
                        for _ in 0..rng.gen_range(1..6) {
                            let at = q.now() + random_delay(&mut rng);
                            q.schedule(at, id);
                            h.schedule(at, id);
                            id += 1;
                        }
                    }
                    55..=97 => {
                        for _ in 0..rng.gen_range(1..8) {
                            assert_eq!(q.pop(), h.pop(), "seed {seed}, step {step}");
                        }
                    }
                    98 => {
                        // Pops that schedule at the instant being drained
                        // and beyond the window.
                        for _ in 0..rng.gen_range(1..8) {
                            let popped = q.pop();
                            assert_eq!(popped, h.pop(), "seed {seed}, step {step}");
                            let Some((t, _)) = popped.filter(|(_, ev)| ev % 3 == 0) else {
                                continue;
                            };
                            for (at, cascade) in [(t, id), (t + WINDOW as SimTime + 1, id + 1)] {
                                q.schedule(at, cascade);
                                h.schedule(at, cascade);
                            }
                            id += 2;
                        }
                    }
                    _ => {
                        q.reset();
                        h.reset();
                    }
                }
                assert_eq!(
                    (q.len(), q.high_water(), q.now()),
                    (h.len(), h.high_water(), h.now()),
                    "seed {seed}, step {step}"
                );
            }
            while let Some(popped) = h.pop() {
                assert_eq!(q.pop(), Some(popped), "seed {seed}, drain");
            }
            assert_eq!(q.len(), 0);
            assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn far_events_enter_their_bucket_ahead_of_later_schedules() {
        // Scheduled while beyond the window, `1` must still precede `2`,
        // which is appended to the same instant's bucket directly once the
        // clock is close enough.
        let w = WINDOW as SimTime;
        let mut q = EventQueue::default();
        q.schedule(w + 5, 1);
        q.schedule(10, 0);
        assert_eq!(q.pop(), Some((10, 0)));
        q.schedule(w + 5, 2);
        assert_eq!(q.pop(), Some((w + 5, 1)));
        assert_eq!(q.pop(), Some((w + 5, 2)));
        // An empty window jumps straight to the overflow tier.
        q.schedule(10 * w, 3);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((10 * w, 3)));
        assert_eq!(q.now(), 10 * w);
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
}
