//! Deterministic structured tracing and metrics for the proxbal workspace.
//!
//! Every event is stamped with **virtual time** (DES ticks or protocol
//! rounds), never wall-clock, so a trace is a pure function of
//! `(seed, fault plan)` — byte-identical at any `--threads` setting. The
//! deterministic parallel sweep engine gives each job its own child
//! [`Trace`] and merges them back in index order ([`Trace::absorb`]), which
//! is what keeps the merged event stream stable under work stealing.
//!
//! A disabled collector ([`Trace::disabled`]) early-returns from every
//! recording call without allocating, so the instrumented hot paths keep
//! their PR 1/2 performance when tracing is off.
//!
//! Three kinds of data are collected:
//!
//! - **spans / instants** ([`Event`]) on named tracks, exported to a
//!   newline-JSON event log and a chrome://tracing `trace.json`;
//! - **counters** (`u64` and `f64`), merged additively across child traces;
//! - **histograms** ([`Histogram`]) with power-of-two buckets and optional
//!   per-observation weights (e.g. load moved per hop).

mod export;
mod hist;
mod summary;

pub use hist::Histogram;
pub use summary::{CounterTotal, HistogramRow, SpanTotal, TraceSummary};

use std::collections::BTreeMap;

/// Virtual-time stamp: DES ticks or protocol rounds, depending on the layer.
pub type VirtualTime = u64;

/// A typed event/span argument value.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::U64(u64::from(v))
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::I64(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// Whether an [`Event`] covers an interval or a single point in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// An interval `[ts, ts + dur)` of virtual time.
    Span,
    /// A point event at `ts` (`dur` is always 0).
    Instant,
}

/// One recorded span or instant on a track.
#[derive(Clone, Debug)]
pub struct Event {
    pub name: String,
    pub ts: VirtualTime,
    pub dur: VirtualTime,
    pub kind: EventKind,
    pub args: Vec<(&'static str, ArgValue)>,
}

/// A named sequence of events; exported as one chrome://tracing thread.
#[derive(Clone, Debug)]
pub(crate) struct Track {
    pub(crate) name: String,
    pub(crate) events: Vec<Event>,
}

/// The trace collector.
///
/// A `Trace` owns one track of its own (named by its label) plus any tracks
/// absorbed from child traces. Counters and histograms are global to the
/// trace and merge additively on [`Trace::absorb`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    enabled: bool,
    label: String,
    own: Vec<Event>,
    children: Vec<Track>,
    counters: BTreeMap<String, u64>,
    fcounters: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

impl Trace {
    /// A collector that records nothing; every method early-returns.
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// An enabled collector whose own track is named `label`.
    pub fn enabled(label: &str) -> Self {
        Trace {
            enabled: true,
            label: label.to_owned(),
            ..Trace::default()
        }
    }

    /// Enabled or disabled collector depending on `on` — the common shape at
    /// call sites that thread a parent's enablement into per-job children.
    pub fn new(on: bool, label: &str) -> Self {
        if on {
            Trace::enabled(label)
        } else {
            Trace::disabled()
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub fn label(&self) -> &str {
        &self.label
    }

    /// Rename this trace's own track (and the prefix applied on absorb).
    pub fn relabel(&mut self, label: &str) {
        if self.enabled {
            self.label = label.to_owned();
        }
    }

    /// Record a span `[ts, ts + dur)` of virtual time.
    #[inline]
    pub fn span(&mut self, name: &str, ts: VirtualTime, dur: VirtualTime) {
        self.span_args(name, ts, dur, &[]);
    }

    /// Record a span with arguments.
    pub fn span_args(
        &mut self,
        name: &str,
        ts: VirtualTime,
        dur: VirtualTime,
        args: &[(&'static str, ArgValue)],
    ) {
        if !self.enabled {
            return;
        }
        self.own.push(Event {
            name: name.to_owned(),
            ts,
            dur,
            kind: EventKind::Span,
            args: args.to_vec(),
        });
    }

    /// Record a point event at `ts`.
    #[inline]
    pub fn instant(&mut self, name: &str, ts: VirtualTime) {
        self.instant_args(name, ts, &[]);
    }

    /// Record a point event with arguments.
    pub fn instant_args(&mut self, name: &str, ts: VirtualTime, args: &[(&'static str, ArgValue)]) {
        if !self.enabled {
            return;
        }
        self.own.push(Event {
            name: name.to_owned(),
            ts,
            dur: 0,
            kind: EventKind::Instant,
            args: args.to_vec(),
        });
    }

    /// Add `n` to the integer counter `name`. Allocates the name only on
    /// first sight: a round counts per rendezvous point and per transfer.
    #[inline]
    pub fn count(&mut self, name: &str, n: u64) {
        if !self.enabled {
            return;
        }
        match self.counters.get_mut(name) {
            Some(counter) => *counter += n,
            None => {
                self.counters.insert(name.to_owned(), n);
            }
        }
    }

    /// Add `x` to the floating-point counter `name`.
    #[inline]
    pub fn count_f64(&mut self, name: &str, x: f64) {
        if !self.enabled {
            return;
        }
        *self.fcounters.entry(name.to_owned()).or_insert(0.0) += x;
    }

    /// Record one observation of `value` in histogram `name`.
    #[inline]
    pub fn record(&mut self, name: &str, value: u64) {
        self.record_weighted(name, value, 1.0);
    }

    /// Record an observation of `value` carrying `weight` (e.g. load moved
    /// at hop-distance `value`).
    pub fn record_weighted(&mut self, name: &str, value: u64, weight: f64) {
        if !self.enabled {
            return;
        }
        // Hot in the message-level DES (a sample per popped event): look the
        // histogram up by `&str`, allocate the key only on first sight.
        match self.hists.get_mut(name) {
            Some(h) => h.observe_weighted(value, weight),
            None => self
                .hists
                .entry(name.to_owned())
                .or_default()
                .observe_weighted(value, weight),
        }
    }

    /// Merge a child trace into this one.
    ///
    /// The child's tracks are appended in order (its own first, then its
    /// children), each prefixed with this trace's label so track names
    /// compose hierarchically (`figure_7/graph0/aware`). Counters and
    /// histograms merge additively. Call order defines output order, so
    /// callers must absorb children in a deterministic order (the parallel
    /// sweep engine absorbs in index order).
    pub fn absorb(&mut self, child: Trace) {
        if !self.enabled || !child.enabled {
            return;
        }
        let prefix = if self.label.is_empty() {
            String::new()
        } else {
            format!("{}/", self.label)
        };
        if !child.own.is_empty() {
            self.children.push(Track {
                name: format!("{prefix}{}", child.label),
                events: child.own,
            });
        }
        for t in child.children {
            self.children.push(Track {
                name: format!("{prefix}{}", t.name),
                events: t.events,
            });
        }
        for (k, v) in child.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in child.fcounters {
            *self.fcounters.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in child.hists {
            self.hists.entry(k).or_default().merge(&v);
        }
    }

    /// Value of an integer counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of a floating-point counter (0.0 when absent).
    pub fn fcounter(&self, name: &str) -> f64 {
        self.fcounters.get(name).copied().unwrap_or(0.0)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All integer counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All floating-point counters in name order.
    pub fn fcounters(&self) -> impl Iterator<Item = (&str, f64)> {
        self.fcounters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Non-empty tracks in export order: own track first, then absorbed
    /// children in absorb order. Yields `(track name, events)`.
    pub fn tracks(&self) -> impl Iterator<Item = (&str, &[Event])> {
        let own = if self.own.is_empty() {
            None
        } else {
            Some((self.label.as_str(), self.own.as_slice()))
        };
        own.into_iter().chain(
            self.children
                .iter()
                .map(|t| (t.name.as_str(), t.events.as_slice())),
        )
    }

    /// Total number of recorded events across all tracks.
    pub fn event_count(&self) -> usize {
        self.own.len() + self.children.iter().map(|t| t.events.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.span("phase/lbi", 0, 5);
        t.instant("x", 3);
        t.count("messages", 10);
        t.count_f64("moved", 1.5);
        t.record("depth", 4);
        let mut child = Trace::enabled("child");
        child.span("s", 0, 1);
        t.absorb(child);
        assert!(!t.is_enabled());
        assert_eq!(t.event_count(), 0);
        assert_eq!(t.counter("messages"), 0);
        assert_eq!(t.tracks().count(), 0);
        assert_eq!(t.to_ndjson(), Trace::disabled().to_ndjson());
    }

    #[test]
    fn absorbing_disabled_child_is_noop() {
        let mut t = Trace::enabled("root");
        t.span("a", 0, 1);
        let before = t.to_ndjson();
        t.absorb(Trace::disabled());
        assert_eq!(t.to_ndjson(), before);
    }

    #[test]
    fn counters_merge_additively() {
        let mut parent = Trace::enabled("p");
        parent.count("m", 2);
        parent.count_f64("load", 0.5);
        let mut child = Trace::enabled("c");
        child.count("m", 3);
        child.count("other", 7);
        child.count_f64("load", 1.25);
        parent.absorb(child);
        assert_eq!(parent.counter("m"), 5);
        assert_eq!(parent.counter("other"), 7);
        assert!((parent.fcounter("load") - 1.75).abs() < 1e-12);
    }

    #[test]
    fn track_names_compose_hierarchically() {
        let mut leaf = Trace::enabled("aware");
        leaf.span("phase/lbi", 0, 3);
        let mut mid = Trace::enabled("graph0");
        mid.instant("seeded", 0);
        mid.absorb(leaf);
        let mut root = Trace::enabled("figure_7");
        root.absorb(mid);
        let names: Vec<&str> = root.tracks().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["figure_7/graph0", "figure_7/graph0/aware"]);
    }

    #[test]
    fn histograms_merge_on_absorb() {
        let mut parent = Trace::enabled("p");
        parent.record("depth", 2);
        let mut child = Trace::enabled("c");
        child.record_weighted("depth", 8, 3.0);
        parent.absorb(child);
        let h = parent.histogram("depth").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 2);
        assert_eq!(h.max(), 8);
        assert!((h.weight() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn relabel_only_when_enabled() {
        let mut t = Trace::disabled();
        t.relabel("x");
        assert_eq!(t.label(), "");
        let mut t = Trace::enabled("a");
        t.relabel("b");
        assert_eq!(t.label(), "b");
    }
}
