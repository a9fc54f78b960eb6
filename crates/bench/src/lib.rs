//! The figure regenerator `repro` (`src/bin/repro.rs`) and the helpers its
//! phases share.

use proxbal_profile::flame::{fold, Folded, SpanView};
use proxbal_sim::metrics::DistanceHistogram;
use proxbal_trace::{EventKind, Trace};

/// Formats a histogram's headline numbers the way the paper quotes them
/// ("about 67% of total moved load within 2 hops … 86% within 10 hops").
pub fn headline(h: &DistanceHistogram) -> String {
    format!(
        "≤2 hops: {:5.1}%   ≤10 hops: {:5.1}%   mean distance: {:.2}",
        100.0 * h.fraction_within(2),
        100.0 * h.fraction_within(10),
        h.mean_distance()
    )
}

/// Folds a trace's span hierarchy into flamegraph stacks weighted by
/// **virtual time** — a pure function of the trace, hence byte-identical
/// at any `--threads` setting. Track names (`fig/graph0`) become the top
/// frames; the enclosing-span chain within each track extends the stack.
pub fn fold_trace(trace: &Trace) -> Folded {
    fold(trace.tracks().map(|(track, events)| {
        let spans: Vec<SpanView> = events
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .map(|e| SpanView {
                name: &e.name,
                ts: e.ts,
                dur: e.dur,
            })
            .collect();
        (track, spans)
    }))
}
