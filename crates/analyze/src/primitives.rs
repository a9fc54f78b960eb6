//! Maximal runs of rows where a predicate holds, and the windowed funnel:
//! the reductions that look at more than one row at a time.

use std::ops::Range;

/// The maximal runs of consecutive `true`s in `mask`, in row order.
pub(crate) fn runs(mask: &[bool]) -> Vec<Range<usize>> {
    let mut out: Vec<Range<usize>> = Vec::new();
    for (i, _) in mask.iter().enumerate().filter(|(_, &on)| on) {
        match out.last_mut() {
            Some(run) if run.end == i => run.end += 1,
            _ => out.push(i..i + 1),
        }
    }
    out
}

/// Nearest-rank p99 (element `ceil(0.99 n) - 1` of the sorted values);
/// 0 when there are none.
pub(crate) fn p99(values: &[usize]) -> usize {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((0.99 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// Outcome of a windowed funnel over one event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FunnelOutcome {
    /// Funnel instances opened (step 1 observed).
    pub(crate) entered: usize,
    /// Instances that reached the final step within the window.
    pub(crate) completed: usize,
    /// Deepest step any instance reached (1-based; 0 = never entered).
    pub(crate) deepest: usize,
}

impl FunnelOutcome {
    /// `completed / entered`; 1.0 when nothing entered (a funnel that never
    /// opens cannot be said to have leaked — gate on `entered` separately
    /// if emptiness itself is a failure).
    pub(crate) fn completion(&self) -> f64 {
        if self.entered == 0 {
            1.0
        } else {
            self.completed as f64 / self.entered as f64
        }
    }

    /// Merges outcomes from independent streams (e.g. per-track funnels).
    pub(crate) fn merge(&mut self, other: FunnelOutcome) {
        self.entered += other.entered;
        self.completed += other.completed;
        self.deepest = self.deepest.max(other.deepest);
    }
}

/// Ordered step matching within a virtual-time window, over events sorted
/// by timestamp. Each event is `(ts, step_mask)` where bit `i` of the mask
/// means the event satisfies step `i+1`.
///
/// Semantics (single active instance, ClickHouse `windowFunnel`-style):
/// an instance opens when step 1 matches and no instance is active; each
/// subsequent event within `window` of the open can advance it by at most
/// one level; reaching `steps` completes and closes it; an event past the
/// window closes it unfinished (and may itself open the next instance).
/// Events are processed in slice order, so equal-timestamp ordering is the
/// deterministic file order of the trace.
pub(crate) fn window_funnel(events: &[(u64, u32)], steps: usize, window: u64) -> FunnelOutcome {
    assert!((1..=32).contains(&steps), "funnel needs 1..=32 steps");
    let mut out = FunnelOutcome::default();
    let mut active: Option<(u64, usize)> = None; // (open ts, levels done)
    for &(ts, mask) in events {
        if let Some((start, _)) = active {
            if ts.saturating_sub(start) > window {
                active = None; // expired unfinished; `entered` already counted
            }
        }
        match &mut active {
            Some((_, level)) => {
                if mask & (1 << *level) != 0 {
                    *level += 1;
                    out.deepest = out.deepest.max(*level);
                    if *level == steps {
                        out.completed += 1;
                        active = None;
                    }
                }
            }
            None => {
                if mask & 1 != 0 {
                    out.entered += 1;
                    out.deepest = out.deepest.max(1);
                    if steps == 1 {
                        out.completed += 1;
                    } else {
                        active = Some((ts, 1));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (entered, completed, deepest).
    fn counts(o: FunnelOutcome) -> (usize, usize, usize) {
        (o.entered, o.completed, o.deepest)
    }

    #[test]
    fn runs_are_maximal_and_close_at_the_end() {
        let mask = [false, true, true, false, true, false, true];
        assert_eq!(runs(&mask), vec![1..3, 4..5, 6..7]);
        assert_eq!(runs(&[true, true]), vec![0..2]);
        assert!(runs(&[]).is_empty());
        assert!(runs(&[false, false]).is_empty());
    }

    #[test]
    fn nearest_rank_p99() {
        assert_eq!(p99(&[]), 0);
        assert_eq!(p99(&[7]), 7);
        assert_eq!(p99(&[5, 1, 3, 2, 4]), 5);
        let mut many = vec![1; 150];
        many[0] = 9;
        many[1] = 8;
        // rank ceil(148.5) = 149 of 150: the second-largest.
        assert_eq!(p99(&many), 8);
    }

    #[test]
    fn funnel_basic_completion_and_expiry() {
        // Steps: 1=A, 2=B, 3=C.
        const A: u32 = 1;
        const B: u32 = 2;
        const C: u32 = 4;
        // Complete in-window instance, then one that expires after A.
        let events = [(0, A), (3, B), (5, C), (10, A), (100, B)];
        let out = window_funnel(&events, 3, 8);
        assert_eq!(counts(out), (2, 1, 3));
        assert_eq!(out.completion(), 0.5);

        // Expiring event re-opens immediately when it matches step 1.
        let events = [(0, A), (50, A), (51, B)];
        let out = window_funnel(&events, 2, 10);
        assert_eq!(counts(out), (2, 1, 2));

        // One event advances at most one level even if it matches several.
        let events = [(0, A), (1, B | C)];
        let out = window_funnel(&events, 3, 10);
        assert_eq!(out.completed, 0);
        assert_eq!(out.deepest, 2);

        // Single-step funnel: every match completes instantly.
        let out = window_funnel(&[(0, A), (5, A)], 1, 0);
        assert_eq!(counts(out), (2, 2, 1));

        // Empty stream: vacuous 100% completion.
        let out = window_funnel(&[], 2, 5);
        assert_eq!(out.entered, 0);
        assert_eq!(out.completion(), 1.0);
    }

    #[test]
    fn funnel_out_of_window_step_does_not_advance() {
        const A: u32 = 1;
        const B: u32 = 2;
        let out = window_funnel(&[(0, A), (20, B)], 2, 10);
        assert_eq!(counts(out), (1, 0, 1));
    }
}
