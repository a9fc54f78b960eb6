//! Behavioral gates over a proxbal run's artifacts — the engine's
//! per-epoch [`EngineReport`] and the trace's NDJSON event log — and the
//! summary `repro analyze` prints. A gate (`gates/*.toml`, DESIGN.md §6d)
//! folds one source's rows with one reduction over `column op value (and
//! …)*` predicates and compares the result with a threshold, so "heavy
//! episodes drain within 4 epochs" fails CI the way bench drift does.
//! Everything is a pure function of the artifacts, on one thread.

pub mod gates;
mod ndjson;
mod primitives;
mod rows;
mod toml;

pub use gates::{evaluate_gates, load_gates, parse_gate_file, render_table, Gate, GateResult};
pub use ndjson::{NdjsonError, ParsedEvent, ParsedHistogram, ParsedTrace};
use primitives::runs;
use rows::Pred;

use proxbal_sim::engine::EngineReport;

/// The value named `name` in a `(name, value)` table.
pub(crate) fn by_name<T: Copy>(table: &[(&str, T)], name: &str) -> Option<T> {
    table.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// The name of `value` in a `(name, value)` table.
pub(crate) fn name_of<T: PartialEq>(table: &[(&'static str, T)], value: T) -> &'static str {
    table.iter().find(|e| e.1 == value).map_or("?", |e| e.0)
}

/// The artifacts of one run, owned — what `repro analyze` loads from the
/// paths on its command line.
#[derive(Default)]
pub struct Run {
    pub report: Option<EngineReport>,
    pub trace: Option<ParsedTrace>,
}

impl Run {
    /// Adds one artifact by file content. `.ndjson` text parses as a trace
    /// event log; anything else parses as an `EngineReport` JSON document
    /// (bare or `repro engine --json` wrapper).
    pub fn load(&mut self, path: &str, text: &str) -> Result<(), String> {
        if path.ends_with(".ndjson") {
            if self.trace.is_some() {
                return Err(format!("{path}: a trace artifact was already loaded"));
            }
            self.trace = Some(ParsedTrace::parse(text).map_err(|e| format!("{path}: {e}"))?);
        } else {
            if self.report.is_some() {
                return Err(format!("{path}: a report artifact was already loaded"));
            }
            self.report =
                Some(EngineReport::from_json_str(text).map_err(|e| format!("{path}: {e}"))?);
        }
        Ok(())
    }

    /// The behavioral summary `repro analyze` prints without `--gates`:
    /// heavy-load episodes (maximal runs of `heavy > 0`), the emergency
    /// timeline and repair coverage from the report; the trace's shape
    /// and headline counters.
    pub fn summarize(&self) -> String {
        let mut out = String::new();
        if let Some(report) = &self.report {
            let samples = &report.samples;
            out += &format!(
                "report: {} epoch(s), final heavy {}, mean gini {:.4}\n",
                samples.len(),
                report.final_heavy(),
                report.mean_gini()
            );
            out += &format!(
                "  totals: joins {}, crashes {}, stale links {}, balances {} ({} emergency), moved {:.3}, transfers {}\n",
                report.joins,
                report.crashes,
                report.stale_links,
                report.balances,
                report.emergencies,
                report.total_moved,
                report.total_transfers
            );
            let episodes = runs(&samples.iter().map(|s| s.heavy > 0).collect::<Vec<_>>());
            out += &format!("  heavy episodes: {}\n", episodes.len());
            for e in episodes {
                let peak = samples[e.clone()]
                    .iter()
                    .map(|s| s.heavy)
                    .max()
                    .unwrap_or(0);
                let (first, last, len) = (e.start, e.end - 1, e.len());
                out += &format!("    epochs {first}..={last} (len {len}, peak {peak} heavy)\n");
            }
            let emergencies: Vec<String> = samples
                .iter()
                .filter(|s| s.emergency)
                .map(|s| s.epoch.to_string())
                .collect();
            let emergencies = match emergencies.is_empty() {
                true => "none".to_owned(),
                false => emergencies.join(", "),
            };
            out += &format!("  emergency epochs: {emergencies}\n");
            let unrepaired = Pred::parse("stale_links > 0 and repair_reattached < stale_links")
                .expect("static predicate");
            let unrepaired = samples.iter().filter(|s| unrepaired.holds(*s) == Ok(true));
            out += &format!(
                "  epochs with unrepaired stale links: {}\n",
                unrepaired.count()
            );
        }
        if let Some(trace) = &self.trace {
            out += &format!(
                "trace: {} track(s), {} event(s), {} counter(s)\n",
                trace.track_names().len(),
                trace.events.len(),
                trace.counters.len() + trace.fcounters.len()
            );
            let headline =
                "lbi_messages vst_transfers vst_moved_load kt_reattached des_retries des_gave_up";
            for name in headline.split(' ') {
                out += &format!("  {name}: {}\n", trace.any_counter(name));
            }
        }
        if out.is_empty() {
            out += "no artifacts loaded\n";
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_dispatches_on_extension_and_rejects_duplicates() {
        let mut run = Run::default();
        assert!(run.load("t.ndjson", "garbage").is_err());
        let trace_text =
            "{\"type\":\"meta\",\"format\":\"proxbal-trace\",\"version\":1,\"tracks\":0,\"events\":0}\n";
        run.load("t.ndjson", trace_text).unwrap();
        assert!(run.load("t2.ndjson", trace_text).is_err());
        assert!(run.load("r.json", "{}").is_err());
        assert!(run.summarize().starts_with("trace:"));
    }
}
