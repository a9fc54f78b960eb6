//! Reader for the NDJSON event log written by [`Trace::to_ndjson`].
//!
//! Every line parses with the workspace's `serde_json`. Everything the
//! exporter writes parses back losslessly, with one documented exception:
//! JSON cannot distinguish the *type* of an integral number, so an
//! `ArgValue::F64(2.0)` argument (exported as `2`) parses back as
//! `ArgValue::U64(2)`, and an integral `f64` counter joins the integer
//! counters. Numeric values are always preserved exactly — floats
//! round-trip through the shortest-decimal form `Display` emits — and the
//! `null` the exporter writes for a non-finite float reads back as NaN.
//!
//! The gates consume [`ParsedTrace`] as their columnar event source;
//! `tests/ndjson_roundtrip.rs` pins the export → parse → identical-event-
//! stream contract.

use proxbal_trace::{ArgValue, EventKind, Trace, VirtualTime};
use serde_json::{Number, Value};

/// One span or instant read back from an event log, with its track name
/// denormalized onto the event (the log groups events by track already).
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedEvent {
    /// Track the event was recorded on (e.g. `repro/epoch7`).
    pub track: String,
    /// Event name (e.g. `round/lbi`, `kt/repair`).
    pub name: String,
    /// Span or instant.
    pub kind: EventKind,
    /// Virtual-time stamp.
    pub ts: VirtualTime,
    /// Span duration (always 0 for instants).
    pub dur: VirtualTime,
    /// Event arguments in recorded order, keys owned.
    pub args: Vec<(String, ArgValue)>,
}

/// One histogram row read back from an event log.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedHistogram {
    /// Histogram name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Total observation weight.
    pub weight: f64,
    /// Weighted mean value.
    pub mean: f64,
    /// `(bucket lower bound, weight)` pairs in ascending bound order.
    pub buckets: Vec<(u64, f64)>,
}

/// A fully parsed NDJSON event log: the meta line's declared totals plus
/// every event, counter and histogram in file order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParsedTrace {
    /// Track count declared by the meta line.
    pub declared_tracks: usize,
    /// Event count declared by the meta line.
    pub declared_events: usize,
    /// Spans and instants in file order (grouped by track, tracks in
    /// export order).
    pub events: Vec<ParsedEvent>,
    /// Integer counters in file (name) order.
    pub counters: Vec<(String, u64)>,
    /// Floating-point counters in file (name) order.
    pub fcounters: Vec<(String, f64)>,
    /// Histograms in file (name) order.
    pub histograms: Vec<ParsedHistogram>,
}

impl ParsedTrace {
    /// Parses an NDJSON event log (the exact format [`Trace::to_ndjson`]
    /// writes). Fails with the 1-based line number of the first offending
    /// line.
    pub fn parse(text: &str) -> Result<ParsedTrace, NdjsonError> {
        let mut out = ParsedTrace::default();
        let mut saw_meta = false;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at = |msg: String| NdjsonError { lineno: i + 1, msg };
            let value: Value = serde_json::from_str(line).map_err(|e| at(e.to_string()))?;
            let obj = value
                .as_object()
                .ok_or_else(|| at("expected a JSON object".into()))?;
            let get_str = |key| obj.get(key).and_then(Value::as_str);
            let get_u64 = |key| obj.get(key).and_then(Value::as_u64);
            let get_f64 = |key| obj.get(key).and_then(float);
            let name = |what: &str| match get_str("name") {
                Some(name) => Ok(name.to_owned()),
                None => Err(at(format!("{what} missing \"name\""))),
            };
            let kind = get_str("type").ok_or_else(|| at("missing \"type\"".into()))?;
            match kind {
                "meta" => {
                    if get_str("format") != Some("proxbal-trace") {
                        return Err(at("meta line is not a proxbal-trace log".into()));
                    }
                    out.declared_tracks = get_u64("tracks").unwrap_or(0) as usize;
                    out.declared_events = get_u64("events").unwrap_or(0) as usize;
                    saw_meta = true;
                }
                "span" | "instant" => {
                    let args = match obj.get("args") {
                        None => Vec::new(),
                        Some(Value::Object(entries)) => entries
                            .iter()
                            .map(|(k, v)| {
                                arg(v)
                                    .map(|a| (k.clone(), a))
                                    .ok_or_else(|| at(format!("bad arg value for {k:?}")))
                            })
                            .collect::<Result<_, _>>()?,
                        Some(_) => return Err(at("\"args\" is not an object".into())),
                    };
                    out.events.push(ParsedEvent {
                        track: get_str("track")
                            .ok_or_else(|| at("event missing \"track\"".into()))?
                            .to_owned(),
                        name: name("event")?,
                        kind: if kind == "span" {
                            EventKind::Span
                        } else {
                            EventKind::Instant
                        },
                        ts: get_u64("ts").ok_or_else(|| at("event missing \"ts\"".into()))?,
                        dur: get_u64("dur").unwrap_or(0),
                        args,
                    });
                }
                "counter" => {
                    let name = name("counter")?;
                    match obj.get("value") {
                        Some(Value::Number(Number::U64(v))) => out.counters.push((name, *v)),
                        Some(Value::Number(Number::I64(v))) => {
                            out.fcounters.push((name, *v as f64))
                        }
                        Some(Value::Number(Number::F64(v))) => out.fcounters.push((name, *v)),
                        // The exporter renders non-finite f64 counters as null.
                        Some(Value::Null) => out.fcounters.push((name, f64::NAN)),
                        _ => return Err(at("counter missing numeric \"value\"".into())),
                    }
                }
                "histogram" => {
                    let pair = |pair: &Value| match pair.as_array().map(Vec::as_slice) {
                        Some([lo, w]) => lo.as_u64().zip(float(w)),
                        _ => None,
                    };
                    let buckets = match obj.get("buckets").and_then(Value::as_array) {
                        Some(items) => items
                            .iter()
                            .map(|p| pair(p).ok_or_else(|| at("bad bucket pair".into())))
                            .collect::<Result<_, _>>()?,
                        None => return Err(at("histogram missing \"buckets\"".into())),
                    };
                    out.histograms.push(ParsedHistogram {
                        name: name("histogram")?,
                        count: get_u64("count")
                            .ok_or_else(|| at("histogram missing \"count\"".into()))?,
                        min: get_u64("min").unwrap_or(0),
                        max: get_u64("max").unwrap_or(0),
                        weight: get_f64("weight").unwrap_or(0.0),
                        mean: get_f64("mean").unwrap_or(0.0),
                        buckets,
                    });
                }
                other => return Err(at(format!("unknown line type {other:?}"))),
            }
        }
        if !saw_meta {
            return Err(NdjsonError {
                lineno: 0,
                msg: "no meta line: not a proxbal-trace event log".into(),
            });
        }
        Ok(out)
    }

    /// Parses the NDJSON rendering of `trace` — a convenience for
    /// round-trip tests and in-process consumers.
    pub fn of(trace: &Trace) -> Result<ParsedTrace, NdjsonError> {
        ParsedTrace::parse(&trace.to_ndjson())
    }

    /// Value of an integer counter (0 when absent, matching
    /// [`Trace::counter`]).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of a floating-point counter (0.0 when absent). Integral f64
    /// counters land in [`ParsedTrace::counters`] instead — see the module
    /// docs — so check both when the producer's type is unknown.
    pub fn fcounter(&self, name: &str) -> f64 {
        self.fcounters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// A counter by name regardless of which table it parsed into, as f64.
    pub fn any_counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v as f64)
            .unwrap_or_else(|| self.fcounter(name))
    }

    /// Looks up a histogram row by name.
    pub fn histogram(&self, name: &str) -> Option<&ParsedHistogram> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Distinct track names in first-appearance (export) order.
    pub fn track_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for ev in &self.events {
            if names.last() != Some(&ev.track.as_str()) && !names.contains(&ev.track.as_str()) {
                names.push(&ev.track);
            }
        }
        names
    }
}

/// Why an event log failed to parse.
#[derive(Clone, Debug, PartialEq)]
pub struct NdjsonError {
    /// 1-based line number (0 when the whole file is at fault).
    pub lineno: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for NdjsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.lineno == 0 {
            write!(f, "ndjson: {}", self.msg)
        } else {
            write!(f, "ndjson line {}: {}", self.lineno, self.msg)
        }
    }
}

impl std::error::Error for NdjsonError {}

/// A number as `f64`; the `null` the exporter writes for a non-finite
/// float reads back as NaN.
fn float(v: &Value) -> Option<f64> {
    match v {
        Value::Null => Some(f64::NAN),
        v => v.as_f64(),
    }
}

/// An event argument: integers keep their sign class, `null` is NaN.
fn arg(v: &Value) -> Option<ArgValue> {
    Some(match v {
        Value::Number(Number::U64(n)) => ArgValue::U64(*n),
        Value::Number(Number::I64(n)) => ArgValue::I64(*n),
        Value::Number(Number::F64(x)) => ArgValue::F64(*x),
        Value::Bool(b) => ArgValue::Bool(*b),
        Value::String(s) => ArgValue::Str(s.clone()),
        Value::Null => ArgValue::F64(f64::NAN),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_trace_input() {
        assert!(ParsedTrace::parse("").is_err());
        assert!(ParsedTrace::parse("{\"type\":\"span\"}").is_err());
        let err = ParsedTrace::parse("not json at all").unwrap_err();
        assert_eq!(err.lineno, 1);
    }

    #[test]
    fn parses_meta_and_counter() {
        let text = "{\"type\":\"meta\",\"format\":\"proxbal-trace\",\"version\":1,\
                    \"tracks\":2,\"events\":3}\n\
                    {\"type\":\"counter\",\"name\":\"m\",\"value\":7}\n\
                    {\"type\":\"counter\",\"name\":\"f\",\"value\":2.5}\n";
        let p = ParsedTrace::parse(text).unwrap();
        assert_eq!(p.declared_tracks, 2);
        assert_eq!(p.declared_events, 3);
        assert_eq!(p.counter("m"), 7);
        assert_eq!(p.fcounter("f"), 2.5);
        assert_eq!(p.any_counter("m"), 7.0);
        assert_eq!(p.counter("absent"), 0);
    }

    #[test]
    fn line_numbers_in_errors() {
        let text = "{\"type\":\"meta\",\"format\":\"proxbal-trace\",\"version\":1,\
                    \"tracks\":0,\"events\":0}\n{\"type\":\"bogus\"}\n";
        let err = ParsedTrace::parse(text).unwrap_err();
        assert_eq!(err.lineno, 2);
        assert!(err.to_string().contains("bogus"));
    }
}
