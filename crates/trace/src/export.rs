//! Exporters: newline-JSON event log and chrome://tracing `trace.json`.
//!
//! Both are rendered with a small hand-rolled JSON writer (the workspace is
//! offline; no serde needed here) and contain nothing but virtual-time data,
//! so the bytes are identical for a given `(seed, fault plan)` regardless of
//! thread count.

use crate::{ArgValue, EventKind, Trace};
use std::fmt::Write as _;

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `Display` for f64 is the shortest round-trip decimal form —
        // deterministic across platforms and rustc versions we target.
        let _ = write!(out, "{x}");
    } else {
        out.push_str("null");
    }
}

fn push_arg_value(out: &mut String, v: &ArgValue) {
    match v {
        ArgValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        ArgValue::F64(x) => push_f64(out, *x),
        ArgValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        ArgValue::Str(s) => push_json_str(out, s),
    }
}

fn push_args_object(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, k);
        out.push(':');
        push_arg_value(out, v);
    }
    out.push('}');
}

impl Trace {
    /// Newline-delimited JSON event log: one meta line, then one line per
    /// event, counter and histogram, in deterministic order.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"format\":\"proxbal-trace\",\"version\":1,\"tracks\":{},\"events\":{}}}",
            self.tracks().count(),
            self.event_count()
        );
        for (track, events) in self.tracks() {
            for ev in events {
                out.push_str("{\"type\":");
                match ev.kind {
                    EventKind::Span => out.push_str("\"span\""),
                    EventKind::Instant => out.push_str("\"instant\""),
                }
                out.push_str(",\"track\":");
                push_json_str(&mut out, track);
                out.push_str(",\"name\":");
                push_json_str(&mut out, &ev.name);
                let _ = write!(out, ",\"ts\":{}", ev.ts);
                if ev.kind == EventKind::Span {
                    let _ = write!(out, ",\"dur\":{}", ev.dur);
                }
                if !ev.args.is_empty() {
                    out.push_str(",\"args\":");
                    push_args_object(&mut out, &ev.args);
                }
                out.push_str("}\n");
            }
        }
        for (name, v) in self.counters() {
            out.push_str("{\"type\":\"counter\",\"name\":");
            push_json_str(&mut out, name);
            let _ = writeln!(out, ",\"value\":{v}}}");
        }
        for (name, v) in self.fcounters() {
            out.push_str("{\"type\":\"counter\",\"name\":");
            push_json_str(&mut out, name);
            out.push_str(",\"value\":");
            push_f64(&mut out, v);
            out.push_str("}\n");
        }
        for (name, h) in self.histograms() {
            out.push_str("{\"type\":\"histogram\",\"name\":");
            push_json_str(&mut out, name);
            let _ = write!(
                out,
                ",\"count\":{},\"min\":{},\"max\":{},\"weight\":",
                h.count(),
                h.min(),
                h.max()
            );
            push_f64(&mut out, h.weight());
            out.push_str(",\"mean\":");
            push_f64(&mut out, h.mean());
            out.push_str(",\"buckets\":[");
            for (i, (lo, w)) in h.buckets().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{lo},");
                push_f64(&mut out, w);
                out.push(']');
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Chrome trace-event JSON (load via chrome://tracing or Perfetto).
    ///
    /// Tracks map to thread lanes (`tid` = 1-based track index); spans are
    /// "X" complete events and instants are "i" events, all in microsecond
    /// units of *virtual* time. Counters and histogram summaries ride in
    /// `otherData`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"proxbal (virtual time)\"}}",
        );
        for (tid, (track, events)) in self.tracks().enumerate() {
            let tid = tid + 1;
            out.push_str(",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
            let _ = write!(out, "{tid}");
            out.push_str(",\"args\":{\"name\":");
            push_json_str(&mut out, track);
            out.push_str("}}");
            for ev in events {
                out.push_str(",\n{\"name\":");
                push_json_str(&mut out, &ev.name);
                match ev.kind {
                    EventKind::Span => {
                        let _ = write!(
                            out,
                            ",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{}",
                            ev.ts, ev.dur
                        );
                    }
                    EventKind::Instant => {
                        let _ = write!(
                            out,
                            ",\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"s\":\"t\"",
                            ev.ts
                        );
                    }
                }
                out.push_str(",\"args\":");
                push_args_object(&mut out, &ev.args);
                out.push('}');
            }
        }
        out.push_str("\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{\"counters\":{");
        let mut first = true;
        for (name, v) in self.counters() {
            if !first {
                out.push(',');
            }
            first = false;
            push_json_str(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        for (name, v) in self.fcounters() {
            if !first {
                out.push(',');
            }
            first = false;
            push_json_str(&mut out, name);
            out.push(':');
            push_f64(&mut out, v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"min\":{},\"max\":{},\"mean\":",
                h.count(),
                h.min(),
                h.max()
            );
            push_f64(&mut out, h.mean());
            out.push('}');
        }
        out.push_str("}}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut t = Trace::enabled("fig");
        t.span_args(
            "phase/lbi",
            0,
            11,
            &[
                ("messages", ArgValue::U64(63)),
                ("loss", ArgValue::F64(0.05)),
            ],
        );
        t.instant_args("quote\"me", 4, &[("why", ArgValue::Str("a\\b\n".into()))]);
        t.count("lbi_messages", 63);
        t.count_f64("moved_load", 2.5);
        t.record_weighted("vst_load_per_hop", 3, 1.5);
        t.record("vst_load_per_hop", 0);
        t
    }

    #[test]
    fn ndjson_shape_and_escaping() {
        let s = sample().to_ndjson();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 1 + 2 + 2 + 1);
        assert!(lines[0].contains("\"format\":\"proxbal-trace\""));
        assert!(lines[1].contains("\"dur\":11"));
        assert!(lines[2].contains("quote\\\"me"));
        assert!(lines[2].contains("a\\\\b\\n"));
        assert!(s.contains("{\"type\":\"counter\",\"name\":\"lbi_messages\",\"value\":63}"));
        assert!(s.contains("\"value\":2.5"));
        assert!(s.contains("\"buckets\":[[0,1],[2,1.5]]"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn chrome_json_has_metadata_and_events() {
        let s = sample().to_chrome_json();
        assert!(s.contains("\"ph\":\"M\""));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"thread_name\""));
        assert!(s.ends_with("}\n"));
        assert!(s.contains("\"counters\":{\"lbi_messages\":63,\"moved_load\":2.5}"));
    }

    #[test]
    fn export_is_reproducible() {
        assert_eq!(sample().to_ndjson(), sample().to_ndjson());
        assert_eq!(sample().to_chrome_json(), sample().to_chrome_json());
    }

    #[test]
    fn nonfinite_floats_render_as_null() {
        let mut t = Trace::enabled("x");
        t.count_f64("bad", f64::NAN);
        assert!(t.to_ndjson().contains("\"value\":null"));
    }
}
