//! Export → parse → identical event stream.
//!
//! The NDJSON reader must reconstruct exactly what the exporter wrote: every
//! span/instant (track, name, ts, dur, args) in file order, every counter,
//! every histogram row. Floats in the fixtures are non-integral on purpose:
//! JSON cannot carry the U64-vs-F64 distinction for integral values (an
//! `ArgValue::F64(2.0)` exports as `2` and parses back as `U64(2)`), and
//! that documented ambiguity is pinned by its own test below.

use proxbal_analyze::ParsedTrace;
use proxbal_trace::{ArgValue, EventKind, Trace};

/// A trace exercising every exporter shape: nested absorbed tracks, all five
/// arg types, string escaping, u64 + f64 counters, weighted histograms.
fn rich_trace() -> Trace {
    let mut leaf = Trace::enabled("aware");
    leaf.span_args(
        "round/lbi",
        0,
        47,
        &[
            ("peers", ArgValue::U64(4096)),
            ("drift", ArgValue::F64(0.125)),
            ("delta", ArgValue::I64(-3)),
            ("balanced", ArgValue::Bool(true)),
            ("mode", ArgValue::Str("exact".into())),
        ],
    );
    leaf.instant_args(
        "kt/repair",
        12,
        &[("why", ArgValue::Str("a\"b\\c\n\t".into()))],
    );
    leaf.count("lbi_messages", 63);
    leaf.count_f64("vst_moved_load", 2.625);
    leaf.record_weighted("vst_load_per_hop", 3, 1.5);
    leaf.record("vst_load_per_hop", 0);
    leaf.record("vsa_assignment_depth", 9);

    let mut mid = Trace::enabled("epoch0");
    mid.span("engine/epoch", 0, 100);
    mid.absorb(leaf);

    let mut root = Trace::enabled("repro");
    root.instant("start", 0);
    root.count("des_retries", 7);
    root.absorb(mid);
    root
}

#[test]
fn roundtrip_events_counters_histograms() {
    let trace = rich_trace();
    let parsed = ParsedTrace::of(&trace).expect("exporter output must parse");

    assert_eq!(parsed.declared_tracks, trace.tracks().count());
    assert_eq!(parsed.declared_events, trace.event_count());
    assert_eq!(parsed.events.len(), trace.event_count());

    // Events come back in file order — track by track, in export order —
    // with every field intact.
    let mut expect = Vec::new();
    for (track, events) in trace.tracks() {
        for ev in events {
            expect.push((track, ev));
        }
    }
    for (got, (track, ev)) in parsed.events.iter().zip(&expect) {
        assert_eq!(got.track, *track);
        assert_eq!(got.name, ev.name);
        assert_eq!(got.kind, ev.kind);
        assert_eq!(got.ts, ev.ts);
        assert_eq!(
            got.dur,
            if ev.kind == EventKind::Span {
                ev.dur
            } else {
                0
            }
        );
        assert_eq!(got.args.len(), ev.args.len());
        for ((gk, gv), (ek, ev)) in got.args.iter().zip(&ev.args) {
            assert_eq!(gk, ek);
            assert_eq!(gv, ev);
        }
    }

    // Counters and histograms match the live trace exactly.
    let counters: Vec<(String, u64)> = trace.counters().map(|(k, v)| (k.to_owned(), v)).collect();
    assert_eq!(parsed.counters, counters);
    for (name, v) in trace.fcounters() {
        assert_eq!(parsed.fcounter(name), v);
    }
    for (name, h) in trace.histograms() {
        let row = parsed.histogram(name).expect("histogram row");
        assert_eq!(row.count, h.count());
        assert_eq!(row.min, h.min());
        assert_eq!(row.max, h.max());
        assert_eq!(row.weight, h.weight());
        assert_eq!(row.mean, h.mean());
        let buckets: Vec<(u64, f64)> = h.buckets().collect();
        assert_eq!(row.buckets, buckets);
    }
}

#[test]
fn reexport_of_parse_is_byte_identical() {
    // Strongest form of the round-trip: feed the parsed stream back through
    // a fresh Trace and compare NDJSON bytes. Valid because the fixture
    // avoids integral floats (the one documented lossy case).
    let original = rich_trace().to_ndjson();
    let parsed = ParsedTrace::parse(&original).unwrap();

    let mut rebuilt = Trace::enabled("");
    let mut current: Option<(String, Trace)> = None;
    for ev in &parsed.events {
        if current.as_ref().map(|(t, _)| t.as_str()) != Some(ev.track.as_str()) {
            if let Some((_, tr)) = current.take() {
                rebuilt.absorb(tr);
            }
            current = Some((ev.track.clone(), Trace::enabled(&ev.track)));
        }
        let (_, tr) = current.as_mut().unwrap();
        let args: Vec<(&'static str, ArgValue)> =
            ev.args.iter().map(|(k, v)| (leak(k), v.clone())).collect();
        match ev.kind {
            EventKind::Span => tr.span_args(&ev.name, ev.ts, ev.dur, &args),
            EventKind::Instant => tr.instant_args(&ev.name, ev.ts, &args),
        }
    }
    if let Some((_, tr)) = current.take() {
        rebuilt.absorb(tr);
    }
    for (name, v) in &parsed.counters {
        rebuilt.count(name, *v);
    }
    for (name, v) in &parsed.fcounters {
        rebuilt.count_f64(name, *v);
    }
    for row in &parsed.histograms {
        for &(lo, w) in &row.buckets {
            rebuilt.record_weighted(&row.name, lo, w);
        }
    }

    let reexported = rebuilt.to_ndjson();
    // Histogram rows lose exact observed values (only bucket lower bounds
    // survive), so compare the event/counter prefix byte-for-byte and the
    // histogram lines structurally.
    let orig_prefix: Vec<&str> = original
        .lines()
        .filter(|l| !l.contains("\"type\":\"histogram\""))
        .collect();
    let re_prefix: Vec<&str> = reexported
        .lines()
        .filter(|l| !l.contains("\"type\":\"histogram\""))
        .collect();
    assert_eq!(orig_prefix, re_prefix);

    let reparsed = ParsedTrace::parse(&reexported).unwrap();
    for (a, b) in parsed.histograms.iter().zip(&reparsed.histograms) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.count, b.count);
        assert_eq!(a.buckets, b.buckets);
        assert_eq!(a.weight, b.weight);
    }
}

#[test]
fn integral_float_ambiguity_is_the_only_loss() {
    // JSON renders F64(2.0) as `2`, indistinguishable from U64(2).
    let mut t = Trace::enabled("x");
    t.span_args("s", 0, 1, &[("v", ArgValue::F64(2.0))]);
    t.count_f64("whole", 5.0);
    let parsed = ParsedTrace::of(&t).unwrap();
    assert_eq!(parsed.events[0].args[0].1, ArgValue::U64(2));
    // The integral f64 counter lands in the integer table...
    assert_eq!(parsed.counter("whole"), 5);
    // ...but `any_counter` papers over the split.
    assert_eq!(parsed.any_counter("whole"), 5.0);
}

#[test]
fn parses_real_engine_style_lines() {
    let text = concat!(
        "{\"type\":\"meta\",\"format\":\"proxbal-trace\",\"version\":1,\"tracks\":1,\"events\":2}\n",
        "{\"type\":\"span\",\"track\":\"repro/epoch7\",\"name\":\"engine/epoch\",\"ts\":0,\"dur\":100,",
        "\"args\":{\"joins\":3,\"crashes\":1,\"heavy\":12,\"passes\":2}}\n",
        "{\"type\":\"instant\",\"track\":\"repro/epoch7\",\"name\":\"kt/stale\",\"ts\":55}\n",
        "{\"type\":\"counter\",\"name\":\"des_gave_up\",\"value\":0}\n",
        "{\"type\":\"histogram\",\"name\":\"vsa_assignment_depth\",\"count\":4,\"min\":1,\"max\":6,",
        "\"weight\":4,\"mean\":3.25,\"buckets\":[[1,2],[4,2]]}\n",
    );
    let p = ParsedTrace::parse(text).unwrap();
    assert_eq!(p.track_names(), vec!["repro/epoch7"]);
    assert_eq!(p.events[0].args[0], ("joins".to_owned(), ArgValue::U64(3)));
    assert_eq!(p.events[1].kind, EventKind::Instant);
    assert_eq!(p.counter("des_gave_up"), 0);
    let h = p.histogram("vsa_assignment_depth").unwrap();
    assert_eq!(h.buckets, vec![(1, 2.0), (4, 2.0)]);
}

/// Leak a small key string to satisfy the `&'static str` arg-key type; test
/// fixtures only.
fn leak(s: &str) -> &'static str {
    Box::leak(s.to_owned().into_boxed_str())
}
