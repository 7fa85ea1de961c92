//! Round-trips the telemetry exporters through the oracle crate's JSON
//! parser: every line of flight-recorder JSONL, the metrics snapshot and
//! the Chrome trace-event export must be valid interchange JSON with the
//! recorded values intact — including metric names and string fields that
//! need escaping.
//!
//! The [`kmsg_telemetry::json::Json`] value is `f64`-backed, so numbers above 2^53
//! (real span ids carry the kind tag in the top byte) parse with precision
//! loss. The exact-fixed-point assertions therefore use hand-built events
//! with small ids; the recorder-driven test asserts validity and field
//! round-trips on values the parser represents exactly.

use kmsg_telemetry::json::Json;
use kmsg_telemetry::{Event, EventKind, Recorder, SpanKind};

/// A recorder exercised across event kinds, spans, and metrics whose
/// names need escaping.
fn sample_recorder() -> Recorder {
    let rec = Recorder::new();
    rec.enable();

    rec.record(
        10,
        EventKind::TcpCwnd {
            conn: 7,
            cwnd: 2920.0,
            ssthresh: 64000.5,
            cause: "rto",
        },
    );
    rec.record(
        20,
        EventKind::Packet {
            src: "host\"0\"".to_string(),
            dst: "peer\\1".to_string(),
            proto: "tcp",
            wire_size: 1500,
            outcome: "line1\nline2".to_string(),
        },
    );
    rec.record(
        30,
        EventKind::Decision {
            flow: 3,
            step: 1,
            state: 12,
            action: 2,
            reward: -0.25,
            epsilon: 0.1,
            greedy: false,
        },
    );
    rec.record(
        40,
        EventKind::ConnStatus {
            peer: 1,
            transport: "data",
            status: "lost",
            attempts: 0,
        },
    );

    let tr = rec.tracer();
    let msg = tr.open_root(50, SpanKind::Msg, 4242);
    let enq = tr.open(50, SpanKind::Enqueue, msg, msg, 4242);
    tr.close(60, enq);
    tr.close(70, msg);
    tr.instant(70, SpanKind::Requeue, msg, msg, 1);
    // Left open deliberately: the chrome exporter must keep it visible.
    let _outage = tr.open_root(80, SpanKind::Outage, 9);

    rec.counter("runs/total").add(3);
    rec.counter("with \"quotes\" and \\slash").inc();
    rec.gauge("chaos/recovery/backoff_ms").set(101.5);
    rec.gauge("tab\there\nnewline\u{1}ctl").set(-0.5);
    rec.histogram("rtt_us").record(250);
    rec.histogram("rtt_us").record(750);
    rec
}

#[test]
fn jsonl_lines_parse_with_values_intact() {
    let rec = sample_recorder();
    let jsonl = rec.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() >= 10, "spans + events recorded: {}", lines.len());

    for line in &lines {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        assert!(v.get("t").and_then(Json::as_f64).is_some(), "{line}");
        assert!(v.get("kind").and_then(Json::as_str).is_some(), "{line}");
    }

    // Escaped string fields decode back to the original text.
    let packet = lines
        .iter()
        .map(|l| Json::parse(l).expect("parsed above"))
        .find(|v| v.get("kind").and_then(Json::as_str) == Some("packet"))
        .expect("packet line present");
    assert_eq!(packet.get("src").and_then(Json::as_str), Some("host\"0\""));
    assert_eq!(packet.get("dst").and_then(Json::as_str), Some("peer\\1"));
    assert_eq!(
        packet.get("outcome").and_then(Json::as_str),
        Some("line1\nline2")
    );

    // Numeric fields (within f64-exact range) survive the trip.
    let cwnd = Json::parse(lines[0]).expect("parsed above");
    assert_eq!(cwnd.get("t").and_then(Json::as_u64), Some(10));
    assert_eq!(cwnd.get("cwnd").and_then(Json::as_f64), Some(2920.0));
    assert_eq!(cwnd.get("ssthresh").and_then(Json::as_f64), Some(64000.5));
    let decision = Json::parse(lines[2]).expect("parsed above");
    assert_eq!(decision.get("reward").and_then(Json::as_f64), Some(-0.25));
    assert_eq!(decision.get("greedy").and_then(Json::as_bool), Some(false));
}

#[test]
fn jsonl_lines_without_big_ints_rerender_byte_identical() {
    // Hand-built events with small span ids: parse → render must be the
    // exact bytes the exporter emitted, for every event shape.
    let events = vec![
        Event {
            time_ns: 1,
            kind: EventKind::SpanOpen {
                span: 11,
                parent: 0,
                trace: 11,
                kind: "msg",
                key: 4242,
            },
        },
        Event {
            time_ns: 2,
            kind: EventKind::LinkDrop {
                link: 3,
                reason: "partition \"both\"",
                wire_size: 1500,
            },
        },
        Event {
            time_ns: 3,
            kind: EventKind::UdtRate {
                conn: 1,
                period_us: 10.5,
                rate_pps: 95238.0,
                cause: "nak",
            },
        },
        Event {
            time_ns: 4,
            kind: EventKind::SpanClose { span: 11, key: 0 },
        },
    ];
    let mut jsonl = String::new();
    for ev in &events {
        kmsg_telemetry::export::push_event_json(&mut jsonl, ev);
        jsonl.push('\n');
    }
    for line in jsonl.lines() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
        assert_eq!(v.render(), line, "parse→render is the identity");
    }
}

#[test]
fn snapshot_json_parses_with_escaped_metric_names() {
    let rec = sample_recorder();
    let snap = rec.snapshot_json();
    let v = Json::parse(&snap).unwrap_or_else(|e| panic!("bad snapshot: {e}\n{snap}"));

    let events = v.get("events").expect("events section");
    let recorded = events.get("recorded").and_then(Json::as_u64).expect("recorded");
    let retained = events.get("retained").and_then(Json::as_u64).expect("retained");
    assert_eq!(recorded, retained, "nothing evicted in this small run");
    assert_eq!(events.get("evicted").and_then(Json::as_u64), Some(0));
    let by_kind = events.get("by_kind").expect("by_kind map");
    assert_eq!(by_kind.get("packet").and_then(Json::as_u64), Some(1));
    // 3 opens + 1 instant open.
    assert_eq!(by_kind.get("span_open").and_then(Json::as_u64), Some(4));
    assert_eq!(by_kind.get("span_close").and_then(Json::as_u64), Some(3));

    let counters = v.get("counters").expect("counters section");
    assert_eq!(counters.get("runs/total").and_then(Json::as_u64), Some(3));
    assert_eq!(
        counters
            .get("with \"quotes\" and \\slash")
            .and_then(Json::as_u64),
        Some(1),
        "escaped counter name must decode back to the raw registration name"
    );

    let gauges = v.get("gauges").expect("gauges section");
    assert_eq!(
        gauges
            .get("chaos/recovery/backoff_ms")
            .and_then(Json::as_f64),
        Some(101.5)
    );
    assert_eq!(
        gauges.get("tab\there\nnewline\u{1}ctl").and_then(Json::as_f64),
        Some(-0.5),
        "control characters in metric names must round-trip"
    );

    let hist = v.get("histograms").and_then(|h| h.get("rtt_us")).expect("histogram");
    assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
    assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(1000));
}

#[test]
fn chrome_trace_parses_and_pairs_spans() {
    let events = vec![
        Event {
            time_ns: 1_000,
            kind: EventKind::SpanOpen {
                span: 11,
                parent: 0,
                trace: 11,
                kind: "msg",
                key: 7,
            },
        },
        Event {
            time_ns: 2_000,
            kind: EventKind::Mark { id: 1, value: 2 },
        },
        Event {
            time_ns: 3_500,
            kind: EventKind::SpanClose { span: 11, key: 0 },
        },
        Event {
            time_ns: 4_000,
            kind: EventKind::SpanOpen {
                span: 12,
                parent: 11,
                trace: 11,
                kind: "outage",
                key: 9,
            },
        },
    ];
    let text = kmsg_telemetry::export::to_chrome_trace(&events);
    assert_eq!(text, kmsg_telemetry::export::to_chrome_trace(&events));
    let v = Json::parse(&text).unwrap_or_else(|e| panic!("bad chrome trace: {e}\n{text}"));

    let entries = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(entries.len(), 3, "closed span + instant + unclosed span");

    let closed = entries
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("msg"))
        .expect("closed msg span entry");
    assert_eq!(closed.get("ph").and_then(Json::as_str), Some("X"));
    assert_eq!(closed.get("ts").and_then(Json::as_f64), Some(1.0), "µs");
    assert_eq!(closed.get("dur").and_then(Json::as_f64), Some(2.5), "µs");
    let args = closed.get("args").expect("args");
    assert_eq!(args.get("span").and_then(Json::as_u64), Some(11));
    assert_eq!(args.get("trace").and_then(Json::as_u64), Some(11));
    assert_eq!(args.get("close_key").and_then(Json::as_u64), Some(0));

    let instant = entries
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("mark"))
        .expect("instant entry");
    assert_eq!(instant.get("ph").and_then(Json::as_str), Some("i"));

    let unclosed = entries
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("outage"))
        .expect("unclosed span entry");
    assert_eq!(unclosed.get("dur").and_then(Json::as_f64), Some(0.0));
    assert_eq!(
        unclosed
            .get("args")
            .and_then(|a| a.get("unclosed"))
            .and_then(Json::as_u64),
        Some(1)
    );

    // Every entry's tid resolves through the metadata track map to its
    // own label.
    let meta = v.get("metadata").expect("metadata");
    for e in entries {
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        let label = meta
            .get(&format!("track_{tid}"))
            .and_then(Json::as_str)
            .expect("track label");
        let name = e.get("name").and_then(Json::as_str).expect("name");
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        if ph == "X" {
            assert_eq!(label, name);
        } else {
            assert_eq!(label, format!("ev:{name}"));
        }
    }
}

#[test]
fn recorder_chrome_trace_is_valid_json() {
    let rec = sample_recorder();
    let text = kmsg_telemetry::export::to_chrome_trace(&rec.events());
    let v = Json::parse(&text).unwrap_or_else(|e| panic!("bad chrome trace: {e}"));
    let entries = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    // 4 plain events as instants, 3 closed spans, 1 unclosed span.
    assert_eq!(entries.len(), 8);
}
