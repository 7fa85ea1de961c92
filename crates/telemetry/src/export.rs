//! The flight recorder's exporters: JSONL event lines and the Chrome trace.
//!
//! Both build their output with plain string pushes over [`crate::json`]'s
//! two primitives. Key order is fixed per event kind (the order of the
//! schema table in `crate::event`) and tracks are numbered in label order,
//! so two runs that record the same data emit byte-identical text — the
//! property the determinism tests assert.

use crate::event::{Event, EventKind};
use crate::json::{push_f64, push_str};

/// A type an event field can have, and how its values are written.
pub(crate) trait JsonField {
    fn push_json(&self, out: &mut String);
}

impl JsonField for u64 {
    fn push_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl JsonField for f64 {
    fn push_json(&self, out: &mut String) {
        push_f64(out, *self);
    }
}

impl JsonField for bool {
    fn push_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl JsonField for &'static str {
    fn push_json(&self, out: &mut String) {
        push_str(out, self);
    }
}

impl JsonField for String {
    fn push_json(&self, out: &mut String) {
        push_str(out, self);
    }
}

/// Appends `,"key":value`.
pub(crate) fn push_field(out: &mut String, key: &str, value: &impl JsonField) {
    out.push(',');
    push_str(out, key);
    out.push(':');
    value.push_json(out);
}

/// Appends one event as a single-line JSON object (no trailing newline).
///
/// Every line starts with `"t"` (virtual-clock nanoseconds) and `"kind"`,
/// followed by the variant's fields in declaration order.
pub fn push_event_json(out: &mut String, ev: &Event) {
    out.push_str("{\"t\":");
    out.push_str(&ev.time_ns.to_string());
    out.push_str(",\"kind\":");
    push_str(out, ev.kind.label());
    ev.kind.push_json_fields(out);
    out.push('}');
}

/// Serialises a recorded stream as Chrome trace-event JSON (the
/// `chrome://tracing` / [Perfetto](https://ui.perfetto.dev) format):
/// one complete-duration (`"ph":"X"`) entry per closed span and one
/// instant (`"ph":"i"`) entry per non-span event, all on one process.
///
/// Tracks (`tid`) group spans by kind label and non-span events under a
/// per-kind `"ev:<kind>"` track, so the middleware, transport and fabric
/// layers land on separate rows. Timestamps are virtual-clock
/// microseconds (fractional, from the ns stamps), so output is a pure
/// function of the event stream — byte-identical for the same seed at
/// any sweep width.
///
/// Spans left open at the end of the stream are emitted with zero
/// duration and `"unclosed":1` rather than dropped.
#[must_use]
pub fn to_chrome_trace(events: &[Event]) -> String {
    use std::collections::BTreeMap;

    // Stable track numbering: kinds in first-appearance order would vary
    // by scenario, so collect and sort labels first.
    let mut tracks: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events {
        let label = match &ev.kind {
            EventKind::SpanOpen { kind, .. } => (*kind).to_string(),
            EventKind::SpanClose { .. } => continue,
            other => format!("ev:{}", other.label()),
        };
        tracks.entry(label).or_insert(0);
    }
    for (i, v) in tracks.values_mut().enumerate() {
        *v = i as u64;
    }

    let us = |ns: u64| ns as f64 / 1000.0;
    let mut entries: Vec<String> = Vec::new();
    // span raw id -> open index, for duration pairing.
    let mut open: BTreeMap<u64, usize> = BTreeMap::new();

    let push_common = |s: &mut String, name: &str, ph: &str, ts_ns: u64, tid: u64| {
        s.push_str("{\"name\":");
        push_str(s, name);
        s.push_str(&format!(",\"ph\":\"{ph}\",\"pid\":0,\"tid\":{tid},\"ts\":"));
        push_f64(s, us(ts_ns));
    };
    // The `"ph":"X"` entry of the span opened at `events[open_idx]`; `last`
    // is the member that ends its `args`.
    let span_entry = |open_idx: usize, dur_ns: u64, last: &str| {
        let open_ev = &events[open_idx];
        let EventKind::SpanOpen {
            span,
            parent,
            trace,
            kind,
            key,
        } = &open_ev.kind
        else {
            return None;
        };
        let tid = tracks.get(*kind).copied().unwrap_or(0);
        let mut s = String::new();
        push_common(&mut s, kind, "X", open_ev.time_ns, tid);
        s.push_str(",\"dur\":");
        push_f64(&mut s, us(dur_ns));
        s.push_str(&format!(
            ",\"args\":{{\"span\":{span},\"parent\":{parent},\"trace\":{trace},\
             \"key\":{key},{last}}}}}"
        ));
        Some(s)
    };

    for (i, ev) in events.iter().enumerate() {
        match &ev.kind {
            EventKind::SpanOpen { span, .. } => {
                open.insert(*span, i);
            }
            EventKind::SpanClose { span, key } => {
                let Some(open_idx) = open.remove(span) else {
                    continue;
                };
                let dur_ns = ev.time_ns.saturating_sub(events[open_idx].time_ns);
                entries.extend(span_entry(
                    open_idx,
                    dur_ns,
                    &format!("\"close_key\":{key}"),
                ));
            }
            other => {
                let label = format!("ev:{}", other.label());
                let tid = tracks.get(&label).copied().unwrap_or(0);
                let mut s = String::new();
                push_common(&mut s, other.label(), "i", ev.time_ns, tid);
                s.push_str(",\"s\":\"t\"}");
                entries.push(s);
            }
        }
    }
    // Unclosed spans: keep them visible instead of silently dropping.
    for open_idx in open.into_values() {
        entries.extend(span_entry(open_idx, 0, "\"unclosed\":1"));
    }

    let mut out = String::with_capacity(entries.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(e);
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"metadata\":{");
    for (i, (label, tid)) in tracks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_str(&mut out, &format!("track_{tid}"));
        out.push(':');
        push_str(&mut out, label);
    }
    out.push_str("}}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire schema, byte for byte: one event of every kind, awkward
    /// values included. A new kind extends `one_of_every_kind` and this list.
    #[test]
    fn every_kind_serialises_to_its_golden_line() {
        let golden = [
            r#"{"t":0,"kind":"tcp_cwnd","conn":18446744073709551615,"cwnd":null,"ssthresh":null,"cause":"r\"t\\o"}"#,
            r#"{"t":1,"kind":"tcp_rto","conn":1,"rto_us":18446744073709551615,"consecutive":0}"#,
            r#"{"t":2,"kind":"tcp_retransmit","conn":2,"seq":3,"fast":true}"#,
            r#"{"t":3,"kind":"udt_rate","conn":4,"period_us":-0,"rate_pps":1000000000000000000000,"cause":"syn\nincrease"}"#,
            r#"{"t":4,"kind":"udt_nak","conn":5,"sent":false,"losses":6}"#,
            r#"{"t":5,"kind":"link_queue","link":7,"backlog_bytes":0,"capacity_bytes":18446744073709551615}"#,
            r#"{"t":6,"kind":"link_drop","link":8,"reason":"queue\u0001overflow","wire_size":1500}"#,
            r#"{"t":7,"kind":"packet","src":"a\"0\":1","dst":"b\\1:2","proto":"udp","wire_size":9,"outcome":"dropped:\tpoliced\r"}"#,
            r#"{"t":8,"kind":"scheduler_queue","depth":10}"#,
            r#"{"t":9,"kind":"component_exec","component":11,"handled":12}"#,
            r#"{"t":10,"kind":"decision","flow":13,"step":14,"state":15,"action":16,"reward":null,"epsilon":0.0000001,"greedy":false}"#,
            r#"{"t":11,"kind":"fault","action":"sever","link":17}"#,
            r#"{"t":12,"kind":"conn_status","peer":18,"transport":"tcp","status":"lost","attempts":19}"#,
            r#"{"t":13,"kind":"overflow","evicted":20}"#,
            r#"{"t":14,"kind":"mark","id":21,"value":22}"#,
            r#"{"t":15,"kind":"span_open","span":23,"parent":0,"trace":23,"span_kind":"seg","key":18446744073709551615}"#,
            r#"{"t":16,"kind":"span_close","span":23,"key":1}"#,
            r#"{"t":17,"kind":"ttl_drop","node":24,"dst":18446744073709551615}"#,
            r#"{"t":18,"kind":"cc_window","conn":29,"controller":"cubic","cause":"loss","prev_cwnd":2920,"cwnd":0.5,"ssthresh":-1.25,"w_max":10000000000000000}"#,
            r#"{"t":19,"kind":"bbr_state","conn":30,"phase":"probe_bw","pacing_rate_bps":1500000,"btl_bw_bps":null,"min_rtt_us":31,"cwnd":0}"#,
        ];
        let kinds = crate::event::tests::one_of_every_kind();
        assert_eq!(kinds.len(), golden.len());
        for (i, (kind, want)) in kinds.into_iter().zip(golden).enumerate() {
            let mut out = String::new();
            push_event_json(
                &mut out,
                &Event {
                    time_ns: i as u64,
                    kind,
                },
            );
            assert_eq!(out, want, "line {i}");
        }
    }

    #[test]
    fn chrome_trace_pairs_spans_and_keeps_unclosed() {
        let events = vec![
            Event {
                time_ns: 1_000,
                kind: EventKind::SpanOpen {
                    span: 11,
                    parent: 0,
                    trace: 11,
                    kind: "msg",
                    key: 0,
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
                    parent: 0,
                    trace: 12,
                    kind: "outage",
                    key: 7,
                },
            },
        ];
        let json = to_chrome_trace(&events);
        assert!(json.contains("\"name\":\"msg\",\"ph\":\"X\""));
        assert!(json.contains("\"dur\":2.5"), "{json}");
        assert!(json.contains("\"name\":\"mark\",\"ph\":\"i\""));
        assert!(json.contains("\"unclosed\":1"));
        assert!(json.contains("\"traceEvents\":["));
        // Deterministic: same input, same bytes.
        assert_eq!(json, to_chrome_trace(&events));
        // Balanced structure (cheap validity check, as for snapshots).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
