//! The harness's own host-time spans, recorded only in the traced twin.
//!
//! A span is `{id, parent, name, start_ns, end_ns, msg}`: one around each
//! phase, each probe call, each `sim.run_for` step and — inside
//! harness-owned components — each application send and deliver, the
//! last two carrying the message's id. Spans stay in memory and are
//! written to `benchmark/out/<workload>.spans.json` when the run ends.
//! A span's self time is its duration minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Mutex;

use crate::clock::wall_ns;

/// Per-message spans are kept for this many messages, so the artifact
/// stays a few megabytes; phases, probes and steps are always kept.
pub const MSG_SPAN_CAP: u64 = 20_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// 1-based id; 0 means "none".
    pub id: u32,
    /// Id of the span that was open when this one started.
    pub parent: u32,
    /// What the span covers.
    pub name: &'static str,
    /// Wall nanoseconds at start.
    pub start_ns: u64,
    /// Wall nanoseconds at end.
    pub end_ns: u64,
    /// The message the span belongs to, 0 for none.
    pub msg: u64,
}

struct Log {
    spans: Vec<Span>,
    open: Vec<u32>,
}

static ON: AtomicBool = AtomicBool::new(false);
static LOG: Mutex<Log> = Mutex::new(Log {
    spans: Vec::new(),
    open: Vec::new(),
});

fn log() -> std::sync::MutexGuard<'static, Log> {
    LOG.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Starts recording (the traced twin) or stops.
pub fn set_enabled(on: bool) {
    ON.store(on, Relaxed);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ON.load(Relaxed)
}

/// Closes its span when dropped.
#[must_use]
pub struct Guard(u32);

impl Drop for Guard {
    fn drop(&mut self) {
        if self.0 != 0 {
            let now = wall_ns();
            let mut log = log();
            log.spans[self.0 as usize - 1].end_ns = now;
            let top = log.open.pop();
            debug_assert_eq!(top, Some(self.0), "spans close innermost first");
        }
    }
}

/// Opens a span under the innermost open one. Free when recording is off.
pub fn open(name: &'static str, msg: u64) -> Guard {
    if !enabled() {
        return Guard(0);
    }
    let mut log = log();
    let id = log.spans.len() as u32 + 1;
    let parent = log.open.last().copied().unwrap_or(0);
    log.spans.push(Span {
        id,
        parent,
        name,
        start_ns: wall_ns(),
        end_ns: 0,
        msg,
    });
    log.open.push(id);
    Guard(id)
}

/// Opens a per-message span, subject to [`MSG_SPAN_CAP`].
pub fn open_msg(name: &'static str, msg: u64) -> Guard {
    if msg > MSG_SPAN_CAP {
        return Guard(0);
    }
    open(name, msg)
}

/// Takes everything recorded so far.
#[must_use]
pub fn drain() -> Vec<Span> {
    let mut log = log();
    log.open.clear();
    std::mem::take(&mut log.spans)
}

/// One row of the per-name profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name.
    pub name: &'static str,
    /// Spans of that name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus what child spans cover.
    pub self_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time per span name, sorted by name.
#[must_use]
pub fn self_profile(spans: &[Span]) -> Vec<ProfileRow> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut rows: BTreeMap<&'static str, ProfileRow> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = children.remove(&s.id).unwrap_or_default();
        let row = rows.entry(s.name).or_insert(ProfileRow {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += dur;
        row.self_ns += dur - covered(kids, s.start_ns, s.end_ns);
    }
    rows.into_values().collect()
}

/// The artifact: every span and the profile, as JSON.
#[must_use]
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 256);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"host wall ns\",\"msg_span_cap\":{MSG_SPAN_CAP},\"profile\":["
    );
    for (i, r) in self_profile(spans).iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            if i == 0 { "" } else { "," },
            r.name,
            r.count,
            r.total_ns,
            r.self_ns
        );
    }
    out.push_str("],\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"msg\":{}}}",
            if i == 0 { "" } else { "," },
            s.id,
            s.parent,
            s.name,
            s.start_ns,
            s.end_ns,
            s.msg
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            msg: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, "step", 0, 100),
            // Children overlap each other (20..50 and 40..70), one pokes
            // out of the parent (90..130), one is nested deeper.
            span(2, 1, "send", 20, 50),
            span(3, 1, "send", 40, 70),
            span(4, 1, "deliver", 90, 130),
            span(5, 2, "deliver", 25, 30),
        ];
        let rows = self_profile(&spans);
        let by = |n: &str| rows.iter().find(|r| r.name == n).expect("row").clone();
        // step: 100 − (|20..70| + |90..100|) = 100 − 60 = 40.
        assert_eq!(by("step").self_ns, 40);
        assert_eq!(by("step").total_ns, 100);
        // send: (30 − 5) + 30 = 55; the grandchild counts against span 2 only.
        assert_eq!(by("send").self_ns, 55);
        assert_eq!(by("send").count, 2);
        // deliver: 40 + 5, no children.
        assert_eq!(by("deliver").self_ns, 45);
    }

    #[test]
    fn covered_clips_and_merges() {
        assert_eq!(covered(vec![(0, 10), (5, 15), (20, 30)], 0, 25), 20);
        assert_eq!(covered(vec![], 0, 10), 0);
        assert_eq!(covered(vec![(50, 60)], 0, 10), 0);
    }

    #[test]
    fn json_lists_every_span() {
        let spans = [span(1, 0, "phase", 1, 9), span(2, 1, "step", 2, 5)];
        let json = to_json("w", 7, &spans);
        assert!(json.contains("\"workload\":\"w\""));
        assert!(json.contains(
            "{\"id\":2,\"parent\":1,\"name\":\"step\",\"start_ns\":2,\"end_ns\":5,\"msg\":0}"
        ));
        assert!(json.contains("\"self_ns\":5"));
    }
}
