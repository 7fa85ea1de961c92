//! Critical-path reconstruction over recorded causal spans.
//!
//! Consumes the flat event stream ([`EventKind::SpanOpen`] /
//! [`EventKind::SpanClose`] plus the ordinary protocol events) and
//! rebuilds *where simulated time went*:
//!
//! * [`SpanForest`] — every recorded span with its parent/trace links and
//!   open/close stamps, in stream order;
//! * [`self_profile`] — per span kind, exclusive ("self") sim-time with
//!   child spans subtracted — the flame-graph view of a component;
//! * [`recovery_attribution`] — the chaos ride-out table: one supervision
//!   outage decomposed into backoff / redial / requeue / detect+idle
//!   components that **sum exactly** to the lost-to-restored window.
//!
//! Every function here is a pure fold over the event slice — no clocks,
//! no maps with nondeterministic iteration — so equal streams produce
//! equal tables, which the chaos benchmark's same-seed assertions rely
//! on.

use std::collections::HashMap;

use crate::event::{Event, EventKind};

/// One reconstructed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Span {
    /// Packed span id (see [`crate::trace::SpanId`]).
    pub(crate) id: u64,
    /// Parent span id, 0 for roots.
    pub(crate) parent: u64,
    /// Trace (root-span) id, 0 for unattributed work.
    pub(crate) trace: u64,
    /// Kind label from the open event.
    pub(crate) kind: &'static str,
    /// Correlation key from the open event.
    pub(crate) key: u64,
    /// Open timestamp, virtual ns.
    pub(crate) open_ns: u64,
    /// Close timestamp, `None` if the stream ended with the span open.
    pub(crate) close_ns: Option<u64>,
    /// Outcome key from the close event (0 while open).
    pub(crate) close_key: u64,
}

impl Span {
    /// Duration in ns; open spans count as zero-length.
    #[must_use]
    pub(crate) fn dur_ns(&self) -> u64 {
        self.close_ns.map_or(0, |c| c.saturating_sub(self.open_ns))
    }

    /// The `[open, close)` interval (open spans collapse to a point).
    #[must_use]
    pub(crate) fn interval(&self) -> (u64, u64) {
        (self.open_ns, self.close_ns.unwrap_or(self.open_ns))
    }
}

/// All spans of a recorded stream, in open order.
#[derive(Debug, Default, Clone)]
pub struct SpanForest {
    spans: Vec<Span>,
    by_id: HashMap<u64, usize>,
}

impl SpanForest {
    /// Rebuilds the forest from an event stream. Closes without a
    /// matching open (evicted from a truncated ring) are ignored.
    #[must_use]
    pub fn build(events: &[Event]) -> SpanForest {
        let mut forest = SpanForest::default();
        for ev in events {
            match &ev.kind {
                EventKind::SpanOpen {
                    span,
                    parent,
                    trace,
                    kind,
                    key,
                } => {
                    forest.by_id.insert(*span, forest.spans.len());
                    forest.spans.push(Span {
                        id: *span,
                        parent: *parent,
                        trace: *trace,
                        kind,
                        key: *key,
                        open_ns: ev.time_ns,
                        close_ns: None,
                        close_key: 0,
                    });
                }
                EventKind::SpanClose { span, key } => {
                    if let Some(&i) = forest.by_id.get(span) {
                        forest.spans[i].close_ns = Some(ev.time_ns);
                        forest.spans[i].close_key = *key;
                    }
                }
                _ => {}
            }
        }
        forest
    }

    /// Spans in open order.
    #[must_use]
    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Direct children of `id`, in open order.
    #[must_use]
    pub(crate) fn children_of(&self, id: u64) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.parent == id).collect()
    }

    /// Spans of one kind, in open order.
    #[must_use]
    pub(crate) fn of_kind(&self, kind: &str) -> Vec<&Span> {
        self.spans.iter().filter(|s| s.kind == kind).collect()
    }
}

/// Clips `iv` to `win`, dropping empty leftovers.
fn clip(iv: (u64, u64), win: (u64, u64)) -> Option<(u64, u64)> {
    let a = iv.0.max(win.0);
    let b = iv.1.min(win.1);
    (a < b).then_some((a, b))
}

/// Total length of the union of intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                let _ = ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Exact partition of `window` across interval classes by priority:
/// every elementary sub-interval is charged to the *first* class covering
/// it; whatever no class covers lands in the trailing "idle" bucket. The
/// returned lengths (one per class, plus idle last) always sum to the
/// window length.
fn partition(window: (u64, u64), classes: &[Vec<(u64, u64)>]) -> Vec<u64> {
    let mut edges: Vec<u64> = vec![window.0, window.1];
    let clipped: Vec<Vec<(u64, u64)>> = classes
        .iter()
        .map(|c| c.iter().filter_map(|&iv| clip(iv, window)).collect())
        .collect();
    for c in &clipped {
        for &(a, b) in c {
            edges.push(a);
            edges.push(b);
        }
    }
    edges.sort_unstable();
    edges.dedup();
    let mut out = vec![0u64; classes.len() + 1];
    for w in edges.windows(2) {
        let (a, b) = (w[0], w[1]);
        let hit = clipped
            .iter()
            .position(|c| c.iter().any(|&(ca, cb)| ca <= a && cb >= b));
        match hit {
            Some(i) => out[i] += b - a,
            None => *out.last_mut().expect("idle bucket") += b - a,
        }
    }
    out
}

/// One row of the per-kind self-time profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span kind label.
    pub kind: &'static str,
    /// Spans of this kind (closed or not).
    pub count: u64,
    /// Total inclusive duration, ns.
    pub total_ns: u64,
    /// Exclusive duration: inclusive minus the union of child spans.
    pub self_ns: u64,
}

/// Per-kind self-time profile (the flame-graph totals), sorted by label
/// so output is deterministic.
#[must_use]
pub fn self_profile(forest: &SpanForest) -> Vec<ProfileRow> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in forest.spans() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s.interval());
        }
    }
    let mut rows: HashMap<&'static str, ProfileRow> = HashMap::new();
    for s in forest.spans() {
        let row = rows.entry(s.kind).or_insert(ProfileRow {
            kind: s.kind,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        let dur = s.dur_ns();
        row.total_ns += dur;
        let covered = children.get(&s.id).map_or(0, |kids| {
            union_len(
                kids.iter()
                    .filter_map(|&iv| clip(iv, s.interval()))
                    .collect(),
            )
        });
        row.self_ns += dur.saturating_sub(covered.min(dur));
    }
    let mut out: Vec<ProfileRow> = rows.into_values().collect();
    out.sort_by_key(|r| r.kind);
    out
}

/// The chaos ride-out table: one recovery window decomposed into
/// component latencies that sum exactly to `total_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryAttribution {
    /// Channel key of the outage span that restored first.
    pub(crate) channel_key: u64,
    /// Window start: the earliest outage open (first `ConnectionLost`).
    pub(crate) from_ns: u64,
    /// Window end: the earliest outage close (first restore/drop).
    pub(crate) to_ns: u64,
    /// `to_ns - from_ns`; always equals the sum of all component values.
    pub total_ns: u64,
    /// `(label, ns)` components: `backoff`, `redial`, `requeue`, `idle`.
    pub components: Vec<(&'static str, u64)>,
}

/// Reconstructs the recovery attribution for the first-healed supervision
/// outage: the window runs from the **earliest** outage open (matching
/// the "first lost" edge of a recovery-latency measurement) to the
/// earliest outage close, and is partitioned over that outage's child
/// spans (redial first, then backoff, then requeue; the uncovered rest is
/// detection/idle time). Returns `None` when no outage span closed.
#[must_use]
pub fn recovery_attribution(forest: &SpanForest) -> Option<RecoveryAttribution> {
    let outages = forest.of_kind("outage");
    let from_ns = outages.iter().map(|s| s.open_ns).min()?;
    let first_healed = outages
        .iter()
        .filter(|s| s.close_ns.is_some())
        .min_by_key(|s| (s.close_ns.expect("filtered"), s.open_ns, s.id))?;
    let to_ns = first_healed.close_ns.expect("filtered");
    let window = (from_ns, to_ns);
    let mut backoff = Vec::new();
    let mut redial = Vec::new();
    let mut requeue = Vec::new();
    for c in forest.children_of(first_healed.id) {
        match c.kind {
            "backoff" => backoff.push(c.interval()),
            "redial" => redial.push(c.interval()),
            "requeue" => requeue.push(c.interval()),
            _ => {}
        }
    }
    let parts = partition(window, &[redial, backoff, requeue]);
    Some(RecoveryAttribution {
        channel_key: first_healed.key,
        from_ns,
        to_ns,
        total_ns: to_ns - from_ns,
        components: vec![
            ("backoff", parts[1]),
            ("redial", parts[0]),
            ("requeue", parts[2]),
            ("idle", parts[3]),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanKind;
    use crate::Recorder;

    impl SpanForest {
        /// Looks a span up by id.
        #[must_use]
        fn get(&self, id: u64) -> Option<&Span> {
            self.by_id.get(&id).map(|&i| &self.spans[i])
        }
    }

    fn ev_open(t: u64, span: u64, parent: u64, trace: u64, kind: &'static str, key: u64) -> Event {
        Event {
            time_ns: t,
            kind: EventKind::SpanOpen {
                span,
                parent,
                trace,
                kind,
                key,
            },
        }
    }

    fn ev_close(t: u64, span: u64, key: u64) -> Event {
        Event {
            time_ns: t,
            kind: EventKind::SpanClose { span, key },
        }
    }

    #[test]
    fn forest_links_parents_and_closes() {
        let events = vec![
            ev_open(10, 1, 0, 1, "msg", 5),
            ev_open(12, 2, 1, 1, "enqueue", 0),
            ev_close(20, 2, 0),
            ev_close(30, 1, 0),
        ];
        let f = SpanForest::build(&events);
        assert_eq!(f.spans().len(), 2);
        assert_eq!(f.get(1).expect("root").dur_ns(), 20);
        assert_eq!(f.children_of(1).len(), 1);
        assert_eq!(f.of_kind("enqueue")[0].interval(), (12, 20));
        // A close without an open (truncated ring) is ignored.
        let f2 = SpanForest::build(&[ev_close(5, 99, 0)]);
        assert!(f2.spans().is_empty());
    }

    #[test]
    fn partition_is_exact_and_prioritised() {
        // window [0,100): class A covers [10,40), class B covers [30,60).
        let parts = partition((0, 100), &[vec![(10, 40)], vec![(30, 60)]]);
        assert_eq!(parts, vec![30, 20, 50]); // A, B-minus-A, idle
        assert_eq!(parts.iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_profile_subtracts_children() {
        let events = vec![
            ev_open(0, 1, 0, 1, "msg", 0),
            ev_open(10, 2, 1, 1, "xmit", 0),
            ev_close(60, 2, 0),
            ev_close(100, 1, 0),
        ];
        let rows = self_profile(&SpanForest::build(&events));
        let msg = rows.iter().find(|r| r.kind == "msg").expect("msg row");
        assert_eq!(msg.total_ns, 100);
        assert_eq!(msg.self_ns, 50);
        let xmit = rows.iter().find(|r| r.kind == "xmit").expect("xmit row");
        assert_eq!(xmit.self_ns, 50);
    }

    #[test]
    fn recovery_attribution_sums_exactly() {
        let events = vec![
            ev_open(1_000, 10, 0, 0, "outage", 42),
            ev_open(1_000, 11, 10, 0, "requeue", 2),
            ev_close(1_000, 11, 0),
            ev_open(1_000, 12, 10, 0, "backoff", 1),
            ev_close(1_100, 12, 0),
            ev_open(1_100, 13, 10, 0, "redial", 1),
            ev_close(1_160, 13, 1),
            ev_open(1_160, 14, 10, 0, "backoff", 2),
            ev_close(1_360, 14, 0),
            ev_open(1_360, 15, 10, 0, "redial", 2),
            ev_close(1_400, 15, 0),
            ev_close(1_400, 10, 0),
        ];
        let att = recovery_attribution(&SpanForest::build(&events)).expect("attribution");
        assert_eq!(att.total_ns, 400);
        assert_eq!(att.channel_key, 42);
        let get = |k: &str| {
            att.components
                .iter()
                .find(|(l, _)| *l == k)
                .map(|(_, v)| *v)
                .expect("component")
        };
        assert_eq!(get("backoff"), 300);
        assert_eq!(get("redial"), 100);
        assert_eq!(get("requeue"), 0);
        assert_eq!(get("idle"), 0);
        assert_eq!(
            att.components.iter().map(|(_, v)| v).sum::<u64>(),
            att.total_ns
        );
    }

    #[test]
    fn recovery_window_starts_at_earliest_outage() {
        // A second channel lost earlier but healed later: the window
        // starts at its open (first lost) and ends at the first heal.
        let events = vec![
            ev_open(500, 20, 0, 0, "outage", 1),
            ev_open(1_000, 10, 0, 0, "outage", 2),
            ev_close(1_400, 10, 0),
            ev_close(2_000, 20, 0),
        ];
        let att = recovery_attribution(&SpanForest::build(&events)).expect("attribution");
        assert_eq!(att.from_ns, 500);
        assert_eq!(att.to_ns, 1_400);
        assert_eq!(att.total_ns, 900);
        assert_eq!(att.channel_key, 2);
        assert_eq!(
            att.components.iter().map(|(_, v)| v).sum::<u64>(),
            att.total_ns
        );
    }

    #[test]
    fn tracer_output_feeds_the_analyzer() {
        let rec = Recorder::new();
        rec.enable();
        let tr = rec.tracer();
        let msg = tr.open_root(0, SpanKind::Msg, 1);
        let q = tr.open(0, SpanKind::Enqueue, msg, msg, 0);
        tr.close(25, q);
        let x = tr.open(25, SpanKind::Xmit, msg, msg, 0);
        tr.close(75, x);
        tr.close(80, msg);
        let rows = self_profile(&SpanForest::build(&rec.events()));
        let self_ns = |k: &str| rows.iter().find(|r| r.kind == k).expect("row").self_ns;
        assert_eq!(
            (self_ns("enqueue"), self_ns("xmit"), self_ns("msg")),
            (25, 50, 5)
        );
    }
}
