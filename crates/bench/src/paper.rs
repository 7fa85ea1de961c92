//! The paper's claims as predicates over the tables `paper_gate` prints.
//!
//! A predicate is a [`Check`]: a measured value from one figure's table,
//! a bound, and which side of the bound the claim puts it on. A row that
//! runs several seeds yields one check per predicate per seed;
//! [`fold`] groups them into a [`Verdict`] per predicate that keeps the
//! worst seed. The inputs are plain table values, so the unit tests below
//! feed the predicates EXPERIMENTS.md's own tables.

use std::time::Duration;

use kmsg_apps::Setup;
use kmsg_core::data::Ratio;
use kmsg_telemetry::json::Json;

use crate::fig1_core::{CellResult, TARGETS};

/// Which side of its bound a measured value must lie on: `<=`, `<`,
/// `>=`, `>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmp {
    Le,
    Lt,
    Ge,
    Gt,
}
use Cmp::{Ge, Gt, Le, Lt};

/// One predicate evaluated on one run: the claim's row, what is measured
/// and how it compares (e.g. `"EU2US: TCP+TCPdata / TCP pings >= 10"`),
/// the measured value (NaN when there is nothing to measure) and the
/// bound.
#[derive(Debug)]
pub struct Check {
    claim: &'static str,
    predicate: String,
    measured: f64,
    cmp: Cmp,
    bound: f64,
}

impl Check {
    /// Distance from the bound, positive on the side the claim asks for.
    fn margin(&self) -> f64 {
        match self.cmp {
            Le | Lt => self.bound - self.measured,
            Ge | Gt => self.measured - self.bound,
        }
    }

    /// Whether the claim holds on this run; never for a NaN.
    fn holds(&self) -> bool {
        match self.cmp {
            Le | Ge => self.margin() >= 0.0,
            Lt | Gt => self.margin() > 0.0,
        }
    }
}

/// One predicate over every run of its row: the worst run's check (a
/// NaN margin is the worst) and how many runs passed.
#[derive(Debug)]
pub struct Verdict {
    worst: Check,
    passed: usize,
    runs: usize,
}

impl Verdict {
    /// Whether the predicate held on every run.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.passed == self.runs
    }

    /// The report line: verdict, claim, predicate, measured value, bound,
    /// margin and seeds passed.
    #[must_use]
    pub fn line(&self) -> String {
        let (w, verdict) = (&self.worst, if self.holds() { "ok  " } else { "FAIL" });
        format!(
            "{verdict} {}: {}: measured {:.4}, bound {:.4}, margin {:.4} ({}/{} seeds)",
            w.claim,
            w.predicate,
            w.measured,
            w.bound,
            w.margin(),
            self.passed,
            self.runs
        )
    }

    /// The verdict's row of `BENCH_paper.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let w = &self.worst;
        Json::obj(vec![
            ("claim", Json::Str(w.claim.into())),
            ("predicate", Json::Str(w.predicate.clone())),
            ("measured", Json::Num(w.measured)),
            ("bound", Json::Num(w.bound)),
            ("margin", Json::Num(w.margin())),
            ("seeds_passed", Json::Num(self.passed as f64)),
            ("seeds", Json::Num(self.runs as f64)),
        ])
    }
}

/// Groups checks by predicate, in order of first appearance.
#[must_use]
pub fn fold(checks: Vec<Check>) -> Vec<Verdict> {
    let mut out: Vec<Verdict> = Vec::new();
    for check in checks {
        let passed = usize::from(check.holds());
        let same = |v: &&mut Verdict| {
            (v.worst.claim, &v.worst.predicate) == (check.claim, &check.predicate)
        };
        match out.iter_mut().find(same) {
            Some(v) => {
                v.passed += passed;
                v.runs += 1;
                if check.margin().is_nan() || check.margin() < v.worst.margin() {
                    v.worst = check;
                }
            }
            None => out.push(Verdict {
                worst: check,
                passed,
                runs: 1,
            }),
        }
    }
    out
}

fn check(claim: &'static str, predicate: String, measured: f64, cmp: Cmp, bound: f64) -> Check {
    Check {
        claim,
        predicate,
        measured,
        cmp,
        bound,
    }
}

/// Figure 1: Episode/Pattern is exact at every target (range ≤ 0.002,
/// median within 0.001 of the target), and Wire/Pattern's min–max range
/// is narrower than Wire/Random's at every target except 0, where both
/// are exact.
///
/// # Panics
///
/// Panics if `cells` lacks one of the figure's 16 cells.
#[must_use]
pub fn fig1_checks(cells: &[CellResult]) -> Vec<Check> {
    let box_of = |label: &str, dataset: &str| {
        let s = cells
            .iter()
            .find(|c| c.cell.label == label && c.cell.dataset() == dataset)
            .unwrap_or_else(|| panic!("Figure 1 has no {label} {dataset} cell"))
            .summary;
        (s.max - s.min, s.median)
    };
    let mut out = Vec::new();
    for &(prob, label) in &TARGETS {
        let (episode, median) = box_of(label, "Episode/Pattern");
        let target = Ratio::from_prob_udt(prob).signed();
        let (pattern, _) = box_of(label, "Wire/Pattern");
        let (random, _) = box_of(label, "Wire/Random");
        let check = |p: &str, m, cmp, b| check("fig1", format!("{label}: {p}"), m, cmp, b);
        out.push(check("Episode/Pattern range <= 0.002", episode, Le, 0.002));
        out.push(check(
            "Episode/Pattern |median - target| <= 0.001",
            (median - target).abs(),
            Le,
            0.001,
        ));
        if prob == 0.0 {
            out.push(check("Wire/Pattern range <= 0.002", pattern, Le, 0.002));
            out.push(check("Wire/Random range <= 0.002", random, Le, 0.002));
        } else {
            out.push(check(
                "Wire/Pattern range < Wire/Random range",
                pattern,
                Lt,
                random,
            ));
        }
    }
    out
}

/// The wide-area setups, where Figs. 8 and 9 make their WAN claims.
fn wan(setup: &Setup) -> bool {
    matches!(setup, Setup::Eu2Us | Setup::Eu2Au)
}

/// One Figure 8 series: the mean ping RTT and how many pings came back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pings {
    /// Mean RTT in ms (NaN when none came back).
    pub mean_ms: f64,
    /// Pings received.
    pub received: u64,
}

/// One Figure 8 row: a setup and its five series in print order — TCP
/// pings, UDP pings, then TCP pings beside TCP, UDT and DATA data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// The setup.
    pub setup: Setup,
    /// The five series.
    pub series: [Pings; 5],
}

/// Figure 8: every series got pings back; TCP pings beside UDT data stay
/// within 5 % of the TCP-pings baseline on every setup; and on the WAN,
/// TCP pings beside TCP data cost ≥ 10× the baseline while beside DATA
/// they lie strictly between the baseline and a tenth of the all-TCP
/// figure.
#[must_use]
pub fn fig8_checks(rows: &[Fig8Row]) -> Vec<Check> {
    let mut out = Vec::new();
    for row in rows {
        let label = row.setup.label();
        let check = |p: &str, m, cmp, b| check("fig8", format!("{label}: {p}"), m, cmp, b);
        let fewest = row.series.iter().map(|s| s.received).min().unwrap_or(0);
        let [base, _, tcp, udt, data] = row.series.map(|s| s.mean_ms);
        out.push(check(
            "fewest pings received in a series >= 1",
            fewest as f64,
            Ge,
            1.0,
        ));
        out.push(check(
            "|TCP+UDTdata / TCP pings - 1| <= 0.05",
            (udt / base - 1.0).abs(),
            Le,
            0.05,
        ));
        if wan(&row.setup) {
            out.push(check("TCP+TCPdata / TCP pings >= 10", tcp / base, Ge, 10.0));
            out.push(check("TCP+DATAdata ms > TCP pings ms", data, Gt, base));
            out.push(check(
                "TCP+DATAdata ms < TCP+TCPdata ms / 10",
                data,
                Lt,
                tcp / 10.0,
            ));
        }
    }
    out
}

/// One Figure 9 row: a setup and its mean throughputs in MB/s.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// The setup.
    pub setup: Setup,
    /// TCP, UDT and DATA, in that order.
    pub mbps: [f64; 3],
}

/// Figure 9: TCP ≥ 100 MB/s at ≤ 3 ms RTT; TCP beats UDT at EU-VPC and
/// UDT beats TCP at EU2US; UDT lies between 7 and 11 MB/s on the WAN; and
/// DATA reaches 0.9× the better transport on every setup.
#[must_use]
pub fn fig9_checks(rows: &[Fig9Row]) -> Vec<Check> {
    let mut out = Vec::new();
    for row in rows {
        let label = row.setup.label();
        let check = |p: &str, m, cmp, b| check("fig9", format!("{label}: {p}"), m, cmp, b);
        let [tcp, udt, data] = row.mbps;
        if row.setup.rtt() <= Duration::from_millis(3) {
            out.push(check("TCP MB/s >= 100", tcp, Ge, 100.0));
        }
        match row.setup {
            Setup::EuVpc => out.push(check("TCP MB/s > UDT MB/s", tcp, Gt, udt)),
            Setup::Eu2Us => out.push(check("UDT MB/s > TCP MB/s", udt, Gt, tcp)),
            _ => {}
        }
        if wan(&row.setup) {
            out.push(check("UDT MB/s >= 7", udt, Ge, 7.0));
            out.push(check("UDT MB/s <= 11", udt, Le, 11.0));
        }
        out.push(check(
            "DATA MB/s >= 0.9 x the better transport",
            data,
            Ge,
            0.9 * tcp.max(udt),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    //! Every predicate holds on the table EXPERIMENTS.md reports, and a
    //! mutation of one cell fails it — and no other predicate, except
    //! where one claim implies another (noted at the mutation).

    use super::*;
    use crate::fig1_core::{Cell, EPISODE_WINDOW, WIRE_WINDOW};
    use kmsg_netsim::stats::Summary;
    use std::collections::BTreeSet;

    const DOC: &str = include_str!("../../../EXPERIMENTS.md");

    /// The whitespace-split lines of the first `text` block after `heading`.
    fn table(heading: &str) -> Vec<Vec<&'static str>> {
        let section = &DOC[DOC.find(heading).expect("heading in EXPERIMENTS.md")..];
        let block = &section[section.find("```text\n").expect("a text block") + 8..];
        let block = &block[..block.find("```").expect("closed block")];
        block
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect()
    }

    fn num(s: &str) -> f64 {
        s.parse().unwrap_or_else(|_| panic!("{s} is not a number"))
    }

    fn setup(label: &str) -> Setup {
        Setup::paper_setups()
            .into_iter()
            .find(|s| s.label() == label)
            .expect("a paper setup")
    }

    fn fig1_table() -> Vec<CellResult> {
        table("## Figure 1")
            .into_iter()
            .filter_map(|t| {
                let &(prob, label) = TARGETS.iter().find(|(_, l)| *l == t[0])?;
                let (window_label, policy) = t[2].split_once('/').expect("window/policy");
                let window = if window_label == "Episode" {
                    EPISODE_WINDOW
                } else {
                    WIRE_WINDOW
                };
                let [min, p25, median, p75, max, mean] = [3, 4, 5, 6, 7, 8].map(|i| num(t[i]));
                Some(CellResult {
                    cell: Cell {
                        prob,
                        label,
                        window,
                        window_label,
                        pattern: policy == "Pattern",
                    },
                    summary: Summary {
                        count: 1,
                        min,
                        p25,
                        median,
                        p75,
                        max,
                        mean,
                    },
                    row: t.join(" "),
                })
            })
            .collect()
    }

    fn fig8_table() -> Vec<Fig8Row> {
        table("## Figure 8")
            .into_iter()
            .skip(1)
            .map(|t| Fig8Row {
                setup: setup(t[0]),
                series: [1, 2, 3, 4, 5].map(|i| Pings {
                    mean_ms: num(t[i]),
                    received: 100,
                }),
            })
            .collect()
    }

    fn fig9_table() -> Vec<Fig9Row> {
        table("## Figure 9")
            .into_iter()
            .skip(1)
            .map(|t| {
                let bar = t.iter().position(|&x| x == "|").expect("RTT | columns");
                Fig9Row {
                    setup: setup(t[0]),
                    mbps: [1, 4, 7].map(|i| num(t[bar + i])),
                }
            })
            .collect()
    }

    /// A one-cell edit of a table and the predicates it must fail.
    type Mutation<T> = (Box<dyn Fn(&mut Vec<T>)>, Vec<String>);

    fn failing(checks: &[Check]) -> Vec<String> {
        checks
            .iter()
            .filter(|c| !c.holds())
            .map(|c| c.predicate.clone())
            .collect()
    }

    /// Asserts the table yields `count` predicates and passes them all;
    /// applies each mutation to a fresh table and asserts exactly the
    /// named predicates fail; then asserts the mutations, together, made
    /// every predicate fail at least once.
    fn each_fires<T: Clone>(
        table: &[T],
        checks: fn(&[T]) -> Vec<Check>,
        count: usize,
        mutations: Vec<Mutation<T>>,
    ) {
        let clean = checks(table);
        assert_eq!(clean.len(), count, "predicates on the table");
        assert!(
            failing(&clean).is_empty(),
            "EXPERIMENTS.md table fails {:?}",
            failing(&clean)
        );
        let mut fired = BTreeSet::new();
        for (mutate, expected) in mutations {
            let mut t = table.to_vec();
            mutate(&mut t);
            assert_eq!(failing(&checks(&t)), expected);
            fired.extend(expected);
        }
        let all: BTreeSet<String> = clean.into_iter().map(|c| c.predicate).collect();
        assert_eq!(fired, all, "a predicate no mutation fires");
    }

    #[test]
    fn every_fig1_predicate_holds_on_the_table_and_fires_on_its_mutation() {
        let cells = fig1_table();
        assert_eq!(cells.len(), 16);
        let mut mutations: Vec<Mutation<CellResult>> = Vec::new();
        let edit = |label: &'static str, dataset: &'static str, f: fn(&mut Summary)| {
            Box::new(move |t: &mut Vec<CellResult>| {
                let c = t
                    .iter_mut()
                    .find(|c| c.cell.label == label && c.cell.dataset() == dataset)
                    .expect("cell");
                f(&mut c.summary);
            }) as Box<dyn Fn(&mut Vec<CellResult>)>
        };
        for &(prob, label) in &TARGETS {
            // An Episode/Pattern box that is not a point.
            mutations.push((
                edit(label, "Episode/Pattern", |s| s.max += 0.01),
                vec![format!("{label}: Episode/Pattern range <= 0.002")],
            ));
            // A median off target.
            mutations.push((
                edit(label, "Episode/Pattern", |s| s.median += 0.01),
                vec![format!(
                    "{label}: Episode/Pattern |median - target| <= 0.001"
                )],
            ));
            // Wire/Pattern widened past Wire/Random (e.g. at 1/3: -1 .. +0.75).
            let wire = if prob == 0.0 {
                format!("{label}: Wire/Pattern range <= 0.002")
            } else {
                format!("{label}: Wire/Pattern range < Wire/Random range")
            };
            mutations.push((
                edit(label, "Wire/Pattern", |s| {
                    s.min = -1.0;
                    s.max = 0.75;
                }),
                vec![wire],
            ));
        }
        mutations.push((
            edit("0", "Wire/Random", |s| s.max = -0.875),
            vec!["0: Wire/Random range <= 0.002".into()],
        ));
        each_fires(&cells, fig1_checks, 13, mutations);
    }

    #[test]
    fn every_fig8_predicate_holds_on_the_table_and_fires_on_its_mutation() {
        let rows = fig8_table();
        assert_eq!(rows.len(), 4);
        let mut mutations: Vec<Mutation<Fig8Row>> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let label = row.setup.label();
            let name = |p: &str| format!("{label}: {p}");
            // A series that got nothing back prints NaN; it fails.
            mutations.push((
                Box::new(move |t| {
                    t[i].series[1] = Pings {
                        mean_ms: f64::NAN,
                        received: 0,
                    }
                }),
                vec![name("fewest pings received in a series >= 1")],
            ));
            // TCP pings beside UDT data at twice their baseline.
            mutations.push((
                Box::new(move |t| t[i].series[3].mean_ms = 2.0 * t[i].series[0].mean_ms),
                vec![name("|TCP+UDTdata / TCP pings - 1| <= 0.05")],
            ));
            if !wan(&row.setup) {
                continue;
            }
            // All-TCP at 5x the baseline. DATA's upper bound is a tenth of
            // all-TCP, and DATA above the baseline below a tenth of
            // all-TCP implies all-TCP >= 10x, so that one fails too.
            mutations.push((
                Box::new(move |t| t[i].series[2].mean_ms = 5.0 * t[i].series[0].mean_ms),
                vec![
                    name("TCP+TCPdata / TCP pings >= 10"),
                    name("TCP+DATAdata ms < TCP+TCPdata ms / 10"),
                ],
            ));
            // DATA's pings faster than pings alone.
            mutations.push((
                Box::new(move |t| t[i].series[4].mean_ms = 0.5 * t[i].series[0].mean_ms),
                vec![name("TCP+DATAdata ms > TCP pings ms")],
            ));
            // DATA's pings above a tenth of all-TCP (EU2US: 600 ms).
            mutations.push((
                Box::new(move |t| t[i].series[4].mean_ms = 0.12 * t[i].series[2].mean_ms),
                vec![name("TCP+DATAdata ms < TCP+TCPdata ms / 10")],
            ));
        }
        each_fires(&rows, fig8_checks, 14, mutations);
    }

    #[test]
    fn every_fig9_predicate_holds_on_the_table_and_fires_on_its_mutation() {
        let rows = fig9_table();
        assert_eq!(rows.len(), 4);
        let (tcp, udt, data) = (0, 1, 2);
        let mut mutations: Vec<Mutation<Fig9Row>> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let label = row.setup.label();
            let name = |p: &str| format!("{label}: {p}");
            if row.setup.rtt() <= Duration::from_millis(3) {
                mutations.push((
                    Box::new(move |t| t[i].mbps[tcp] = 95.0),
                    vec![name("TCP MB/s >= 100")],
                ));
            }
            match row.setup {
                Setup::EuVpc => mutations.push((
                    Box::new(move |t| t[i].mbps[udt] = t[i].mbps[tcp] + 1.0),
                    vec![name("TCP MB/s > UDT MB/s")],
                )),
                Setup::Eu2Us => mutations.push((
                    Box::new(move |t| t[i].mbps[tcp] = t[i].mbps[udt] + 0.5),
                    vec![name("UDT MB/s > TCP MB/s")],
                )),
                _ => {}
            }
            if wan(&row.setup) {
                mutations.push((
                    Box::new(move |t| t[i].mbps[udt] = 6.5),
                    vec![name("UDT MB/s >= 7")],
                ));
                // UDT at 11.5 puts DATA's bound at 10.35, above what DATA
                // reached, so DATA's predicate fails with it.
                mutations.push((
                    Box::new(move |t| t[i].mbps[udt] = 11.5),
                    vec![
                        name("UDT MB/s <= 11"),
                        name("DATA MB/s >= 0.9 x the better transport"),
                    ],
                ));
            }
            mutations.push((
                Box::new(move |t| {
                    t[i].mbps[data] = 0.8 * t[i].mbps[tcp].max(t[i].mbps[udt]);
                }),
                vec![name("DATA MB/s >= 0.9 x the better transport")],
            ));
        }
        each_fires(&rows, fig9_checks, 12, mutations);
    }

    #[test]
    fn a_strict_bound_fails_at_equality() {
        let at = |cmp| check("fig8", "x".into(), 1.0, cmp, 1.0).holds();
        let cmps = [Le, Lt, Ge, Gt];
        assert_eq!(cmps.map(at), [true, false, true, false]);
    }

    #[test]
    fn fold_keeps_the_worst_seed_and_counts_passes() {
        let at = |measured| check("fig1", "x <= 1".into(), measured, Le, 1.0);
        let v = fold(vec![at(0.5), at(1.5), at(0.9)]);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].passed, v[0].runs), (2, 3));
        assert_eq!(v[0].worst.measured, 1.5);
        assert!(!v[0].holds());
        let nan = fold(vec![at(0.5), at(f64::NAN)]);
        assert!(nan[0].worst.measured.is_nan(), "a NaN run is the worst");
        assert!(!nan[0].holds());
    }
}
