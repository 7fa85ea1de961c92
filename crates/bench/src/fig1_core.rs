//! Figure 1's per-cell computation: the selection-ratio distribution
//! table of `paper_gate fig1`.
//!
//! Figure 1 is a 16-cell sweep (4 target ratios × 2 windows × 2
//! policies); each cell is independent — the policy stream is derived
//! from a stateless named RNG stream — so the cells parallelise through
//! [`crate::sweep`]. A library module so the parallel-vs-sequential
//! byte-identity test can drive it directly.

use kmsg_core::data::{
    PatternKind, PatternSelection, ProtocolSelectionPolicy, RandomSelection, Ratio,
};
use kmsg_core::Transport;
use kmsg_netsim::rng::SeedSource;
use kmsg_netsim::stats::Summary;
use kmsg_telemetry::json::Json;

/// Sliding window matching one 1 s learning episode (~1600 messages).
pub const EPISODE_WINDOW: usize = 1600;
/// Sliding window matching the ~16 messages concurrently on the wire.
pub const WIRE_WINDOW: usize = 16;
/// Observed-ratio entries per dataset at paper scale.
pub const ENTRIES: usize = 160_000;

/// The paper's x-axis: target ratios as the probability of UDT.
pub const TARGETS: [(f64, &str); 4] =
    [(0.0, "0"), (0.03, "3/100"), (1.0 / 3.0, "1/3"), (0.8, "4/5")];

/// One cell of the figure: a (target, window, policy) combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Probability of selecting UDT.
    pub prob: f64,
    /// Target-ratio label, e.g. `"1/3"`.
    pub label: &'static str,
    /// Sliding-window length in messages.
    pub window: usize,
    /// `"Episode"` or `"Wire"`.
    pub window_label: &'static str,
    /// `true` = Pattern policy, `false` = Random.
    pub pattern: bool,
}

/// A computed cell: its box-plot summary plus the rendered table row.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell computed.
    pub cell: Cell,
    /// Summary of the observed signed ratios.
    pub summary: Summary,
    /// The formatted table row.
    pub row: String,
}

impl Cell {
    /// The table's dataset column, e.g. `"Wire/Random"`.
    #[must_use]
    pub fn dataset(&self) -> String {
        let policy = if self.pattern { "Pattern" } else { "Random" };
        format!("{}/{policy}", self.window_label)
    }
}

impl CellResult {
    /// The cell's row of `BENCH_paper.json`: median, mean and IQR.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let s = &self.summary;
        let cell = format!("{} {}", self.cell.label, self.cell.dataset());
        Json::obj(vec![
            ("claim", Json::Str("fig1".into())),
            ("cell", Json::Str(cell)),
            ("median", Json::Num(s.median)),
            ("mean", Json::Num(s.mean)),
            ("iqr", Json::Num(s.p75 - s.p25)),
        ])
    }
}

/// All 16 cells in the sequential print order: targets outermost, then
/// window, then Pattern before Random.
#[must_use]
pub fn cells() -> Vec<Cell> {
    let mut out = Vec::with_capacity(16);
    for &(prob, label) in &TARGETS {
        for (window, window_label) in [(EPISODE_WINDOW, "Episode"), (WIRE_WINDOW, "Wire")] {
            for pattern in [true, false] {
                out.push(Cell {
                    prob,
                    label,
                    window,
                    window_label,
                    pattern,
                });
            }
        }
    }
    out
}

/// Sliding-window signed ratios over a selection stream.
///
/// # Panics
///
/// Panics if the stream is not longer than the window.
#[must_use]
pub fn windowed_ratios(stream: &[Transport], window: usize) -> Vec<f64> {
    assert!(stream.len() > window);
    let mut udt_in_window = stream[..window]
        .iter()
        .filter(|&&t| t == Transport::Udt)
        .count();
    let mut out = Vec::with_capacity(stream.len() - window);
    out.push(2.0 * udt_in_window as f64 / window as f64 - 1.0);
    for i in window..stream.len() {
        if stream[i] == Transport::Udt {
            udt_in_window += 1;
        }
        if stream[i - window] == Transport::Udt {
            udt_in_window -= 1;
        }
        out.push(2.0 * udt_in_window as f64 / window as f64 - 1.0);
    }
    out
}

fn stream_of(policy: &mut dyn ProtocolSelectionPolicy, n: usize) -> Vec<Transport> {
    (0..n).map(|_| policy.select()).collect()
}

/// Computes one cell: generates the selection stream, windows it, and
/// summarises. Independent of every other cell (the Random policy's RNG
/// stream is derived statelessly from the cell's name), so cells may run
/// in any order on any thread.
#[must_use]
pub fn run_cell(cell: &Cell, seeds: SeedSource, entries: usize) -> CellResult {
    let ratio = Ratio::from_prob_udt(cell.prob);
    let mut policy: Box<dyn ProtocolSelectionPolicy> = if cell.pattern {
        Box::new(PatternSelection::new(ratio, PatternKind::MinimalRest, 100))
    } else {
        Box::new(RandomSelection::new(
            ratio,
            seeds.stream(&format!("fig1-{}-{}", cell.label, cell.window_label)),
        ))
    };
    let stream = stream_of(policy.as_mut(), entries + cell.window);
    let ratios = windowed_ratios(&stream, cell.window);
    let s = Summary::of(&ratios).expect("windowed ratio stream is non-empty");
    let row = format!(
        "{:>7} {:>8} {:<16} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
        cell.label,
        crate::fmt_ratio(ratio.signed()),
        cell.dataset(),
        s.min,
        s.p25,
        s.median,
        s.p75,
        s.max,
        s.mean,
    );
    CellResult {
        cell: *cell,
        summary: s,
        row,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_cells_in_print_order() {
        let c = cells();
        assert_eq!(c.len(), 16);
        assert_eq!(c[0].label, "0");
        assert!(c[0].pattern && !c[1].pattern, "Pattern row precedes Random");
        assert_eq!(c[0].window, EPISODE_WINDOW);
        assert_eq!(c[2].window, WIRE_WINDOW);
    }

    #[test]
    fn windowed_ratio_bounds() {
        let stream = vec![Transport::Udt; 20];
        let r = windowed_ratios(&stream, 4);
        assert!(r.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }
}
