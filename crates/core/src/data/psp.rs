//! Protocol selection policies (§IV-B): assign a concrete transport (TCP
//! or UDT) to each individual `DATA` message so that a stream follows the
//! target protocol ratio — ideally without straying far from it even over
//! short windows ("messages on the wire").
//!
//! * [`RandomSelection`] — the baseline: a Bernoulli draw per message. The
//!   law of large numbers guarantees the long-run ratio, but short windows
//!   can be badly skewed, distorting the learner's rewards (Figure 1).
//! * [`PatternSelection`] — deterministic interleaving patterns
//!   (`p`-pattern and `p+1`-pattern, §IV-B4) that bound the deviation at
//!   every prefix and hit the ratio exactly over a full pattern.

use rand::Rng;

use kmsg_netsim::rng::RngStream;

use crate::data::ratio::{ProtocolFraction, Ratio};
use crate::transport::Transport;

/// Assigns a transport to each message of a `DATA` stream.
pub trait ProtocolSelectionPolicy: Send {
    /// Picks the transport for the next message.
    fn select(&mut self) -> Transport;

    /// The transport [`select`](Self::select) will return next, without
    /// consuming it (lets the interceptor stop releasing when that
    /// protocol's window is full, preserving the selection order).
    fn peek(&mut self) -> Transport;

    /// Installs a new target ratio (from the protocol ratio policy).
    fn update_ratio(&mut self, ratio: Ratio);
}

/// Bernoulli selection: UDT with probability `prob_udt(r)`.
#[derive(Debug)]
pub struct RandomSelection {
    ratio: Ratio,
    rng: RngStream,
    pending: Option<Transport>,
}

impl RandomSelection {
    /// Creates the policy with an initial ratio.
    #[must_use]
    pub fn new(ratio: Ratio, rng: RngStream) -> Self {
        RandomSelection {
            ratio,
            rng,
            pending: None,
        }
    }

    fn draw(&mut self) -> Transport {
        if self.rng.gen::<f64>() < self.ratio.prob_udt() {
            Transport::Udt
        } else {
            Transport::Tcp
        }
    }
}

impl ProtocolSelectionPolicy for RandomSelection {
    fn select(&mut self) -> Transport {
        match self.pending.take() {
            Some(t) => t,
            None => self.draw(),
        }
    }

    fn peek(&mut self) -> Transport {
        if self.pending.is_none() {
            let t = self.draw();
            self.pending = Some(t);
        }
        self.pending.expect("just filled")
    }

    fn update_ratio(&mut self, ratio: Ratio) {
        self.ratio = ratio;
        // A pre-drawn choice from the old ratio is discarded.
        self.pending = None;
    }
}

/// Which of the two pattern constructions to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// `(Qᵇ P)ᵖ Q꜀` with `b = ⌊q/p⌋`, `c = q − p·b`.
    P,
    /// `(Qᵇ P)ᵖ Qᵇ Q꜀` with `b = ⌊q/(p+1)⌋`, `c = q − (p+1)·b`.
    PPlusOne,
    /// Whichever of the two leaves the smaller rest `c`
    /// (the paper's recommendation).
    MinimalRest,
}

/// Builds the `p`-pattern for a fraction.
#[must_use]
pub(crate) fn p_pattern(f: &ProtocolFraction) -> Vec<Transport> {
    if f.p == 0 {
        return vec![f.majority; usize::try_from(f.q.max(1)).expect("pattern fits")];
    }
    let b = f.q / f.p;
    let c = f.q - f.p * b;
    let mut out = Vec::with_capacity(usize::try_from(f.p + f.q).expect("pattern fits"));
    for _ in 0..f.p {
        out.extend(std::iter::repeat_n(
            f.majority,
            usize::try_from(b).expect("fits"),
        ));
        out.push(f.minority);
    }
    out.extend(std::iter::repeat_n(
        f.majority,
        usize::try_from(c).expect("fits"),
    ));
    out
}

/// Builds the `p+1`-pattern for a fraction.
#[must_use]
pub(crate) fn p_plus_one_pattern(f: &ProtocolFraction) -> Vec<Transport> {
    if f.p == 0 {
        return vec![f.majority; usize::try_from(f.q.max(1)).expect("pattern fits")];
    }
    let b = f.q / (f.p + 1);
    let c = f.q - (f.p + 1) * b;
    let mut out = Vec::with_capacity(usize::try_from(f.p + f.q).expect("pattern fits"));
    for _ in 0..f.p {
        out.extend(std::iter::repeat_n(
            f.majority,
            usize::try_from(b).expect("fits"),
        ));
        out.push(f.minority);
    }
    out.extend(std::iter::repeat_n(
        f.majority,
        usize::try_from(b + c).expect("fits"),
    ));
    out
}

/// The rest `c` of the `p`-pattern.
#[must_use]
pub fn p_pattern_rest(f: &ProtocolFraction) -> u64 {
    if f.p == 0 {
        0
    } else {
        f.q - f.p * (f.q / f.p)
    }
}

/// The rest `c` of the `p+1`-pattern.
#[must_use]
pub fn p_plus_one_pattern_rest(f: &ProtocolFraction) -> u64 {
    if f.p == 0 {
        0
    } else {
        f.q - (f.p + 1) * (f.q / (f.p + 1))
    }
}

/// Builds the pattern of the requested kind.
#[must_use]
pub fn build_pattern(f: &ProtocolFraction, kind: PatternKind) -> Vec<Transport> {
    match kind {
        PatternKind::P => p_pattern(f),
        PatternKind::PPlusOne => p_plus_one_pattern(f),
        PatternKind::MinimalRest => {
            // "In general it is best to select the pattern with the
            // smallest value for the rest c."
            if p_plus_one_pattern_rest(f) < p_pattern_rest(f) {
                p_plus_one_pattern(f)
            } else {
                p_pattern(f)
            }
        }
    }
}

/// The maximum deviation of any prefix's UDT fraction from the target
/// (the paper's criterion (a) for a good pattern).
#[must_use]
pub fn max_prefix_deviation(pattern: &[Transport], target_prob_udt: f64) -> f64 {
    let mut udt = 0usize;
    let mut worst: f64 = 0.0;
    for (i, t) in pattern.iter().enumerate() {
        if *t == Transport::Udt {
            udt += 1;
        }
        let frac = udt as f64 / (i + 1) as f64;
        worst = worst.max((frac - target_prob_udt).abs());
    }
    worst
}

/// Deterministic interleaving selection (§IV-B3/4).
#[derive(Debug)]
pub struct PatternSelection {
    ratio: Ratio,
    kind: PatternKind,
    max_total: u64,
    pattern: Vec<Transport>,
    pos: usize,
}

impl PatternSelection {
    /// Creates the policy; `max_total` bounds the pattern length (and so
    /// the finest representable ratio).
    #[must_use]
    pub fn new(ratio: Ratio, kind: PatternKind, max_total: u64) -> Self {
        let pattern = build_pattern(&ratio.fraction(max_total), kind);
        PatternSelection {
            ratio,
            kind,
            max_total,
            pattern,
            pos: 0,
        }
    }
}

impl ProtocolSelectionPolicy for PatternSelection {
    fn select(&mut self) -> Transport {
        let t = self.pattern[self.pos];
        self.pos = (self.pos + 1) % self.pattern.len();
        t
    }

    fn peek(&mut self) -> Transport {
        self.pattern[self.pos]
    }

    fn update_ratio(&mut self, ratio: Ratio) {
        if (ratio.signed() - self.ratio.signed()).abs() > f64::EPSILON {
            self.ratio = ratio;
            self.pattern = build_pattern(&ratio.fraction(self.max_total), self.kind);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kmsg_netsim::rng::SeedSource;

    fn frac(prob_udt: f64) -> ProtocolFraction {
        Ratio::from_prob_udt(prob_udt).fraction(100)
    }

    fn count(pattern: &[Transport], t: Transport) -> usize {
        pattern.iter().filter(|&&x| x == t).count()
    }

    #[test]
    fn p_pattern_exact_counts() {
        let f = frac(1.0 / 3.0); // p=1 UDT per q=2 TCP
        let pat = p_pattern(&f);
        assert_eq!(pat.len(), 3);
        assert_eq!(count(&pat, Transport::Udt), 1);
        assert_eq!(count(&pat, Transport::Tcp), 2);
    }

    #[test]
    fn half_gives_alternation() {
        let f = frac(0.5);
        let pat = p_pattern(&f);
        // (QP)* for p=q=1: alternating as in the paper's (up)* example.
        assert_eq!(pat.len(), 2);
        assert_ne!(pat[0], pat[1]);
    }

    #[test]
    fn patterns_have_exact_ratio_over_full_run() {
        for prob in [0.03, 0.2, 1.0 / 3.0, 0.5, 0.8, 0.97] {
            let f = frac(prob);
            for kind in [
                PatternKind::P,
                PatternKind::PPlusOne,
                PatternKind::MinimalRest,
            ] {
                let pat = build_pattern(&f, kind);
                let udt = count(&pat, Transport::Udt) as f64;
                let total = pat.len() as f64;
                assert!(
                    (udt / total - f.prob_udt()).abs() < 1e-9,
                    "kind {kind:?} prob {prob}: {udt}/{total}"
                );
            }
        }
    }

    #[test]
    fn pure_ratios_produce_single_protocol() {
        let pat = build_pattern(&frac(0.0), PatternKind::MinimalRest);
        assert_eq!(count(&pat, Transport::Udt), 0);
        let pat = build_pattern(&frac(1.0), PatternKind::MinimalRest);
        assert_eq!(count(&pat, Transport::Tcp), 0);
    }

    #[test]
    fn minimal_rest_picks_smaller_c() {
        for prob in [0.05, 0.1, 0.15, 0.22, 0.3, 0.42] {
            let f = frac(prob);
            let chosen = build_pattern(&f, PatternKind::MinimalRest);
            if p_plus_one_pattern_rest(&f) < p_pattern_rest(&f) {
                assert_eq!(chosen, p_plus_one_pattern(&f), "prob {prob}");
            } else {
                assert_eq!(chosen, p_pattern(&f), "prob {prob}");
            }
        }
    }

    #[test]
    fn pattern_prefix_deviation_beats_random() {
        use kmsg_netsim::rng::SeedSource;
        let target = 1.0 / 3.0;
        let f = frac(target);
        let pat = build_pattern(&f, PatternKind::MinimalRest);
        let pat_dev = max_prefix_deviation(&pat, target);

        // One random draw of the same length, measured the same way.
        let mut random = RandomSelection::new(
            Ratio::from_prob_udt(target),
            SeedSource::new(5).stream("psp-test"),
        );
        let rand_run: Vec<Transport> = (0..pat.len() * 50).map(|_| random.select()).collect();
        let rand_dev = max_prefix_deviation(&rand_run, target);
        assert!(
            pat_dev <= rand_dev,
            "pattern deviation {pat_dev} must not exceed random {rand_dev}"
        );
        // After the first element any policy is off; the pattern must still
        // be tight by the end of one period.
        assert!(pat_dev < 0.7);
    }

    #[test]
    fn pattern_selection_cycles() {
        let mut psp =
            PatternSelection::new(Ratio::from_prob_udt(0.5), PatternKind::MinimalRest, 100);
        let first: Vec<Transport> = (0..4).map(|_| psp.select()).collect();
        assert_eq!(first[0], first[2]);
        assert_eq!(first[1], first[3]);
        assert_ne!(first[0], first[1]);
    }

    #[test]
    fn peek_matches_select_for_both_policies() {
        let mut pat =
            PatternSelection::new(Ratio::from_prob_udt(0.3), PatternKind::MinimalRest, 100);
        for _ in 0..50 {
            let peeked = pat.peek();
            assert_eq!(pat.select(), peeked);
        }
        let mut rnd =
            RandomSelection::new(Ratio::from_prob_udt(0.3), SeedSource::new(4).stream("peek"));
        for _ in 0..50 {
            let peeked = rnd.peek();
            assert_eq!(rnd.select(), peeked);
        }
    }

    #[test]
    fn update_ratio_rebuilds_pattern() {
        let mut psp =
            PatternSelection::new(Ratio::from_signed(-1.0), PatternKind::MinimalRest, 100);
        assert_eq!(psp.select(), Transport::Tcp);
        psp.update_ratio(Ratio::from_signed(1.0));
        assert_eq!(psp.select(), Transport::Udt);
    }

    #[test]
    fn random_selection_long_run_ratio() {
        let mut psp = RandomSelection::new(
            Ratio::from_prob_udt(0.25),
            SeedSource::new(9).stream("psp-random"),
        );
        let n = 40_000;
        let udt = (0..n).filter(|_| psp.select() == Transport::Udt).count();
        let frac = udt as f64 / f64::from(n);
        assert!((frac - 0.25).abs() < 0.01, "law of large numbers: {frac}");
    }

    #[test]
    fn paper_example_3_100_has_long_majority_runs() {
        // At r = 3/100 the pattern "mainly consists of long sequences of Qs
        // with the occasional P" — longer than 16 messages on the wire.
        let f = frac(0.03);
        let pat = build_pattern(&f, PatternKind::MinimalRest);
        let mut longest_run = 0;
        let mut run = 0;
        for t in &pat {
            if *t == Transport::Tcp {
                run += 1;
                longest_run = longest_run.max(run);
            } else {
                run = 0;
            }
        }
        assert!(longest_run > 16, "longest TCP run {longest_run}");
    }
}
