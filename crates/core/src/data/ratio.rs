//! The protocol ratio `r` and its three representations (§IV-B).
//!
//! The paper uses `r` interchangeably as:
//!
//! * a **signed** value in `[-1, 1]` (−1 ≙ 100% TCP, +1 ≙ 100% UDT) —
//!   convenient for analysis and for the learner's state space;
//! * a **probability** in `[0, 1]` of picking UDT — convenient for the
//!   probabilistic selector; and
//! * a **rational** `p/q` — "p Ps for every q Qs", where the mapping of
//!   the minority symbol `P` and majority symbol `Q` onto TCP/UDT is
//!   defined by the sign — convenient for pattern selection.
//!
//! [`Ratio`] stores the signed form and converts on demand.

use crate::transport::Transport;

/// A target mix between TCP and UDT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio(f64);

impl Ratio {
    /// A 50-50 mix.
    pub const BALANCED: Ratio = Ratio(0.0);

    /// From the signed form in `[-1, 1]` (clamped).
    #[must_use]
    pub fn from_signed(r: f64) -> Self {
        assert!(r.is_finite(), "ratio must be finite");
        Ratio(r.clamp(-1.0, 1.0))
    }

    /// From the probability-of-UDT form in `[0, 1]` (clamped).
    #[must_use]
    pub fn from_prob_udt(p: f64) -> Self {
        assert!(p.is_finite(), "ratio must be finite");
        Ratio((2.0 * p.clamp(0.0, 1.0)) - 1.0)
    }

    /// The signed form in `[-1, 1]`.
    #[must_use]
    pub fn signed(self) -> f64 {
        self.0
    }

    /// The probability-of-UDT form in `[0, 1]`.
    #[must_use]
    pub fn prob_udt(self) -> f64 {
        (self.0 + 1.0) / 2.0
    }

    /// The majority protocol at this ratio (ties go to TCP).
    #[must_use]
    pub(crate) fn majority(self) -> Transport {
        if self.0 > 0.0 {
            Transport::Udt
        } else {
            Transport::Tcp
        }
    }

    /// The minority protocol at this ratio.
    #[must_use]
    pub(crate) fn minority(self) -> Transport {
        match self.majority() {
            Transport::Udt => Transport::Tcp,
            _ => Transport::Udt,
        }
    }

    /// The rational form: `p` minority messages for every `q` majority
    /// messages, with `p + q ≤ max_total` and `p ≤ q`, chosen as the best
    /// rational approximation (Stern–Brocot search).
    #[must_use]
    pub fn fraction(self, max_total: u64) -> ProtocolFraction {
        let minority_frac = self.prob_udt().min(1.0 - self.prob_udt());
        let (p, total) = best_fraction(minority_frac, max_total.max(2));
        ProtocolFraction {
            minority: self.minority(),
            majority: self.majority(),
            p,
            q: total - p,
        }
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:+.3}", self.0)
    }
}

/// The rational representation of a [`Ratio`]: `p` messages of the
/// minority protocol for every `q` messages of the majority protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProtocolFraction {
    /// The protocol occurring `p` times per pattern.
    pub(crate) minority: Transport,
    /// The protocol occurring `q` times per pattern.
    pub(crate) majority: Transport,
    /// Minority count per pattern.
    pub p: u64,
    /// Majority count per pattern.
    pub q: u64,
}

impl ProtocolFraction {
    /// The minority fraction `p / (p + q)`.
    #[must_use]
    pub(crate) fn minority_fraction(&self) -> f64 {
        if self.p + self.q == 0 {
            0.0
        } else {
            self.p as f64 / (self.p + self.q) as f64
        }
    }

    /// The equivalent probability of picking UDT.
    #[must_use]
    pub fn prob_udt(&self) -> f64 {
        match self.minority {
            Transport::Udt => self.minority_fraction(),
            _ => 1.0 - self.minority_fraction(),
        }
    }
}

/// Best rational approximation `n/d` of `x ∈ [0, 0.5]` with `d ≤ max_den`,
/// via Stern–Brocot mediant search. Returns `(n, d)`.
fn best_fraction(x: f64, max_den: u64) -> (u64, u64) {
    debug_assert!((0.0..=0.5).contains(&x));
    // Walk the Stern-Brocot tree between 0/1 and 1/1.
    let (mut lo_n, mut lo_d) = (0u64, 1u64);
    let (mut hi_n, mut hi_d) = (1u64, 1u64);
    let (mut best_n, mut best_d) = (0u64, 1u64);
    let mut best_err = x;
    loop {
        let med_n = lo_n + hi_n;
        let med_d = lo_d + hi_d;
        if med_d > max_den {
            break;
        }
        let med = med_n as f64 / med_d as f64;
        let err = (med - x).abs();
        if err < best_err {
            best_err = err;
            best_n = med_n;
            best_d = med_d;
        }
        if med < x {
            lo_n = med_n;
            lo_d = med_d;
        } else if med > x {
            hi_n = med_n;
            hi_d = med_d;
        } else {
            break;
        }
    }
    (best_n, best_d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_prob_round_trip() {
        for r in [-1.0, -0.5, 0.0, 0.25, 1.0] {
            let ratio = Ratio::from_signed(r);
            let back = Ratio::from_prob_udt(ratio.prob_udt());
            assert!((back.signed() - r).abs() < 1e-12);
        }
    }

    #[test]
    fn clamping() {
        assert_eq!(Ratio::from_signed(3.0).signed(), 1.0);
        assert_eq!(Ratio::from_signed(-3.0).signed(), -1.0);
        assert_eq!(Ratio::from_prob_udt(2.0).signed(), 1.0);
    }

    #[test]
    fn majority_minority_by_sign() {
        assert_eq!(Ratio::from_signed(-0.4).majority(), Transport::Tcp);
        assert_eq!(Ratio::from_signed(-0.4).minority(), Transport::Udt);
        assert_eq!(Ratio::from_signed(0.4).majority(), Transport::Udt);
        assert_eq!(Ratio::BALANCED.majority(), Transport::Tcp);
    }

    #[test]
    fn fraction_of_half_is_one_to_one() {
        let f = Ratio::BALANCED.fraction(100);
        assert_eq!((f.p, f.q), (1, 1));
        assert!((f.prob_udt() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fraction_of_pure_protocols() {
        let tcp = Ratio::from_signed(-1.0).fraction(100);
        assert_eq!(tcp.p, 0);
        assert!((tcp.prob_udt() - 0.0).abs() < 1e-12);
        let udt = Ratio::from_signed(1.0).fraction(100);
        assert_eq!(udt.p, 0);
        assert!((udt.prob_udt() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fraction_of_paper_targets() {
        // prob(UDT) = 1/3: minority UDT, 1 per 2 TCP.
        let f = Ratio::from_prob_udt(1.0 / 3.0).fraction(100);
        assert_eq!(f.minority, Transport::Udt);
        assert_eq!((f.p, f.q), (1, 2));
        // prob(UDT) = 4/5: minority TCP, 1 per 4 UDT.
        let f = Ratio::from_prob_udt(0.8).fraction(100);
        assert_eq!(f.minority, Transport::Tcp);
        assert_eq!((f.p, f.q), (1, 4));
        // prob(UDT) = 3/100.
        let f = Ratio::from_prob_udt(0.03).fraction(100);
        assert_eq!(f.minority, Transport::Udt);
        assert_eq!((f.p, f.q), (3, 97));
    }

    #[test]
    fn fraction_respects_max_total() {
        let f = Ratio::from_prob_udt(0.123_456).fraction(16);
        assert!(f.p + f.q <= 16);
        assert!((f.minority_fraction() - 0.123_456).abs() < 0.05);
    }

    #[test]
    fn display_signed() {
        assert_eq!(Ratio::from_signed(0.5).to_string(), "+0.500");
    }
}
