//! Pluggable congestion control for the simulated TCP stack.
//!
//! The Reno logic that used to be baked into [`crate::tcp`] now lives
//! behind the [`CongestionController`] trait, next to two alternative
//! controllers:
//!
//! * [`Reno`] — the original slow-start/AIMD/fast-recovery behaviour,
//!   byte-for-byte identical in telemetry to the pre-trait stack;
//! * [`Cubic`] — a CUBIC-style window controller: the cubic growth
//!   function `W(t) = C·(t−K)³ + W_max` replaces AIMD in congestion
//!   avoidance, with multiplicative decrease `β = 0.7` and fast
//!   convergence on repeated losses below `W_max`;
//! * [`Bbr`] — a BBR-style rate controller: windowed-max bottleneck
//!   bandwidth and windowed-min RTT estimators drive a paced sending rate
//!   through startup (gain 2.885) → drain → probe-bandwidth phases, with
//!   the congestion window acting only as an inflight cap of
//!   `cwnd_gain × BDP`.
//!
//! Controllers are selected per connection through
//! [`CcConfig::algorithm`] inside [`crate::tcp::TcpConfig`] (and thus the
//! interned-config table of the per-network TCP stack). Every controller
//! decision that the fuzzer's legality oracles need is stamped into the
//! flight recorder: Reno keeps the legacy `TcpCwnd` events, CUBIC and BBR
//! emit `CcWindow` / `BbrState` records checked by `CubicOracle` and
//! `BbrOracle` in `kmsg-oracle`.
//!
//! Deliberate simplifications (documented so the oracles can be exact):
//! CUBIC omits the TCP-friendly (Reno-tracking) region and uses pure
//! cubic growth; BBR omits the ProbeRTT phase and inherits loss recovery
//! (retransmission scheduling) from the shared stack machinery.

use kmsg_telemetry::{EventKind, Recorder};

use crate::time::SimTime;

/// Which congestion-control algorithm a connection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CcAlgorithm {
    /// Classic Reno/NewReno AIMD (the paper's TCP).
    Reno,
    /// CUBIC-style window growth with fast convergence.
    Cubic,
    /// BBR-style model-based rate control with pacing.
    Bbr,
}

impl CcAlgorithm {
    /// All algorithms, in stable order (fuzzer dimension / learner axis).
    #[must_use]
    pub fn all() -> [CcAlgorithm; 3] {
        [CcAlgorithm::Reno, CcAlgorithm::Cubic, CcAlgorithm::Bbr]
    }

    /// Stable label used in artifacts and telemetry.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CcAlgorithm::Reno => "reno",
            CcAlgorithm::Cubic => "cubic",
            CcAlgorithm::Bbr => "bbr",
        }
    }

    /// Parses an artifact label.
    #[must_use]
    pub fn from_label(label: &str) -> Option<CcAlgorithm> {
        match label {
            "reno" => Some(CcAlgorithm::Reno),
            "cubic" => Some(CcAlgorithm::Cubic),
            "bbr" => Some(CcAlgorithm::Bbr),
            _ => None,
        }
    }
}

/// Congestion-controller tuning knobs, interned as part of
/// [`crate::tcp::TcpConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct CcConfig {
    /// Which controller to run.
    pub algorithm: CcAlgorithm,
    /// CUBIC scaling constant `C`, in MSS/s³ (RFC 8312 default 0.4).
    pub cubic_c: f64,
    /// CUBIC multiplicative-decrease factor `β` (RFC 8312 default 0.7).
    pub cubic_beta: f64,
    /// CUBIC fast convergence: a loss below the previous `W_max` sets the
    /// new `W_max` to `cwnd·(2−β)/2` instead of `cwnd`, releasing
    /// bandwidth to newer flows faster.
    pub cubic_fast_convergence: bool,
    /// BBR startup pacing/cwnd gain (2/ln 2 ≈ 2.885).
    pub bbr_startup_gain: f64,
    /// BBR inflight cap gain outside startup (`cwnd = gain × BDP`).
    pub bbr_cwnd_gain: f64,
    /// Test-only fault: disable the fast-convergence `W_max` reduction
    /// while still claiming `cubic_fast_convergence` semantics. Breaks
    /// CUBIC legality — `CubicOracle` must catch it. Never enable outside
    /// tests.
    #[doc(hidden)]
    pub buggy_no_fast_convergence: bool,
    /// Test-only fault: jump from startup straight to probe-bandwidth,
    /// skipping the drain phase (the queue built up by the 2.885× startup
    /// gain is never drained). Breaks the BBR phase machine — `BbrOracle`
    /// must catch it. Never enable outside tests.
    #[doc(hidden)]
    pub buggy_skip_drain: bool,
}

impl Default for CcConfig {
    fn default() -> Self {
        CcConfig {
            algorithm: CcAlgorithm::Reno,
            cubic_c: 0.4,
            cubic_beta: 0.7,
            cubic_fast_convergence: true,
            bbr_startup_gain: 2.885,
            bbr_cwnd_gain: 2.0,
            buggy_no_fast_convergence: false,
            buggy_skip_drain: false,
        }
    }
}

impl CcConfig {
    /// Defaults with the given algorithm selected.
    #[must_use]
    pub fn for_algorithm(algorithm: CcAlgorithm) -> CcConfig {
        CcConfig {
            algorithm,
            ..CcConfig::default()
        }
    }
}

/// The mutable window state a controller decision operates on, plus the
/// immutable inputs it may consult. Borrowed piecewise out of the flow so
/// the controller (also a flow field) can be invoked without cloning.
#[derive(Debug)]
pub struct CcCtx<'a> {
    /// Congestion window, bytes (shared with the flow's send path).
    pub cwnd: &'a mut f64,
    /// Slow-start threshold, bytes.
    pub ssthresh: &'a mut f64,
    /// Maximum segment size, bytes.
    pub mss: f64,
    /// Bytes currently in flight (`snd_nxt − snd_una`).
    pub flight: f64,
    /// Connection id for telemetry.
    pub conn: u64,
    /// The flight recorder.
    pub rec: &'a Recorder,
}

/// One congestion-control algorithm instance (per flow).
///
/// The shared stack owns loss detection, retransmission scheduling, RTO
/// backoff and recovery-episode bookkeeping; the controller only evolves
/// `cwnd`/`ssthresh`, optionally paces via [`Self::pacing_rate`], and
/// stamps its decisions into the flight recorder.
pub trait CongestionController: Send {
    /// Stable controller label (matches [`CcAlgorithm::label`]).
    fn name(&self) -> &'static str;
    /// A cumulative ACK advanced `snd_una` by `newly` bytes.
    fn on_ack(&mut self, ctx: &mut CcCtx<'_>, newly: u64, now: SimTime);
    /// A fresh loss episode began (receiver-reported holes outside any
    /// ongoing recovery). Called at most once per episode.
    fn on_loss(&mut self, ctx: &mut CcCtx<'_>, now: SimTime);
    /// A retransmission timeout fired on an established connection.
    fn on_rto(&mut self, ctx: &mut CcCtx<'_>, now: SimTime);
    /// The recovery episode ended (`snd_una` passed the recovery point).
    fn on_recovery_exit(&mut self, ctx: &mut CcCtx<'_>, now: SimTime);
    /// An RTT sample was measured (timestamp echo), seconds.
    fn on_rtt_sample(&mut self, _rtt_s: f64, _now: SimTime) {}
    /// Current pacing rate in bytes/second; `None` sends unpaced (ACK
    /// clocked against the window), which is what window-based
    /// controllers do.
    fn pacing_rate(&self) -> Option<f64> {
        None
    }
}

/// Builds the controller instance a config calls for.
#[must_use]
pub fn build(cfg: &CcConfig) -> Box<dyn CongestionController> {
    match cfg.algorithm {
        CcAlgorithm::Reno => Box::new(Reno),
        CcAlgorithm::Cubic => Box::new(Cubic::new(cfg)),
        CcAlgorithm::Bbr => Box::new(Bbr::new(cfg)),
    }
}

/// Classic Reno/NewReno: slow start, AIMD congestion avoidance, halving
/// on loss, collapse to one MSS on RTO. Stateless — all window state
/// lives in the flow — and telemetry-identical to the pre-trait stack.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reno;

impl CongestionController for Reno {
    fn name(&self) -> &'static str {
        "reno"
    }

    fn on_ack(&mut self, ctx: &mut CcCtx<'_>, newly: u64, _now: SimTime) {
        if *ctx.cwnd < *ctx.ssthresh {
            // Slow start with appropriate byte counting.
            *ctx.cwnd += (newly as f64).min(ctx.mss);
        } else {
            *ctx.cwnd += ctx.mss * ctx.mss / *ctx.cwnd;
        }
    }

    fn on_loss(&mut self, ctx: &mut CcCtx<'_>, now: SimTime) {
        *ctx.ssthresh = (ctx.flight / 2.0).max(2.0 * ctx.mss);
        *ctx.cwnd = *ctx.ssthresh;
        ctx.rec.record(
            now.as_nanos(),
            EventKind::TcpCwnd {
                conn: ctx.conn,
                cwnd: *ctx.cwnd,
                ssthresh: *ctx.ssthresh,
                cause: "fast_recovery",
            },
        );
    }

    fn on_rto(&mut self, ctx: &mut CcCtx<'_>, now: SimTime) {
        // RFC 5681 timeout response.
        *ctx.ssthresh = (ctx.flight / 2.0).max(2.0 * ctx.mss);
        *ctx.cwnd = ctx.mss;
        ctx.rec.record(
            now.as_nanos(),
            EventKind::TcpCwnd {
                conn: ctx.conn,
                cwnd: *ctx.cwnd,
                ssthresh: *ctx.ssthresh,
                cause: "rto",
            },
        );
    }

    fn on_recovery_exit(&mut self, ctx: &mut CcCtx<'_>, now: SimTime) {
        *ctx.cwnd = ctx.cwnd.min(ctx.ssthresh.max(2.0 * ctx.mss));
        ctx.rec.record(
            now.as_nanos(),
            EventKind::TcpCwnd {
                conn: ctx.conn,
                cwnd: *ctx.cwnd,
                ssthresh: *ctx.ssthresh,
                cause: "recovery_exit",
            },
        );
    }
}

/// CUBIC-style congestion avoidance (RFC 8312, without the TCP-friendly
/// region): after each loss the window converges back to `W_max` along
/// `W(t) = C·(t−K)³ + W_max` with `K = ∛((W_max − W_epoch)/C)`.
///
/// Telemetry contract checked by `CubicOracle`: an `"epoch"` `CcWindow`
/// event opens every congestion-avoidance epoch (carrying the epoch
/// window and `W_max`), `"growth"` checkpoints fire whenever the window
/// crosses an MSS boundary (each must sit on or under the cubic curve and
/// grow monotonically), `"loss"` applies `β` with fast convergence, and
/// `"rto"` collapses to one MSS.
#[derive(Debug, Clone)]
pub struct Cubic {
    c: f64,
    beta: f64,
    fast_convergence: bool,
    buggy_no_fast_convergence: bool,
    /// Window size before the last reduction, bytes.
    w_max: f64,
    /// Congestion-avoidance epoch start (`None` in slow start/recovery).
    epoch_start: Option<SimTime>,
    /// Time to reach `w_max` from the epoch start, seconds.
    k: f64,
    /// `floor(cwnd/mss)` at the last growth checkpoint.
    last_growth_mss: u64,
}

impl Cubic {
    /// New CUBIC instance from config knobs.
    #[must_use]
    pub fn new(cfg: &CcConfig) -> Cubic {
        Cubic {
            c: cfg.cubic_c,
            beta: cfg.cubic_beta,
            fast_convergence: cfg.cubic_fast_convergence,
            buggy_no_fast_convergence: cfg.buggy_no_fast_convergence,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            last_growth_mss: 0,
        }
    }

    /// Applies the multiplicative decrease shared by loss and RTO: update
    /// `W_max` (with fast convergence), set `ssthresh = β·cwnd`, reset
    /// the epoch, and record the transition. Loss keeps `cwnd` at the β
    /// target; RTO collapses it to one MSS.
    fn reduce(&mut self, ctx: &mut CcCtx<'_>, now: SimTime, collapse: bool, cause: &'static str) {
        let prev = *ctx.cwnd;
        let fast_path = self.fast_convergence && prev < self.w_max;
        self.w_max = if fast_path && !self.buggy_no_fast_convergence {
            prev * (2.0 - self.beta) / 2.0
        } else {
            prev
        };
        *ctx.ssthresh = (prev * self.beta).max(2.0 * ctx.mss);
        *ctx.cwnd = if collapse { ctx.mss } else { *ctx.ssthresh };
        self.epoch_start = None;
        ctx.rec.record(
            now.as_nanos(),
            EventKind::CcWindow {
                conn: ctx.conn,
                controller: "cubic",
                cause,
                prev_cwnd: prev,
                cwnd: *ctx.cwnd,
                ssthresh: *ctx.ssthresh,
                w_max: self.w_max,
            },
        );
    }
}

impl CongestionController for Cubic {
    fn name(&self) -> &'static str {
        "cubic"
    }

    fn on_ack(&mut self, ctx: &mut CcCtx<'_>, newly: u64, now: SimTime) {
        if *ctx.cwnd < *ctx.ssthresh {
            // Slow start, same as Reno; the cubic clock starts in
            // congestion avoidance.
            *ctx.cwnd += (newly as f64).min(ctx.mss);
            self.epoch_start = None;
            return;
        }
        let t0 = match self.epoch_start {
            Some(t0) => t0,
            None => {
                // New congestion-avoidance epoch: anchor the cubic curve.
                if self.w_max < *ctx.cwnd {
                    self.w_max = *ctx.cwnd;
                }
                self.k = ((self.w_max - *ctx.cwnd) / (self.c * ctx.mss)).cbrt();
                self.epoch_start = Some(now);
                self.last_growth_mss = (*ctx.cwnd / ctx.mss) as u64;
                ctx.rec.record(
                    now.as_nanos(),
                    EventKind::CcWindow {
                        conn: ctx.conn,
                        controller: "cubic",
                        cause: "epoch",
                        prev_cwnd: *ctx.cwnd,
                        cwnd: *ctx.cwnd,
                        ssthresh: *ctx.ssthresh,
                        w_max: self.w_max,
                    },
                );
                now
            }
        };
        let t = now.duration_since(t0).as_secs_f64();
        let target = self.w_max + self.c * ctx.mss * (t - self.k).powi(3);
        if target > *ctx.cwnd {
            let prev = *ctx.cwnd;
            // Close a cwnd-proportional fraction of the gap per ACK (the
            // usual cwnd += (W(t) − cwnd)/cwnd · MSS step), never
            // overshooting the curve.
            *ctx.cwnd = (prev + ctx.mss * (target - prev) / prev).min(target);
            let mss_units = (*ctx.cwnd / ctx.mss) as u64;
            if mss_units != self.last_growth_mss {
                self.last_growth_mss = mss_units;
                ctx.rec.record(
                    now.as_nanos(),
                    EventKind::CcWindow {
                        conn: ctx.conn,
                        controller: "cubic",
                        cause: "growth",
                        prev_cwnd: prev,
                        cwnd: *ctx.cwnd,
                        ssthresh: *ctx.ssthresh,
                        w_max: self.w_max,
                    },
                );
            }
        }
    }

    fn on_loss(&mut self, ctx: &mut CcCtx<'_>, now: SimTime) {
        self.reduce(ctx, now, false, "loss");
    }

    fn on_rto(&mut self, ctx: &mut CcCtx<'_>, now: SimTime) {
        self.reduce(ctx, now, true, "rto");
    }

    fn on_recovery_exit(&mut self, _ctx: &mut CcCtx<'_>, _now: SimTime) {
        // The β reduction already happened at the loss; nothing to
        // deflate.
    }
}

/// BBR probe-bandwidth pacing-gain cycle (RFC draft: one 1.25 probe, one
/// 0.75 drain, six cruise phases, advanced once per min-RTT).
pub const BBR_GAIN_CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// Rounds of bandwidth history kept for the windowed-max filter.
const BW_WINDOW_ROUNDS: usize = 10;
/// Seconds before a min-RTT sample expires and is replaced.
const MIN_RTT_WINDOW_S: f64 = 10.0;
/// Relative bandwidth growth below which a startup round counts as flat.
const FULL_BW_GROWTH: f64 = 1.25;
/// Consecutive flat rounds that declare the pipe full.
const FULL_BW_ROUNDS: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BbrPhase {
    Startup,
    Drain,
    ProbeBw(usize),
}

impl BbrPhase {
    fn label(self) -> &'static str {
        match self {
            BbrPhase::Startup => "startup",
            BbrPhase::Drain => "drain",
            BbrPhase::ProbeBw(_) => "probe_bw",
        }
    }
}

/// BBR-style model-based congestion control: estimate the bottleneck
/// bandwidth (windowed max of per-round average delivery-rate samples)
/// and the round-trip propagation delay (windowed min), pace at
/// `gain × btl_bw`, and cap inflight at `cwnd_gain × BDP`.
///
/// Phase machine: startup (gain 2.885, exits when the bandwidth estimate
/// plateaus for three rounds) → drain (inverse gain until inflight fits
/// the BDP) → probe-bandwidth (the eight-step gain cycle). ProbeRTT is
/// omitted. `BbrState` checkpoints are recorded on every phase transition
/// and on every ≥5% re-adoption of the bandwidth estimate; `BbrOracle`
/// checks phase-sequence legality and the pacing/cwnd bounds against the
/// estimates carried in those events.
#[derive(Debug, Clone)]
pub struct Bbr {
    startup_gain: f64,
    cwnd_gain: f64,
    skip_drain: bool,
    phase: BbrPhase,
    started: bool,
    /// Windowed per-round max delivery-rate samples, bytes/s.
    bw_window: [f64; BW_WINDOW_ROUNDS],
    round: u64,
    /// Cumulative bytes acked.
    delivered: f64,
    /// `delivered` level at which the current round ends.
    round_end_delivered: f64,
    /// When the current round started.
    round_start: SimTime,
    /// `delivered` level when the current round started.
    round_start_delivered: f64,
    /// Adopted bottleneck bandwidth (max over the window), bytes/s.
    btl_bw: f64,
    /// `btl_bw` value last stamped into a `BbrState` event.
    recorded_bw: f64,
    min_rtt: f64,
    min_rtt_stamp: SimTime,
    full_bw: f64,
    full_bw_rounds: u32,
    /// Probe-bandwidth cycle anchor.
    cycle_stamp: SimTime,
}

impl Bbr {
    /// New BBR instance from config knobs.
    #[must_use]
    pub fn new(cfg: &CcConfig) -> Bbr {
        Bbr {
            startup_gain: cfg.bbr_startup_gain,
            cwnd_gain: cfg.bbr_cwnd_gain,
            skip_drain: cfg.buggy_skip_drain,
            phase: BbrPhase::Startup,
            started: false,
            bw_window: [0.0; BW_WINDOW_ROUNDS],
            round: 0,
            delivered: 0.0,
            round_end_delivered: 0.0,
            round_start: SimTime::ZERO,
            round_start_delivered: 0.0,
            btl_bw: 0.0,
            recorded_bw: 0.0,
            min_rtt: f64::INFINITY,
            min_rtt_stamp: SimTime::ZERO,
            full_bw: 0.0,
            full_bw_rounds: 0,
            cycle_stamp: SimTime::ZERO,
        }
    }

    fn pacing_gain(&self) -> f64 {
        match self.phase {
            BbrPhase::Startup => self.startup_gain,
            BbrPhase::Drain => 1.0 / self.startup_gain,
            BbrPhase::ProbeBw(i) => BBR_GAIN_CYCLE[i % BBR_GAIN_CYCLE.len()],
        }
    }

    fn cwnd_gain_now(&self) -> f64 {
        match self.phase {
            BbrPhase::Startup => self.startup_gain,
            _ => self.cwnd_gain,
        }
    }

    /// Estimated bandwidth-delay product, bytes (0 until both estimators
    /// have a sample).
    fn bdp(&self) -> f64 {
        if self.btl_bw > 0.0 && self.min_rtt.is_finite() {
            self.btl_bw * self.min_rtt
        } else {
            0.0
        }
    }

    fn record_state(&mut self, ctx: &CcCtx<'_>, now: SimTime) {
        self.recorded_bw = self.btl_bw;
        let min_rtt_us = if self.min_rtt.is_finite() {
            (self.min_rtt * 1e6) as u64
        } else {
            0
        };
        ctx.rec.record(
            now.as_nanos(),
            EventKind::BbrState {
                conn: ctx.conn,
                phase: self.phase.label(),
                pacing_rate_bps: self.pacing_rate().unwrap_or(0.0),
                btl_bw_bps: self.btl_bw,
                min_rtt_us,
                cwnd: *ctx.cwnd,
            },
        );
    }
}

impl CongestionController for Bbr {
    fn name(&self) -> &'static str {
        "bbr"
    }

    fn on_ack(&mut self, ctx: &mut CcCtx<'_>, newly: u64, now: SimTime) {
        let mut checkpoint = false;
        if !self.started {
            self.started = true;
            self.cycle_stamp = now;
            self.round_start = now;
            self.round_end_delivered = ctx.flight.max(1.0);
            checkpoint = true;
        }
        // At most one phase transition per ACK (relative to the phase on
        // entry), so coalesced transitions can never skip a phase's
        // `BbrState` record.
        let phase_at_entry = self.phase;
        self.delivered += newly as f64;
        // Round accounting: one round per flight's worth of delivery and
        // at least one min-RTT of wall time. Each completed round
        // contributes one delivery-rate sample: the round's bytes over
        // the round's wall time. Per-ACK sampling is not viable here — a
        // cumulative ACK that fills a retransmit hole acks a burst
        // "instantaneously", and the spike would poison the windowed max;
        // the min-RTT span averages such jumps over a full round trip.
        let round_dt = now.duration_since(self.round_start).as_secs_f64();
        let min_span = if self.min_rtt.is_finite() { self.min_rtt } else { 0.0 };
        if self.delivered >= self.round_end_delivered && round_dt >= min_span {
            let dt = round_dt;
            if dt > 0.0 {
                let sample = (self.delivered - self.round_start_delivered) / dt;
                self.bw_window[(self.round as usize) % BW_WINDOW_ROUNDS] = sample;
                self.round += 1;
                if self.phase == BbrPhase::Startup {
                    // Full-pipe detection: bandwidth stopped growing 25%
                    // per round for three consecutive rounds.
                    let bw = self.bw_window.iter().fold(0.0_f64, |a, &b| a.max(b));
                    if bw >= self.full_bw * FULL_BW_GROWTH {
                        self.full_bw = bw;
                        self.full_bw_rounds = 0;
                    } else if self.full_bw > 0.0 {
                        self.full_bw_rounds += 1;
                        if self.full_bw_rounds >= FULL_BW_ROUNDS {
                            self.phase = if self.skip_drain {
                                BbrPhase::ProbeBw(0)
                            } else {
                                BbrPhase::Drain
                            };
                            self.cycle_stamp = now;
                            checkpoint = true;
                        }
                    }
                }
            }
            self.round_start = now;
            self.round_start_delivered = self.delivered;
            self.round_end_delivered = self.delivered + ctx.flight.max(1.0);
        }
        self.btl_bw = self.bw_window.iter().fold(0.0_f64, |a, &b| a.max(b));
        match phase_at_entry {
            BbrPhase::Drain => {
                if ctx.flight <= self.bdp() {
                    self.phase = BbrPhase::ProbeBw(0);
                    self.cycle_stamp = now;
                    checkpoint = true;
                }
            }
            BbrPhase::ProbeBw(i) => {
                // Advance the gain cycle once per min-RTT (same phase
                // label, so no checkpoint needed).
                if self.min_rtt.is_finite()
                    && now.duration_since(self.cycle_stamp).as_secs_f64() >= self.min_rtt
                {
                    self.phase = BbrPhase::ProbeBw((i + 1) % BBR_GAIN_CYCLE.len());
                    self.cycle_stamp = now;
                }
            }
            BbrPhase::Startup => {}
        }
        // Window update: inflight cap at cwnd_gain × BDP once the model
        // has data; grow like slow start until then to feed the
        // estimators.
        let bdp = self.bdp();
        if bdp > 0.0 {
            *ctx.cwnd = (self.cwnd_gain_now() * bdp).max(4.0 * ctx.mss);
        } else {
            *ctx.cwnd += (newly as f64).min(ctx.mss);
        }
        // Checkpoint significant bandwidth-estimate moves too; recording
        // happens after the window update so every `BbrState` event is
        // internally consistent (cwnd vs. the estimates it was computed
        // from) — the oracle's BDP bound relies on that.
        if self.btl_bw > 0.0
            && (self.recorded_bw == 0.0
                || (self.btl_bw - self.recorded_bw).abs() > 0.05 * self.recorded_bw)
        {
            checkpoint = true;
        }
        if checkpoint {
            self.record_state(ctx, now);
        }
    }

    fn on_loss(&mut self, ctx: &mut CcCtx<'_>, now: SimTime) {
        // BBR does not back off on isolated loss; the event still records
        // the loss signal the TCP oracle pairs fast retransmits with.
        ctx.rec.record(
            now.as_nanos(),
            EventKind::CcWindow {
                conn: ctx.conn,
                controller: "bbr",
                cause: "loss",
                prev_cwnd: *ctx.cwnd,
                cwnd: *ctx.cwnd,
                ssthresh: *ctx.ssthresh,
                w_max: 0.0,
            },
        );
    }

    fn on_rto(&mut self, ctx: &mut CcCtx<'_>, now: SimTime) {
        // Conservative collapse; the estimators survive, so the window
        // re-inflates to gain × BDP on the next delivery.
        let prev = *ctx.cwnd;
        *ctx.cwnd = ctx.mss;
        ctx.rec.record(
            now.as_nanos(),
            EventKind::CcWindow {
                conn: ctx.conn,
                controller: "bbr",
                cause: "rto",
                prev_cwnd: prev,
                cwnd: *ctx.cwnd,
                ssthresh: *ctx.ssthresh,
                w_max: 0.0,
            },
        );
    }

    fn on_recovery_exit(&mut self, _ctx: &mut CcCtx<'_>, _now: SimTime) {}

    fn on_rtt_sample(&mut self, rtt_s: f64, now: SimTime) {
        let expired =
            now.duration_since(self.min_rtt_stamp).as_secs_f64() > MIN_RTT_WINDOW_S;
        if rtt_s < self.min_rtt || expired {
            self.min_rtt = rtt_s;
            self.min_rtt_stamp = now;
        }
    }

    fn pacing_rate(&self) -> Option<f64> {
        // Unpaced until the model has a bandwidth estimate (the initial
        // window is small enough to be harmless).
        if self.btl_bw > 0.0 {
            Some(self.pacing_gain() * self.btl_bw)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        cwnd: &'a mut f64,
        ssthresh: &'a mut f64,
        rec: &'a Recorder,
    ) -> CcCtx<'a> {
        CcCtx {
            cwnd,
            ssthresh,
            mss: 1000.0,
            flight: 20_000.0,
            conn: 1,
            rec,
        }
    }

    #[test]
    fn algorithm_labels_round_trip() {
        for alg in CcAlgorithm::all() {
            assert_eq!(CcAlgorithm::from_label(alg.label()), Some(alg));
        }
        assert_eq!(CcAlgorithm::from_label("vegas"), None);
    }

    #[test]
    fn reno_halves_on_loss_and_collapses_on_rto() {
        let rec = Recorder::new();
        let (mut cwnd, mut ssthresh) = (40_000.0, f64::INFINITY);
        let mut cc = Reno;
        cc.on_loss(&mut ctx(&mut cwnd, &mut ssthresh, &rec), SimTime::ZERO);
        assert_eq!(cwnd, 10_000.0, "flight/2");
        assert_eq!(ssthresh, 10_000.0);
        cc.on_rto(&mut ctx(&mut cwnd, &mut ssthresh, &rec), SimTime::ZERO);
        assert_eq!(cwnd, 1000.0, "one MSS after RTO");
    }

    #[test]
    fn cubic_loss_applies_beta_and_fast_convergence() {
        let rec = Recorder::new();
        let cfg = CcConfig::for_algorithm(CcAlgorithm::Cubic);
        let mut cc = Cubic::new(&cfg);
        let (mut cwnd, mut ssthresh) = (100_000.0, 50_000.0);
        cc.on_loss(&mut ctx(&mut cwnd, &mut ssthresh, &rec), SimTime::ZERO);
        assert!((ssthresh - 70_000.0).abs() < 1e-9, "β = 0.7");
        assert_eq!(cc.w_max, 100_000.0, "first loss: W_max = cwnd");
        // Second loss below W_max triggers fast convergence.
        cwnd = 80_000.0;
        cc.on_loss(&mut ctx(&mut cwnd, &mut ssthresh, &rec), SimTime::ZERO);
        let expect = 80_000.0 * (2.0 - 0.7) / 2.0;
        assert!((cc.w_max - expect).abs() < 1e-9, "fast convergence W_max");
    }

    #[test]
    fn buggy_cubic_skips_fast_convergence() {
        let rec = Recorder::new();
        let mut cfg = CcConfig::for_algorithm(CcAlgorithm::Cubic);
        cfg.buggy_no_fast_convergence = true;
        let mut cc = Cubic::new(&cfg);
        let (mut cwnd, mut ssthresh) = (100_000.0, 50_000.0);
        cc.on_loss(&mut ctx(&mut cwnd, &mut ssthresh, &rec), SimTime::ZERO);
        cwnd = 80_000.0;
        cc.on_loss(&mut ctx(&mut cwnd, &mut ssthresh, &rec), SimTime::ZERO);
        assert_eq!(cc.w_max, 80_000.0, "bug: W_max never shrinks");
    }

    #[test]
    fn cubic_growth_tracks_the_cubic_curve() {
        let rec = Recorder::new();
        rec.enable();
        let cfg = CcConfig::for_algorithm(CcAlgorithm::Cubic);
        let mut cc = Cubic::new(&cfg);
        let (mut cwnd, mut ssthresh) = (20_000.0, 10_000.0); // CA from the start
        cc.w_max = 60_000.0;
        let mut now = SimTime::ZERO;
        for _ in 0..10_000 {
            now += std::time::Duration::from_millis(10);
            cc.on_ack(&mut ctx(&mut cwnd, &mut ssthresh, &rec), 1000, now);
        }
        // After 100 s the curve is far past W_max; the window must have
        // grown beyond it but never jumped above the curve (checked per
        // step by construction; sanity-check the end state here).
        assert!(cwnd > 60_000.0, "grew past W_max, got {cwnd}");
        let epoch_events = rec
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CcWindow { cause: "epoch", .. }))
            .count();
        assert_eq!(epoch_events, 1, "one epoch for an uninterrupted CA run");
    }

    #[test]
    fn bbr_reaches_probe_bw_through_drain() {
        let rec = Recorder::new();
        rec.enable();
        let cfg = CcConfig::for_algorithm(CcAlgorithm::Bbr);
        let mut cc = Bbr::new(&cfg);
        let (mut cwnd, mut ssthresh) = (10_000.0, f64::INFINITY);
        let mut now = SimTime::ZERO;
        cc.on_rtt_sample(0.05, now);
        // Steady 1 MB/s delivery: bandwidth plateaus, startup must exit.
        for _ in 0..400 {
            now += std::time::Duration::from_millis(10);
            let mut c = ctx(&mut cwnd, &mut ssthresh, &rec);
            c.flight = 10_000.0;
            cc.on_ack(&mut c, 10_000, now);
        }
        assert!(
            matches!(cc.phase, BbrPhase::ProbeBw(_)),
            "expected probe_bw, got {:?}",
            cc.phase
        );
        let phases: Vec<&'static str> = rec
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::BbrState { phase, .. } => Some(phase),
                _ => None,
            })
            .collect();
        assert!(phases.contains(&"drain"), "drain visited: {phases:?}");
        assert_eq!(phases.first(), Some(&"startup"));
    }

    #[test]
    fn buggy_bbr_skips_drain() {
        let rec = Recorder::new();
        rec.enable();
        let mut cfg = CcConfig::for_algorithm(CcAlgorithm::Bbr);
        cfg.buggy_skip_drain = true;
        let mut cc = Bbr::new(&cfg);
        let (mut cwnd, mut ssthresh) = (10_000.0, f64::INFINITY);
        let mut now = SimTime::ZERO;
        cc.on_rtt_sample(0.05, now);
        for _ in 0..400 {
            now += std::time::Duration::from_millis(10);
            let mut c = ctx(&mut cwnd, &mut ssthresh, &rec);
            c.flight = 10_000.0;
            cc.on_ack(&mut c, 10_000, now);
        }
        let phases: Vec<&'static str> = rec
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::BbrState { phase, .. } => Some(phase),
                _ => None,
            })
            .collect();
        assert!(!phases.contains(&"drain"), "bug skips drain: {phases:?}");
        assert!(phases.contains(&"probe_bw"));
    }

    #[test]
    fn bbr_paces_at_gain_times_bandwidth() {
        let rec = Recorder::new();
        let cfg = CcConfig::for_algorithm(CcAlgorithm::Bbr);
        let mut cc = Bbr::new(&cfg);
        assert_eq!(cc.pacing_rate(), None, "unpaced before estimates");
        cc.btl_bw = 1_000_000.0;
        let rate = cc.pacing_rate().expect("paced");
        assert!((rate - 2.885e6).abs() < 1.0, "startup gain × btl_bw");
        let _ = rec;
    }
}
