//! Directed link model: bandwidth, propagation delay, drop-tail queue,
//! random loss, and an optional UDP token-bucket policer.
//!
//! The queue is modelled analytically: a link keeps a `busy_until` horizon;
//! a packet's transmission starts at `max(now, busy_until)` and the current
//! queue occupancy in bytes is `(busy_until - now) · bandwidth`. This yields
//! exact FIFO behaviour and correct bandwidth sharing between flows without
//! per-byte events.
//!
//! The policer models Amazon EC2's UDP rate limiting (~10 MB/s), which the
//! paper identifies as the reason UDT plateaus near 10 MB/s in all of its
//! wide-area experiments.
//!
//! A link has no lock of its own: its state is a row of the fabric's link
//! table, offered packets by the fabric with an explicit `now`, and the
//! public [`Link`] is a view of that row through the world lock.

use std::fmt;
use std::time::Duration;

use rand::Rng;

use crate::network::Network;
use crate::rng::RngStream;
use crate::time::SimTime;

/// Token-bucket configuration for UDP-family policing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicerConfig {
    /// Sustained rate in bytes per second.
    pub rate: f64,
    /// Bucket depth in bytes.
    pub burst: f64,
}

impl PolicerConfig {
    /// EC2-like policer: 10 MB/s sustained, 1 MB burst.
    #[must_use]
    pub const fn ec2_udp() -> Self {
        PolicerConfig {
            rate: 10e6,
            burst: 1e6,
        }
    }
}

/// Gilbert–Elliott two-state burst-loss model.
///
/// The link alternates between a *good* and a *bad* state; each packet first
/// advances the state machine (good→bad with `p_enter_bad`, bad→good with
/// `p_exit_bad`), then is lost with the loss probability of the resulting
/// state. Unlike the independent `random_loss`, this produces the correlated
/// loss bursts that WAN paths exhibit under transient congestion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeConfig {
    /// Per-packet probability of transitioning good → bad.
    pub p_enter_bad: f64,
    /// Per-packet probability of transitioning bad → good.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state (usually ~0).
    pub loss_good: f64,
    /// Loss probability while in the bad state (usually high).
    pub loss_bad: f64,
}

impl GeConfig {
    /// A typical bursty-loss episode: rare entry into a sticky bad state
    /// that loses half its packets.
    #[must_use]
    pub const fn bursty() -> Self {
        GeConfig {
            p_enter_bad: 0.01,
            p_exit_bad: 0.25,
            loss_good: 0.0,
            loss_bad: 0.5,
        }
    }

    fn validate(&self) {
        for (name, p) in [
            ("p_enter_bad", self.p_enter_bad),
            ("p_exit_bad", self.p_exit_bad),
            ("loss_good", self.loss_good),
            ("loss_bad", self.loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} out of [0, 1]: {p}");
        }
    }
}

/// Configuration of a directed link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Drop-tail queue capacity in bytes.
    pub(crate) queue_capacity: usize,
    /// Independent per-packet random loss probability in `[0, 1)`.
    pub random_loss: f64,
    /// Uniform random extra propagation delay in `[0, jitter]` per packet.
    /// Non-zero jitter lets packets overtake each other (reordering), which
    /// UDP exposes to the application while TCP/UDT repair it.
    pub(crate) jitter: Duration,
    /// Optional policer applied to UDP-family packets only.
    pub udp_policer: Option<PolicerConfig>,
    /// Optional Gilbert–Elliott burst-loss model, applied in addition to
    /// (and independently of) `random_loss`.
    pub(crate) burst_loss: Option<GeConfig>,
}

impl LinkConfig {
    /// A clean link with the given bandwidth (bytes/s) and one-way delay.
    ///
    /// Queue capacity defaults to one bandwidth-delay product, but at least
    /// 256 KiB (a typical shallow router buffer).
    #[must_use]
    pub fn new(bandwidth: f64, delay: Duration) -> Self {
        let bdp = (bandwidth * delay.as_secs_f64()) as usize;
        LinkConfig {
            bandwidth,
            delay,
            queue_capacity: bdp.max(256 * 1024),
            random_loss: 0.0,
            jitter: Duration::ZERO,
            udp_policer: None,
            burst_loss: None,
        }
    }

    /// Sets the drop-tail queue capacity in bytes.
    #[must_use]
    pub fn queue_capacity(mut self, bytes: usize) -> Self {
        self.queue_capacity = bytes;
        self
    }

    /// Sets the independent per-packet random loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    #[must_use]
    pub fn random_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability out of range");
        self.random_loss = p;
        self
    }

    /// Sets the per-packet jitter bound.
    #[must_use]
    pub fn jitter(mut self, jitter: Duration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Installs a UDP-family policer.
    #[must_use]
    pub fn udp_policer(mut self, cfg: PolicerConfig) -> Self {
        self.udp_policer = Some(cfg);
        self
    }
}

/// Identifies a link within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// The raw index of this link — stable for telemetry labelling.
    #[must_use]
    pub(crate) const fn index(self) -> u32 {
        self.0
    }

    /// Reconstructs a `LinkId` from `LinkId::index` — for scripting fault
    /// plans against a known topology. The caller is responsible for the
    /// index referring to a link that exists in the target
    /// [`Network`].
    #[must_use]
    pub const fn from_index(index: u32) -> LinkId {
        LinkId(index)
    }
}

/// Why a link refused a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Drop-tail queue overflow.
    QueueOverflow,
    /// Random (corruption) loss.
    RandomLoss,
    /// UDP policer out of tokens.
    Policed,
    /// The link is administratively down (outage injection).
    LinkDown,
    /// The link was severed (carrier loss) while the packet was in flight
    /// or serialized in the queue.
    Severed,
    /// Lost in the bad state of the Gilbert–Elliott burst model.
    BurstLoss,
}

impl DropReason {
    /// Stable snake_case label for telemetry output.
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            DropReason::QueueOverflow => "queue_overflow",
            DropReason::RandomLoss => "random_loss",
            DropReason::Policed => "policed",
            DropReason::LinkDown => "link_down",
            DropReason::Severed => "severed",
            DropReason::BurstLoss => "burst_loss",
        }
    }
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Verdict {
    /// The packet will arrive at the far end at this instant.
    DeliverAt(SimTime),
    /// The packet was dropped.
    Dropped(DropReason),
}

#[derive(Debug)]
struct TokenBucket {
    cfg: PolicerConfig,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    fn allow(&mut self, now: SimTime, size: f64) -> bool {
        let dt = now.duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.cfg.rate).min(self.cfg.burst);
        self.last = now;
        if self.tokens >= size {
            self.tokens -= size;
            true
        } else {
            false
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
/// Cumulative counters of a link's activity.
pub struct LinkStats {
    /// Packets fully transmitted (scheduled for delivery).
    pub delivered: u64,
    /// Bytes fully transmitted.
    pub delivered_bytes: u64,
    /// Packets dropped by queue overflow.
    pub dropped_queue: u64,
    /// Packets dropped by random loss.
    pub dropped_loss: u64,
    /// Packets dropped by the UDP policer.
    pub dropped_policer: u64,
    /// Packets dropped while the link was down.
    pub dropped_down: u64,
    /// Packets killed in flight (or in the queue backlog) by a sever.
    pub dropped_severed: u64,
    /// Packets lost in the Gilbert–Elliott bad state.
    pub dropped_burst: u64,
}

impl LinkStats {
    /// The counter for a given drop reason.
    #[must_use]
    pub fn dropped(&self, reason: DropReason) -> u64 {
        match reason {
            DropReason::QueueOverflow => self.dropped_queue,
            DropReason::RandomLoss => self.dropped_loss,
            DropReason::Policed => self.dropped_policer,
            DropReason::LinkDown => self.dropped_down,
            DropReason::Severed => self.dropped_severed,
            DropReason::BurstLoss => self.dropped_burst,
        }
    }
}

/// Everything a link is: plain state in the fabric's dense link table,
/// reached only with the world lock held.
#[derive(Debug)]
pub(crate) struct LinkState {
    cfg: LinkConfig,
    up: bool,
    busy_until: SimTime,
    policer: Option<TokenBucket>,
    rng: RngStream,
    stats: LinkStats,
    /// Gilbert–Elliott state: `true` while in the bad (bursty-loss) state.
    ge_bad: bool,
    /// Bumped on every [`Link::sever`]; packets in flight carry the epoch
    /// they were transmitted under and die on arrival if it changed.
    epoch: u64,
    /// Transient extra propagation delay (latency-spike injection).
    extra_delay: Duration,
}

impl LinkState {
    pub(crate) fn new(cfg: LinkConfig, rng: RngStream) -> Self {
        let policer = cfg.udp_policer.map(|p| TokenBucket {
            cfg: p,
            tokens: p.burst,
            last: SimTime::ZERO,
        });
        LinkState {
            cfg,
            up: true,
            busy_until: SimTime::ZERO,
            policer,
            rng,
            stats: LinkStats::default(),
            ge_bad: false,
            epoch: 0,
            extra_delay: Duration::ZERO,
        }
    }

    /// Offers a packet of `wire_size` bytes to the link at `now` and returns
    /// when (and whether) it arrives at the far end.
    pub(crate) fn transmit(&mut self, now: SimTime, wire_size: usize, udp_family: bool) -> Verdict {
        let size = wire_size as f64;

        if !self.up {
            self.stats.dropped_down += 1;
            return Verdict::Dropped(DropReason::LinkDown);
        }

        if udp_family {
            if let Some(bucket) = self.policer.as_mut() {
                if !bucket.allow(now, size) {
                    self.stats.dropped_policer += 1;
                    return Verdict::Dropped(DropReason::Policed);
                }
            }
        }

        // Analytic drop-tail queue: occupancy is the backlog still to be
        // serialized.
        if self.backlog_bytes(now) + size > self.cfg.queue_capacity as f64 {
            self.stats.dropped_queue += 1;
            return Verdict::Dropped(DropReason::QueueOverflow);
        }

        if self.cfg.random_loss > 0.0 {
            let roll: f64 = self.rng.gen();
            if roll < self.cfg.random_loss {
                // The packet still occupies the wire before being corrupted.
                let tx = Duration::from_secs_f64(size / self.cfg.bandwidth);
                self.busy_until = self.busy_until.max(now) + tx;
                self.stats.dropped_loss += 1;
                return Verdict::Dropped(DropReason::RandomLoss);
            }
        }

        if let Some(ge) = self.cfg.burst_loss {
            // Advance the two-state machine, then roll against the loss
            // probability of the state we landed in.
            let flip: f64 = self.rng.gen();
            if self.ge_bad {
                if flip < ge.p_exit_bad {
                    self.ge_bad = false;
                }
            } else if flip < ge.p_enter_bad {
                self.ge_bad = true;
            }
            let loss = if self.ge_bad {
                ge.loss_bad
            } else {
                ge.loss_good
            };
            if loss > 0.0 {
                let roll: f64 = self.rng.gen();
                if roll < loss {
                    // Like random loss, a burst-lost packet occupies the wire.
                    let tx = Duration::from_secs_f64(size / self.cfg.bandwidth);
                    self.busy_until = self.busy_until.max(now) + tx;
                    self.stats.dropped_burst += 1;
                    return Verdict::Dropped(DropReason::BurstLoss);
                }
            }
        }

        let tx = Duration::from_secs_f64(size / self.cfg.bandwidth);
        let start = self.busy_until.max(now);
        self.busy_until = start + tx;
        let mut arrival = self.busy_until + self.cfg.delay + self.extra_delay;
        if !self.cfg.jitter.is_zero() {
            let j: f64 = self.rng.gen();
            arrival += Duration::from_secs_f64(j * self.cfg.jitter.as_secs_f64());
        }
        self.stats.delivered += 1;
        self.stats.delivered_bytes += wire_size as u64;
        Verdict::DeliverAt(arrival)
    }

    pub(crate) fn queue_capacity(&self) -> usize {
        self.cfg.queue_capacity
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Counts a packet killed in flight by a sever (called by the network
    /// on arrival when the epoch check fails).
    pub(crate) fn note_severed(&mut self) {
        self.stats.dropped_severed += 1;
    }

    pub(crate) fn backlog_bytes(&self, now: SimTime) -> f64 {
        self.busy_until.duration_since(now).as_secs_f64() * self.cfg.bandwidth
    }

    fn sever(&mut self) {
        self.up = false;
        self.busy_until = SimTime::ZERO;
        self.epoch += 1;
    }

    fn set_burst_loss(&mut self, cfg: Option<GeConfig>) {
        self.cfg.burst_loss = cfg;
        if cfg.is_none() {
            self.ge_bad = false;
        }
    }
}

/// A view of one directed link of a [`Network`], from
/// [`Network::link`]: every method reads or writes the link's state in the
/// fabric, under the world lock, so a view is never a snapshot. Links are
/// added with [`Network::add_link`].
pub struct Link {
    net: Network,
    id: LinkId,
}

impl fmt::Debug for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = f.debug_struct("Link");
        out.field("id", &self.id);
        self.with(|state| out.field("state", state).finish())
    }
}

impl Link {
    pub(crate) fn new(net: Network, id: LinkId) -> Self {
        Link { net, id }
    }

    fn with<R>(&self, f: impl FnOnce(&mut LinkState) -> R) -> R {
        self.net.with_link(self.id, f)
    }

    /// Snapshot of the link's counters.
    #[must_use]
    pub fn stats(&self) -> LinkStats {
        self.with(|l| l.stats)
    }

    /// Injects or clears an outage: while down, every offered packet is
    /// dropped. Packets already serialized onto the wire still arrive
    /// (the failure is at the link entry, like an unplugged uplink).
    pub fn set_up(&self, up: bool) {
        self.with(|l| l.up = up);
    }

    /// Whether the link is currently up.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.with(|l| l.up)
    }

    /// Severs the link: carrier loss rather than an unplugged uplink.
    ///
    /// In addition to taking the link down like `set_up(false)`, the
    /// serialized backlog is cleared and packets already in flight are
    /// killed: the sever epoch is bumped, and the network drops any packet
    /// stamped with an older epoch on arrival, counting it under
    /// [`DropReason::Severed`]. Restore with `set_up(true)`.
    pub fn sever(&self) {
        self.with(LinkState::sever);
    }

    /// Installs or clears a transient extra propagation delay (latency
    /// spike). Applies to packets transmitted from now on.
    pub(crate) fn set_extra_delay(&self, extra: Duration) {
        self.with(|l| l.extra_delay = extra);
    }

    /// Installs or clears the Gilbert–Elliott burst-loss model at runtime.
    /// Clearing also resets the state machine to the good state.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    pub(crate) fn set_burst_loss(&self, cfg: Option<GeConfig>) {
        if let Some(ge) = cfg {
            ge.validate();
        }
        self.with(|l| l.set_burst_loss(cfg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedSource;

    impl Link {
        /// The current sever epoch (see [`Link::sever`]).
        #[must_use]
        pub(crate) fn epoch(&self) -> u64 {
            self.with(|l| l.epoch())
        }
    }

    /// Where every test starts its clock.
    const T0: SimTime = SimTime::ZERO;

    fn mk(cfg: LinkConfig) -> LinkState {
        LinkState::new(cfg, SeedSource::new(1).stream("test-link"))
    }

    #[test]
    fn serialization_plus_propagation() {
        let mut link = mk(LinkConfig::new(1e6, Duration::from_millis(10)));
        // 1000 B at 1 MB/s = 1 ms serialization + 10 ms propagation.
        match link.transmit(T0, 1000, false) {
            Verdict::DeliverAt(t) => {
                assert_eq!(t, SimTime::from_nanos(11_000_000));
            }
            v => panic!("unexpected verdict {v:?}"),
        }
    }

    #[test]
    fn fifo_backlog_accumulates() {
        let mut link = mk(LinkConfig::new(1e6, Duration::ZERO).queue_capacity(10_000));
        let t1 = match link.transmit(T0, 1000, false) {
            Verdict::DeliverAt(t) => t,
            v => panic!("{v:?}"),
        };
        let t2 = match link.transmit(T0, 1000, false) {
            Verdict::DeliverAt(t) => t,
            v => panic!("{v:?}"),
        };
        assert!(t2 > t1);
        assert_eq!(t2.duration_since(t1), Duration::from_millis(1));
        assert!(link.backlog_bytes(T0) > 0.0);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut link = mk(LinkConfig::new(1e6, Duration::ZERO).queue_capacity(2500));
        assert!(matches!(
            link.transmit(T0, 1000, false),
            Verdict::DeliverAt(_)
        ));
        assert!(matches!(
            link.transmit(T0, 1000, false),
            Verdict::DeliverAt(_)
        ));
        // Third packet exceeds the 2500 B queue.
        assert_eq!(
            link.transmit(T0, 1000, false),
            Verdict::Dropped(DropReason::QueueOverflow)
        );
        assert_eq!(link.stats.dropped_queue, 1);
        assert_eq!(link.stats.delivered, 2);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut link = mk(LinkConfig::new(1e6, Duration::ZERO).queue_capacity(1500));
        assert!(matches!(
            link.transmit(T0, 1000, false),
            Verdict::DeliverAt(_)
        ));
        assert!(matches!(
            link.transmit(T0, 1000, false),
            Verdict::Dropped(DropReason::QueueOverflow)
        ));
        // A second later the queue has emptied.
        assert!(matches!(
            link.transmit(SimTime::from_secs(1), 1000, false),
            Verdict::DeliverAt(_)
        ));
    }

    #[test]
    fn random_loss_rate_approximate() {
        let mut link = mk(LinkConfig::new(1e12, Duration::ZERO)
            .queue_capacity(usize::MAX / 2)
            .random_loss(0.1));
        let mut dropped = 0;
        for _ in 0..10_000 {
            if matches!(link.transmit(T0, 100, false), Verdict::Dropped(_)) {
                dropped += 1;
            }
        }
        assert!((800..1200).contains(&dropped), "dropped={dropped}");
    }

    #[test]
    fn policer_only_hits_udp_family() {
        let cfg = LinkConfig::new(100e6, Duration::ZERO)
            .queue_capacity(usize::MAX / 2)
            .udp_policer(PolicerConfig {
                rate: 1000.0,
                burst: 1000.0,
            });
        let mut link = mk(cfg);
        // Two 600 B UDP packets: first drains the bucket, second is policed.
        assert!(matches!(
            link.transmit(T0, 600, true),
            Verdict::DeliverAt(_)
        ));
        assert_eq!(
            link.transmit(T0, 600, true),
            Verdict::Dropped(DropReason::Policed)
        );
        // TCP is unaffected.
        assert!(matches!(
            link.transmit(T0, 600, false),
            Verdict::DeliverAt(_)
        ));
        assert_eq!(link.stats.dropped_policer, 1);
    }

    #[test]
    fn policer_refills_over_time() {
        let cfg = LinkConfig::new(100e6, Duration::ZERO)
            .queue_capacity(usize::MAX / 2)
            .udp_policer(PolicerConfig {
                rate: 1000.0,
                burst: 1000.0,
            });
        let mut link = mk(cfg);
        assert!(matches!(
            link.transmit(T0, 1000, true),
            Verdict::DeliverAt(_)
        ));
        assert!(matches!(link.transmit(T0, 1000, true), Verdict::Dropped(_)));
        assert!(matches!(
            link.transmit(SimTime::from_secs(2), 1000, true),
            Verdict::DeliverAt(_)
        ));
    }

    #[test]
    fn default_queue_is_at_least_bdp() {
        let cfg = LinkConfig::new(125e6, Duration::from_millis(100));
        assert!(cfg.queue_capacity >= 12_500_000);
        let small = LinkConfig::new(1e6, Duration::from_millis(1));
        assert_eq!(small.queue_capacity, 256 * 1024);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_invalid_loss() {
        let _ = LinkConfig::new(1e6, Duration::ZERO).random_loss(1.5);
    }

    #[test]
    fn jitter_spreads_arrivals() {
        let mut link =
            mk(LinkConfig::new(1e9, Duration::from_millis(10)).jitter(Duration::from_millis(5)));
        let mut times = Vec::new();
        for _ in 0..50 {
            match link.transmit(T0, 100, true) {
                Verdict::DeliverAt(t) => times.push(t),
                v => panic!("{v:?}"),
            }
        }
        // With near-zero serialization but 0-5 ms jitter, arrivals must not
        // be monotone (reordering is possible).
        let sorted = times.windows(2).all(|w| w[0] <= w[1]);
        assert!(!sorted, "jitter should reorder back-to-back packets");
        let base = SimTime::from_millis(10);
        assert!(times.iter().all(|&t| t >= base));
        assert!(times.iter().all(|&t| t <= base + Duration::from_millis(6)));
    }

    #[test]
    fn outage_drops_everything_until_restored() {
        let mut link = mk(LinkConfig::new(1e6, Duration::ZERO));
        assert!(link.up);
        link.up = false;
        for _ in 0..5 {
            assert_eq!(
                link.transmit(T0, 100, false),
                Verdict::Dropped(DropReason::LinkDown)
            );
        }
        assert_eq!(link.stats.dropped_down, 5);
        link.up = true;
        assert!(matches!(
            link.transmit(T0, 100, false),
            Verdict::DeliverAt(_)
        ));
    }

    #[test]
    fn sever_clears_backlog_and_bumps_epoch() {
        let mut link = mk(LinkConfig::new(1e6, Duration::ZERO).queue_capacity(10_000));
        assert!(matches!(
            link.transmit(T0, 5000, false),
            Verdict::DeliverAt(_)
        ));
        assert!(link.backlog_bytes(T0) > 0.0);
        let before = link.epoch();
        link.sever();
        assert!(!link.up);
        assert_eq!(link.epoch(), before + 1);
        assert_eq!(link.backlog_bytes(T0), 0.0);
        link.up = true;
        // Backlog was discarded: the next packet serializes immediately.
        match link.transmit(T0, 1000, false) {
            Verdict::DeliverAt(t) => assert_eq!(t, SimTime::from_millis(1)),
            v => panic!("{v:?}"),
        }
    }

    #[test]
    fn burst_loss_drops_in_bursts() {
        let mut link = mk(LinkConfig {
            burst_loss: Some(GeConfig {
                p_enter_bad: 0.02,
                p_exit_bad: 0.2,
                loss_good: 0.0,
                loss_bad: 1.0,
            }),
            ..LinkConfig::new(1e12, Duration::ZERO).queue_capacity(usize::MAX / 2)
        });
        let mut outcomes = Vec::new();
        for _ in 0..20_000 {
            outcomes.push(matches!(
                link.transmit(T0, 100, false),
                Verdict::Dropped(DropReason::BurstLoss)
            ));
        }
        let dropped = outcomes.iter().filter(|&&d| d).count();
        // Steady-state bad occupancy = p_enter / (p_enter + p_exit) ≈ 9%.
        assert!((1000..3000).contains(&dropped), "dropped={dropped}");
        // Correlation: a drop is followed by another drop far more often
        // than the unconditional rate (bursts, not independent loss).
        let pairs = outcomes.windows(2).filter(|w| w[0]).count();
        let both = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let cond = both as f64 / pairs as f64;
        let uncond = dropped as f64 / outcomes.len() as f64;
        assert!(cond > 2.0 * uncond, "cond={cond:.3} uncond={uncond:.3}");
        assert_eq!(link.stats.dropped_burst as usize, dropped);
        // Clearing resets to the good state.
        link.set_burst_loss(None);
        assert!(matches!(
            link.transmit(T0, 100, false),
            Verdict::DeliverAt(_)
        ));
    }

    #[test]
    fn extra_delay_shifts_arrivals() {
        let mut link = mk(LinkConfig::new(1e6, Duration::from_millis(10)));
        link.extra_delay = Duration::from_millis(40);
        match link.transmit(T0, 1000, false) {
            Verdict::DeliverAt(t) => assert_eq!(t, SimTime::from_millis(51)),
            v => panic!("{v:?}"),
        }
        link.extra_delay = Duration::ZERO;
        match link.transmit(SimTime::from_secs(1), 1000, false) {
            Verdict::DeliverAt(t) => {
                assert_eq!(t, SimTime::from_secs(1) + Duration::from_millis(11));
            }
            v => panic!("{v:?}"),
        }
    }
}
