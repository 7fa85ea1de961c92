//! Ping/pong components (§V-A.2): timing-sensitive control messages whose
//! round-trip time is measured while (possibly) competing with bulk data
//! transfer — the paper's Figure 8 workload.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kmsg_component::prelude::*;
use kmsg_core::prelude::*;
use kmsg_netsim::time::SimTime;
use kmsg_telemetry::metrics::OnlineStats;

use crate::msgs::{PingMsg, PongMsg};

/// Pinger configuration.
#[derive(Debug, Clone)]
pub struct PingerConfig {
    /// This host's address.
    pub src: NetAddress,
    /// The ponger's address.
    pub dst: NetAddress,
    /// Transport for the pings (the paper uses TCP for control traffic).
    pub transport: Transport,
    /// Interval between pings.
    pub interval: Duration,
}

impl PingerConfig {
    /// Pings over TCP every 250 ms.
    #[must_use]
    pub fn new(src: NetAddress, dst: NetAddress) -> Self {
        PingerConfig {
            src,
            dst,
            transport: Transport::Tcp,
            interval: Duration::from_millis(250),
        }
    }
}

/// Collected round-trip times.
#[derive(Debug, Clone, Default)]
pub struct PingStats {
    /// All RTT samples in order.
    pub rtts: Vec<Duration>,
    /// Online summary of the samples (seconds).
    pub(crate) summary: OnlineStats,
    /// Pings sent.
    pub(crate) sent: u64,
    /// Pongs received.
    pub received: u64,
}

impl PingStats {
    /// Mean RTT, if any samples exist.
    #[must_use]
    pub fn mean(&self) -> Option<Duration> {
        if self.summary.count() == 0 {
            None
        } else {
            Some(Duration::from_secs_f64(self.summary.mean()))
        }
    }
}

/// Shared handle to ping statistics.
pub(crate) type PingStatsHandle = Arc<Mutex<PingStats>>;

/// Sends pings on a timer; measures RTTs from the matching pongs.
pub struct Pinger {
    /// Network port.
    pub(crate) net: RequiredPort<NetworkPort>,
    cfg: PingerConfig,
    next_seq: u64,
    in_flight: HashMap<u64, SimTime>,
    stats: PingStatsHandle,
}

impl std::fmt::Debug for Pinger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pinger")
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl Pinger {
    /// Creates the pinger.
    #[must_use]
    pub fn new(cfg: PingerConfig) -> Self {
        Pinger {
            net: RequiredPort::new(),
            cfg,
            next_seq: 0,
            in_flight: HashMap::new(),
            stats: Arc::new(Mutex::new(PingStats::default())),
        }
    }

    /// The live stats handle.
    #[must_use]
    pub fn stats(&self) -> PingStatsHandle {
        self.stats.clone()
    }

    fn send_ping(&mut self, now: SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.in_flight.insert(seq, now);
        self.stats.lock().sent += 1;
        self.net.trigger(NetRequest::Msg(NetMessage::new(
            self.cfg.src,
            self.cfg.dst,
            self.cfg.transport,
            PingMsg { seq },
        )));
    }
}

impl ComponentDefinition for Pinger {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        kmsg_component::execute_ports!(self, ctx, max, [required net: NetworkPort])
    }

    fn handle_control(&mut self, ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start {
            ctx.schedule_periodic(Duration::ZERO, self.cfg.interval);
        }
    }

    fn on_timeout(&mut self, ctx: &mut ComponentContext, _id: TimeoutId) {
        self.send_ping(ctx.now());
    }
}

impl Require<NetworkPort> for Pinger {
    fn handle(&mut self, ctx: &mut ComponentContext, ev: NetIndication) {
        let NetIndication::Msg(msg) = ev else {
            return;
        };
        let Ok(pong) = msg.try_deserialise::<PongMsg, PongMsg>() else {
            return;
        };
        if let Some(sent_at) = self.in_flight.remove(&pong.seq) {
            let rtt = ctx.now().duration_since(sent_at);
            let mut stats = self.stats.lock();
            stats.rtts.push(rtt);
            stats.summary.push(rtt.as_secs_f64());
            stats.received += 1;
        }
    }
}

impl RequireRef<NetworkPort> for Pinger {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

/// Answers every ping with a pong over the same transport, back to the
/// message's source address.
pub struct Ponger {
    /// Network port.
    pub(crate) net: RequiredPort<NetworkPort>,
    addr: NetAddress,
    answered: u64,
}

impl std::fmt::Debug for Ponger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ponger")
            .field("answered", &self.answered)
            .finish()
    }
}

impl Ponger {
    /// Creates a ponger replying from `addr`.
    #[must_use]
    pub fn new(addr: NetAddress) -> Self {
        Ponger {
            net: RequiredPort::new(),
            addr,
            answered: 0,
        }
    }

    /// Pings answered so far.
    #[must_use]
    pub fn answered(&self) -> u64 {
        self.answered
    }
}

impl ComponentDefinition for Ponger {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        kmsg_component::execute_ports!(self, ctx, max, [required net: NetworkPort])
    }
}

impl Require<NetworkPort> for Ponger {
    fn handle(&mut self, _ctx: &mut ComponentContext, ev: NetIndication) {
        let NetIndication::Msg(msg) = ev else {
            return;
        };
        let Ok(ping) = msg.try_deserialise::<PingMsg, PingMsg>() else {
            return;
        };
        let reply_to = *msg.header().source();
        let proto = msg.header().protocol();
        self.answered += 1;
        self.net.trigger(NetRequest::Msg(NetMessage::new(
            self.addr,
            reply_to,
            proto,
            PongMsg { seq: ping.seq },
        )));
    }
}

impl RequireRef<NetworkPort> for Ponger {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}
