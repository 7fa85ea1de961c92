//! The `data-network-interceptor` component (§IV-A).
//!
//! Sits between application components and the
//! [`NetworkComponent`](crate::net::NetworkComponent). Messages carrying
//! the pseudo-protocol [`Transport::Data`] are intercepted per destination
//! flow: they are queued and released to the network layer at an adaptive
//! rate — each protocol gets its own outstanding-bytes window sized to its
//! measured bandwidth-delay product plus a small slack, so transport
//! queues stay shallow and control messages interleave well (the effect
//! behind the paper's Figure 8). Each released message is stamped with a
//! concrete protocol (TCP or UDT) by the flow's
//! [`ProtocolSelectionPolicy`]; once per episode the flow's
//! `ProtocolRatioPolicy` consumes the observed throughput (and mean
//! notify latency) and prescribes the next target ratio.
//!
//! All other messages pass through unchanged, in both directions.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use kmsg_component::prelude::*;
use kmsg_netsim::packet::Endpoint;
use kmsg_netsim::rng::SeedSource;
use kmsg_netsim::slab::FxHashMap;
use kmsg_netsim::time::SimTime;
use kmsg_telemetry::Recorder;

use crate::address::Address;
use crate::data::prp::{
    EpisodeObservation, ProtocolRatioPolicy, StaticRatio, TdConfig, TdRatioLearner,
};
use crate::data::psp::{PatternKind, PatternSelection, ProtocolSelectionPolicy, RandomSelection};
use crate::data::ratio::Ratio;
use crate::header::NetHeader;
use crate::msg::{NetIndication, NetMessage, NetRequest, NetworkPort, NotifyToken};
use crate::transport::Transport;

/// Notify-token ids at or above this value are reserved for the
/// interceptor's internal bookkeeping; applications must stay below.
pub(crate) const INTERNAL_NOTIFY_BASE: u64 = 1 << 63;

/// Which protocol selection policy a flow uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PspKind {
    /// Bernoulli per-message selection (baseline).
    Random,
    /// Deterministic interleaving patterns.
    Pattern(PatternKind),
}

/// Which protocol ratio policy a flow uses.
#[derive(Debug, Clone)]
pub enum PrpKind {
    /// Fixed target ratio.
    Static(Ratio),
    /// The TD(λ) learner.
    Td(TdConfig),
}

/// Learning episode length (the paper uses 1 s).
const EPISODE: Duration = Duration::from_secs(1);

/// Minimum per-protocol window of outstanding bytes per flow.
const MIN_WINDOW: usize = 128 * 1024;

/// Window slack beyond the bandwidth-delay product, as a time depth:
/// outstanding ≈ throughput × (2·RTT + this). Keeps transport queues
/// shallow so control messages interleave well.
const WINDOW_TIME: Duration = Duration::from_millis(40);

/// Maximum pattern length (finest representable ratio).
const PATTERN_MAX: u64 = 100;

/// Episodes to skip before feeding rewards to the ratio policy: the
/// first episodes of a flow are dominated by transport ramp-up
/// (slow start, rate probing, window growth) and would poison the
/// learner's early value estimates.
const WARMUP_EPISODES: u32 = 2;

/// Configuration of the [`DataNetworkComponent`].
#[derive(Debug, Clone)]
pub struct DataNetworkConfig {
    /// Selection policy.
    pub psp: PspKind,
    /// Ratio policy.
    pub prp: PrpKind,
    /// Seed source for per-flow random streams.
    pub seeds: SeedSource,
    /// Telemetry recorder that learner decisions are reported to — usually
    /// a clone of [`Sim::recorder`](kmsg_netsim::engine::Sim::recorder).
    /// Defaults to a fresh, disabled recorder (telemetry off).
    pub recorder: Recorder,
}

impl Default for DataNetworkConfig {
    fn default() -> Self {
        DataNetworkConfig {
            psp: PspKind::Pattern(PatternKind::MinimalRest),
            prp: PrpKind::Td(TdConfig::default()),
            seeds: SeedSource::new(0),
            recorder: Recorder::new(),
        }
    }
}

/// Stable numeric label for a flow destination: node index in the high
/// bits, port in the low 16, so telemetry events can be grouped per flow.
fn flow_label(dst: Endpoint) -> u64 {
    (u64::from(dst.node.index()) << 16) | u64::from(dst.port)
}

impl DataNetworkConfig {
    fn make_psp(&self, dst: Endpoint, initial: Ratio) -> Box<dyn ProtocolSelectionPolicy> {
        match self.psp {
            PspKind::Random => Box::new(RandomSelection::new(
                initial,
                self.seeds.stream(&format!("data-psp-{dst}")),
            )),
            PspKind::Pattern(kind) => Box::new(PatternSelection::new(initial, kind, PATTERN_MAX)),
        }
    }

    fn make_prp(&self, dst: Endpoint) -> Box<dyn ProtocolRatioPolicy> {
        match &self.prp {
            PrpKind::Static(r) => Box::new(StaticRatio(*r)),
            PrpKind::Td(cfg) => {
                let mut learner =
                    TdRatioLearner::new(cfg.clone(), self.seeds.stream(&format!("data-prp-{dst}")));
                learner.attach_recorder(self.recorder.clone(), flow_label(dst));
                Box::new(learner)
            }
        }
    }
}

/// One sample of a flow's per-episode telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowPoint {
    /// Episode end time.
    pub time: SimTime,
    /// Delivered throughput during the episode, bytes/s.
    pub throughput: f64,
    /// The target ratio prescribed *for the next* episode.
    pub target_ratio: f64,
    /// The ratio achieved on the wire during this episode (signed form);
    /// NaN-free: flows without traffic repeat the previous target.
    pub achieved_ratio: f64,
    /// Messages released during the episode.
    pub messages: u64,
}

/// Telemetry of all flows, keyed by destination.
pub(crate) type DataStatsHandle = Arc<Mutex<HashMap<Endpoint, Vec<FlowPoint>>>>;

/// Per-protocol flow-control state: each of TCP and UDT gets its own
/// outstanding-bytes window so that a slow protocol's backlog can neither
/// bury control messages under a shared budget (Figure 8) nor stall the
/// fast protocol.
#[derive(Debug, Clone, Copy)]
struct ProtoWindow {
    outstanding: usize,
    window: usize,
    episode_bytes: u64,
    /// Lifetime-minimum notify latency: an RTT estimate free of
    /// self-inflicted queueing. With acked-based notifications the fastest
    /// confirmation ever seen is one round trip plus transmission over an
    /// empty queue (any mean/EWMA estimate would include the window's own
    /// standing queue and blow the window up — bufferbloat feedback).
    rtt_min: Option<f64>,
    throughput_ewma: f64,
}

impl ProtoWindow {
    fn new() -> Self {
        ProtoWindow {
            outstanding: 0,
            window: MIN_WINDOW,
            episode_bytes: 0,
            rtt_min: None,
            throughput_ewma: 0.0,
        }
    }
}

struct Flow {
    psp: Box<dyn ProtocolSelectionPolicy>,
    prp: Box<dyn ProtocolRatioPolicy>,
    target: Ratio,
    queue: VecDeque<(Option<NotifyToken>, NetMessage)>,
    queued_bytes: usize,
    tcp: ProtoWindow,
    udt: ProtoWindow,
    episode_bytes: u64,
    episode_msgs: u64,
    sent_tcp: u64,
    sent_udt: u64,
    episodes_seen: u32,
}

impl Flow {
    fn proto_mut(&mut self, proto: Transport) -> &mut ProtoWindow {
        match proto {
            Transport::Udt => &mut self.udt,
            _ => &mut self.tcp,
        }
    }
}

/// The interceptor component. Create with
/// [`create_data_network`](crate::data::create_data_network) or wire
/// manually between an application and a network component.
pub struct DataNetworkComponent {
    /// Application-facing network port.
    pub(crate) app_port: ProvidedPort<NetworkPort>,
    /// Network-facing port.
    pub(crate) net_port: RequiredPort<NetworkPort>,
    cfg: DataNetworkConfig,
    /// Ordered by destination, so an episode end updates and releases its
    /// flows in the same order on every run of a seed.
    flows: BTreeMap<Endpoint, Flow>,
    inflight: FxHashMap<u64, (Endpoint, usize, Option<NotifyToken>, SimTime, Transport)>,
    next_internal: u64,
    stats: DataStatsHandle,
    episode_timer: Option<TimeoutId>,
}

impl std::fmt::Debug for DataNetworkComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataNetworkComponent")
            .field("flows", &self.flows.len())
            .field("inflight", &self.inflight.len())
            .finish()
    }
}

impl DataNetworkComponent {
    /// Builds the component.
    #[must_use]
    pub(crate) fn new(cfg: DataNetworkConfig) -> Self {
        DataNetworkComponent {
            app_port: ProvidedPort::new(),
            net_port: RequiredPort::new(),
            cfg,
            flows: BTreeMap::new(),
            inflight: FxHashMap::default(),
            next_internal: INTERNAL_NOTIFY_BASE,
            stats: Arc::new(Mutex::new(HashMap::new())),
            episode_timer: None,
        }
    }

    /// The flow telemetry handle.
    #[must_use]
    pub fn stats(&self) -> DataStatsHandle {
        self.stats.clone()
    }

    /// The current target ratio of the flow to `dst`, if it exists.
    #[must_use]
    pub fn flow_target(&self, dst: Endpoint) -> Option<Ratio> {
        self.flows.get(&dst).map(|f| f.target)
    }

    fn handle_app_request(&mut self, now: SimTime, req: NetRequest) {
        let (token, msg) = match req {
            NetRequest::Msg(m) => (None, m),
            NetRequest::NotifyReq(t, m) => (Some(t), m),
        };
        let is_unresolved_data = matches!(msg.header(), NetHeader::Data(h) if h.selected.is_none());
        if !is_unresolved_data {
            // Not ours: pass straight down (the paper routes such messages
            // around the interceptor with channel selectors; passing
            // through immediately is behaviourally equivalent).
            match token {
                Some(t) => self.net_port.trigger(NetRequest::NotifyReq(t, msg)),
                None => self.net_port.trigger(NetRequest::Msg(msg)),
            }
            return;
        }
        let dst = msg.header().destination().as_socket();
        if !self.flows.contains_key(&dst) {
            let mut prp = self.cfg.make_prp(dst);
            let target = prp.initial_ratio();
            let psp = self.cfg.make_psp(dst, target);
            self.flows.insert(
                dst,
                Flow {
                    psp,
                    prp,
                    target,
                    queue: VecDeque::new(),
                    queued_bytes: 0,
                    tcp: ProtoWindow::new(),
                    udt: ProtoWindow::new(),
                    episode_bytes: 0,
                    episode_msgs: 0,
                    sent_tcp: 0,
                    sent_udt: 0,
                    episodes_seen: 0,
                },
            );
        }
        let flow = self.flows.get_mut(&dst).expect("flow just ensured");
        flow.queued_bytes += msg.payload_size_estimate();
        flow.queue.push_back((token, msg));
        self.release(now, dst);
    }

    /// Releases queued messages while the next message's protocol window
    /// allows, each sent as it is released.
    fn release(&mut self, now: SimTime, dst: Endpoint) {
        let Some(flow) = self.flows.get_mut(&dst) else {
            return;
        };
        loop {
            if flow.queue.is_empty() {
                break;
            }
            // Respect the NEXT message's protocol window; stopping here
            // (instead of skipping ahead) preserves the selection order
            // and therefore the target ratio.
            let next_proto = flow.psp.peek();
            let win = flow.proto_mut(next_proto);
            if win.outstanding >= win.window {
                break;
            }
            let (token, mut msg) = flow.queue.pop_front().expect("non-empty queue");
            let len = msg.payload_size_estimate();
            flow.queued_bytes -= len;
            let proto = flow.psp.select();
            debug_assert_eq!(proto, next_proto);
            match proto {
                Transport::Tcp => flow.sent_tcp += 1,
                Transport::Udt => flow.sent_udt += 1,
                _ => {}
            }
            if let NetHeader::Data(h) = msg.header_mut() {
                h.selected = Some(proto);
            }
            flow.proto_mut(proto).outstanding += len;
            flow.episode_msgs += 1;
            let internal = self.next_internal;
            self.next_internal += 1;
            self.inflight
                .insert(internal, (dst, len, token, now, proto));
            self.net_port
                .trigger(NetRequest::NotifyReq(NotifyToken::new(internal), msg));
        }
    }

    fn handle_net_indication(&mut self, now: SimTime, ind: NetIndication) {
        match ind {
            NetIndication::Msg(msg) => self.app_port.trigger(NetIndication::Msg(msg)),
            // Channel supervision status: applications may care (e.g. to
            // pause a transfer), so pass it up unchanged.
            NetIndication::Status(status) => {
                self.app_port.trigger(NetIndication::Status(status));
            }
            NetIndication::NotifyResp(token, status) => {
                if token.vnode.is_none() && token.id >= INTERNAL_NOTIFY_BASE {
                    if let Some((dst, len, orig, released_at, proto)) =
                        self.inflight.remove(&token.id)
                    {
                        if let Some(flow) = self.flows.get_mut(&dst) {
                            let latency = now.duration_since(released_at).as_secs_f64();
                            let win = flow.proto_mut(proto);
                            win.outstanding = win.outstanding.saturating_sub(len);
                            if status.is_success() {
                                win.episode_bytes += len as u64;
                                win.rtt_min = Some(win.rtt_min.map_or(latency, |m| m.min(latency)));
                                flow.episode_bytes += len as u64;
                            }
                        }
                        if let Some(orig) = orig {
                            self.app_port
                                .trigger(NetIndication::NotifyResp(orig, status));
                        }
                        self.release(now, dst);
                        return;
                    }
                }
                // Pass-through notification for a bypassed message.
                self.app_port
                    .trigger(NetIndication::NotifyResp(token, status));
            }
        }
    }

    fn end_episode(&mut self, now: SimTime) {
        let dt = EPISODE.as_secs_f64();
        for (dst, flow) in &mut self.flows {
            let throughput = flow.episode_bytes as f64 / dt;
            let sent = flow.sent_tcp + flow.sent_udt;
            let achieved = if sent == 0 {
                flow.target
            } else {
                Ratio::from_prob_udt(flow.sent_udt as f64 / sent as f64)
            };
            flow.episodes_seen += 1;
            let next = if flow.episodes_seen <= WARMUP_EPISODES {
                // Transport ramp-up: keep the initial target, learn nothing.
                flow.target
            } else {
                let obs = EpisodeObservation {
                    time: now,
                    throughput,
                    achieved_ratio: achieved,
                };
                flow.prp.episode_update(&obs)
            };
            flow.target = next;
            flow.psp.update_ratio(next);
            // Size each protocol's window to ITS bandwidth-delay product
            // (notifications return one RTT after release) plus a small
            // time-depth of slack; anything deeper only sits in transport
            // queues and delays control messages (Figure 8).
            let slack = WINDOW_TIME.as_secs_f64();
            for win in [&mut flow.tcp, &mut flow.udt] {
                let ep_thr = win.episode_bytes as f64 / dt;
                win.throughput_ewma = if win.throughput_ewma == 0.0 {
                    ep_thr
                } else {
                    0.5 * win.throughput_ewma + 0.5 * ep_thr
                };
                let depth = match win.rtt_min {
                    Some(rtt) => (win.throughput_ewma * (2.0 * rtt + slack)) as usize,
                    // No confirmation yet: stay at the floor and let the
                    // first samples set the scale.
                    None => 0,
                };
                win.window = depth.max(MIN_WINDOW);
                win.episode_bytes = 0;
            }
            self.stats.lock().entry(*dst).or_default().push(FlowPoint {
                time: now,
                throughput,
                target_ratio: next.signed(),
                achieved_ratio: achieved.signed(),
                messages: flow.episode_msgs,
            });
            flow.episode_bytes = 0;
            flow.episode_msgs = 0;
            flow.sent_tcp = 0;
            flow.sent_udt = 0;
        }
        // Window growth may allow more releases.
        let dsts: Vec<Endpoint> = self.flows.keys().copied().collect();
        for dst in dsts {
            self.release(now, dst);
        }
    }
}

impl ComponentDefinition for DataNetworkComponent {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        execute_ports!(self, ctx, max, [
            provided app_port: NetworkPort,
            required net_port: NetworkPort,
        ])
    }

    fn handle_control(&mut self, ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start && self.episode_timer.is_none() {
            self.episode_timer = Some(ctx.schedule_periodic(EPISODE, EPISODE));
        }
    }

    fn on_timeout(&mut self, ctx: &mut ComponentContext, id: TimeoutId) {
        if Some(id) == self.episode_timer {
            self.end_episode(ctx.now());
        }
    }
}

impl Provide<NetworkPort> for DataNetworkComponent {
    fn handle(&mut self, ctx: &mut ComponentContext, event: NetRequest) {
        self.handle_app_request(ctx.now(), event);
    }
}

impl Require<NetworkPort> for DataNetworkComponent {
    fn handle(&mut self, ctx: &mut ComponentContext, event: NetIndication) {
        self.handle_net_indication(ctx.now(), event);
    }
}

impl ProvideRef<NetworkPort> for DataNetworkComponent {
    fn provided_port(&mut self) -> &mut ProvidedPort<NetworkPort> {
        &mut self.app_port
    }
}

impl RequireRef<NetworkPort> for DataNetworkComponent {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net_port
    }
}

#[cfg(test)]
mod tests {
    use kmsg_netsim::packet::NodeId;
    use kmsg_telemetry::bytes::Bytes;

    use super::*;
    use crate::address::NetAddress;
    use crate::header::DataHeader;
    use crate::msg::DeliveryStatus;

    #[test]
    fn default_config_is_papers() {
        let cfg = DataNetworkConfig::default();
        assert_eq!(EPISODE, Duration::from_secs(1));
        assert!(matches!(
            cfg.psp,
            PspKind::Pattern(PatternKind::MinimalRest)
        ));
        assert!(matches!(cfg.prp, PrpKind::Td(_)));
        assert_eq!(WARMUP_EPISODES, 2);
    }

    #[test]
    fn internal_token_namespace_is_high() {
        // Application tokens live below; the split point is the top bit.
        let app_token = 123_456u64;
        assert!(app_token < INTERNAL_NOTIFY_BASE);
        assert_eq!(INTERNAL_NOTIFY_BASE.leading_zeros(), 0);
    }

    #[test]
    fn episode_end_releases_flows_in_destination_order() {
        let cfg = DataNetworkConfig {
            prp: PrpKind::Static(Ratio::from_signed(-1.0)),
            ..DataNetworkConfig::default()
        };
        let mut c = DataNetworkComponent::new(cfg);
        let node = |i| NetAddress::new(NodeId::from_index(i), 1);
        // Opened in the reverse of their key order.
        let (far, near) = (node(2), node(1));
        let chunk = Bytes::from(vec![0; 64 * 1024]);
        for dst in [far, near] {
            for _ in 0..8 {
                let header = NetHeader::Data(DataHeader::new(node(0), dst));
                let msg = NetMessage::with_header(header, chunk.clone());
                c.handle_app_request(SimTime::ZERO, NetRequest::Msg(msg));
            }
        }
        // Two chunks fill each flow's minimum window. Confirming them a
        // second later gives each flow an RTT and a throughput, and
        // releases two more chunks per flow.
        let one_second = SimTime::from_millis(1_000);
        let mut first: Vec<u64> = c.inflight.keys().copied().collect();
        first.sort_unstable();
        assert_eq!(first.len(), 4);
        for id in first {
            let resp = NetIndication::NotifyResp(NotifyToken::new(id), DeliveryStatus::Sent);
            c.handle_net_indication(one_second, resp);
        }
        // The episode end widens both windows past the minimum; each flow
        // then releases three chunks, the nearer destination's first.
        let from = c.next_internal;
        c.end_episode(one_second);
        let released: Vec<Endpoint> = (from..c.next_internal)
            .map(|id| c.inflight[&id].0)
            .collect();
        let (far, near) = (far.as_socket(), near.as_socket());
        assert_eq!(released, [near, near, near, far, far, far]);
    }

    #[test]
    fn proto_window_starts_at_minimum() {
        let w = ProtoWindow::new();
        assert_eq!(w.window, MIN_WINDOW);
        assert_eq!(w.outstanding, 0);
        assert!(w.rtt_min.is_none());
    }
}
