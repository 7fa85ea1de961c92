//! The `data-network-interceptor` (§IV-A) as a machine, free of the world
//! it runs in.
//!
//! Messages carrying the pseudo-protocol [`Transport::Data`] are queued per
//! destination flow and released downwards as each protocol's own
//! outstanding-bytes window allows: its measured bandwidth-delay product
//! plus a small slack, so transport queues stay shallow and control
//! messages interleave well (the effect behind the paper's Figure 8). The
//! flow's [`ProtocolSelectionPolicy`] stamps each released message TCP or
//! UDT; once per episode its `ProtocolRatioPolicy` turns the observed
//! throughput into the next target ratio. Everything else passes through
//! unchanged, in both directions. [`Machine`] takes one method per input,
//! each given the time and an [`Io`] for its two effects; the shell
//! (`data/mod.rs`) moves values between its ports and the machine.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

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
use crate::msg::{NetIndication, NetMessage, NetRequest, NotifyToken};
use crate::net::peer_key;
use crate::transport::Transport;

/// Notify-token ids at or above this value are reserved for the
/// interceptor's internal bookkeeping; applications must stay below.
const INTERNAL_NOTIFY_BASE: u64 = 1 << 63;

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
pub(super) const EPISODE: Duration = Duration::from_secs(1);

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

/// Configuration of the [`DataNetworkComponent`](super::DataNetworkComponent).
#[derive(Debug, Clone)]
pub struct DataNetworkConfig {
    /// Selection policy.
    pub psp: PspKind,
    /// Ratio policy.
    pub prp: PrpKind,
    /// Seed source for per-flow random streams.
    pub seeds: SeedSource,
    /// Telemetry recorder that learner decisions are reported to — usually
    /// a clone of the world's recorder. Defaults to a fresh, disabled
    /// recorder (telemetry off).
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

/// The machine's two effects on the world it runs in.
pub(super) trait Io {
    /// Passes a request down to the network.
    fn down(&mut self, req: NetRequest);
    /// Passes an indication up to the application.
    fn up(&mut self, ind: NetIndication);
}

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

/// The messages released and not yet answered below.
struct Inflight {
    /// By internal token id: destination, bytes, the application's token,
    /// release time and transport.
    table: FxHashMap<u64, (Endpoint, usize, Option<NotifyToken>, SimTime, Transport)>,
    next: u64,
}

struct Flow {
    psp: Box<dyn ProtocolSelectionPolicy>,
    prp: Box<dyn ProtocolRatioPolicy>,
    target: Ratio,
    queue: VecDeque<(Option<NotifyToken>, NetMessage)>,
    tcp: ProtoWindow,
    udt: ProtoWindow,
    episode_bytes: u64,
    episode_msgs: u64,
    sent_tcp: u64,
    sent_udt: u64,
    episodes_seen: u32,
}

impl Flow {
    /// A new flow to `dst`, its policies as `cfg` chooses.
    fn new(cfg: &DataNetworkConfig, dst: Endpoint) -> Self {
        let mut prp: Box<dyn ProtocolRatioPolicy> = match &cfg.prp {
            PrpKind::Static(r) => Box::new(StaticRatio(*r)),
            PrpKind::Td(td) => {
                let rng = cfg.seeds.stream(&format!("data-prp-{dst}"));
                let mut learner = TdRatioLearner::new(td.clone(), rng);
                learner.attach_recorder(cfg.recorder.clone(), peer_key(dst));
                Box::new(learner)
            }
        };
        let target = prp.initial_ratio();
        let psp: Box<dyn ProtocolSelectionPolicy> = match cfg.psp {
            PspKind::Random => Box::new(RandomSelection::new(
                target,
                cfg.seeds.stream(&format!("data-psp-{dst}")),
            )),
            PspKind::Pattern(kind) => Box::new(PatternSelection::new(target, kind, PATTERN_MAX)),
        };
        Flow {
            psp,
            prp,
            target,
            queue: VecDeque::new(),
            tcp: ProtoWindow::new(),
            udt: ProtoWindow::new(),
            episode_bytes: 0,
            episode_msgs: 0,
            sent_tcp: 0,
            sent_udt: 0,
            episodes_seen: 0,
        }
    }

    fn proto_mut(&mut self, proto: Transport) -> &mut ProtoWindow {
        match proto {
            Transport::Udt => &mut self.udt,
            _ => &mut self.tcp,
        }
    }

    /// Releases queued messages while the next message's protocol window
    /// allows, each sent down as it is released.
    fn release(&mut self, now: SimTime, dst: Endpoint, inflight: &mut Inflight, io: &mut impl Io) {
        while !self.queue.is_empty() {
            // Respect the NEXT message's protocol window; stopping here
            // (instead of skipping ahead) preserves the selection order
            // and therefore the target ratio.
            let next_proto = self.psp.peek();
            let win = self.proto_mut(next_proto);
            if win.outstanding >= win.window {
                break;
            }
            let (token, mut msg) = self.queue.pop_front().expect("non-empty queue");
            let len = msg.payload_size_estimate();
            let proto = self.psp.select();
            debug_assert_eq!(proto, next_proto);
            match proto {
                Transport::Tcp => self.sent_tcp += 1,
                Transport::Udt => self.sent_udt += 1,
                _ => {}
            }
            if let NetHeader::Data(h) = msg.header_mut() {
                h.selected = Some(proto);
            }
            self.proto_mut(proto).outstanding += len;
            self.episode_msgs += 1;
            let internal = inflight.next;
            inflight.next += 1;
            inflight
                .table
                .insert(internal, (dst, len, token, now, proto));
            io.down(NetRequest::NotifyReq(NotifyToken::new(internal), msg));
        }
    }
}

/// The per-destination flows, the messages released from them and the
/// policy over them.
pub(super) struct Machine {
    cfg: DataNetworkConfig,
    /// Ordered by destination, so an episode end updates and releases its
    /// flows in the same order on every run of a seed.
    flows: BTreeMap<Endpoint, Flow>,
    inflight: Inflight,
    pub(super) stats: DataStatsHandle,
}

impl Machine {
    pub(super) fn new(cfg: DataNetworkConfig) -> Self {
        Machine {
            cfg,
            flows: BTreeMap::new(),
            inflight: Inflight {
                table: FxHashMap::default(),
                next: INTERNAL_NOTIFY_BASE,
            },
            stats: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// The current target ratio of the flow to `dst`, if it exists.
    pub(super) fn flow_target(&self, dst: Endpoint) -> Option<Ratio> {
        self.flows.get(&dst).map(|f| f.target)
    }

    /// A request from the application.
    pub(super) fn request(&mut self, now: SimTime, io: &mut impl Io, req: NetRequest) {
        if !matches!(req.message().header(), NetHeader::Data(h) if h.selected.is_none()) {
            // Not ours: pass straight down (the paper routes such messages
            // around the interceptor with channel selectors; passing
            // through immediately is behaviourally equivalent).
            io.down(req);
            return;
        }
        let (token, msg) = match req {
            NetRequest::Msg(m) => (None, m),
            NetRequest::NotifyReq(t, m) => (Some(t), m),
        };
        let dst = msg.header().destination().as_socket();
        let flow = self
            .flows
            .entry(dst)
            .or_insert_with(|| Flow::new(&self.cfg, dst));
        flow.queue.push_back((token, msg));
        flow.release(now, dst, &mut self.inflight, io);
    }

    /// An indication from the network. Messages and channel status pass up
    /// unchanged (applications may care about an outage, e.g. to pause a
    /// transfer), and so does the answer to a token the application gave a
    /// message it did not send as unresolved `DATA`.
    pub(super) fn indication(&mut self, now: SimTime, io: &mut impl Io, ind: NetIndication) {
        let NetIndication::NotifyResp(token, status) = ind else {
            io.up(ind);
            return;
        };
        let released = match token.vnode {
            None if token.id >= INTERNAL_NOTIFY_BASE => self.inflight.table.remove(&token.id),
            _ => None,
        };
        let Some((dst, len, orig, released_at, proto)) = released else {
            io.up(ind);
            return;
        };
        let flow = self.flows.get_mut(&dst).expect("flows are never removed");
        let latency = now.duration_since(released_at).as_secs_f64();
        let win = flow.proto_mut(proto);
        win.outstanding = win.outstanding.saturating_sub(len);
        if status.is_success() {
            win.episode_bytes += len as u64;
            win.rtt_min = Some(win.rtt_min.map_or(latency, |m| m.min(latency)));
            flow.episode_bytes += len as u64;
        }
        if let Some(orig) = orig {
            io.up(NetIndication::NotifyResp(orig, status));
        }
        flow.release(now, dst, &mut self.inflight, io);
    }

    /// An episode end: each flow, in destination order, feeds its ratio
    /// policy, resizes its windows, records a [`FlowPoint`] and releases
    /// what its grown windows allow.
    pub(super) fn episode(&mut self, now: SimTime, io: &mut impl Io) {
        let dt = EPISODE.as_secs_f64();
        for (&dst, flow) in &mut self.flows {
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
            self.stats.lock().entry(dst).or_default().push(FlowPoint {
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
            flow.release(now, dst, &mut self.inflight, io);
        }
    }
}

#[cfg(test)]
mod tests {
    //! Scripts of values: each case feeds the machine inputs and reads its
    //! effects, in order, off a recording [`Io`].

    use kmsg_netsim::packet::NodeId;
    use kmsg_telemetry::bytes::Bytes;

    use super::*;
    use crate::address::{NetAddress, VnodeId};
    use crate::header::DataHeader;
    use crate::msg::{DeliveryStatus, SendError};

    /// One effect of the machine.
    #[derive(Debug)]
    enum Out {
        Down(NetRequest),
        Up(NetIndication),
    }

    impl Io for Vec<Out> {
        fn down(&mut self, req: NetRequest) {
            self.push(Out::Down(req));
        }

        fn up(&mut self, ind: NetIndication) {
            self.push(Out::Up(ind));
        }
    }

    fn node(i: u32) -> NetAddress {
        NetAddress::new(NodeId::from_index(i), 1)
    }

    /// An unresolved `DATA` message to `dst` with `len` payload bytes.
    fn data(dst: NetAddress, len: usize) -> NetMessage {
        let header = NetHeader::Data(DataHeader::new(node(0), dst));
        NetMessage::with_header(header, Bytes::from(vec![0; len]))
    }

    fn at_ratio(signed: f64) -> Machine {
        Machine::new(DataNetworkConfig {
            prp: PrpKind::Static(Ratio::from_signed(signed)),
            ..DataNetworkConfig::default()
        })
    }

    /// The requests sent down: each one's token and message.
    fn downs(out: &[Out]) -> Vec<(Option<NotifyToken>, &NetMessage)> {
        out.iter()
            .filter_map(|o| match o {
                Out::Down(NetRequest::Msg(m)) => Some((None, m)),
                Out::Down(NetRequest::NotifyReq(t, m)) => Some((Some(*t), m)),
                Out::Up(_) => None,
            })
            .collect()
    }

    /// The notify responses sent up.
    fn answers(out: &[Out]) -> Vec<(NotifyToken, DeliveryStatus)> {
        out.iter()
            .filter_map(|o| match o {
                Out::Up(NetIndication::NotifyResp(t, s)) => Some((*t, *s)),
                _ => None,
            })
            .collect()
    }

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
    fn an_app_token_is_answered_once_after_the_transport_with_its_status() {
        let failed = DeliveryStatus::Failed(SendError::ChannelClosed);
        for status in [DeliveryStatus::Sent, failed] {
            let mut m = at_ratio(0.0);
            let mut out = Vec::new();
            let app = NotifyToken::new(7);
            m.request(
                SimTime::ZERO,
                &mut out,
                NetRequest::NotifyReq(app, data(node(1), 8)),
            );
            // Down under a token of the machine's own, from 2⁶³ up.
            let [(Some(internal), _)] = downs(&out)[..] else {
                panic!("one notified request down: {out:?}");
            };
            assert!(internal.vnode.is_none() && internal.id >= 1 << 63);
            assert!(answers(&out).is_empty(), "answered before the transport");
            let later = SimTime::from_millis(5);
            let msg = NetIndication::Msg(data(node(0), 8));
            m.indication(later, &mut out, msg);
            assert!(answers(&out).is_empty(), "answered before the transport");
            m.indication(later, &mut out, NetIndication::NotifyResp(internal, status));
            assert_eq!(answers(&out), [(app, status)]);
        }
    }

    #[test]
    fn a_pass_through_token_comes_back_unchanged() {
        let mut resolved = data(node(1), 8);
        if let NetHeader::Data(h) = resolved.header_mut() {
            h.selected = Some(Transport::Udt);
        }
        let plain = NetMessage::new(node(0), node(1), Transport::Tcp, 8u64);
        // A vnode's token may carry any id, even one of the machine's.
        let vnode = NotifyToken::for_vnode(VnodeId(3), INTERNAL_NOTIFY_BASE);
        for (token, msg) in [(NotifyToken::new(5), plain), (vnode, resolved)] {
            let mut m = at_ratio(0.0);
            let mut out = Vec::new();
            // One DATA message in flight, so the machine holds id 2⁶³.
            m.request(SimTime::ZERO, &mut out, NetRequest::Msg(data(node(1), 8)));
            let protocol = msg.header().protocol();
            m.request(SimTime::ZERO, &mut out, NetRequest::NotifyReq(token, msg));
            let down = downs(&out);
            assert_eq!(down.len(), 2);
            assert_eq!(down[1].0, Some(token));
            assert_eq!(down[1].1.header().protocol(), protocol);
            let status = DeliveryStatus::Sent;
            m.indication(
                SimTime::ZERO,
                &mut out,
                NetIndication::NotifyResp(token, status),
            );
            assert_eq!(answers(&out), [(token, status)]);
        }
    }

    #[test]
    fn a_token_the_transport_never_answers_is_never_answered_up() {
        let mut m = at_ratio(0.0);
        let mut out = Vec::new();
        let (silent, answered) = (NotifyToken::new(9), NotifyToken::new(10));
        for app in [silent, answered] {
            m.request(
                SimTime::ZERO,
                &mut out,
                NetRequest::NotifyReq(app, data(node(1), 8)),
            );
        }
        let internal: Vec<NotifyToken> = downs(&out).iter().filter_map(|d| d.0).collect();
        let resp = NetIndication::NotifyResp(internal[1], DeliveryStatus::Sent);
        m.indication(SimTime::from_millis(5), &mut out, resp);
        for s in 1..=3 {
            m.episode(SimTime::from_millis(1_000 * s), &mut out);
        }
        assert_eq!(answers(&out), [(answered, DeliveryStatus::Sent)]);
    }

    #[test]
    fn balanced_static_ratio_resolves_twenty_messages_evenly() {
        let mut m = Machine::new(DataNetworkConfig {
            prp: PrpKind::Static(Ratio::BALANCED),
            psp: PspKind::Pattern(PatternKind::MinimalRest),
            ..DataNetworkConfig::default()
        });
        let mut out = Vec::new();
        for i in 0..20u64 {
            let header = NetHeader::Data(DataHeader::new(node(0), node(1)));
            let msg = NetMessage::with_header(header, i);
            m.request(SimTime::ZERO, &mut out, NetRequest::Msg(msg));
        }
        let down = downs(&out);
        assert_eq!(down.len(), 20, "all released at once");
        let count = |proto| {
            let selected = |m: &&NetMessage| matches!(m.header(), NetHeader::Data(h) if h.selected == Some(proto));
            down.iter().map(|d| d.1).filter(selected).count()
        };
        assert_eq!((count(Transport::Tcp), count(Transport::Udt)), (10, 10));
    }

    #[test]
    fn episode_end_releases_flows_in_destination_order() {
        let mut m = at_ratio(-1.0);
        let mut out = Vec::new();
        // Opened in the reverse of their key order.
        let (far, near) = (node(2), node(1));
        for dst in [far, near] {
            for _ in 0..8 {
                m.request(
                    SimTime::ZERO,
                    &mut out,
                    NetRequest::Msg(data(dst, 64 * 1024)),
                );
            }
        }
        // Two chunks fill each flow's minimum window. Confirming them a
        // second later gives each flow an RTT and a throughput, and
        // releases two more chunks per flow.
        let first: Vec<NotifyToken> = downs(&out).iter().filter_map(|d| d.0).collect();
        assert_eq!(first.len(), 4);
        let one_second = SimTime::from_millis(1_000);
        for token in first {
            let resp = NetIndication::NotifyResp(token, DeliveryStatus::Sent);
            m.indication(one_second, &mut out, resp);
        }
        // The episode end widens both windows past the minimum; each flow
        // then releases three chunks, the nearer destination's first.
        let mut out = Vec::new();
        m.episode(one_second, &mut out);
        let released: Vec<NetAddress> = downs(&out)
            .iter()
            .map(|d| *d.1.header().destination())
            .collect();
        assert_eq!(released, [near, near, near, far, far, far]);
    }
}
