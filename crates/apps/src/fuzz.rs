//! Seeded scenario generation for the simulation fuzzer.
//!
//! A [`ScenarioSpec`] is a small, fully explicit description of one fuzz
//! run: a relay-chain topology, a link shape (bandwidth, delay, loss,
//! jitter), a workload (transport, transfer size, optional pings) and a
//! scripted [`FaultPlan`] whose every window heals before the horizon.
//! Specs are *generated* deterministically from a seed
//! ([`ScenarioSpec::generate`]), *run* with [`run_scenario`] (which also
//! derives the [`RunFacts`] and the matching
//! [`OracleConfig`] for the oracle suite),
//! *serialized* to the replayable `failing_seed.json` artifact
//! ([`ScenarioSpec::to_json`] / [`ScenarioSpec::from_json`]) and *shrunk*
//! via the [`Shrinkable`] implementation when an oracle fires.

use std::time::Duration;

use kmsg_component::prelude::{ComponentSystem, SystemConfig};
use kmsg_core::prelude::*;
use kmsg_netsim::engine::Sim;
use kmsg_netsim::faults::FaultPlan;
use kmsg_netsim::link::{GeConfig, LinkConfig, LinkId};
use kmsg_netsim::network::Network;
use kmsg_netsim::rng::SeedSource;
use kmsg_netsim::time::SimTime;
use kmsg_oracle::{OracleConfig, RunFacts, Shrinkable};
use kmsg_telemetry::json::Json;
use rand::Rng;

use kmsg_netsim::cc::CcAlgorithm;

use crate::dataset::Dataset;
use crate::experiment::{run_in_world, CcSwap, ExperimentConfig, ExperimentResult, PingSettings};
use crate::scenario::{Setup, TwoHostWorld};

/// Latest time (ms) a generated fault window may heal; the horizon stays
/// well past this so recovery is always observable.
const FAULT_DEADLINE_MS: u64 = 30_000;

/// Kinds of scripted link fault a scenario can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sever the link, restore it at the end of the window.
    Down,
    /// A Gilbert–Elliott burst-loss episode ([`GeConfig::bursty`]).
    Burst,
    /// A transient extra propagation delay.
    Spike,
}

impl FaultKind {
    /// Stable label used in artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Down => "down",
            FaultKind::Burst => "burst",
            FaultKind::Spike => "spike",
        }
    }

    /// Parses an artifact label.
    #[must_use]
    pub fn from_label(label: &str) -> Option<FaultKind> {
        match label {
            "down" => Some(FaultKind::Down),
            "burst" => Some(FaultKind::Burst),
            "spike" => Some(FaultKind::Spike),
            _ => None,
        }
    }
}

/// One scripted fault window on one directed link of the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// What happens.
    pub kind: FaultKind,
    /// Which hop of the chain (clamped to the chain length at install).
    pub hop: u32,
    /// `true` targets the a→b direction of the hop, `false` the reverse.
    pub forward: bool,
    /// Window start, simulated milliseconds.
    pub from_ms: u64,
    /// Window end (heal), simulated milliseconds; always `> from_ms`.
    pub to_ms: u64,
    /// Extra delay for [`FaultKind::Spike`] (ms); ignored otherwise.
    pub spike_ms: u64,
}

/// A fully explicit fuzz scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Root seed: drives the simulation RNG streams *and* (for generated
    /// specs) the scenario shape itself.
    pub seed: u64,
    /// Relay hosts between the endpoints (`0` = direct link).
    pub relays: u32,
    /// Per-hop bandwidth, MB/s.
    pub bandwidth_mbps: u64,
    /// Per-hop one-way propagation delay, ms.
    pub delay_ms: u64,
    /// Independent per-packet loss, parts per million.
    pub loss_ppm: u64,
    /// Per-packet uniform extra delay bound, µs (reordering pressure).
    pub jitter_us: u64,
    /// Transfer size, KiB.
    pub size_kb: u64,
    /// Bulk transport: `Tcp`, `Udt` or the adaptive `Data`.
    pub transport: Transport,
    /// Run parallel ping/pong control traffic.
    pub pings: bool,
    /// Initial congestion controller for TCP channels (both stacks).
    pub cc: CcAlgorithm,
    /// Optional scripted mid-run controller swap: `(at_ms, controller)`
    /// re-selects the sender→receiver TCP stack at `at_ms` and recycles
    /// the live channel.
    pub swap: Option<(u64, CcAlgorithm)>,
    /// Scripted fault windows (all heal before `FAULT_DEADLINE_MS`).
    pub faults: Vec<FaultSpec>,
    /// Hard wall on simulated time, ms.
    pub horizon_ms: u64,
}

impl ScenarioSpec {
    /// Generates the scenario for a fuzz seed. Same seed, same spec.
    #[must_use]
    pub fn generate(seed: u64) -> ScenarioSpec {
        let mut rng = SeedSource::new(seed).stream("fuzz-scenario");
        let relays = rng.gen_range(0..=2u64) as u32;
        let bandwidth_mbps = rng.gen_range(1..=50u64);
        let delay_ms = rng.gen_range(1..=40u64);
        let loss_ppm = *[0, 0, 1_000, 10_000]
            .get(rng.gen_range(0..4usize))
            .expect("index in range");
        let jitter_us = *[0, 0, 500, 2_000]
            .get(rng.gen_range(0..4usize))
            .expect("index in range");
        let size_kb = rng.gen_range(16..=256u64);
        let transport = match rng.gen_range(0..3u32) {
            0 => Transport::Tcp,
            1 => Transport::Udt,
            _ => Transport::Data,
        };
        let pings = rng.gen_bool(0.5);
        let pick_cc = |r: &mut kmsg_netsim::rng::RngStream| {
            CcAlgorithm::all()[r.gen_range(0..CcAlgorithm::all().len())]
        };
        let cc = pick_cc(&mut rng);
        let swap = rng
            .gen_bool(1.0 / 3.0)
            .then(|| (rng.gen_range(500..10_000u64), pick_cc(&mut rng)));
        let n_faults = rng.gen_range(0..=2u64);
        let faults = (0..n_faults)
            .map(|_| {
                let kind = match rng.gen_range(0..3u32) {
                    0 => FaultKind::Down,
                    1 => FaultKind::Burst,
                    _ => FaultKind::Spike,
                };
                let from_ms = rng.gen_range(500..10_000u64);
                let to_ms = from_ms + rng.gen_range(200..3_000u64);
                FaultSpec {
                    kind,
                    hop: rng.gen_range(0..=u64::from(relays)) as u32,
                    forward: rng.gen_bool(0.5),
                    from_ms,
                    to_ms: to_ms.min(FAULT_DEADLINE_MS),
                    spike_ms: rng.gen_range(50..500u64),
                }
            })
            .collect();
        ScenarioSpec {
            seed,
            relays,
            bandwidth_mbps,
            delay_ms,
            loss_ppm,
            jitter_us,
            size_kb,
            transport,
            pings,
            cc,
            swap,
            faults,
            horizon_ms: 120_000,
        }
    }

    /// The per-hop directed link configuration.
    #[must_use]
    pub fn link_config(&self) -> LinkConfig {
        let mut link = LinkConfig::new(
            self.bandwidth_mbps as f64 * 1e6,
            Duration::from_millis(self.delay_ms),
        );
        if self.loss_ppm > 0 {
            link = link.random_loss(self.loss_ppm as f64 / 1e6);
        }
        if self.jitter_us > 0 {
            link = link.jitter(Duration::from_micros(self.jitter_us));
        }
        link
    }

    /// Builds the scripted fault plan against a built chain.
    #[must_use]
    pub fn fault_plan(&self, chain: &ChainWorld) -> FaultPlan {
        let mut plan = FaultPlan::new();
        for f in &self.faults {
            let hop = (f.hop as usize).min(chain.forward.len() - 1);
            let link = if f.forward {
                chain.forward[hop]
            } else {
                chain.reverse[hop]
            };
            let from = SimTime::from_millis(f.from_ms);
            let to = SimTime::from_millis(f.to_ms.max(f.from_ms + 1));
            plan = match f.kind {
                FaultKind::Down => plan.down_between(link, from, to),
                FaultKind::Burst => plan.loss_burst(link, from, to, GeConfig::bursty()),
                FaultKind::Spike => {
                    plan.latency_spike(link, from, to, Duration::from_millis(f.spike_ms))
                }
            };
        }
        plan
    }

    /// Serializes the spec as a replayable artifact document.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let faults = self
            .faults
            .iter()
            .map(|f| {
                Json::obj(vec![
                    ("kind", Json::Str(f.kind.label().to_string())),
                    ("hop", Json::Num(f.hop as f64)),
                    ("forward", Json::Bool(f.forward)),
                    ("from_ms", Json::Num(f.from_ms as f64)),
                    ("to_ms", Json::Num(f.to_ms as f64)),
                    ("spike_ms", Json::Num(f.spike_ms as f64)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("seed", Json::Num(self.seed as f64)),
            ("relays", Json::Num(f64::from(self.relays))),
            ("bandwidth_mbps", Json::Num(self.bandwidth_mbps as f64)),
            ("delay_ms", Json::Num(self.delay_ms as f64)),
            ("loss_ppm", Json::Num(self.loss_ppm as f64)),
            ("jitter_us", Json::Num(self.jitter_us as f64)),
            ("size_kb", Json::Num(self.size_kb as f64)),
            ("transport", Json::Str(self.transport.label().to_string())),
            ("pings", Json::Bool(self.pings)),
            ("cc", Json::Str(self.cc.label().to_string())),
            ("faults", Json::Arr(faults)),
            ("horizon_ms", Json::Num(self.horizon_ms as f64)),
        ];
        if let Some((at_ms, algo)) = self.swap {
            fields.push(("swap_ms", Json::Num(at_ms as f64)));
            fields.push(("swap_cc", Json::Str(algo.label().to_string())));
        }
        Json::obj(fields)
    }

    /// Parses a spec back out of an artifact document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or ill-typed field.
    pub fn from_json(doc: &Json) -> Result<ScenarioSpec, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{key}'"))
        };
        let transport = match doc.get("transport").and_then(Json::as_str) {
            Some("tcp") => Transport::Tcp,
            Some("udt") => Transport::Udt,
            Some("data") => Transport::Data,
            other => return Err(format!("bad transport {other:?}")),
        };
        let faults = doc
            .get("faults")
            .and_then(Json::as_arr)
            .ok_or("missing field 'faults'")?
            .iter()
            .map(|f| {
                let fnum = |key: &str| {
                    f.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("fault missing field '{key}'"))
                };
                Ok(FaultSpec {
                    kind: f
                        .get("kind")
                        .and_then(Json::as_str)
                        .and_then(FaultKind::from_label)
                        .ok_or("fault with bad kind")?,
                    hop: u32::try_from(fnum("hop")?).map_err(|e| e.to_string())?,
                    forward: f
                        .get("forward")
                        .and_then(Json::as_bool)
                        .ok_or("fault missing field 'forward'")?,
                    from_ms: fnum("from_ms")?,
                    to_ms: fnum("to_ms")?,
                    spike_ms: fnum("spike_ms")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        // Lenient on the controller dimension: artifacts that predate it
        // decode as plain Reno with no swap.
        let cc = match doc.get("cc").and_then(Json::as_str) {
            Some(label) => {
                CcAlgorithm::from_label(label).ok_or_else(|| format!("bad controller {label:?}"))?
            }
            None => CcAlgorithm::Reno,
        };
        let swap = match doc.get("swap_ms") {
            Some(_) => Some((
                num("swap_ms")?,
                doc.get("swap_cc")
                    .and_then(Json::as_str)
                    .and_then(CcAlgorithm::from_label)
                    .ok_or("swap with bad controller")?,
            )),
            None => None,
        };
        Ok(ScenarioSpec {
            seed: num("seed")?,
            relays: u32::try_from(num("relays")?).map_err(|e| e.to_string())?,
            bandwidth_mbps: num("bandwidth_mbps")?,
            delay_ms: num("delay_ms")?,
            loss_ppm: num("loss_ppm")?,
            jitter_us: num("jitter_us")?,
            size_kb: num("size_kb")?,
            transport,
            pings: doc
                .get("pings")
                .and_then(Json::as_bool)
                .ok_or("missing field 'pings'")?,
            cc,
            swap,
            faults,
            horizon_ms: num("horizon_ms")?,
        })
    }
}

/// A built relay-chain world plus the directed link ids of every hop.
#[derive(Debug, Clone)]
pub struct ChainWorld {
    /// The two endpoints and shared simulation fabric (relays are routed
    /// through, not bound to).
    pub world: TwoHostWorld,
    /// Hop links in the a→b direction, endpoint-a side first.
    pub forward: Vec<LinkId>,
    /// Hop links in the b→a direction, endpoint-a side first.
    pub reverse: Vec<LinkId>,
}

/// Builds the relay-chain world for a spec: `host-a ↔ relay… ↔ host-b`
/// with identical per-hop links and end-to-end routes through the chain.
#[must_use]
pub fn build_chain_world(spec: &ScenarioSpec) -> ChainWorld {
    let sim = Sim::new(spec.seed);
    let net = Network::new(&sim);
    let system = ComponentSystem::simulation(&sim, SystemConfig::default());
    let mut nodes = vec![net.add_node("host-a")];
    for i in 0..spec.relays {
        nodes.push(net.add_node(format!("relay-{i}")));
    }
    nodes.push(net.add_node("host-b"));
    let link = spec.link_config();
    let mut forward = Vec::new();
    let mut reverse = Vec::new();
    for pair in nodes.windows(2) {
        let (ab, ba) = net.connect_duplex(pair[0], pair[1], link.clone());
        forward.push(ab);
        reverse.push(ba);
    }
    let host_a = nodes[0];
    let host_b = *nodes.last().expect("at least two nodes");
    if spec.relays > 0 {
        net.set_route(host_a, host_b, forward.clone());
        let mut back: Vec<LinkId> = reverse.clone();
        back.reverse();
        net.set_route(host_b, host_a, back);
    }
    ChainWorld {
        world: TwoHostWorld {
            sim,
            net,
            system,
            host_a,
            host_b,
            link_ab: forward[0],
            link_ba: reverse[0],
        },
        forward,
        reverse,
    }
}

/// The network template every fuzz run uses: somewhat impatient transports
/// (so fault windows surface as observable supervision episodes inside the
/// horizon) with reconnect supervision on.
#[must_use]
pub fn fuzz_net_template() -> NetworkConfig {
    // The harness overwrites the address per host.
    let mut cfg = NetworkConfig::new(NetAddress::new(
        kmsg_netsim::packet::NodeId::from_index(0),
        0,
    ));
    cfg.tcp.min_rto = Duration::from_millis(200);
    cfg.tcp.max_rto = Duration::from_secs(2);
    cfg.tcp.max_consecutive_timeouts = 8;
    cfg.tcp.syn_retries = 3;
    cfg.udt.exp_timeout = Duration::from_millis(300);
    cfg.udt.max_expirations = 8;
    cfg.reconnect = ReconnectConfig {
        max_retries: 50,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_secs(1),
        probe_interval: Duration::from_secs(2),
    };
    cfg
}

/// The experiment configuration a spec runs under.
#[must_use]
pub fn experiment_config(spec: &ScenarioSpec) -> ExperimentConfig {
    // The setup is ignored: `run_in_world` takes the chain world directly.
    let dataset = Dataset::random(usize::try_from(spec.size_kb).expect("size fits") * 1024, 5);
    let mut cfg = ExperimentConfig::transfer(Setup::Local, spec.transport, dataset, spec.seed);
    let mut tpl = fuzz_net_template();
    tpl.tcp.cc.algorithm = spec.cc;
    cfg.net_template = Some(tpl);
    cfg.cc_swap = spec.swap.map(|(at_ms, algo)| CcSwap {
        at: Duration::from_millis(at_ms),
        algo,
    });
    cfg.max_sim_time = Duration::from_millis(spec.horizon_ms);
    cfg.use_disk = false;
    cfg.ping = spec.pings.then(PingSettings::default);
    cfg.telemetry = true;
    // Keep the whole stream: truncated traces void the stream-shape
    // oracles, and fuzz transfers are small enough to record fully.
    cfg.telemetry_capacity = Some(2_000_000);
    cfg
}

/// Derives the oracle configuration a spec's trace must be judged under.
#[must_use]
pub fn oracle_config(spec: &ScenarioSpec) -> OracleConfig {
    let tpl = fuzz_net_template();
    let bw = spec.bandwidth_mbps as f64 * 1e6;
    let queue_s = (bw * spec.delay_ms as f64 / 1e3).max(256.0 * 1024.0) / bw;
    let spike_s = spec.faults.iter().map(|f| f.spike_ms).max().unwrap_or(0) as f64 / 1e3;
    let per_hop_s = queue_s + spec.delay_ms as f64 / 1e3 + spec.jitter_us as f64 / 1e6 + spike_s;
    let hops = f64::from(spec.relays + 1);
    let grace_s = per_hop_s * hops * 2.0 + 1.0;
    OracleConfig {
        mss: tpl.tcp.mss as u64,
        max_rto_us: u64::try_from(tpl.tcp.max_rto.as_micros()).expect("rto fits"),
        drain_grace_ns: (grace_s * 1e9) as u64,
        // Fault-free, low-loss runs must finish inside the generous
        // horizon; anything harsher may legitimately time out or drop.
        expect_completion: spec.faults.is_empty() && spec.loss_ppm <= 1_000,
        faults_must_heal: true,
        ..OracleConfig::default()
    }
}

/// One executed scenario: the raw experiment result plus the end-of-run
/// facts the oracles consume alongside the recorded trace.
#[derive(Debug)]
pub struct FuzzRun {
    /// Full harness output (recorder, counters, timings).
    pub result: ExperimentResult,
    /// Oracle-facing summary derived from `result`.
    pub facts: RunFacts,
}

/// Runs a spec to completion (or its horizon) and derives the run facts.
#[must_use]
pub fn run_scenario(spec: &ScenarioSpec) -> FuzzRun {
    let chain = build_chain_world(spec);
    let mut cfg = experiment_config(spec);
    cfg.faults = Some(spec.fault_plan(&chain)).filter(|p| !p.is_empty());
    let result = run_in_world(&chain.world, &cfg);
    // A transfer can finish before the last scheduled heal fires; without
    // it the trace would show an unpaired fault and trip [faults/unhealed]
    // spuriously. Drive the sim past every heal (plus a grace tick).
    if let Some(last_heal_ms) = spec.faults.iter().map(|f| f.to_ms.max(f.from_ms + 1)).max() {
        let heal_horizon = SimTime::from_millis(last_heal_ms + 1);
        if chain.world.sim.now() < heal_horizon {
            chain.world.sim.run_until(heal_horizon);
        }
    }
    // Sampled between events (the engine never parks mid-dispatch), so
    // pool occupancy must equal the trace's unmatched sends exactly — the
    // conservation oracle's pool-leak cross-check relies on this.
    let pool_live = chain.world.net.packets_in_flight() as u64;
    let sup_a = result.sender_net.supervision();
    let sup_b = result.receiver_net.supervision();
    let facts = RunFacts {
        completed: result.transfer_time.is_some(),
        verified: result.verified,
        duplicates: result.duplicates,
        out_of_order: result.out_of_order,
        reconnects: sup_a.reconnects + sup_b.reconnects,
        reconnect_attempts: sup_a.reconnect_attempts + sup_b.reconnect_attempts,
        channels_dropped: sup_a.channels_dropped + sup_b.channels_dropped,
        failovers: sup_a.failovers + sup_b.failovers,
        controller_swaps: sup_a.controller_swaps + sup_b.controller_swaps,
        fifo_expected: matches!(spec.transport, Transport::Tcp | Transport::Udt),
        evicted_events: result.recorder.evicted(),
        overlay: None,
        pool_live_at_end: Some(pool_live),
    };
    FuzzRun { result, facts }
}

impl Shrinkable for ScenarioSpec {
    fn candidates(&self) -> Vec<ScenarioSpec> {
        let mut out = Vec::new();
        // Most aggressive first: whole fault windows, then topology, then
        // workload size, then noise knobs.
        for i in 0..self.faults.len() {
            let mut s = self.clone();
            s.faults.remove(i);
            out.push(s);
        }
        if self.relays > 0 {
            let mut s = self.clone();
            s.relays = 0;
            out.push(s);
            if self.relays > 1 {
                let mut s = self.clone();
                s.relays -= 1;
                out.push(s);
            }
        }
        if self.size_kb > 16 {
            let mut s = self.clone();
            s.size_kb = (self.size_kb / 2).max(16);
            out.push(s);
        }
        if self.loss_ppm > 0 {
            let mut s = self.clone();
            s.loss_ppm = 0;
            out.push(s);
        }
        if self.jitter_us > 0 {
            let mut s = self.clone();
            s.jitter_us = 0;
            out.push(s);
        }
        if self.swap.is_some() {
            let mut s = self.clone();
            s.swap = None;
            out.push(s);
        }
        if self.pings {
            let mut s = self.clone();
            s.pings = false;
            out.push(s);
        }
        if self.cc != CcAlgorithm::Reno {
            let mut s = self.clone();
            s.cc = CcAlgorithm::Reno;
            out.push(s);
        }
        out
    }

    fn complexity(&self) -> u64 {
        self.faults.len() as u64 * 10_000
            + u64::from(self.relays) * 1_000
            + self.size_kb
            + u64::from(self.swap.is_some()) * 300
            + u64::from(self.loss_ppm > 0) * 200
            + u64::from(self.jitter_us > 0) * 100
            + u64::from(self.pings) * 50
            + u64::from(self.cc != CcAlgorithm::Reno) * 20
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_bounded() {
        for seed in 0..50 {
            let a = ScenarioSpec::generate(seed);
            let b = ScenarioSpec::generate(seed);
            assert_eq!(a, b, "seed {seed} regenerated differently");
            assert!(a.relays <= 2);
            assert!((1..=50).contains(&a.bandwidth_mbps));
            assert!((16..=256).contains(&a.size_kb));
            assert!(a.faults.len() <= 2);
            for f in &a.faults {
                assert!(f.to_ms > f.from_ms || f.to_ms == FAULT_DEADLINE_MS);
                assert!(
                    f.to_ms <= FAULT_DEADLINE_MS,
                    "faults heal before the deadline"
                );
                assert!(f.hop <= a.relays);
            }
            assert!(a.horizon_ms > 2 * FAULT_DEADLINE_MS);
            if let Some((at_ms, _)) = a.swap {
                assert!((500..10_000).contains(&at_ms), "swap inside the fault era");
            }
        }
    }

    #[test]
    fn generation_covers_the_controller_dimension() {
        let mut controllers = std::collections::BTreeSet::new();
        let mut swaps = 0;
        for seed in 0..200 {
            let spec = ScenarioSpec::generate(seed);
            controllers.insert(spec.cc.label());
            swaps += usize::from(spec.swap.is_some());
        }
        assert_eq!(
            controllers.len(),
            3,
            "all controllers generated: {controllers:?}"
        );
        assert!(
            (20..180).contains(&swaps),
            "roughly a third of scenarios carry a swap, got {swaps}/200"
        );
    }

    #[test]
    fn pre_controller_artifacts_decode_as_reno() {
        let spec = ScenarioSpec::generate(3);
        let mut doc = spec.to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "cc" && k != "swap_ms" && k != "swap_cc");
        }
        let back = ScenarioSpec::from_json(&doc).expect("lenient decode");
        assert_eq!(back.cc, CcAlgorithm::Reno);
        assert_eq!(back.swap, None);
    }

    #[test]
    fn specs_round_trip_through_artifacts() {
        for seed in 0..50 {
            let spec = ScenarioSpec::generate(seed);
            let text = spec.to_json().render();
            let doc = Json::parse(&text).expect("artifact parses");
            let back = ScenarioSpec::from_json(&doc).expect("artifact decodes");
            assert_eq!(back, spec, "seed {seed} did not round-trip");
            assert_eq!(back.to_json().render(), text, "render is a fixed point");
        }
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        let spec = ScenarioSpec::generate(3);
        let mut doc = spec.to_json();
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "transport");
        }
        assert!(ScenarioSpec::from_json(&doc).is_err());
        assert!(ScenarioSpec::from_json(&Json::Null).is_err());
    }

    #[test]
    fn chain_world_routes_end_to_end() {
        let mut spec = ScenarioSpec::generate(7);
        spec.relays = 2;
        let chain = build_chain_world(&spec);
        assert_eq!(chain.forward.len(), 3);
        assert_eq!(chain.reverse.len(), 3);
        let w = &chain.world;
        assert_eq!(
            w.net.route(w.host_a, w.host_b),
            Some(chain.forward.clone()),
            "forward route walks the chain"
        );
        let back = w.net.route(w.host_b, w.host_a).expect("reverse route");
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], chain.reverse[2], "reverse route starts at b's hop");
    }

    #[test]
    fn shrink_candidates_strictly_reduce_complexity() {
        for seed in 0..50 {
            let spec = ScenarioSpec::generate(seed);
            for cand in spec.candidates() {
                assert!(
                    cand.complexity() < spec.complexity(),
                    "seed {seed}: candidate did not get simpler"
                );
            }
        }
    }

    #[test]
    fn fault_plan_pairs_every_window() {
        let mut spec = ScenarioSpec::generate(11);
        spec.relays = 1;
        spec.faults = vec![
            FaultSpec {
                kind: FaultKind::Down,
                hop: 0,
                forward: true,
                from_ms: 1_000,
                to_ms: 2_000,
                spike_ms: 0,
            },
            FaultSpec {
                kind: FaultKind::Spike,
                hop: 5, // out of range: clamps to the last hop
                forward: false,
                from_ms: 3_000,
                to_ms: 4_000,
                spike_ms: 100,
            },
        ];
        let chain = build_chain_world(&spec);
        let plan = spec.fault_plan(&chain);
        assert_eq!(plan.events().len(), 4, "each window is a fault + its heal");
    }
}
