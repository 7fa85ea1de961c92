//! Quickstart: two hosts, one message per transport, visible middleware
//! stats.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::time::Duration;

use kompics_messaging::prelude::*;

/// Minimal receiving component: prints whatever arrives.
struct Printer {
    net: RequiredPort<NetworkPort>,
    label: &'static str,
}

impl ComponentDefinition for Printer {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        kompics_messaging::component::execute_ports!(self, ctx, max, [required net: NetworkPort])
    }
}

impl Require<NetworkPort> for Printer {
    fn handle(&mut self, ctx: &mut ComponentContext, ev: NetIndication) {
        if let NetIndication::Msg(msg) = ev {
            let text = msg
                .try_deserialise::<String, String>()
                .unwrap_or_else(|_| "<non-string payload>".into());
            println!(
                "[{} t={}] {:>4} message from {}: {text:?}",
                self.label,
                ctx.now(),
                msg.header().protocol().to_string(),
                msg.header().source(),
            );
        }
    }
}

impl RequireRef<NetworkPort> for Printer {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

/// Sending component: one message per transport on start.
struct Greeter {
    net: RequiredPort<NetworkPort>,
    src: NetAddress,
    dst: NetAddress,
}

impl ComponentDefinition for Greeter {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        kompics_messaging::component::execute_ports!(self, ctx, max, [required net: NetworkPort])
    }

    fn handle_control(&mut self, _ctx: &mut ComponentContext, event: ControlEvent) {
        if event == ControlEvent::Start {
            for proto in [Transport::Udp, Transport::Tcp, Transport::Udt] {
                self.net.trigger(NetRequest::Msg(NetMessage::new(
                    self.src,
                    self.dst,
                    proto,
                    format!("hello via {proto}"),
                )));
            }
        }
    }
}

impl Require<NetworkPort> for Greeter {
    fn handle(&mut self, _ctx: &mut ComponentContext, _ev: NetIndication) {}
}

impl RequireRef<NetworkPort> for Greeter {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

fn main() {
    // A deterministic world: two hosts in the paper's EU-VPC setup.
    let world = two_host_world(42, &Setup::EuVpc);
    let addr_a = NetAddress::new(world.host_a, 7000);
    let addr_b = NetAddress::new(world.host_b, 7000);

    let net_a =
        create_network(&world.system, &world.net, NetworkConfig::new(addr_a)).expect("bind host A");
    let net_b =
        create_network(&world.system, &world.net, NetworkConfig::new(addr_b)).expect("bind host B");

    let greeter = world.system.create(|| Greeter {
        net: RequiredPort::new(),
        src: addr_a,
        dst: addr_b,
    });
    let printer = world.system.create(|| Printer {
        net: RequiredPort::new(),
        label: "host-b",
    });
    world.system.connect::<NetworkPort, _, _>(&net_a, &greeter);
    world.system.connect::<NetworkPort, _, _>(&net_b, &printer);

    world.system.start(&net_a);
    world.system.start(&net_b);
    world.system.start(&printer);
    world.system.start(&greeter);

    // One virtual second is plenty for three messages over a 3 ms link.
    world.sim.run_for(Duration::from_secs(1));

    let stats = net_a.on_definition(|n| n.stats());
    let stats = stats.lock();
    println!("\nhost-a middleware stats:");
    println!(
        "  messages sent:   {} (per transport UDP/TCP/UDT/DATA: {:?})",
        stats.total_sent(),
        stats.sent
    );
    println!("  bytes on wire:   {}", stats.bytes_out);
    println!("  channels opened: {}", stats.channels_opened);
}
