//! Virtual nodes (§III-B): several addressable component subtrees share
//! one network component; same-host messages are reflected without ever
//! being serialised.
//!
//! ```text
//! cargo run --example virtual_nodes
//! ```

use std::time::Duration;

use kompics_messaging::prelude::*;

/// A vnode worker: replies to every greeting it receives and records
/// whether messages actually crossed the wire.
struct Worker {
    net: RequiredPort<NetworkPort>,
    me: NetAddress,
    greeted: u64,
}

impl Worker {
    fn new(me: NetAddress) -> Self {
        Worker {
            net: RequiredPort::new(),
            me,
            greeted: 0,
        }
    }
}

impl ComponentDefinition for Worker {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        kompics_messaging::component::execute_ports!(self, ctx, max, [required net: NetworkPort])
    }
}

impl Require<NetworkPort> for Worker {
    fn handle(&mut self, _ctx: &mut ComponentContext, ev: NetIndication) {
        if let NetIndication::Msg(msg) = ev {
            let text = msg.try_deserialise::<String, String>().unwrap_or_default();
            println!(
                "  vnode {:?} got {:?} (crossed the wire: {})",
                self.me.vnode().expect("vnode address").0,
                text,
                msg.is_from_wire()
            );
            self.greeted += 1;
            if text.starts_with("hello") {
                self.net.trigger(NetRequest::Msg(NetMessage::new(
                    self.me,
                    *msg.header().source(),
                    Transport::Tcp,
                    format!("ack from vnode {}", self.me.vnode().expect("vnode").0),
                )));
            }
        }
    }
}

impl RequireRef<NetworkPort> for Worker {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

fn main() {
    let world = two_host_world(1, &Setup::EuVpc);
    let host = NetAddress::new(world.host_a, 9000);
    let network =
        create_network(&world.system, &world.net, NetworkConfig::new(host)).expect("bind");
    let stats = network.on_definition(|n| n.stats());

    // Three vnodes behind ONE socket, routed by channel selectors.
    let v1 = world
        .system
        .create(|| Worker::new(host.with_vnode(VnodeId(1))));
    let v2 = world
        .system
        .create(|| Worker::new(host.with_vnode(VnodeId(2))));
    let v3 = world
        .system
        .create(|| Worker::new(host.with_vnode(VnodeId(3))));
    connect_vnode(&world.system, &network, &v1, VnodeId(1));
    connect_vnode(&world.system, &network, &v2, VnodeId(2));
    connect_vnode(&world.system, &network, &v3, VnodeId(3));

    world.system.start(&network);
    for v in [&v1, &v2, &v3] {
        world.system.start(v);
    }

    // v1 greets its same-host siblings: delivered by reflection, never
    // serialised.
    println!("vnode 1 greets vnodes 2 and 3 on the same host:");
    v1.on_definition(|w| {
        for target in [VnodeId(2), VnodeId(3)] {
            w.net.trigger(NetRequest::Msg(NetMessage::new(
                w.me,
                host.with_vnode(target),
                Transport::Tcp,
                format!("hello vnode {}", target.0),
            )));
        }
    });
    world.sim.run_for(Duration::from_secs(1));

    let s = stats.lock();
    println!("\nlocal reflections: {}", s.local_reflections);
    println!("messages serialised onto the wire: {}", s.total_sent());
    assert_eq!(
        s.total_sent(),
        0,
        "same-host vnode traffic stays off the wire"
    );
}
