//! Defining your own message types: implement [`Serialisable`] +
//! [`Deserialiser`], pick a `SerId` in the user range, and the middleware
//! carries them over any transport — serialising only when a message
//! actually crosses the wire.
//!
//! ```text
//! cargo run --example custom_messages
//! ```

use std::time::Duration;

use kmsg_telemetry::bytes::{Buf, BufMut, Bytes, BytesMut};
use kompics_messaging::prelude::*;

/// A domain message: a sensor reading with a station name.
#[derive(Debug, Clone, PartialEq)]
struct Reading {
    station: String,
    seq: u64,
    celsius: f32,
}

const READING_SER_ID: SerId = SerId(200);

impl Serialisable for Reading {
    fn ser_id(&self) -> SerId {
        READING_SER_ID
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.station.len() + 16)
    }

    fn serialise(&self, buf: &mut BytesMut) -> Result<(), SerError> {
        kompics_messaging::core::ser::put_string(buf, &self.station);
        buf.put_u64(self.seq);
        buf.put_f32(self.celsius);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Deserialiser<Reading> for Reading {
    const SER_ID: SerId = READING_SER_ID;

    fn deserialise(buf: &mut Bytes) -> Result<Reading, SerError> {
        let station = kompics_messaging::core::ser::get_string(buf, "Reading.station")?;
        if buf.remaining() < 12 {
            return Err(SerError::Truncated { context: "Reading" });
        }
        Ok(Reading {
            station,
            seq: buf.get_u64(),
            celsius: buf.get_f32(),
        })
    }
}

/// Receives `Reading`s — and ignores everything else, Kompics-style.
struct Collector {
    net: RequiredPort<NetworkPort>,
    registry: SerRegistry,
    readings: Vec<Reading>,
}

impl Collector {
    fn new() -> Self {
        let mut registry = SerRegistry::new();
        registry.register::<Reading, Reading>();
        registry.register::<String, String>();
        Collector {
            net: RequiredPort::new(),
            registry,
            readings: Vec::new(),
        }
    }
}

impl ComponentDefinition for Collector {
    fn execute(&mut self, ctx: &mut ComponentContext, max: usize) -> usize {
        kompics_messaging::component::execute_ports!(self, ctx, max, [required net: NetworkPort])
    }
}

impl Require<NetworkPort> for Collector {
    fn handle(&mut self, _ctx: &mut ComponentContext, ev: NetIndication) {
        let NetIndication::Msg(msg) = ev else { return };
        // Dispatch by SerId through the registry: no static knowledge of
        // which type arrives first.
        if msg.ser_id() == READING_SER_ID {
            let reading = msg
                .try_deserialise::<Reading, Reading>()
                .expect("registered reading");
            println!(
                "  [{}] #{:<3} {:>6.2} °C  (via {}, from wire: {})",
                reading.station,
                reading.seq,
                reading.celsius,
                msg.header().protocol(),
                msg.is_from_wire()
            );
            self.readings.push(reading);
        } else if self.registry.contains(msg.ser_id()) {
            println!("  (other registered message: {:?})", msg.ser_id());
        }
    }
}

impl RequireRef<NetworkPort> for Collector {
    fn required_port(&mut self) -> &mut RequiredPort<NetworkPort> {
        &mut self.net
    }
}

fn main() {
    let world = two_host_world(8, &Setup::EuVpc);
    let a = NetAddress::new(world.host_a, 7000);
    let b = NetAddress::new(world.host_b, 7000);
    let net_a = create_network(&world.system, &world.net, NetworkConfig::new(a)).expect("bind");
    let net_b = create_network(&world.system, &world.net, NetworkConfig::new(b)).expect("bind");
    let collector = world.system.create(Collector::new);
    world
        .system
        .connect::<NetworkPort, _, _>(&net_b, &collector);
    world.system.start(&net_a);
    world.system.start(&net_b);
    world.system.start(&collector);

    // Send a handful of readings, alternating transports per message.
    println!("sending sensor readings (alternating transports):");
    let sender = world.system.create(Collector::new);
    world.system.connect::<NetworkPort, _, _>(&net_a, &sender);
    world.system.start(&sender);
    sender.on_definition(|s| {
        for seq in 0..6u64 {
            let proto = if seq % 2 == 0 {
                Transport::Tcp
            } else {
                Transport::Udt
            };
            s.net.trigger(NetRequest::Msg(NetMessage::new(
                a,
                b,
                proto,
                Reading {
                    station: "CAM5-STHLM".to_string(),
                    seq,
                    celsius: 18.5 + seq as f32 * 0.25,
                },
            )));
        }
    });
    world.sim.run_for(Duration::from_secs(1));
    let n = collector.on_definition(|c| c.readings.len());
    println!("\ncollector holds {n} readings — all content round-tripped through the wire format");
    assert_eq!(n, 6);
}
