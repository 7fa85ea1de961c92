//! Property-based tests on the middleware's pure building blocks:
//! compression codec, wire framing, headers, ratio arithmetic and the
//! selection patterns. Sampled by the deterministic [`PropRunner`], so
//! any failing case replays from its seeded stream.

use bytes::Bytes;
use rand::Rng;

use kmsg_core::codec;
use kmsg_core::data::{build_pattern, max_prefix_deviation, PatternKind, Ratio};
use kmsg_core::header::{BasicHeader, NetHeader, RoutingHeader};
use kmsg_core::net::frame::{decode_frame_body, encode_frame, Compression, FrameDecoder};
use kmsg_core::prelude::*;
use kmsg_netsim::packet::NodeId;
use kmsg_netsim::rng::RngStream;
use kmsg_netsim::testutil::PropRunner;

fn gen_payload(rng: &mut RngStream) -> Vec<u8> {
    match rng.gen_range(0u32..3) {
        0 => {
            let n = rng.gen_range(0usize..4096);
            (0..n).map(|_| rng.gen()).collect()
        }
        // Highly repetitive payloads exercise the codec's match paths.
        1 => vec![rng.gen::<u8>(); rng.gen_range(1usize..4096)],
        // Structured: repeated small records.
        _ => {
            let rec: Vec<u8> = (0..rng.gen_range(1usize..32)).map(|_| rng.gen()).collect();
            let n = rng.gen_range(1usize..256);
            rec.iter().copied().cycle().take(rec.len() * n).collect()
        }
    }
}

fn gen_addr(rng: &mut RngStream) -> NetAddress {
    let addr = NetAddress::new(
        NodeId::from_index(rng.gen_range(0u32..64)),
        rng.gen::<u16>(),
    );
    if rng.gen_bool(0.5) {
        addr.with_vnode(VnodeId(rng.gen()))
    } else {
        addr
    }
}

fn gen_transport(rng: &mut RngStream) -> Transport {
    match rng.gen_range(0u32..3) {
        0 => Transport::Udp,
        1 => Transport::Tcp,
        _ => Transport::Udt,
    }
}

fn gen_header(rng: &mut RngStream) -> NetHeader {
    match rng.gen_range(0u32..3) {
        0 => NetHeader::Basic(BasicHeader::new(
            gen_addr(rng),
            gen_addr(rng),
            gen_transport(rng),
        )),
        1 => {
            let basic = BasicHeader::new(gen_addr(rng), gen_addr(rng), gen_transport(rng));
            let hops: Vec<NetAddress> =
                (0..rng.gen_range(0usize..5)).map(|_| gen_addr(rng)).collect();
            NetHeader::Routing(RoutingHeader::with_route(basic, hops))
        }
        _ => NetHeader::Data(kmsg_core::header::DataHeader::new(
            gen_addr(rng),
            gen_addr(rng),
        )),
    }
}

#[test]
fn codec_round_trips() {
    PropRunner::new("codec-round-trip").cases(96).run(gen_payload, |payload| {
        let compressed = codec::compress(payload);
        let restored = codec::decompress(&compressed, payload.len()).expect("decompress");
        assert_eq!(&restored, payload);
    });
}

#[test]
fn codec_rejects_truncation_or_differs() {
    PropRunner::new("codec-truncation-rejected").cases(96).run(
        |rng| {
            // Regenerate until the payload is long enough to truncate
            // meaningfully (still deterministic for the case's stream).
            let payload = loop {
                let p = gen_payload(rng);
                if p.len() > 4 {
                    break p;
                }
            };
            (payload, rng.gen_range(0.0f64..1.0))
        },
        |(payload, cut_frac)| {
            let compressed = codec::compress(payload);
            let cut = ((compressed.len() as f64) * cut_frac) as usize;
            if cut >= compressed.len() {
                return;
            }
            match codec::decompress(&compressed[..cut], payload.len()) {
                Err(_) => {}
                Ok(out) => {
                    assert_ne!(&out, payload, "truncated input must not round-trip");
                }
            }
        },
    );
}

#[test]
fn header_round_trips() {
    PropRunner::new("header-round-trip").cases(96).run(gen_header, |header| {
        let mut buf = bytes::BytesMut::new();
        header.serialise(&mut buf);
        let mut wire = buf.freeze();
        let out = NetHeader::deserialise(&mut wire).expect("header");
        // DATA headers normalise `selected` on the wire; everything else
        // is exact.
        assert_eq!(out.protocol(), header.protocol());
        assert_eq!(out.source(), header.source());
        assert_eq!(out.destination(), header.destination());
        assert_eq!(out.final_destination(), header.final_destination());
    });
}

#[test]
fn frame_round_trips() {
    PropRunner::new("frame-round-trip").cases(96).run(
        |rng| (gen_header(rng), gen_payload(rng), rng.gen_bool(0.5)),
        |(header, payload, compress)| {
            let msg = NetMessage::with_header(header.clone(), Bytes::from(payload.clone()));
            let compression = if *compress {
                Compression::Threshold(64)
            } else {
                Compression::Off
            };
            let frame = encode_frame(&msg, compression).expect("encode");
            let mut dec = FrameDecoder::new();
            dec.feed(&frame);
            let body = dec.next_frame().expect("ok").expect("frame");
            assert_eq!(dec.buffered(), 0);
            let out = decode_frame_body(body).expect("decode");
            let restored: Bytes = out.try_deserialise::<Bytes, Bytes>().expect("payload");
            assert_eq!(restored, Bytes::from(payload.clone()));
        },
    );
}

#[test]
fn frames_survive_arbitrary_stream_chunking() {
    PropRunner::new("frame-stream-chunking").cases(64).run(
        |rng| {
            let n = rng.gen_range(1usize..5);
            let payloads: Vec<Vec<u8>> = (0..n).map(|_| gen_payload(rng)).collect();
            (payloads, rng.gen_range(1usize..97))
        },
        |(payloads, chunk)| {
            let sim = kmsg_netsim::engine::Sim::new(1);
            let net = kmsg_netsim::network::Network::new(&sim);
            let a = NetAddress::new(net.add_node("a"), 1);
            let b = NetAddress::new(net.add_node("b"), 2);
            let mut wire = Vec::new();
            for p in payloads {
                let msg = NetMessage::new(a, b, Transport::Tcp, Bytes::from(p.clone()));
                wire.extend_from_slice(&encode_frame(&msg, Compression::Off).expect("encode"));
            }
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(*chunk) {
                dec.feed(piece);
                while let Some(body) = dec.next_frame().expect("ok") {
                    let out = decode_frame_body(body).expect("decode");
                    got.push(
                        out.try_deserialise::<Bytes, Bytes>()
                            .expect("payload")
                            .to_vec(),
                    );
                }
            }
            assert_eq!(&got, payloads);
        },
    );
}

#[test]
fn ratio_conversions_are_consistent() {
    PropRunner::new("ratio-conversion-consistency").cases(96).run(
        |rng| rng.gen_range(-1.0f64..=1.0),
        |&signed| {
            let r = Ratio::from_signed(signed);
            assert!((r.prob_udt() - (signed + 1.0) / 2.0).abs() < 1e-12);
            let back = Ratio::from_prob_udt(r.prob_udt());
            assert!((back.signed() - signed).abs() < 1e-12);
            // Fraction approximates the probability within the resolution
            // bound.
            let f = r.fraction(100);
            assert!(
                (f.prob_udt() - r.prob_udt()).abs() <= 0.5 / 100.0 + 1e-9,
                "fraction {:?} too far from prob {}",
                f,
                r.prob_udt()
            );
        },
    );
}

#[test]
fn patterns_hit_ratio_exactly_and_bound_deviation() {
    PropRunner::new("pattern-ratio-exactness").cases(96).run(
        |rng| rng.gen_range(0.0f64..=1.0),
        |&prob| {
            let r = Ratio::from_prob_udt(prob);
            let f = r.fraction(100);
            for kind in [PatternKind::P, PatternKind::PPlusOne, PatternKind::MinimalRest] {
                let pattern = build_pattern(&f, kind);
                assert!(!pattern.is_empty());
                let udt = pattern.iter().filter(|&&t| t == Transport::Udt).count() as f64;
                let frac = udt / pattern.len() as f64;
                assert!(
                    (frac - f.prob_udt()).abs() < 1e-9,
                    "{kind:?}: full pattern must hit the fraction exactly"
                );
                // Prefix deviation is trivially bounded by 1; the pattern
                // must always do at least as well as a solid run of the
                // majority followed by the minority (the worst reasonable
                // layout).
                let dev = max_prefix_deviation(&pattern, f.prob_udt());
                assert!(dev <= 1.0);
            }
        },
    );
}

/// Arbitrary bytes, or a valid block/frame with a few bits flipped.
fn gen_hostile(rng: &mut RngStream, valid: impl FnOnce(&mut RngStream) -> Vec<u8>) -> Vec<u8> {
    if rng.gen_bool(0.5) {
        let n = rng.gen_range(0usize..512);
        return (0..n).map(|_| rng.gen()).collect();
    }
    let mut bytes = valid(rng);
    for _ in 0..rng.gen_range(1usize..4) {
        let at = rng.gen_range(0..bytes.len());
        bytes[at] ^= 1 << rng.gen_range(0u32..8);
    }
    bytes
}

fn gen_frame(rng: &mut RngStream) -> Vec<u8> {
    let msg = NetMessage::with_header(gen_header(rng), Bytes::from(gen_payload(rng)));
    let compression = if rng.gen_bool(0.5) {
        Compression::Threshold(64)
    } else {
        Compression::Off
    };
    encode_frame(&msg, compression).expect("encode").to_vec()
}

#[test]
fn decompress_survives_hostile_input() {
    PropRunner::new("codec-hostile-input").cases(512).run(
        |rng| {
            let block = gen_hostile(rng, |rng| codec::compress(&gen_payload(rng)));
            (block, rng.gen_range(0usize..8192))
        },
        |(block, max_len)| {
            if let Ok(out) = codec::decompress(block, *max_len) {
                assert!(out.len() <= *max_len && out.capacity() <= *max_len);
            }
        },
    );
}

#[test]
fn frame_decoding_survives_hostile_input() {
    PropRunner::new("frame-hostile-input").cases(512).run(
        |rng| gen_hostile(rng, gen_frame),
        |wire| {
            // As a frame body (everything after a length prefix) ...
            if let Ok(msg) = decode_frame_body(Bytes::from(wire.clone())) {
                let _ = msg.try_deserialise::<Bytes, Bytes>();
            }
            // ... and as a stream, which also reads the prefix.
            let mut dec = FrameDecoder::new();
            dec.feed(wire);
            while let Ok(Some(body)) = dec.next_frame() {
                assert!(body.len() <= wire.len());
                let _ = decode_frame_body(body);
            }
            assert!(dec.buffered() <= wire.len());
        },
    );
}
