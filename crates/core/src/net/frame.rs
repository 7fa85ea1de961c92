//! Wire framing: `[len][flags][header][ser_id][payload]`.
//!
//! Frames are length-prefixed for stream transports (TCP/UDT) and sent
//! whole as datagrams for UDP. The payload may be compressed with the
//! [`crate::codec`] (the Snappy stand-in); compression is only kept
//! when it actually shrinks the payload, so incompressible data pays one
//! flag byte and nothing else.

use std::cell::RefCell;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec;
use crate::header::NetHeader;
use crate::msg::NetMessage;
use crate::ser::{SerError, SerId};

/// Compression policy for outbound frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// Never compress.
    Off,
    /// Compress payloads of at least this many bytes (keep only if
    /// smaller).
    Threshold(usize),
}

impl Default for Compression {
    /// Compress payloads ≥ 512 B — mirroring the paper's default Snappy
    /// handler in the channel pipeline.
    fn default() -> Self {
        Compression::Threshold(512)
    }
}

const FLAG_COMPRESSED: u8 = 0b0000_0001;

/// Maximum frame size accepted by the decoder (defensive bound).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

thread_local! {
    /// Where [`encode_frame`] has a payload's block written before it is
    /// known to be worth keeping. Kept between frames; as long as the
    /// longest payload the thread has compressed, which [`MAX_FRAME`] bounds.
    static BLOCK: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Encodes a message into one length-prefixed frame, written once: the
/// payload is serialised straight into the frame's own buffer.
///
/// # Errors
///
/// Propagates payload serialiser failures; a payload or frame longer than
/// [`MAX_FRAME`] is [`SerError::Invalid`].
pub fn encode_frame(msg: &NetMessage, compression: Compression) -> Result<Bytes, SerError> {
    const TOO_LONG: SerError = SerError::Invalid { context: "frame length" };
    let head = 4 + 1 + msg.header().encoded_len() + 8;
    let mut frame = BytesMut::with_capacity(head + msg.payload_size_estimate());
    frame.put_u32(0); // length placeholder
    frame.put_u8(0); // flags placeholder
    msg.header().serialise(&mut frame);
    frame.put_u64(msg.ser_id().0);
    let body = frame.len();
    msg.serialise_payload(&mut frame)?;
    let raw = frame.len() - body;
    if raw > MAX_FRAME {
        return Err(TOO_LONG);
    }
    let mut end = frame.len();
    if matches!(compression, Compression::Threshold(min) if raw >= min) {
        // `[raw_len][block]` goes over the raw payload if the block is the
        // shorter of the two. A compressed frame keeps the buffer: the
        // footprint of its uncompressed form.
        let raw_len = u32::try_from(raw).map_err(|_| TOO_LONG)?.to_be_bytes();
        BLOCK.with_borrow_mut(|block| {
            if block.len() < raw {
                block.resize(raw, 0);
            }
            let Some(n) = codec::compress_into(&frame[body..], &mut block[..raw]) else {
                return;
            };
            if n < raw {
                end = body + 4 + n;
                // A block that saves under four bytes outgrows the payload.
                frame.put_slice(&[0; 3][..end.saturating_sub(frame.len())]);
                frame[4] = FLAG_COMPRESSED;
                frame[body..body + 4].copy_from_slice(&raw_len);
                frame[body + 4..end].copy_from_slice(&block[..n]);
            }
        });
    }
    let len = end - 4;
    if len > MAX_FRAME {
        return Err(TOO_LONG);
    }
    frame[0..4].copy_from_slice(&u32::try_from(len).map_err(|_| TOO_LONG)?.to_be_bytes());
    let frame = frame.freeze();
    Ok(if end < frame.len() { frame.slice(..end) } else { frame })
}

/// Decodes the body of one frame (everything *after* the length prefix).
///
/// # Errors
///
/// Returns [`SerError`] on malformed frames.
pub fn decode_frame_body(mut body: Bytes) -> Result<NetMessage, SerError> {
    decode_body(&mut body, std::mem::take)
}

/// Reads a frame body through `body`: flags, header and `ser_id`, then the
/// payload — decompressed straight out of `body` if compressed, otherwise
/// taken from it by `uncompressed`.
fn decode_body<B: Buf>(
    body: &mut B,
    uncompressed: impl FnOnce(&mut B) -> Bytes,
) -> Result<NetMessage, SerError> {
    const CTX: &str = "frame";
    if body.remaining() < 1 {
        return Err(SerError::Truncated { context: CTX });
    }
    let flags = body.get_u8();
    let header = NetHeader::deserialise(body)?;
    if body.remaining() < 8 {
        return Err(SerError::Truncated { context: CTX });
    }
    let ser_id = SerId(body.get_u64());
    let payload = if flags & FLAG_COMPRESSED != 0 {
        if body.remaining() < 4 {
            return Err(SerError::Truncated { context: CTX });
        }
        let raw_len = body.get_u32() as usize;
        if raw_len > MAX_FRAME {
            return Err(SerError::Invalid { context: CTX });
        }
        let raw = codec::decompress(body.chunk(), raw_len).map_err(|_| SerError::Invalid {
            context: "compressed payload",
        })?;
        Bytes::from(raw)
    } else {
        uncompressed(body)
    };
    Ok(NetMessage::from_wire(header, ser_id, payload))
}

/// A frame body where it lies in the reassembly buffer, read through a
/// cursor that ends where the frame's length prefix says it does.
struct InPlace<'a>(&'a [u8]);

impl Buf for InPlace<'_> {
    fn remaining(&self) -> usize {
        self.0.len()
    }

    fn chunk(&self) -> &[u8] {
        self.0
    }

    fn advance(&mut self, cnt: usize) {
        self.0 = &self.0[cnt..];
    }
}

/// Incremental frame extractor for stream transports.
///
/// Stream bytes are held in one of two places, never both: the chunk they
/// arrived in, out of which whole frames are sliced without a copy, or —
/// from the moment a frame turns out to straddle chunks until the bytes
/// copied for it are used up — a reassembly buffer, in which
/// [`FrameDecoder::next_message`] decodes a frame where it lies.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    chunk: Bytes,
    buf: BytesMut,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Takes the next chunk of the stream as it arrived: a frame that lies
    /// whole inside it will share its allocation.
    pub fn push(&mut self, data: Bytes) {
        if self.buffered() == 0 {
            self.chunk = data;
        } else {
            self.feed(&data);
        }
    }

    /// Appends a copy of stream bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.spill();
        self.buf.extend_from_slice(data);
    }

    /// Copies what is left of the chunk into the reassembly buffer and lets
    /// the chunk go.
    fn spill(&mut self) {
        self.buf.extend_from_slice(&std::mem::take(&mut self.chunk));
    }

    /// The length of the next frame, once all of it is held (`None`, with
    /// the chunk spilled, until then). The frame lies whole in the chunk if
    /// the reassembly buffer is empty, and in the buffer otherwise. The one
    /// length-prefix check of both entries: an oversized frame poisons the
    /// stream, and everything held is dropped.
    fn whole_frame(&mut self) -> Result<Option<usize>, SerError> {
        let held: &[u8] = if self.buf.is_empty() {
            &self.chunk
        } else {
            &self.buf
        };
        // The length the next frame announces, once its prefix is here.
        let len = held
            .first_chunk()
            .map(|prefix| u32::from_be_bytes(*prefix) as usize);
        if len.is_some_and(|len| len > MAX_FRAME) {
            *self = FrameDecoder::new();
            return Err(SerError::Invalid { context: "frame length" });
        }
        let len = len.filter(|len| held.len() >= 4 + len);
        if len.is_none() {
            // The rest of the frame is in a later chunk.
            self.spill();
        }
        Ok(len)
    }

    /// Extracts the next complete frame body, if available.
    ///
    /// # Errors
    ///
    /// As [`FrameDecoder::next_message`]'s outer error.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, SerError> {
        let Some(len) = self.whole_frame()? else {
            return Ok(None);
        };
        Ok(Some(if self.buf.is_empty() {
            self.chunk.advance(4);
            self.chunk.split_to(len)
        } else {
            self.buf.advance(4);
            self.buf.split_to(len).freeze()
        }))
    }

    /// Decodes the next complete frame, if available: what
    /// [`FrameDecoder::next_frame`] and [`decode_frame_body`] give, without
    /// copying a frame that straddled chunks out of the reassembly buffer.
    /// A frame whole in its chunk is sliced out of it, as `next_frame` does.
    /// One that straddled is read where it lies and passed over; only its
    /// payload leaves the buffer — decompressed, or copied if uncompressed.
    ///
    /// # Errors
    ///
    /// The outer error: the stream announced an oversized frame. Framing
    /// cannot resynchronise after that, so everything held is dropped and
    /// the caller should close the stream. The inner error: this one frame
    /// is malformed, and it has been passed over; the frames after it
    /// decode as usual.
    pub fn next_message(&mut self) -> Result<Option<Result<NetMessage, SerError>>, SerError> {
        let Some(len) = self.whole_frame()? else {
            return Ok(None);
        };
        if self.buf.is_empty() {
            self.chunk.advance(4);
            return Ok(Some(decode_frame_body(self.chunk.split_to(len))));
        }
        let frame = &self.buf[4..4 + len];
        let msg = decode_body(&mut InPlace(frame), |rest| Bytes::copy_from_slice(rest.0));
        self.buf.advance(4 + len);
        Ok(Some(msg))
    }

    /// Bytes held but not yet framed.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.chunk.len() + self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::NetAddress;
    use crate::transport::Transport;
    use kmsg_netsim::engine::Sim;
    use kmsg_netsim::network::Network;
    use kmsg_netsim::packet::NodeId;

    fn nodes() -> (NodeId, NodeId) {
        let sim = Sim::new(1);
        let net = Network::new(&sim);
        (net.add_node("a"), net.add_node("b"))
    }

    fn sample_msg(payload: impl crate::ser::Serialisable) -> NetMessage {
        let (a, b) = nodes();
        NetMessage::new(
            NetAddress::new(a, 1),
            NetAddress::new(b, 2),
            Transport::Tcp,
            payload,
        )
    }

    #[test]
    fn frame_round_trip_uncompressed() {
        let msg = sample_msg("hello".to_string());
        let frame = encode_frame(&msg, Compression::Off).expect("encode");
        let mut dec = FrameDecoder::new();
        dec.feed(&frame);
        let body = dec.next_frame().expect("ok").expect("one frame");
        let out = decode_frame_body(body).expect("decode");
        assert_eq!(
            out.try_deserialise::<String, String>().expect("payload"),
            "hello"
        );
        assert_eq!(out.header(), msg.header());
    }

    #[test]
    fn compressible_payload_shrinks_frame() {
        let repetitive = Bytes::from(vec![42u8; 60_000]);
        let msg = sample_msg(repetitive.clone());
        let plain = encode_frame(&msg, Compression::Off).expect("encode");
        let squeezed = encode_frame(&msg, Compression::Threshold(512)).expect("encode");
        assert!(
            squeezed.len() < plain.len() / 10,
            "constant payload should collapse: {} vs {}",
            squeezed.len(),
            plain.len()
        );
        let mut dec = FrameDecoder::new();
        dec.feed(&squeezed);
        let out = decode_frame_body(dec.next_frame().expect("ok").expect("frame")).expect("decode");
        assert_eq!(
            out.try_deserialise::<Bytes, Bytes>().expect("payload"),
            repetitive
        );
    }

    #[test]
    fn incompressible_payload_not_compressed() {
        let random = Bytes::from(random_bytes(2, 10_000));
        let msg = sample_msg(random.clone());
        let framed = encode_frame(&msg, Compression::Threshold(512)).expect("encode");
        // flags byte must say uncompressed (offset 4 after the length) —
        // the frame is what `Compression::Off` would have produced.
        assert_eq!(framed[4] & FLAG_COMPRESSED, 0);
        assert_eq!(framed, encode_frame(&msg, Compression::Off).expect("encode"));
        let mut dec = FrameDecoder::new();
        dec.feed(&framed);
        let out = decode_frame_body(dec.next_frame().expect("ok").expect("frame")).expect("decode");
        assert_eq!(out.try_deserialise::<Bytes, Bytes>().expect("p"), random);
    }

    /// The frame `encode_frame` must produce, put together the long way
    /// round: the payload serialised into a buffer of its own, compressed
    /// into another, and the parts appended.
    fn long_way(msg: &NetMessage, compression: Compression) -> Vec<u8> {
        let (ser_id, payload) = msg.payload_to_bytes().expect("serialise");
        let block = match compression {
            Compression::Threshold(min) if payload.len() >= min => {
                Some(codec::compress(&payload)).filter(|block| block.len() < payload.len())
            }
            _ => None,
        };
        let mut body = BytesMut::new();
        body.put_u8(if block.is_some() { FLAG_COMPRESSED } else { 0 });
        msg.header().serialise(&mut body);
        body.put_u64(ser_id.0);
        match block {
            Some(block) => {
                body.put_u32(payload.len() as u32);
                body.put_slice(&block);
            }
            None => body.put_slice(&payload),
        }
        [&(body.len() as u32).to_be_bytes()[..], &body[..]].concat()
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen()).collect()
    }

    #[test]
    fn encode_frame_matches_the_frame_assembled_the_long_way() {
        let both_ways = |msg: &NetMessage| {
            for compression in [Compression::default(), Compression::Off] {
                let frame = encode_frame(msg, compression).expect("encode");
                assert_eq!(frame, long_way(msg, compression), "{compression:?}");
            }
            let (_, payload) = msg.payload_to_bytes().expect("serialise");
            payload.len() as i64 - codec::compress(&payload).len() as i64
        };
        // Serialised payloads of 511, 512 and 513 bytes (a `Bytes` carries a
        // four-byte length), around the default threshold of 512; all
        // compressible, so the threshold alone decides.
        for len in [507, 508, 509] {
            let msg = sample_msg(Bytes::from(vec![42u8; len]));
            assert!(both_ways(&msg) > 4);
            let frame = encode_frame(&msg, Compression::default()).expect("encode");
            assert_eq!(frame[4] & FLAG_COMPRESSED != 0, len + 4 >= 512);
        }
        // A block that saves nothing.
        assert!(both_ways(&sample_msg(Bytes::from(random_bytes(3, 2_000)))) <= 0);
        // Blocks within a few bytes of the raw length, either side: noise
        // followed by a repeat of its first few bytes, which buys one short
        // match. A saving of one to three bytes leaves `[raw_len][block]`
        // longer than the raw payload, and the block is still what goes out.
        let mut savings = std::collections::BTreeSet::new();
        for repeat in 4..=20 {
            let mut noise = random_bytes(4, 600);
            noise.extend_from_within(..repeat);
            savings.insert(both_ways(&sample_msg(Bytes::from(noise))));
        }
        for saved in -1..=4 {
            assert!(
                savings.contains(&saved),
                "no block saving {saved} B among {savings:?}"
            );
        }
        // Forwarded messages carry wire bytes, not a value to serialise.
        let origin = sample_msg("unused".to_string());
        for payload in [vec![42u8; 4_000], random_bytes(5, 4_000), vec![]] {
            let msg = NetMessage::from_wire(origin.header().clone(), SerId(77), payload.into());
            both_ways(&msg);
        }
    }

    #[test]
    fn decoder_handles_partial_and_multiple_frames() {
        let m1 = sample_msg("first".to_string());
        let m2 = sample_msg("second".to_string());
        let f1 = encode_frame(&m1, Compression::Off).expect("encode");
        let f2 = encode_frame(&m2, Compression::Off).expect("encode");
        let mut all = Vec::new();
        all.extend_from_slice(&f1);
        all.extend_from_slice(&f2);

        let mut dec = FrameDecoder::new();
        // Feed byte by byte; frames must pop exactly when complete.
        let mut frames = Vec::new();
        for &b in &all {
            dec.feed(&[b]);
            while let Some(frame) = dec.next_frame().expect("ok") {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(dec.buffered(), 0);
        let out1 = decode_frame_body(frames[0].clone()).expect("decode");
        let out2 = decode_frame_body(frames[1].clone()).expect("decode");
        assert_eq!(out1.try_deserialise::<String, String>().expect("p"), "first");
        assert_eq!(out2.try_deserialise::<String, String>().expect("p"), "second");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut dec = FrameDecoder::new();
        dec.feed(&u32::try_from(MAX_FRAME + 1).expect("fits").to_be_bytes());
        dec.feed(&[0u8; 16]);
        assert!(dec.next_frame().is_err());
        assert_eq!(dec.buffered(), 0, "a poisoned stream must not stay buffered");
        // Likewise held as the chunk it arrived in, behind a good frame.
        let good = encode_frame(&sample_msg(7u64), Compression::Off).expect("encode");
        let bad = u32::try_from(MAX_FRAME + 1).expect("fits").to_be_bytes();
        dec.push([&good[..], &bad[..], &[0u8; 16][..]].concat().into());
        assert_eq!(dec.next_frame(), Ok(Some(good.slice(4..))));
        assert!(dec.next_frame().is_err());
        assert_eq!(dec.buffered(), 0, "a poisoned stream must not stay held");
    }

    /// What a decoder made of one frame: its header, serialiser id and
    /// payload bytes, or the error.
    fn parts(msg: Result<NetMessage, SerError>) -> Result<(NetHeader, SerId, Bytes), SerError> {
        msg.map(|msg| {
            let (ser_id, payload) = msg.payload_to_bytes().expect("a wire payload");
            (msg.header().clone(), ser_id, payload)
        })
    }

    /// Frame bodies that are well framed but malformed inside: an unknown
    /// header kind, a header cut short, a `ser_id` cut short, a corrupt
    /// compressed block, and a raw length over [`MAX_FRAME`].
    fn malformed_bodies() -> [Bytes; 5] {
        let msg = sample_msg(Bytes::from(random_bytes(6, 3_000)));
        let body = encode_frame(&msg, Compression::Off)
            .expect("encode")
            .slice(4..);
        let mut head = BytesMut::new();
        head.put_u8(FLAG_COMPRESSED);
        msg.header().serialise(&mut head);
        let header_end = head.len();
        head.put_u64(msg.ser_id().0);
        let raw = &body[header_end + 8..];
        let block = codec::compress(raw);
        let compressed = |raw_len: usize, block: &[u8]| {
            let raw_len = u32::try_from(raw_len).expect("fits").to_be_bytes();
            Bytes::from([&head[..], &raw_len, block].concat())
        };
        let mut unknown_kind = body.to_vec();
        unknown_kind[1] = 9;
        [
            Bytes::from(unknown_kind),
            body.slice(..header_end - 1),
            body.slice(..header_end + 4),
            compressed(raw.len(), &block[..block.len() - 3]),
            compressed(MAX_FRAME + 1, &block),
        ]
    }

    /// The same stream framed through all three entries — `push` with each
    /// chunk as it arrived, `feed` with a borrowed copy, and `push` decoded
    /// by `next_message` — for frames of every size up to three segments,
    /// compressed and not, with malformed frames among them, cut at random
    /// points. `next_message` gives frame for frame what `next_frame` and
    /// `decode_frame_body` give, whether it sliced the frame or decoded it
    /// where it lay: a malformed frame is one error, and never costs the
    /// frame after it a byte.
    #[test]
    fn push_and_feed_frame_a_stream_alike() {
        use rand::{Rng, SeedableRng};
        const MSS: usize = 1448;
        let malformed = malformed_bodies();
        let (mut sliced, mut in_place) = (0, [0; 5]);
        for seed in 0..24 {
            let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(seed);
            let mut stream = Vec::new();
            let mut bodies = Vec::new();
            for i in 0..rng.gen_range(1..10) {
                let len = rng.gen_range(0..=3 * MSS);
                let payload = if rng.gen() {
                    vec![rng.gen(); len]
                } else {
                    random_bytes(rng.gen(), len)
                };
                let frame = encode_frame(&sample_msg(Bytes::from(payload)), Compression::default())
                    .expect("encode");
                stream.extend_from_slice(&frame);
                bodies.push(frame.slice(4..));
                if (seed + i) % 2 == 0 {
                    let bad = malformed[((seed + i) / 2 % 5) as usize].clone();
                    stream.extend_from_slice(&(bad.len() as u32).to_be_bytes());
                    stream.extend_from_slice(&bad);
                    bodies.push(bad);
                }
            }
            let (mut pushed, mut fed) = (FrameDecoder::new(), FrameDecoder::new());
            let mut decoded = FrameDecoder::new();
            let mut framed = Vec::new();
            let mut rest = &stream[..];
            while !rest.is_empty() {
                let (chunk, later) = rest.split_at(rng.gen_range(1..=rest.len().min(2 * MSS)));
                let chunk = Bytes::copy_from_slice(chunk);
                rest = later;
                let on_a_boundary = pushed.buffered() == 0;
                pushed.push(chunk.clone());
                fed.feed(&chunk);
                decoded.push(chunk.clone());
                loop {
                    assert_eq!(pushed.buffered(), fed.buffered());
                    let where_it_lies = !decoded.buf.is_empty();
                    let body = pushed.next_frame().expect("well-framed");
                    assert_eq!(body, fed.next_frame().expect("well-framed"));
                    let msg = decoded.next_message().expect("well-framed");
                    assert_eq!(
                        msg.map(parts),
                        body.clone().map(|body| parts(decode_frame_body(body)))
                    );
                    assert_eq!(pushed.buffered(), fed.buffered());
                    assert_eq!(pushed.buffered(), decoded.buffered());
                    let Some(body) = body else { break };
                    if on_a_boundary {
                        // The frame lay whole inside the chunk: it is a
                        // slice of the chunk's memory, not a copy.
                        let (body, chunk) = (body.as_ptr_range(), chunk.as_ptr_range());
                        assert!(chunk.start <= body.start && body.end <= chunk.end);
                        sliced += 1;
                    }
                    if let Some(kind) = malformed.iter().position(|bad| *bad == body) {
                        in_place[kind] += usize::from(where_it_lies);
                    }
                    framed.push(body);
                }
            }
            assert_eq!(pushed.buffered(), 0);
            assert_eq!(framed, bodies, "seed {seed}");
        }
        assert!(
            sliced > 20,
            "only {sliced} frames arrived whole on a boundary"
        );
        assert!(
            in_place.iter().all(|&n| n >= 2),
            "malformed frames decoded where they lay, by kind: {in_place:?}"
        );
    }

    /// Each malformed body gives its own one error — the same whether it is
    /// sliced or decoded where it lies — and the frame after it arrives
    /// intact, wherever the stream is cut.
    #[test]
    fn a_malformed_frame_is_one_error_at_every_cut() {
        let good = encode_frame(&sample_msg(7u64), Compression::Off).expect("encode");
        let expected = [
            SerError::Invalid {
                context: "NetHeader",
            },
            SerError::Truncated {
                context: "NetHeader",
            },
            SerError::Truncated { context: "frame" },
            SerError::Invalid {
                context: "compressed payload",
            },
            SerError::Invalid { context: "frame" },
        ];
        for (bad, error) in malformed_bodies().into_iter().zip(expected) {
            let stream = [&(bad.len() as u32).to_be_bytes()[..], &bad, &good].concat();
            for cut in 0..=stream.len() {
                let mut dec = FrameDecoder::new();
                let mut got = Vec::new();
                for chunk in [&stream[..cut], &stream[cut..]] {
                    dec.push(Bytes::copy_from_slice(chunk));
                    while let Some(msg) = dec.next_message().expect("well-framed") {
                        got.push(parts(msg));
                    }
                }
                assert_eq!(dec.buffered(), 0);
                let want = parts(decode_frame_body(good.slice(4..)));
                assert_eq!(got, [Err(error.clone()), want], "cut at {cut}");
            }
        }
    }

    #[test]
    fn oversized_payload_is_an_error() {
        let msg = sample_msg(Bytes::from(vec![0u8; MAX_FRAME + 1]));
        for compression in [Compression::Off, Compression::default()] {
            assert_eq!(
                encode_frame(&msg, compression).expect_err("too long"),
                SerError::Invalid { context: "frame length" }
            );
        }
    }

    #[test]
    fn truncated_body_detected() {
        let msg = sample_msg("x".to_string());
        let frame = encode_frame(&msg, Compression::Off).expect("encode");
        // Cut inside the header: framing itself fails.
        let header_cut = Bytes::copy_from_slice(&frame[4..10]);
        assert!(decode_frame_body(header_cut).is_err());
        // Cut inside the payload: the frame is structurally valid (payload
        // length is implied by the frame length) but the payload fails to
        // deserialise.
        let payload_cut = Bytes::copy_from_slice(&frame[4..frame.len() - 1]);
        let out = decode_frame_body(payload_cut).expect("frame decodes");
        assert!(out.try_deserialise::<String, String>().is_err());
    }
}
