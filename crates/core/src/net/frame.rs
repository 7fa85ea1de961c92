//! Wire framing: `[len][flags][header][ser_id][payload]`.
//!
//! Frames are length-prefixed for stream transports (TCP/UDT) and sent
//! whole as datagrams for UDP. The payload may be compressed with the
//! [`crate::codec`] (the Snappy stand-in); compression is only kept
//! when it actually shrinks the payload, so incompressible data pays one
//! flag byte and nothing else.

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

/// Encodes a message into one length-prefixed frame.
///
/// # Errors
///
/// Propagates payload serialiser failures; a payload or frame longer than
/// [`MAX_FRAME`] is [`SerError::Invalid`].
pub fn encode_frame(msg: &NetMessage, compression: Compression) -> Result<Bytes, SerError> {
    const TOO_LONG: SerError = SerError::Invalid { context: "frame length" };
    let (ser_id, payload) = msg.payload_to_bytes()?;
    if payload.len() > MAX_FRAME {
        return Err(TOO_LONG);
    }
    let compress = matches!(compression, Compression::Threshold(min) if payload.len() >= min);
    let head = 4 + 1 + msg.header().encoded_len() + 8;
    let mut frame = BytesMut::with_capacity(head + if compress { 4 } else { 0 } + payload.len());
    frame.put_u32(0); // length placeholder
    frame.put_u8(0); // flags placeholder
    msg.header().serialise(&mut frame);
    frame.put_u64(ser_id.0);
    let body = frame.len();
    let mut end = body + payload.len();
    if compress {
        // `[raw_len][block]`, the block written over a scratch copy of the
        // payload; if that saves nothing, the raw payload goes back at
        // `body` and the four spare bytes are cut off below. A compressed
        // frame keeps the buffer: the footprint of its uncompressed form.
        frame.put_u32(u32::try_from(payload.len()).map_err(|_| TOO_LONG)?);
        frame.put_slice(&payload);
        match codec::compress_into(&payload, &mut frame[body + 4..]) {
            Some(n) if n < payload.len() => {
                frame[4] = FLAG_COMPRESSED;
                end = body + 4 + n;
            }
            _ => frame[body..end].copy_from_slice(&payload),
        }
    } else {
        frame.put_slice(&payload);
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
    const CTX: &str = "frame";
    if body.remaining() < 1 {
        return Err(SerError::Truncated { context: CTX });
    }
    let flags = body.get_u8();
    let header = NetHeader::deserialise(&mut body)?;
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
        let raw = codec::decompress(&body, raw_len)
            .map_err(|_| SerError::Invalid { context: "compressed payload" })?;
        Bytes::from(raw)
    } else {
        body
    };
    Ok(NetMessage::from_wire(header, ser_id, payload))
}

/// Incremental frame extractor for stream transports.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: BytesMut,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends stream bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Extracts the next complete frame body, if available.
    ///
    /// # Errors
    ///
    /// Returns [`SerError::Invalid`] if the stream announces an oversized
    /// frame (stream corruption). Framing cannot resynchronise after that,
    /// so everything buffered is dropped and the caller should close the
    /// stream.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, SerError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > MAX_FRAME {
            self.buf = BytesMut::new();
            return Err(SerError::Invalid { context: "frame length" });
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        self.buf.advance(4);
        Ok(Some(self.buf.split_to(len).freeze()))
    }

    /// Bytes buffered but not yet framed.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
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
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(2);
        let random = Bytes::from((0..10_000).map(|_| rng.gen()).collect::<Vec<u8>>());
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
