//! Application message types and their serialisers.

use kmsg_telemetry::bytes::{Buf, BufMut, Bytes, BytesMut};

use kmsg_core::ser::{get_bytes, Deserialiser, SerError, SerId, Serialisable};

/// Serialiser id of [`ChunkMsg`].
pub(crate) const CHUNK_SER_ID: SerId = SerId(100);
/// Serialiser id of [`PingMsg`].
pub(crate) const PING_SER_ID: SerId = SerId(101);
/// Serialiser id of [`PongMsg`].
pub(crate) const PONG_SER_ID: SerId = SerId(102);

/// One piece of a file transfer: the byte range starting at `offset`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMsg {
    /// Byte offset of this chunk within the dataset.
    pub offset: u64,
    /// The chunk's bytes.
    pub data: Bytes,
}

impl Serialisable for ChunkMsg {
    fn ser_id(&self) -> SerId {
        CHUNK_SER_ID
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.data.len() + 12)
    }

    fn serialise(&self, buf: &mut BytesMut) -> Result<(), SerError> {
        buf.put_u64(self.offset);
        kmsg_core::ser::put_bytes(buf, &self.data);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Deserialiser<ChunkMsg> for ChunkMsg {
    const SER_ID: SerId = CHUNK_SER_ID;

    fn deserialise(buf: &mut Bytes) -> Result<ChunkMsg, SerError> {
        if buf.remaining() < 8 {
            return Err(SerError::Truncated {
                context: "ChunkMsg",
            });
        }
        let offset = buf.get_u64();
        let data = get_bytes(buf, "ChunkMsg")?;
        Ok(ChunkMsg { offset, data })
    }
}

/// A timing-sensitive control request ("ping").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PingMsg {
    /// Sequence number, echoed by the pong.
    pub(crate) seq: u64,
}

impl Serialisable for PingMsg {
    fn ser_id(&self) -> SerId {
        PING_SER_ID
    }

    fn size_hint(&self) -> Option<usize> {
        Some(8)
    }

    fn serialise(&self, buf: &mut BytesMut) -> Result<(), SerError> {
        buf.put_u64(self.seq);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Deserialiser<PingMsg> for PingMsg {
    const SER_ID: SerId = PING_SER_ID;

    fn deserialise(buf: &mut Bytes) -> Result<PingMsg, SerError> {
        if buf.remaining() < 8 {
            return Err(SerError::Truncated { context: "PingMsg" });
        }
        Ok(PingMsg { seq: buf.get_u64() })
    }
}

/// The reply to a [`PingMsg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PongMsg {
    /// The ping's sequence number.
    pub(crate) seq: u64,
}

impl Serialisable for PongMsg {
    fn ser_id(&self) -> SerId {
        PONG_SER_ID
    }

    fn size_hint(&self) -> Option<usize> {
        Some(8)
    }

    fn serialise(&self, buf: &mut BytesMut) -> Result<(), SerError> {
        buf.put_u64(self.seq);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Deserialiser<PongMsg> for PongMsg {
    const SER_ID: SerId = PONG_SER_ID;

    fn deserialise(buf: &mut Bytes) -> Result<PongMsg, SerError> {
        if buf.remaining() < 8 {
            return Err(SerError::Truncated { context: "PongMsg" });
        }
        Ok(PongMsg { seq: buf.get_u64() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T>(value: &T) -> T
    where
        T: Serialisable + Deserialiser<T>,
    {
        let mut buf = BytesMut::new();
        value.serialise(&mut buf).expect("serialise");
        let mut bytes = buf.freeze();
        T::deserialise(&mut bytes).expect("deserialise")
    }

    #[test]
    fn chunk_round_trip() {
        let c = ChunkMsg {
            offset: 123_456,
            data: Bytes::from_static(b"chunky"),
        };
        assert_eq!(round_trip(&c), c);
        assert_eq!(c.ser_id(), CHUNK_SER_ID);
    }

    #[test]
    fn ping_pong_round_trip() {
        assert_eq!(round_trip(&PingMsg { seq: 9 }), PingMsg { seq: 9 });
        assert_eq!(round_trip(&PongMsg { seq: 9 }), PongMsg { seq: 9 });
    }

    #[test]
    fn ser_ids_are_user_range_and_distinct() {
        assert!(CHUNK_SER_ID >= SerId::USER_START);
        assert_ne!(CHUNK_SER_ID, PING_SER_ID);
        assert_ne!(PING_SER_ID, PONG_SER_ID);
    }

    #[test]
    fn truncated_inputs_error() {
        let mut short = Bytes::from_static(&[1, 2, 3]);
        assert!(ChunkMsg::deserialise(&mut short).is_err());
        let mut short = Bytes::from_static(&[1, 2, 3]);
        assert!(PingMsg::deserialise(&mut short).is_err());
    }
}
