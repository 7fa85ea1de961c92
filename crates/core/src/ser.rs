//! The serialisation framework.
//!
//! Kompics ships its own serialiser registry rather than a general-purpose
//! format, and so does this reproduction: a message type implements
//! [`Serialisable`] (how to turn a value into bytes plus a numeric
//! [`SerId`]) and [`Deserialiser`] (how to reconstruct it). The receiver
//! picks the deserialiser by the expected type — see
//! [`NetMessage::try_deserialise`](crate::msg::NetMessage::try_deserialise).
//!
//! Built-in serialisers cover [`Bytes`], [`String`] and [`u64`]; user
//! types should use ids at or above [`SerId::USER_START`].

use kmsg_telemetry::bytes::{Buf, BufMut, Bytes, BytesMut};

/// Numeric identifier of a serialiser, carried on the wire with every
/// message payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SerId(pub u64);

impl SerId {
    /// Ids below this are reserved for built-in serialisers.
    pub const USER_START: SerId = SerId(100);

    const BYTES: SerId = SerId(1);
    const STRING: SerId = SerId(2);
    const U64: SerId = SerId(3);
}

/// Errors produced by (de)serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// What was being read.
        context: &'static str,
    },
    /// The payload's [`SerId`] does not match the requested deserialiser.
    WrongSerId {
        /// Id found in the message.
        found: SerId,
        /// Id the deserialiser expected.
        expected: SerId,
    },
    /// The bytes were structurally invalid.
    Invalid {
        /// What was being read.
        context: &'static str,
    },
    /// A locally-delivered message held a different type than requested.
    WrongType,
}

impl std::fmt::Display for SerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerError::Truncated { context } => write!(f, "truncated input while reading {context}"),
            SerError::WrongSerId { found, expected } => {
                write!(
                    f,
                    "serialiser id mismatch: found {}, expected {}",
                    found.0, expected.0
                )
            }
            SerError::Invalid { context } => write!(f, "invalid bytes while reading {context}"),
            SerError::WrongType => write!(f, "locally delivered value has a different type"),
        }
    }
}

impl std::error::Error for SerError {}

/// A value that can be written to the wire.
///
/// Implementations must be cheap to clone *as trait objects* via `Arc`, so
/// the same message can broadcast on several channels; the data itself is
/// only serialised when it actually leaves the host (§III-B: virtual nodes
/// on one host exchange messages without serialisation).
pub trait Serialisable: Send + Sync + std::fmt::Debug + 'static {
    /// The id of the matching [`Deserialiser`].
    fn ser_id(&self) -> SerId;

    /// Expected encoded size, if cheaply known (buffer pre-sizing).
    fn size_hint(&self) -> Option<usize> {
        None
    }

    /// Writes the value.
    ///
    /// # Errors
    ///
    /// Implementations may fail on unrepresentable values.
    fn serialise(&self, buf: &mut BytesMut) -> Result<(), SerError>;

    /// `Any` view for local (no-serialisation) delivery.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Reconstructs a `T` from bytes; `SER_ID` must match the value's
/// [`Serialisable::ser_id`].
pub trait Deserialiser<T> {
    /// The id this deserialiser handles.
    const SER_ID: SerId;

    /// Reads a value.
    ///
    /// # Errors
    ///
    /// Returns [`SerError`] on truncated or invalid input.
    fn deserialise(buf: &mut Bytes) -> Result<T, SerError>;
}

// --- helpers ---------------------------------------------------------

/// Writes a length-prefixed byte slice.
pub fn put_bytes(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32(u32::try_from(data.len()).expect("chunk too large"));
    buf.put_slice(data);
}

/// Reads a length-prefixed byte slice (zero-copy).
///
/// # Errors
///
/// Returns [`SerError::Truncated`] on short input.
pub fn get_bytes(buf: &mut Bytes, context: &'static str) -> Result<Bytes, SerError> {
    if buf.remaining() < 4 {
        return Err(SerError::Truncated { context });
    }
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(SerError::Truncated { context });
    }
    Ok(buf.split_to(len))
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut BytesMut, s: &str) {
    put_bytes(buf, s.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
///
/// # Errors
///
/// Returns [`SerError`] on short or non-UTF-8 input.
pub fn get_string(buf: &mut Bytes, context: &'static str) -> Result<String, SerError> {
    let raw = get_bytes(buf, context)?;
    String::from_utf8(raw.to_vec()).map_err(|_| SerError::Invalid { context })
}

// --- built-in serialisers ---------------------------------------------

impl Serialisable for Bytes {
    fn ser_id(&self) -> SerId {
        SerId::BYTES
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.len() + 4)
    }

    fn serialise(&self, buf: &mut BytesMut) -> Result<(), SerError> {
        put_bytes(buf, self);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Deserialiser<Bytes> for Bytes {
    const SER_ID: SerId = SerId::BYTES;

    fn deserialise(buf: &mut Bytes) -> Result<Bytes, SerError> {
        get_bytes(buf, "Bytes")
    }
}

impl Serialisable for String {
    fn ser_id(&self) -> SerId {
        SerId::STRING
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.len() + 4)
    }

    fn serialise(&self, buf: &mut BytesMut) -> Result<(), SerError> {
        put_string(buf, self);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Deserialiser<String> for String {
    const SER_ID: SerId = SerId::STRING;

    fn deserialise(buf: &mut Bytes) -> Result<String, SerError> {
        get_string(buf, "String")
    }
}

impl Serialisable for u64 {
    fn ser_id(&self) -> SerId {
        SerId::U64
    }

    fn size_hint(&self) -> Option<usize> {
        Some(8)
    }

    fn serialise(&self, buf: &mut BytesMut) -> Result<(), SerError> {
        buf.put_u64(*self);
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl Deserialiser<u64> for u64 {
    const SER_ID: SerId = SerId::U64;

    fn deserialise(buf: &mut Bytes) -> Result<u64, SerError> {
        if buf.remaining() < 8 {
            return Err(SerError::Truncated { context: "u64" });
        }
        Ok(buf.get_u64())
    }
}

/// A boxed deserialiser stored in the registry.
type RegisteredDeserialiser =
    Box<dyn Fn(&mut Bytes) -> Result<Box<dyn std::any::Any + Send>, SerError> + Send + Sync>;

/// A registry mapping [`SerId`]s to deserialisers, for receivers that
/// handle heterogeneous messages without statically knowing each type
/// (the analog of Kompics' global serialiser registration).
///
/// # Examples
///
/// ```
/// use kmsg_core::ser::{SerRegistry, Deserialiser, SerId};
/// use kmsg_telemetry::bytes::{Bytes, BytesMut};
///
/// let mut registry = SerRegistry::new();
/// registry.register::<String, String>();
/// registry.register::<u64, u64>();
///
/// let mut buf = BytesMut::new();
/// use kmsg_core::ser::Serialisable;
/// "hi".to_string().serialise(&mut buf).unwrap();
/// let any = registry
///     .deserialise(SerId(2), &mut buf.freeze())
///     .expect("registered");
/// assert_eq!(any.downcast_ref::<String>().unwrap(), "hi");
/// ```
#[derive(Default)]
pub struct SerRegistry {
    entries: std::collections::HashMap<SerId, RegisteredDeserialiser>,
}

impl std::fmt::Debug for SerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SerRegistry")
            .field("registered", &self.entries.len())
            .finish()
    }
}

impl SerRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        SerRegistry::default()
    }

    /// Registers type `T` under `D::SER_ID`.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered (ids must be unique).
    pub fn register<T, D>(&mut self)
    where
        T: Send + 'static,
        D: Deserialiser<T>,
    {
        let prev = self.entries.insert(
            D::SER_ID,
            Box::new(|buf| {
                D::deserialise(buf).map(|v| Box::new(v) as Box<dyn std::any::Any + Send>)
            }),
        );
        assert!(prev.is_none(), "duplicate serialiser id {:?}", D::SER_ID);
    }

    /// Whether an id is registered.
    #[must_use]
    pub fn contains(&self, id: SerId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Deserialises a payload by id.
    ///
    /// # Errors
    ///
    /// Returns [`SerError::WrongSerId`] for unregistered ids (with the
    /// found id in both fields), or the deserialiser's own error.
    pub fn deserialise(
        &self,
        id: SerId,
        buf: &Bytes,
    ) -> Result<Box<dyn std::any::Any + Send>, SerError> {
        let entry = self.entries.get(&id).ok_or(SerError::WrongSerId {
            found: id,
            expected: id,
        })?;
        let mut cursor = buf.clone();
        entry(&mut cursor)
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
    fn bytes_round_trip() {
        let v = Bytes::from_static(b"hello world");
        assert_eq!(round_trip(&v), v);
        assert_eq!(v.ser_id(), SerId(1));
        assert_eq!(v.size_hint(), Some(15));
    }

    #[test]
    fn string_round_trip() {
        let v = "grüße".to_string();
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn u64_round_trip() {
        assert_eq!(round_trip(&0xdead_beef_u64), 0xdead_beef_u64);
    }

    #[test]
    fn truncation_detected() {
        let mut short = Bytes::from_static(&[0, 0, 0, 10, 1, 2]);
        assert_eq!(
            Bytes::deserialise(&mut short),
            Err(SerError::Truncated { context: "Bytes" })
        );
        let mut tiny = Bytes::from_static(&[1]);
        assert!(u64::deserialise(&mut tiny).is_err());
    }

    #[test]
    fn invalid_utf8_detected() {
        let mut buf = BytesMut::new();
        put_bytes(&mut buf, &[0xff, 0xfe]);
        let mut bytes = buf.freeze();
        assert_eq!(
            String::deserialise(&mut bytes),
            Err(SerError::Invalid { context: "String" })
        );
    }

    #[test]
    fn error_display() {
        let e = SerError::WrongSerId {
            found: SerId(5),
            expected: SerId(7),
        };
        assert!(e.to_string().contains("mismatch"));
        assert!(SerError::WrongType.to_string().contains("different type"));
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_dispatches_by_id() {
        let mut reg = SerRegistry::new();
        reg.register::<String, String>();
        reg.register::<u64, u64>();
        assert!(reg.contains(SerId(2)));
        assert!(reg.contains(SerId(3)));
        assert!(!reg.contains(SerId(99)));

        let mut buf = BytesMut::new();
        7u64.serialise(&mut buf).expect("ser");
        let v = reg.deserialise(SerId(3), &buf.freeze()).expect("deser");
        assert_eq!(*v.downcast_ref::<u64>().expect("u64"), 7);
    }

    #[test]
    fn unregistered_id_errors() {
        let reg = SerRegistry::new();
        let err = reg
            .deserialise(SerId(42), &Bytes::new())
            .expect_err("unregistered");
        assert!(matches!(err, SerError::WrongSerId { .. }));
    }

    #[test]
    #[should_panic(expected = "duplicate serialiser id")]
    fn duplicate_registration_panics() {
        let mut reg = SerRegistry::new();
        reg.register::<String, String>();
        reg.register::<String, String>();
    }
}
