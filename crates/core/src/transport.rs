//! Transport protocol selection, per message.

use kmsg_netsim::packet::WireProtocol;

/// The transport protocol a message should travel over — chosen **per
/// message** at runtime, the paper's central mechanism.
///
/// `Data` is the pseudo-protocol of §IV: the
/// [`DataNetwork`](crate::data::DataNetworkComponent) interceptor replaces
/// it transparently with either `Tcp` or `Udt` according to the current
/// protocol selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// User Datagram Protocol: unreliable, unordered, lightweight.
    Udp,
    /// Transmission Control Protocol: reliable, ordered, window-based
    /// congestion control.
    Tcp,
    /// UDP-based Data Transfer protocol: reliable, ordered, rate-based
    /// congestion control (strong on high bandwidth-delay-product paths).
    Udt,
    /// The adaptive meta-protocol: resolved to `Tcp` or `Udt` by the data
    /// interceptor's protocol selection policy.
    Data,
}

impl Transport {
    /// The wire protocol this transport maps to, or `None` for the
    /// unresolved `Data` pseudo-protocol.
    #[must_use]
    pub fn wire_protocol(self) -> Option<WireProtocol> {
        match self {
            Transport::Udp => Some(WireProtocol::Udp),
            Transport::Tcp => Some(WireProtocol::Tcp),
            Transport::Udt => Some(WireProtocol::Udt),
            Transport::Data => None,
        }
    }

    /// Whether this transport gives reliable, ordered (stream) delivery.
    #[must_use]
    pub fn is_reliable(self) -> bool {
        matches!(self, Transport::Tcp | Transport::Udt | Transport::Data)
    }

    /// Stable snake_case label for telemetry output.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Transport::Udp => "udp",
            Transport::Tcp => "tcp",
            Transport::Udt => "udt",
            Transport::Data => "data",
        }
    }

    /// Compact wire encoding.
    #[must_use]
    pub fn to_byte(self) -> u8 {
        match self {
            Transport::Udp => 0,
            Transport::Tcp => 1,
            Transport::Udt => 2,
            Transport::Data => 3,
        }
    }

    /// Decodes [`Transport::to_byte`].
    #[must_use]
    pub fn from_byte(b: u8) -> Option<Transport> {
        match b {
            0 => Some(Transport::Udp),
            1 => Some(Transport::Tcp),
            2 => Some(Transport::Udt),
            3 => Some(Transport::Data),
            _ => None,
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Transport::Udp => "UDP",
            Transport::Tcp => "TCP",
            Transport::Udt => "UDT",
            Transport::Data => "DATA",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_round_trip() {
        for t in [
            Transport::Udp,
            Transport::Tcp,
            Transport::Udt,
            Transport::Data,
        ] {
            assert_eq!(Transport::from_byte(t.to_byte()), Some(t));
        }
        assert_eq!(Transport::from_byte(99), None);
    }

    #[test]
    fn wire_protocol_mapping() {
        assert_eq!(Transport::Udp.wire_protocol(), Some(WireProtocol::Udp));
        assert_eq!(Transport::Tcp.wire_protocol(), Some(WireProtocol::Tcp));
        assert_eq!(Transport::Udt.wire_protocol(), Some(WireProtocol::Udt));
        assert_eq!(Transport::Data.wire_protocol(), None);
    }

    #[test]
    fn reliability_classes() {
        assert!(!Transport::Udp.is_reliable());
        assert!(Transport::Tcp.is_reliable());
        assert!(Transport::Udt.is_reliable());
        assert!(Transport::Data.is_reliable());
    }

    #[test]
    fn display_names() {
        assert_eq!(Transport::Data.to_string(), "DATA");
        assert_eq!(Transport::Tcp.to_string(), "TCP");
    }
}
