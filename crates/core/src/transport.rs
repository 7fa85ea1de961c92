//! Transport protocol selection, per message.

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
    pub(crate) fn from_byte(b: u8) -> Option<Transport> {
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
    fn display_names() {
        assert_eq!(Transport::Data.to_string(), "DATA");
        assert_eq!(Transport::Tcp.to_string(), "TCP");
    }
}
