//! The owned [`Packet`] type and its builder.
//!
//! A `Packet` is stored in parsed form (Ethernet header, optional IPv4
//! header, optional L4 header) together with its on-the-wire frame length.
//! It can be serialised to and parsed from raw bytes, which is what the PCAP
//! reader/writer and the traffic-generator model consume.

use crate::eth::{EthHeader, EtherType, MacAddr};
use crate::field::PacketField;
use crate::flow::FlowKey;
use crate::ip::{IpProto, Ipv4Addr, Ipv4Header};
use crate::l4::{TcpHeader, UdpHeader};

/// Minimum Ethernet frame size (without FCS) used for all generated packets,
/// matching the paper's small-packet workloads.
pub const MIN_FRAME_LEN: u16 = 64;

/// The L4 header of a packet, if any.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L4Header {
    /// A UDP header.
    Udp(UdpHeader),
    /// A TCP header.
    Tcp(TcpHeader),
    /// No parsed L4 header (non-TCP/UDP protocol or truncated frame).
    None,
}

/// Errors returned by [`Packet::parse`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ParseError {
    /// The frame is shorter than an Ethernet header.
    TruncatedEthernet,
    /// The frame claims IPv4 but the IP header is missing, truncated, or
    /// carries options.
    BadIpv4Header,
    /// The IP header announces TCP/UDP but the L4 header is truncated.
    TruncatedL4,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ParseError::TruncatedEthernet => "frame shorter than an Ethernet header",
            ParseError::BadIpv4Header => "missing, truncated, or option-bearing IPv4 header",
            ParseError::TruncatedL4 => "truncated TCP/UDP header",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ParseError {}

/// A parsed network packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Ethernet header.
    pub eth: EthHeader,
    /// IPv4 header, if the frame carries IPv4.
    pub ipv4: Option<Ipv4Header>,
    /// L4 header, if the frame carries TCP or UDP.
    pub l4: L4Header,
    /// On-the-wire frame length in bytes (header + payload, no FCS).
    pub frame_len: u16,
}

impl Packet {
    /// Returns the IPv4 header, if present.
    pub fn ipv4(&self) -> Option<&Ipv4Header> {
        self.ipv4.as_ref()
    }

    /// Source L4 port, if the packet has a TCP or UDP header.
    pub fn src_port(&self) -> Option<u16> {
        match self.l4 {
            L4Header::Udp(u) => Some(u.src_port),
            L4Header::Tcp(t) => Some(t.src_port),
            L4Header::None => None,
        }
    }

    /// Destination L4 port, if the packet has a TCP or UDP header.
    pub fn dst_port(&self) -> Option<u16> {
        match self.l4 {
            L4Header::Udp(u) => Some(u.dst_port),
            L4Header::Tcp(t) => Some(t.dst_port),
            L4Header::None => None,
        }
    }

    /// The packet's flow key, if it is a tracked (TCP/UDP over IPv4) packet.
    pub fn flow(&self) -> Option<FlowKey> {
        FlowKey::of_packet(self)
    }

    /// Reads a header field as an integer; missing layers read as zero.
    pub fn field(&self, f: PacketField) -> u64 {
        match f {
            PacketField::EthDst => self.eth.dst.to_u64(),
            PacketField::EthSrc => self.eth.src.to_u64(),
            PacketField::EtherType => u64::from(self.eth.ethertype.to_u16()),
            PacketField::IpTotalLen => self.ipv4.map_or(0, |h| u64::from(h.total_len)),
            PacketField::IpTtl => self.ipv4.map_or(0, |h| u64::from(h.ttl)),
            PacketField::IpProto => self.ipv4.map_or(0, |h| u64::from(h.proto.to_u8())),
            PacketField::SrcIp => self.ipv4.map_or(0, |h| u64::from(h.src.to_u32())),
            PacketField::DstIp => self.ipv4.map_or(0, |h| u64::from(h.dst.to_u32())),
            PacketField::SrcPort => u64::from(self.src_port().unwrap_or(0)),
            PacketField::DstPort => u64::from(self.dst_port().unwrap_or(0)),
            PacketField::TcpFlags => match self.l4 {
                L4Header::Tcp(t) => u64::from(t.flags),
                _ => 0,
            },
            PacketField::FrameLen => u64::from(self.frame_len),
        }
    }

    /// Serialises the packet to wire bytes, padding the payload with zeros up
    /// to `frame_len`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = vec![0u8; usize::from(self.frame_len.max(MIN_FRAME_LEN))];
        self.eth.write(&mut buf);
        let mut off = EthHeader::LEN;
        if let Some(ip) = self.ipv4 {
            ip.write(&mut buf[off..]);
            off += Ipv4Header::LEN;
            match self.l4 {
                L4Header::Udp(u) => u.write(&mut buf[off..]),
                L4Header::Tcp(t) => t.write(&mut buf[off..]),
                L4Header::None => {}
            }
        }
        buf
    }

    /// Parses a packet from wire bytes.
    pub fn parse(bytes: &[u8]) -> Result<Packet, ParseError> {
        let eth = EthHeader::parse(bytes).ok_or(ParseError::TruncatedEthernet)?;
        let mut ipv4 = None;
        let mut l4 = L4Header::None;
        if eth.ethertype == EtherType::Ipv4 {
            let ip =
                Ipv4Header::parse(&bytes[EthHeader::LEN..]).ok_or(ParseError::BadIpv4Header)?;
            let l4_off = EthHeader::LEN + Ipv4Header::LEN;
            l4 = match ip.proto {
                IpProto::Udp => L4Header::Udp(
                    UdpHeader::parse(&bytes[l4_off..]).ok_or(ParseError::TruncatedL4)?,
                ),
                IpProto::Tcp => L4Header::Tcp(
                    TcpHeader::parse(&bytes[l4_off..]).ok_or(ParseError::TruncatedL4)?,
                ),
                _ => L4Header::None,
            };
            ipv4 = Some(ip);
        }
        Ok(Packet {
            eth,
            ipv4,
            l4,
            frame_len: bytes.len().min(usize::from(u16::MAX)) as u16,
        })
    }
}

/// Builds valid minimum-size packets with sensible defaults (64-byte UDP
/// frames between placeholder MACs), letting callers override only the fields
/// an experiment cares about.
#[derive(Clone, Debug)]
pub struct PacketBuilder {
    eth_src: MacAddr,
    eth_dst: MacAddr,
    ethertype: EtherType,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    proto: IpProto,
    src_port: u16,
    dst_port: u16,
    ttl: u8,
    tcp_flags: u8,
    frame_len: u16,
}

impl Default for PacketBuilder {
    fn default() -> Self {
        PacketBuilder {
            eth_src: MacAddr::new(0x02, 0, 0, 0, 0, 0x01),
            eth_dst: MacAddr::new(0x02, 0, 0, 0, 0, 0x02),
            ethertype: EtherType::Ipv4,
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            proto: IpProto::Udp,
            src_port: 10000,
            dst_port: 80,
            ttl: 64,
            tcp_flags: TcpHeader::SYN,
            frame_len: MIN_FRAME_LEN,
        }
    }
}

impl PacketBuilder {
    /// Starts a builder with the default 64-byte UDP frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a builder pre-populated from a flow key.
    pub fn udp_flow(key: FlowKey) -> Self {
        PacketBuilder::new()
            .proto(key.proto)
            .src_ip(key.src_ip)
            .dst_ip(key.dst_ip)
            .src_port(key.src_port)
            .dst_port(key.dst_port)
    }

    /// Sets the source MAC address.
    pub fn eth_src(mut self, m: MacAddr) -> Self {
        self.eth_src = m;
        self
    }

    /// Sets the destination MAC address.
    pub fn eth_dst(mut self, m: MacAddr) -> Self {
        self.eth_dst = m;
        self
    }

    /// Sets the EtherType (non-IPv4 types produce an L2-only frame).
    pub fn ethertype(mut self, t: EtherType) -> Self {
        self.ethertype = t;
        self
    }

    /// Sets the IP protocol.
    pub fn proto(mut self, p: IpProto) -> Self {
        self.proto = p;
        self
    }

    /// Sets the source IPv4 address.
    pub fn src_ip(mut self, a: Ipv4Addr) -> Self {
        self.src_ip = a;
        self
    }

    /// Sets the destination IPv4 address.
    pub fn dst_ip(mut self, a: Ipv4Addr) -> Self {
        self.dst_ip = a;
        self
    }

    /// Sets the L4 source port.
    pub fn src_port(mut self, p: u16) -> Self {
        self.src_port = p;
        self
    }

    /// Sets the L4 destination port.
    pub fn dst_port(mut self, p: u16) -> Self {
        self.dst_port = p;
        self
    }

    /// Sets the IP TTL.
    pub fn ttl(mut self, t: u8) -> Self {
        self.ttl = t;
        self
    }

    /// Sets the TCP flag byte (only meaningful for TCP packets).
    pub fn tcp_flags(mut self, f: u8) -> Self {
        self.tcp_flags = f;
        self
    }

    /// Sets the frame length (clamped to at least the headers present).
    pub fn frame_len(mut self, len: u16) -> Self {
        self.frame_len = len.max(MIN_FRAME_LEN);
        self
    }

    /// Assembles the packet.
    pub fn build(self) -> Packet {
        let eth = EthHeader {
            dst: self.eth_dst,
            src: self.eth_src,
            ethertype: self.ethertype,
        };
        if self.ethertype != EtherType::Ipv4 {
            return Packet {
                eth,
                ipv4: None,
                l4: L4Header::None,
                frame_len: self.frame_len,
            };
        }
        let ip_payload = match self.proto {
            IpProto::Udp => UdpHeader::LEN,
            IpProto::Tcp => TcpHeader::LEN,
            _ => 0,
        };
        let total_len =
            (usize::from(self.frame_len) - EthHeader::LEN).max(Ipv4Header::LEN + ip_payload) as u16;
        let ipv4 = Ipv4Header {
            dscp_ecn: 0,
            total_len,
            identification: 0,
            flags_frag: 0x4000, // don't fragment
            ttl: self.ttl,
            proto: self.proto,
            src: self.src_ip,
            dst: self.dst_ip,
        };
        let l4 = match self.proto {
            IpProto::Udp => L4Header::Udp(UdpHeader {
                src_port: self.src_port,
                dst_port: self.dst_port,
                len: total_len - Ipv4Header::LEN as u16,
                checksum: 0,
            }),
            IpProto::Tcp => L4Header::Tcp(TcpHeader {
                src_port: self.src_port,
                dst_port: self.dst_port,
                seq: 0,
                ack: 0,
                flags: self.tcp_flags,
                window: 65535,
                checksum: 0,
                urgent: 0,
            }),
            _ => L4Header::None,
        };
        Packet {
            eth,
            ipv4: Some(ipv4),
            l4,
            frame_len: self.frame_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any bytes parse to a packet or a typed error, never a panic;
        /// `shape` steers some inputs past the Ethernet and IPv4 checks so
        /// the L4 parsers see arbitrary bytes too.
        #[test]
        fn parse_never_panics(
            shape in 0u8..4,
            proto in any::<bool>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..80),
        ) {
            let mut bytes = bytes;
            if shape > 0 && bytes.len() >= 14 {
                bytes[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
            }
            if shape > 1 && bytes.len() >= 15 {
                bytes[14] = 0x45;
            }
            if shape > 2 && bytes.len() >= 24 {
                bytes[23] = if proto { 6 } else { 17 };
            }
            match Packet::parse(&bytes) {
                Ok(p) => prop_assert_eq!(usize::from(p.frame_len), bytes.len()),
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
        }
    }

    #[test]
    fn builder_defaults_are_valid_udp() {
        let p = PacketBuilder::new().build();
        assert_eq!(p.frame_len, MIN_FRAME_LEN);
        assert_eq!(p.field(PacketField::IpProto), 17);
        assert_eq!(p.field(PacketField::EtherType), 0x0800);
        assert!(p.flow().is_some());
    }

    #[test]
    fn wire_roundtrip_udp() {
        let p = PacketBuilder::new()
            .src_ip(Ipv4Addr::new(1, 2, 3, 4))
            .dst_ip(Ipv4Addr::new(9, 8, 7, 6))
            .src_port(123)
            .dst_port(4567)
            .build();
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), usize::from(MIN_FRAME_LEN));
        let q = Packet::parse(&bytes).unwrap();
        assert_eq!(q.field(PacketField::SrcIp), p.field(PacketField::SrcIp));
        assert_eq!(q.field(PacketField::DstIp), p.field(PacketField::DstIp));
        assert_eq!(q.field(PacketField::SrcPort), 123);
        assert_eq!(q.field(PacketField::DstPort), 4567);
        assert!(Ipv4Header::checksum_ok(&bytes[EthHeader::LEN..]));
    }

    #[test]
    fn wire_roundtrip_tcp() {
        let p = PacketBuilder::new()
            .proto(IpProto::Tcp)
            .tcp_flags(TcpHeader::SYN | TcpHeader::ACK)
            .build();
        let q = Packet::parse(&p.to_bytes()).unwrap();
        assert_eq!(
            q.field(PacketField::TcpFlags),
            u64::from(TcpHeader::SYN | TcpHeader::ACK)
        );
        assert_eq!(q.field(PacketField::IpProto), 6);
    }

    #[test]
    fn non_ip_frame_has_no_flow() {
        let p = PacketBuilder::new().ethertype(EtherType::Arp).build();
        assert!(p.ipv4.is_none());
        assert_eq!(p.flow(), None);
        assert_eq!(p.field(PacketField::SrcIp), 0);
        let q = Packet::parse(&p.to_bytes()).unwrap();
        assert_eq!(q.eth.ethertype, EtherType::Arp);
    }

    #[test]
    fn icmp_packet_parses_without_l4() {
        let p = PacketBuilder::new().proto(IpProto::Icmp).build();
        let q = Packet::parse(&p.to_bytes()).unwrap();
        assert_eq!(q.l4, L4Header::None);
        assert_eq!(q.field(PacketField::IpProto), 1);
    }

    #[test]
    fn parse_error_display() {
        assert!(Packet::parse(&[0u8; 4]).is_err());
        let e = Packet::parse(&[0u8; 4]).unwrap_err();
        assert!(e.to_string().contains("Ethernet"));
    }

    #[test]
    fn field_reads_match_builder() {
        let p = PacketBuilder::new()
            .src_ip(Ipv4Addr::new(172, 16, 5, 5))
            .ttl(13)
            .frame_len(128)
            .build();
        assert_eq!(p.field(PacketField::IpTtl), 13);
        assert_eq!(p.field(PacketField::FrameLen), 128);
        assert_eq!(
            p.field(PacketField::SrcIp),
            u64::from(Ipv4Addr::new(172, 16, 5, 5).to_u32())
        );
    }
}
