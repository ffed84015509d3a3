//! Link/network/transport header parsing: raw frames → 5-tuples.
//!
//! The decoder understands Ethernet II (with up to two stacked 802.1Q
//! VLAN tags), IPv4, IPv6 (with the common extension headers), TCP and
//! UDP. Anything else — ARP, ICMP, fragments past the first, exotic
//! link types — decodes to `None` rather than an error: real captures
//! are full of such traffic and the demultiplexer simply counts it.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// The transport protocol of a demultiplexed flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Transport {
    /// IPv4/IPv6 protocol number 6.
    Tcp,
    /// IPv4/IPv6 protocol number 17.
    Udp,
}

impl Transport {
    /// The IP protocol number.
    pub const fn protocol_number(self) -> u8 {
        match self {
            Transport::Tcp => 6,
            Transport::Udp => 17,
        }
    }
}

impl fmt::Display for Transport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Transport::Tcp => write!(f, "tcp"),
            Transport::Udp => write!(f, "udp"),
        }
    }
}

/// The classic unidirectional flow key: addresses, ports, protocol.
///
/// `Hash` is written by hand to feed a hasher few, wide words: an IPv4
/// pair hashes as two `u64`s (both addresses, then ports and protocol);
/// any other pair as two `u128` addresses plus the ports word. The
/// demux's keyed hasher takes one multiply per pair of words and one
/// to finish, so a v4 tuple costs it two multiplies and a v6 tuple
/// four. Tuples are wire input: index them only with a keyed hasher.
/// Equal tuples take the same branch with the same words, so it agrees
/// with the derived `Eq`. A v4 tuple and its v4-mapped v6 twin are
/// distinct keys, as `Eq` says.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source address.
    pub src: IpAddr,
    /// Destination address.
    pub dst: IpAddr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Transport protocol.
    pub transport: Transport,
}

impl FiveTuple {
    /// A v4 TCP tuple (the common case in tests and exports).
    pub const fn tcp_v4(src: [u8; 4], src_port: u16, dst: [u8; 4], dst_port: u16) -> Self {
        FiveTuple {
            src: IpAddr::V4(Ipv4Addr::new(src[0], src[1], src[2], src[3])),
            dst: IpAddr::V4(Ipv4Addr::new(dst[0], dst[1], dst[2], dst[3])),
            src_port,
            dst_port,
            transport: Transport::Tcp,
        }
    }

    /// A v4 UDP tuple.
    pub const fn udp_v4(src: [u8; 4], src_port: u16, dst: [u8; 4], dst_port: u16) -> Self {
        FiveTuple {
            src: IpAddr::V4(Ipv4Addr::new(src[0], src[1], src[2], src[3])),
            dst: IpAddr::V4(Ipv4Addr::new(dst[0], dst[1], dst[2], dst[3])),
            src_port,
            dst_port,
            transport: Transport::Udp,
        }
    }
}

impl Hash for FiveTuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ports = u64::from(self.src_port) << 32
            | u64::from(self.dst_port) << 16
            | u64::from(self.transport.protocol_number());
        match (self.src, self.dst) {
            (IpAddr::V4(src), IpAddr::V4(dst)) => {
                state.write_u64(u64::from(src.to_bits()) << 32 | u64::from(dst.to_bits()));
            }
            (src, dst) => {
                state.write_u128(addr_bits(src));
                state.write_u128(addr_bits(dst));
            }
        }
        state.write_u64(ports);
    }
}

/// An address as one integer, IPv4 zero-extended.
fn addr_bits(addr: IpAddr) -> u128 {
    match addr {
        IpAddr::V4(v4) => u128::from(v4.to_bits()),
        IpAddr::V6(v6) => v6.to_bits(),
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{}/{}",
            self.src, self.src_port, self.dst, self.dst_port, self.transport
        )
    }
}

/// Link-layer framing of a capture, from the pcap `network` field /
/// pcapng IDB `linktype`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkType {
    /// LINKTYPE_NULL (0): 4-byte host-order AF header, then IP.
    Null,
    /// LINKTYPE_ETHERNET (1).
    Ethernet,
    /// LINKTYPE_RAW (101): bare IPv4/IPv6 packets.
    RawIp,
    /// LINKTYPE_LOOP (108): like `Null` with a network-order header.
    Loop,
}

impl LinkType {
    /// Maps a pcap/pcapng link-type number, or reports it unsupported.
    pub fn from_wire(raw: u32) -> Result<Self, crate::error::IngestError> {
        match raw {
            0 => Ok(LinkType::Null),
            1 => Ok(LinkType::Ethernet),
            101 => Ok(LinkType::RawIp),
            108 => Ok(LinkType::Loop),
            other => Err(crate::error::IngestError::UnsupportedLinkType(other)),
        }
    }

    /// The wire number used when writing captures.
    pub const fn to_wire(self) -> u32 {
        match self {
            LinkType::Null => 0,
            LinkType::Ethernet => 1,
            LinkType::RawIp => 101,
            LinkType::Loop => 108,
        }
    }
}

const ETHERTYPE_IPV4: u16 = 0x0800;
const ETHERTYPE_IPV6: u16 = 0x86DD;
const ETHERTYPE_VLAN: u16 = 0x8100;
const ETHERTYPE_QINQ: u16 = 0x88A8;

/// Decodes a captured frame down to its transport 5-tuple.
///
/// Returns `None` for anything that is not a first-fragment TCP or UDP
/// packet over IPv4/IPv6 — the caller counts such packets as ignored.
pub fn decode_frame(link: LinkType, frame: &[u8]) -> Option<FiveTuple> {
    match link {
        LinkType::Ethernet => decode_ethernet(frame),
        LinkType::RawIp => decode_ip(frame),
        LinkType::Null | LinkType::Loop => decode_ip(frame.get(4..)?),
    }
}

fn decode_ethernet(frame: &[u8]) -> Option<FiveTuple> {
    let mut ethertype = u16::from_be_bytes([*frame.get(12)?, *frame.get(13)?]);
    let mut payload = frame.get(14..)?;
    // Peel up to two stacked VLAN tags (802.1Q / 802.1ad).
    for _ in 0..2 {
        if ethertype != ETHERTYPE_VLAN && ethertype != ETHERTYPE_QINQ {
            break;
        }
        ethertype = u16::from_be_bytes([*payload.get(2)?, *payload.get(3)?]);
        payload = payload.get(4..)?;
    }
    match ethertype {
        ETHERTYPE_IPV4 => decode_ipv4(payload),
        ETHERTYPE_IPV6 => decode_ipv6(payload),
        _ => None,
    }
}

fn decode_ip(packet: &[u8]) -> Option<FiveTuple> {
    match packet.first()? >> 4 {
        4 => decode_ipv4(packet),
        6 => decode_ipv6(packet),
        _ => None,
    }
}

fn decode_ipv4(packet: &[u8]) -> Option<FiveTuple> {
    let first = *packet.first()?;
    if first >> 4 != 4 {
        return None;
    }
    let header_len = usize::from(first & 0x0F) * 4;
    if header_len < 20 || packet.len() < header_len {
        return None;
    }
    // Only the first fragment carries the transport header.
    let frag = u16::from_be_bytes([packet[6], packet[7]]);
    if frag & 0x1FFF != 0 {
        return None;
    }
    let protocol = packet[9];
    let src = IpAddr::V4(Ipv4Addr::new(
        packet[12], packet[13], packet[14], packet[15],
    ));
    let dst = IpAddr::V4(Ipv4Addr::new(
        packet[16], packet[17], packet[18], packet[19],
    ));
    ports(protocol, packet.get(header_len..)?).map(|(transport, src_port, dst_port)| FiveTuple {
        src,
        dst,
        src_port,
        dst_port,
        transport,
    })
}

fn decode_ipv6(packet: &[u8]) -> Option<FiveTuple> {
    if packet.len() < 40 || packet[0] >> 4 != 6 {
        return None;
    }
    let mut sixteen = [0u8; 16];
    sixteen.copy_from_slice(&packet[8..24]);
    let src = IpAddr::V6(Ipv6Addr::from(sixteen));
    sixteen.copy_from_slice(&packet[24..40]);
    let dst = IpAddr::V6(Ipv6Addr::from(sixteen));
    let mut next = packet[6];
    let mut rest = packet.get(40..)?;
    // Walk the common extension-header chain (bounded: a hostile
    // capture cannot loop us).
    for _ in 0..8 {
        match next {
            // hop-by-hop, routing, destination options: length in
            // 8-byte units excluding the first 8.
            0 | 43 | 60 => {
                let len = 8 + usize::from(*rest.get(1)?) * 8;
                next = *rest.first()?;
                rest = rest.get(len..)?;
            }
            // fragment header: fixed 8 bytes, only offset 0 has ports.
            44 => {
                let offset = u16::from_be_bytes([*rest.get(2)?, *rest.get(3)?]) >> 3;
                if offset != 0 {
                    return None;
                }
                next = *rest.first()?;
                rest = rest.get(8..)?;
            }
            _ => break,
        }
    }
    ports(next, rest).map(|(transport, src_port, dst_port)| FiveTuple {
        src,
        dst,
        src_port,
        dst_port,
        transport,
    })
}

fn ports(protocol: u8, segment: &[u8]) -> Option<(Transport, u16, u16)> {
    let transport = match protocol {
        6 => Transport::Tcp,
        17 => Transport::Udp,
        _ => return None,
    };
    let src = u16::from_be_bytes([*segment.first()?, *segment.get(1)?]);
    let dst = u16::from_be_bytes([*segment.get(2)?, *segment.get(3)?]);
    Some((transport, src, dst))
}

const ETHERNET_LEN: u32 = 14;
const IPV4_LEN: u32 = 20;
const IPV6_LEN: u32 = 40;
const UDP_LEN: u32 = 8;
const TCP_LEN: u32 = 20;

/// The smallest Ethernet frame that can carry `tuple`'s headers; the
/// floor a written packet's wire length must meet.
pub fn min_frame_len(tuple: &FiveTuple) -> u32 {
    let ip = match tuple.src {
        IpAddr::V4(_) => IPV4_LEN,
        IpAddr::V6(_) => IPV6_LEN,
    };
    let transport = match tuple.transport {
        Transport::Tcp => TCP_LEN,
        Transport::Udp => UDP_LEN,
    };
    ETHERNET_LEN + ip + transport
}

/// Builds an Ethernet frame of exactly `wire_len` bytes carrying
/// `tuple`'s headers and a zero-filled payload.
///
/// Checksums are left zero — the stepstone readers (and tcpdump) do not
/// verify them, and synthesising valid ones would add nothing to the
/// timing-only round-trip.
///
/// Returns `None` when `wire_len` is below [`min_frame_len`].
pub fn build_frame(tuple: &FiveTuple, wire_len: u32) -> Option<Vec<u8>> {
    let min = min_frame_len(tuple);
    if wire_len < min {
        return None;
    }
    let total = wire_len as usize;
    let mut frame = vec![0u8; total];
    // Ethernet: locally-administered MACs derived from the ports so
    // frames look plausible in external tools.
    frame[0..6].copy_from_slice(&[0x02, 0, 0, 0, tuple.dst_port.to_be_bytes()[0], 1]);
    frame[6..12].copy_from_slice(&[0x02, 0, 0, 0, tuple.src_port.to_be_bytes()[0], 2]);
    let ip_total = (wire_len - ETHERNET_LEN) as u16;
    let transport_offset;
    match (tuple.src, tuple.dst) {
        (IpAddr::V4(src), IpAddr::V4(dst)) => {
            frame[12..14].copy_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
            let ip = &mut frame[14..34];
            ip[0] = 0x45;
            ip[2..4].copy_from_slice(&ip_total.to_be_bytes());
            ip[8] = 64;
            ip[9] = tuple.transport.protocol_number();
            ip[12..16].copy_from_slice(&src.octets());
            ip[16..20].copy_from_slice(&dst.octets());
            transport_offset = (ETHERNET_LEN + IPV4_LEN) as usize;
        }
        (IpAddr::V6(src), IpAddr::V6(dst)) => {
            frame[12..14].copy_from_slice(&ETHERTYPE_IPV6.to_be_bytes());
            let payload_len = ip_total - IPV6_LEN as u16;
            let ip = &mut frame[14..54];
            ip[0] = 0x60;
            ip[4..6].copy_from_slice(&payload_len.to_be_bytes());
            ip[6] = tuple.transport.protocol_number();
            ip[7] = 64;
            ip[8..24].copy_from_slice(&src.octets());
            ip[24..40].copy_from_slice(&dst.octets());
            transport_offset = (ETHERNET_LEN + IPV6_LEN) as usize;
        }
        // Mixed address families cannot share one IP header.
        _ => return None,
    }
    let t = &mut frame[transport_offset..];
    t[0..2].copy_from_slice(&tuple.src_port.to_be_bytes());
    t[2..4].copy_from_slice(&tuple.dst_port.to_be_bytes());
    match tuple.transport {
        Transport::Udp => {
            let udp_len = (total - transport_offset) as u16;
            t[4..6].copy_from_slice(&udp_len.to_be_bytes());
        }
        Transport::Tcp => {
            // Data offset 5 (no options), ACK set.
            t[12] = 5 << 4;
            t[13] = 0x10;
        }
    }
    Some(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ethernet_udp_v4_roundtrips() {
        let tuple = FiveTuple::udp_v4([10, 0, 0, 1], 4000, [10, 0, 0, 2], 53);
        let frame = build_frame(&tuple, 64).unwrap();
        assert_eq!(frame.len(), 64);
        assert_eq!(decode_frame(LinkType::Ethernet, &frame), Some(tuple));
    }

    #[test]
    fn ethernet_tcp_v4_roundtrips() {
        let tuple = FiveTuple::tcp_v4([192, 168, 1, 9], 50_000, [172, 16, 0, 1], 22);
        let frame = build_frame(&tuple, 60).unwrap();
        assert_eq!(decode_frame(LinkType::Ethernet, &frame), Some(tuple));
    }

    #[test]
    fn ipv6_tcp_roundtrips() {
        let tuple = FiveTuple {
            src: "2001:db8::1".parse().unwrap(),
            dst: "2001:db8::2".parse().unwrap(),
            src_port: 1234,
            dst_port: 22,
            transport: Transport::Tcp,
        };
        let frame = build_frame(&tuple, min_frame_len(&tuple)).unwrap();
        assert_eq!(decode_frame(LinkType::Ethernet, &frame), Some(tuple));
    }

    #[test]
    fn vlan_tags_are_peeled() {
        let tuple = FiveTuple::udp_v4([10, 0, 0, 1], 1, [10, 0, 0, 2], 2);
        let plain = build_frame(&tuple, 64).unwrap();
        // Splice one 802.1Q tag after the MACs.
        let mut tagged = plain[..12].to_vec();
        tagged.extend_from_slice(&ETHERTYPE_VLAN.to_be_bytes());
        tagged.extend_from_slice(&[0x00, 0x2A]); // VID 42
        tagged.extend_from_slice(&plain[12..]);
        assert_eq!(decode_frame(LinkType::Ethernet, &tagged), Some(tuple));
    }

    #[test]
    fn raw_and_null_link_types_decode() {
        let tuple = FiveTuple::udp_v4([1, 2, 3, 4], 5, [6, 7, 8, 9], 10);
        let frame = build_frame(&tuple, 64).unwrap();
        let ip = &frame[14..];
        assert_eq!(decode_frame(LinkType::RawIp, ip), Some(tuple));
        let mut with_af = vec![2, 0, 0, 0];
        with_af.extend_from_slice(ip);
        assert_eq!(decode_frame(LinkType::Null, &with_af), Some(tuple));
        assert_eq!(decode_frame(LinkType::Loop, &with_af), Some(tuple));
    }

    #[test]
    fn non_ip_and_non_transport_traffic_is_ignored() {
        // ARP ethertype.
        let mut arp = vec![0u8; 60];
        arp[12] = 0x08;
        arp[13] = 0x06;
        assert_eq!(decode_frame(LinkType::Ethernet, &arp), None);
        // ICMP over IPv4.
        let tuple = FiveTuple::udp_v4([1, 1, 1, 1], 1, [2, 2, 2, 2], 2);
        let mut icmp = build_frame(&tuple, 64).unwrap();
        icmp[23] = 1; // protocol = ICMP
        assert_eq!(decode_frame(LinkType::Ethernet, &icmp), None);
        // Non-first IPv4 fragment.
        let mut frag = build_frame(&tuple, 64).unwrap();
        frag[20] = 0x00;
        frag[21] = 0x08; // fragment offset 8
        assert_eq!(decode_frame(LinkType::Ethernet, &frag), None);
    }

    #[test]
    fn truncated_frames_are_ignored_not_panicking() {
        let tuple = FiveTuple::tcp_v4([9, 9, 9, 9], 1, [8, 8, 8, 8], 2);
        let frame = build_frame(&tuple, 60).unwrap();
        for cut in 0..frame.len() {
            // Every prefix decodes to Some or None, never a panic.
            let _ = decode_frame(LinkType::Ethernet, &frame[..cut]);
        }
    }

    #[test]
    fn frames_below_the_minimum_are_refused() {
        let tuple = FiveTuple::udp_v4([1, 2, 3, 4], 5, [6, 7, 8, 9], 10);
        assert_eq!(min_frame_len(&tuple), 42);
        assert!(build_frame(&tuple, 41).is_none());
        assert!(build_frame(&tuple, 42).is_some());
        let mixed = FiveTuple {
            src: "10.0.0.1".parse().unwrap(),
            dst: "2001:db8::2".parse().unwrap(),
            src_port: 1,
            dst_port: 2,
            transport: Transport::Udp,
        };
        assert!(build_frame(&mixed, 100).is_none());
    }

    #[test]
    fn link_type_numbers_roundtrip() {
        for lt in [
            LinkType::Null,
            LinkType::Ethernet,
            LinkType::RawIp,
            LinkType::Loop,
        ] {
            assert_eq!(LinkType::from_wire(lt.to_wire()).unwrap(), lt);
        }
        assert!(LinkType::from_wire(147).is_err());
    }

    #[test]
    fn tuple_display_reads_naturally() {
        let t = FiveTuple::tcp_v4([10, 0, 0, 1], 4000, [10, 0, 0, 2], 22);
        assert_eq!(t.to_string(), "10.0.0.1:4000 -> 10.0.0.2:22/tcp");
    }

    /// Addresses that are close in every encoding: a v4 address, its
    /// v4-mapped and v4-compatible v6 forms (unequal to it, but alike
    /// in their low bits), another v4 address and two v6 ones.
    fn address(k: usize) -> IpAddr {
        [
            "10.0.0.1",
            "::ffff:10.0.0.1",
            "::10.0.0.1",
            "10.0.0.2",
            "2001:db8::1",
            "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
        ][k]
            .parse()
            .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn equal_tuples_hash_equally_under_a_keyed_hasher(
            parts in proptest::collection::vec(
                (0usize..6, 0usize..6, 0u16..3, 0u16..3, proptest::bool::ANY),
                1..48,
            ),
        ) {
            use std::collections::{BTreeSet, HashSet};
            use std::hash::BuildHasher;
            // Small domains, so equal tuples are drawn often.
            let tuples: Vec<FiveTuple> = parts
                .iter()
                .map(|&(src, dst, src_port, dst_port, tcp)| FiveTuple {
                    src: address(src),
                    dst: address(dst),
                    src_port,
                    dst_port,
                    transport: if tcp { Transport::Tcp } else { Transport::Udp },
                })
                .collect();
            let keyed = crate::hasher::BuildTupleHasher::default();
            for a in &tuples {
                for b in &tuples {
                    proptest::prop_assert!(a != b || keyed.hash_one(a) == keyed.hash_one(b));
                }
            }
            // A hash that split equal keys would leave duplicates here.
            let mut hashed = HashSet::with_hasher(keyed);
            hashed.extend(tuples.iter().copied());
            let ordered: BTreeSet<FiveTuple> = tuples.iter().copied().collect();
            proptest::prop_assert_eq!(hashed.len(), ordered.len());
        }
    }
}
