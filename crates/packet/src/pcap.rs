//! Minimal libpcap (classic `.pcap`, not pcapng) reader and writer.
//!
//! CASTAN's output is a PCAP file that the traffic generator replays; this
//! module writes byte-for-byte valid classic pcap files (magic `0xa1b2c3d4`,
//! link type Ethernet) and reads them back, both from files and in-memory
//! buffers.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::packet::Packet;

/// Classic pcap magic number (microsecond timestamps, native byte order).
const MAGIC: u32 = 0xa1b2_c3d4;
/// LINKTYPE_ETHERNET.
const LINKTYPE_ETHERNET: u32 = 1;

/// Errors produced by the pcap reader.
#[derive(Debug)]
pub enum PcapError {
    /// An underlying I/O error.
    Io(io::Error),
    /// The global header is missing or carries an unsupported magic/linktype.
    BadHeader(&'static str),
    /// A record header or its payload is truncated.
    Truncated,
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapError::BadHeader(why) => write!(f, "bad pcap header: {why}"),
            PcapError::Truncated => f.write_str("truncated pcap record"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

/// A captured record: raw frame bytes plus a microsecond timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PcapRecord {
    /// Seconds part of the timestamp.
    pub ts_sec: u32,
    /// Microseconds part of the timestamp.
    pub ts_usec: u32,
    /// Raw frame bytes.
    pub data: Vec<u8>,
}

/// Serialises frames into a classic pcap byte stream.
pub fn write_pcap_bytes<'a>(frames: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes()); // version major
    out.extend_from_slice(&4u16.to_le_bytes()); // version minor
    out.extend_from_slice(&0u32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&65535u32.to_le_bytes()); // snaplen
    out.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
    for (i, frame) in frames.into_iter().enumerate() {
        // Synthetic timestamps, 1 µs apart: replay tools only need ordering.
        let ts_sec = (i / 1_000_000) as u32;
        let ts_usec = (i % 1_000_000) as u32;
        out.extend_from_slice(&ts_sec.to_le_bytes());
        out.extend_from_slice(&ts_usec.to_le_bytes());
        out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        out.extend_from_slice(frame);
    }
    out
}

/// Writes a pcap file containing the given packets.
pub fn write_pcap_file(path: &Path, packets: &[Packet]) -> Result<(), PcapError> {
    let frames: Vec<Vec<u8>> = packets.iter().map(Packet::to_bytes).collect();
    let bytes = write_pcap_bytes(frames.iter().map(Vec::as_slice));
    let mut f = File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

/// Parses a classic pcap byte stream into records.
pub fn read_pcap_bytes(bytes: &[u8]) -> Result<Vec<PcapRecord>, PcapError> {
    if bytes.len() < 24 {
        return Err(PcapError::BadHeader("shorter than the global header"));
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if magic != MAGIC {
        return Err(PcapError::BadHeader(
            "unsupported magic (expected 0xa1b2c3d4 LE)",
        ));
    }
    let linktype = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    if linktype != LINKTYPE_ETHERNET {
        return Err(PcapError::BadHeader(
            "unsupported link type (expected Ethernet)",
        ));
    }
    let mut records = Vec::new();
    let mut off = 24;
    while off < bytes.len() {
        if off + 16 > bytes.len() {
            return Err(PcapError::Truncated);
        }
        let rd =
            |i: usize| u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        let ts_sec = rd(off);
        let ts_usec = rd(off + 4);
        let incl_len = rd(off + 8) as usize;
        off += 16;
        if off + incl_len > bytes.len() {
            return Err(PcapError::Truncated);
        }
        records.push(PcapRecord {
            ts_sec,
            ts_usec,
            data: bytes[off..off + incl_len].to_vec(),
        });
        off += incl_len;
    }
    Ok(records)
}

/// Reads a pcap file and parses each record into a [`Packet`], skipping
/// records that do not parse (mirroring how the DPDK replay path drops
/// malformed frames).
pub fn read_pcap_file(path: &Path) -> Result<Vec<Packet>, PcapError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let records = read_pcap_bytes(&bytes)?;
    Ok(records
        .iter()
        .filter_map(|r| Packet::parse(&r.data).ok())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ip::Ipv4Addr;
    use crate::packet::PacketBuilder;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever frames are written come back, byte for byte, in order.
        #[test]
        fn written_frames_read_back(
            frames in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..96),
                0..12,
            ),
        ) {
            let bytes = write_pcap_bytes(frames.iter().map(Vec::as_slice));
            let records = read_pcap_bytes(&bytes).unwrap();
            let back: Vec<Vec<u8>> = records.into_iter().map(|r| r.data).collect();
            prop_assert_eq!(back, frames);
        }

        /// Arbitrary bytes — raw, or a valid stream with bytes overwritten
        /// and its tail cut — yield records or a typed error, never a panic.
        #[test]
        fn read_never_panics(
            valid_prefix in any::<bool>(),
            frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..4),
            edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..6),
            cut in any::<u16>(),
            raw in proptest::collection::vec(any::<u8>(), 0..120),
        ) {
            let mut bytes = if valid_prefix {
                write_pcap_bytes(frames.iter().map(Vec::as_slice))
            } else {
                raw
            };
            if !bytes.is_empty() {
                for &(at, value) in &edits {
                    let at = usize::from(at) % bytes.len();
                    bytes[at] = value;
                }
                bytes.truncate(bytes.len() - usize::from(cut) % bytes.len());
            }
            match read_pcap_bytes(&bytes) {
                Ok(records) => {
                    let payload: usize = records.iter().map(|r| 16 + r.data.len()).sum();
                    prop_assert_eq!(24 + payload, bytes.len());
                }
                Err(e) => prop_assert!(!e.to_string().is_empty()),
            }
        }
    }

    fn sample_packets(n: usize) -> Vec<Packet> {
        (0..n)
            .map(|i| {
                PacketBuilder::new()
                    .src_ip(Ipv4Addr(0x0a00_0000 + i as u32))
                    .src_port(1000 + i as u16)
                    .build()
            })
            .collect()
    }

    #[test]
    fn roundtrip_in_memory() {
        let pkts = sample_packets(5);
        let frames: Vec<Vec<u8>> = pkts.iter().map(Packet::to_bytes).collect();
        let bytes = write_pcap_bytes(frames.iter().map(Vec::as_slice));
        let records = read_pcap_bytes(&bytes).unwrap();
        assert_eq!(records.len(), 5);
        for (rec, pkt) in records.iter().zip(&pkts) {
            let parsed = Packet::parse(&rec.data).unwrap();
            assert_eq!(
                parsed.field(crate::PacketField::SrcIp),
                pkt.field(crate::PacketField::SrcIp)
            );
        }
    }

    #[test]
    fn roundtrip_file() {
        let dir = std::env::temp_dir().join("castan-pcap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.pcap");
        let pkts = sample_packets(17);
        write_pcap_file(&path, &pkts).unwrap();
        let back = read_pcap_file(&path).unwrap();
        assert_eq!(back.len(), 17);
        assert_eq!(back[3].field(crate::PacketField::SrcPort), 1003);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_pcap_bytes(&[0u8; 10]),
            Err(PcapError::BadHeader(_))
        ));
        let mut bytes = write_pcap_bytes(std::iter::empty());
        bytes[0] ^= 0xff;
        assert!(matches!(
            read_pcap_bytes(&bytes),
            Err(PcapError::BadHeader(_))
        ));
    }

    #[test]
    fn detects_truncation() {
        let pkts = sample_packets(2);
        let frames: Vec<Vec<u8>> = pkts.iter().map(Packet::to_bytes).collect();
        let bytes = write_pcap_bytes(frames.iter().map(Vec::as_slice));
        let truncated = &bytes[..bytes.len() - 10];
        assert!(matches!(
            read_pcap_bytes(truncated),
            Err(PcapError::Truncated)
        ));
    }

    #[test]
    fn timestamps_are_monotonic() {
        let pkts = sample_packets(3);
        let frames: Vec<Vec<u8>> = pkts.iter().map(Packet::to_bytes).collect();
        let recs = read_pcap_bytes(&write_pcap_bytes(frames.iter().map(Vec::as_slice))).unwrap();
        for w in recs.windows(2) {
            let a = (u64::from(w[0].ts_sec), w[0].ts_usec);
            let b = (u64::from(w[1].ts_sec), w[1].ts_usec);
            assert!(a < b);
        }
    }
}
