//! The partial-bitstream format: packetized configuration commands.
//!
//! Modelled on the 7-series configuration packets (UG470): a sync
//! word, type-1 register writes (CMD, IDCODE, FAR, CRC) and a type-2
//! bulk write carrying the FDRI frame payload. The layout is fixed at
//! **12 overhead words** around the payload:
//!
//! ```text
//! word  0        SYNC                      0xAA995566
//! word  1..2     T1 write CMD   ← RCRC     (reset CRC)
//! word  3..4     T1 write IDCODE ← device id
//! word  5..6     T1 write FAR   ← frame address of the target RP
//! word  7        T2 write FDRI, count = frames × 101
//! word  8..8+N   frame payload (N = frames × 101)
//! word  8+N..9+N T1 write CRC   ← crc of every word after RCRC
//! word 10+N..11+N T1 write CMD  ← DESYNC
//! ```
//!
//! Hence `size_bytes = (frames × 101 + 12) × 4`. The paper's RP
//! produces a 650 892-byte partial bitstream (§IV-A); with this format
//! that is exactly **1611 frames** — the default geometry of
//! [`crate::rp::RpGeometry::paper_rp`].
//!
//! This module builds bitstreams; it does not check them. The ICAP FSM
//! ([`crate::icap`]) is the one validator, on the path every load
//! takes, and [`crate::icap::IcapAbort`] names what it rejects.

use crate::config_mem::FRAME_WORDS;
use crate::crc::Crc32;

/// Configuration sync word (UG470 value).
pub const SYNC_WORD: u32 = 0xAA99_5566;

/// Device IDCODE used by the simulated Kintex-7 XC7K325T.
pub const KINTEX7_IDCODE: u32 = 0x0364_7093;

/// Configuration register addresses (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigReg {
    /// CRC check register.
    Crc = 0x00,
    /// Frame address register.
    Far = 0x01,
    /// Frame data input register.
    Fdri = 0x02,
    /// Command register.
    Cmd = 0x04,
    /// Device id check.
    Idcode = 0x0C,
}

impl ConfigReg {
    /// Decode a register address.
    pub fn from_addr(addr: u32) -> Option<ConfigReg> {
        Some(match addr {
            0x00 => ConfigReg::Crc,
            0x01 => ConfigReg::Far,
            0x02 => ConfigReg::Fdri,
            0x04 => ConfigReg::Cmd,
            0x0C => ConfigReg::Idcode,
            _ => return None,
        })
    }
}

/// Command-register values (subset).
pub mod cmd {
    /// Reset the CRC accumulator.
    pub const RCRC: u32 = 0x7;
    /// Desynchronize: end of bitstream.
    pub const DESYNC: u32 = 0xD;
}

/// Build a type-1 packet header (write op).
pub fn type1_write(reg: ConfigReg, count: u32) -> u32 {
    debug_assert!(count <= 0x7FF);
    (0b001 << 29) | (0b10 << 27) | ((reg as u32) << 13) | count
}

/// Build a type-2 packet header (write op, register carried over from
/// context — always FDRI in this format).
pub fn type2_write(count: u32) -> u32 {
    debug_assert!(count <= 0x07FF_FFFF);
    (0b010 << 29) | (0b10 << 27) | count
}

/// Packet-header classification used by the ICAP FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packet {
    /// Type-1 write to `reg` of `count` following words.
    Type1Write {
        /// Target register.
        reg: ConfigReg,
        /// Number of data words that follow.
        count: u32,
    },
    /// Type-2 bulk write of `count` words to FDRI.
    Type2Write {
        /// Number of payload words that follow.
        count: u32,
    },
    /// A NOP (type-1, op = 00).
    Noop,
}

/// Decode one packet header word: `None` for an unknown type/op
/// combination or an unmodelled register.
pub fn decode_header(word: u32) -> Option<Packet> {
    let ty = word >> 29;
    let op = (word >> 27) & 0b11;
    match (ty, op) {
        (0b001, 0b00) => Some(Packet::Noop),
        (0b001, 0b10) => Some(Packet::Type1Write {
            reg: ConfigReg::from_addr((word >> 13) & 0x3FFF)?,
            count: word & 0x7FF,
        }),
        (0b010, 0b10) => Some(Packet::Type2Write {
            count: word & 0x07FF_FFFF,
        }),
        _ => None,
    }
}

/// A built partial bitstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstream {
    words: Vec<u32>,
}

impl Bitstream {
    /// The configuration words, in stream order.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Serialize to bytes (little-endian words — the order the DMA
    /// fetches them from DDR and the AXIS2ICAP block forwards them).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 4);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Expected size in bytes of a partial bitstream covering `frames`
    /// frames: `(frames × 101 + 12) × 4`.
    pub fn size_for_frames(frames: usize) -> usize {
        (frames * FRAME_WORDS + OVERHEAD_WORDS) * 4
    }
}

/// Fixed per-bitstream overhead in words (see module docs).
pub const OVERHEAD_WORDS: usize = 12;

/// Builds partial bitstreams for a target device.
#[derive(Debug, Clone)]
pub struct BitstreamBuilder {
    idcode: u32,
}

impl BitstreamBuilder {
    /// Builder for a device with the given IDCODE.
    pub fn new(idcode: u32) -> Self {
        BitstreamBuilder { idcode }
    }

    /// Builder for the simulated Kintex-7.
    pub fn kintex7() -> Self {
        BitstreamBuilder::new(KINTEX7_IDCODE)
    }

    /// Build a partial bitstream writing `payload` (a whole number of
    /// frames) starting at frame address `far_base`.
    pub fn partial(&self, far_base: u32, payload: &[u32]) -> Bitstream {
        assert!(
            payload.len().is_multiple_of(FRAME_WORDS) && !payload.is_empty(),
            "payload must be a positive whole number of {FRAME_WORDS}-word frames, got {}",
            payload.len()
        );
        let mut words = Vec::with_capacity(payload.len() + OVERHEAD_WORDS);
        words.push(SYNC_WORD);
        words.push(type1_write(ConfigReg::Cmd, 1));
        words.push(cmd::RCRC);
        words.push(type1_write(ConfigReg::Idcode, 1));
        words.push(self.idcode);
        words.push(type1_write(ConfigReg::Far, 1));
        words.push(far_base);
        words.push(type2_write(payload.len() as u32));
        words.extend_from_slice(payload);
        // The CRC covers every word after the RCRC command — packet
        // headers included — so corruption of *any* command between
        // RCRC and the CRC check is detected, not just payload flips.
        let mut crc = Crc32::new();
        crc.update_words(&words[3..]);
        words.push(type1_write(ConfigReg::Crc, 1));
        words.push(crc.value());
        words.push(type1_write(ConfigReg::Cmd, 1));
        words.push(cmd::DESYNC);
        debug_assert_eq!(words.len(), payload.len() + OVERHEAD_WORDS);
        Bitstream { words }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bitstream_size_is_exact() {
        // 1611 frames → the paper's 650 892-byte partial bitstream.
        assert_eq!(Bitstream::size_for_frames(1611), 650_892);
        let bs = BitstreamBuilder::kintex7().partial(100, &vec![0; 1611 * FRAME_WORDS]);
        assert_eq!(bs.len_bytes(), 650_892);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_payload_rejected_at_build() {
        BitstreamBuilder::kintex7().partial(0, &[1, 2, 3]);
    }

    #[test]
    fn header_encode_decode() {
        let h = type1_write(ConfigReg::Far, 1);
        assert_eq!(
            decode_header(h),
            Some(Packet::Type1Write {
                reg: ConfigReg::Far,
                count: 1
            })
        );
        let h2 = type2_write(162_711);
        assert_eq!(
            decode_header(h2),
            Some(Packet::Type2Write { count: 162_711 })
        );
        assert_eq!(decode_header(0xFFFF_FFFF), None);
    }
}
