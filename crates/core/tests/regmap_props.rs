//! Property tests over every registered register file.
//!
//! The registry ties each peripheral window to its `register_map!`
//! declaration; these properties fuzz the decode path of all eight
//! maps at once. Whatever the request — unmapped, misaligned inside a
//! register's span, overwide, or against the access policy — decode
//! must classify it exactly as the declaration says, never panic, and
//! a rejected request must surface as an audit violation while leaving
//! device state untouched.

use proptest::prelude::*;
use rvcap_axi::mm::MmReq;
use rvcap_axi::regmap::{lane_mask, Access, Decoded, RegisterFile};
use rvcap_core::registry;

/// What the declaration says should happen to a single-beat access.
fn should_accept(map: &rvcap_axi::regmap::RegisterMap, off: u64, bytes: u8, write: bool) -> bool {
    match map.lookup(off) {
        None => false,
        Some(def) => {
            bytes <= def.width
                && if write {
                    def.access != Access::RO
                } else {
                    def.access != Access::WO
                }
        }
    }
}

proptest! {
    /// Random single-beat traffic against all eight maps: decode
    /// matches the declaration, accepted writes are masked to the
    /// accessed byte lanes, and nothing panics.
    #[test]
    fn decode_matches_declarations(
        addr in any::<u64>(),
        bytes in 1u8..=8,
        write in any::<bool>(),
        value in any::<u64>(),
    ) {
        for w in registry::windows() {
            let mut f = RegisterFile::new(w.map);
            let off = addr % w.map.size;
            let req = if write {
                MmReq::write(off, value, bytes)
            } else {
                MmReq::read(off, bytes)
            };
            let expected = should_accept(w.map, off, bytes, write);
            match f.decode(&req) {
                Decoded::Reject => {
                    prop_assert!(!expected, "{}: {off:#x}/{bytes} rejected", w.map.device);
                    prop_assert_eq!(f.audit().violations(), 1);
                }
                Decoded::Write { def, value: v, bytes: b } => {
                    prop_assert!(expected && write, "{}: {off:#x}", w.map.device);
                    prop_assert_eq!(def.offset, off);
                    prop_assert_eq!(b, bytes);
                    // Only the accessed byte lanes may carry data into
                    // the device hook (narrow W1C stores must not
                    // clear bits they never addressed).
                    prop_assert_eq!(v, value & lane_mask(bytes) & def.mask());
                    prop_assert_eq!(f.audit().violations(), 0);
                }
                Decoded::Read { def, bytes: b } => {
                    prop_assert!(expected && !write, "{}: {off:#x}", w.map.device);
                    prop_assert_eq!(def.offset, off);
                    prop_assert_eq!(b, bytes);
                    prop_assert_eq!(f.audit().violations(), 0);
                }
            }
        }
    }

    /// Bursts are never register traffic: every map rejects them at
    /// any offset.
    #[test]
    fn bursts_always_reject(addr in any::<u64>(), beats in 1u16..=16) {
        for w in registry::windows() {
            let mut f = RegisterFile::new(w.map);
            let off = addr % w.map.size;
            prop_assert_eq!(
                f.decode(&MmReq::read_burst(off, beats, 4)),
                Decoded::Reject,
                "{}: burst at {off:#x} accepted", w.map.device
            );
        }
    }
}

/// The same guarantees hold end to end: a bad access through the CPU
/// port returns a bus error (no panic), and the device state it aimed
/// at stays untouched and usable.
#[test]
fn bad_accesses_error_and_leave_devices_usable() {
    use rvcap_core::dma::MM2S_SA;
    use rvcap_core::system::SocBuilder;
    use rvcap_soc::map::{DMA_BASE, UART_BASE, UART_STATUS, UART_TX};

    let mut soc = SocBuilder::new().build();
    let core = &mut soc.core;

    // Unmapped offset in every window (the last word of each window is
    // declared by none of the eight maps).
    for w in registry::windows() {
        let off = w.size - 4;
        assert!(
            w.map.lookup(off).is_none(),
            "{}: pick a free offset",
            w.map.device
        );
        assert!(
            core.try_mmio_read(w.base + off, 4).is_err(),
            "{}: unmapped read did not error",
            w.map.device
        );
    }

    // Policy violations: RO write, WO read.
    assert!(core.try_mmio_write(UART_BASE + UART_STATUS, 1, 4).is_err());
    assert!(core.try_mmio_read(UART_BASE + UART_TX, 4).is_err());

    // Misaligned write inside a register's span must not alter it.
    core.write_reg(DMA_BASE + MM2S_SA, 0x1234_5678);
    assert!(core
        .try_mmio_write(DMA_BASE + MM2S_SA + 2, 0xFF, 2)
        .is_err());
    assert_eq!(core.read_reg(DMA_BASE + MM2S_SA), 0x1234_5678);

    // The UART still works after all of the above.
    core.write_reg(UART_BASE + UART_TX, b'!' as u32);
    assert_eq!(core.read_reg(UART_BASE + UART_STATUS), 1);
}
