//! The SoC memory map.
//!
//! Follows the Ariane/CVA6 platform conventions (CLINT at 0x0200_0000,
//! PLIC at 0x0C00_0000, DRAM at 0x8000_0000); the RV-CAP controller's
//! register windows sit in the non-cacheable peripheral space below
//! DRAM, which is what forces the CPU's blocking access behaviour.

/// Boot ROM base (application binaries live here, §III-A).
pub const BOOT_ROM_BASE: u64 = 0x0001_0000;
/// Boot ROM size.
pub const BOOT_ROM_SIZE: u64 = 0x0002_0000; // 128 KiB

/// CLINT base.
pub const CLINT_BASE: u64 = 0x0200_0000;
/// CLINT window size.
pub const CLINT_SIZE: u64 = 0x0001_0000;

rvcap_axi::register_map! {
    /// The CLINT register window (hart-0 subset).
    pub static CLINT_MAP: "clint", size 0x10000 {
        /// `mtimecmp` (hart 0) offset.
        CLINT_MTIMECMP @ 0x4000: 8 RW reset 0xFFFF_FFFF_FFFF_FFFF, "hart-0 timer compare";
        /// `mtime` register offset within the CLINT.
        CLINT_MTIME @ 0xBFF8: 8 RW reset 0x0, "machine timer (5 MHz in the paper)";
    }
}

/// PLIC base.
pub const PLIC_BASE: u64 = 0x0C00_0000;
/// PLIC window size.
pub const PLIC_SIZE: u64 = 0x0040_0000;

rvcap_axi::register_map! {
    /// The PLIC register window (hart-0, sources 1..=31 subset).
    pub static PLIC_MAP: "plic", size 0x400000 {
        /// Pending bitmap (word 0 covers sources 0..32).
        PLIC_PENDING @ 0x1000: 4 RO reset 0x0, "pending bitmap, sources 0..32";
        /// Enable bitmap for hart 0.
        PLIC_ENABLE @ 0x2000: 4 RW reset 0x0, "hart-0 enable bitmap";
        /// Claim/complete register for hart 0.
        PLIC_CLAIM @ 0x200004: 4 RW reset 0x0, "read claims the lowest pending id; write completes";
    }
}

/// UART base.
pub const UART_BASE: u64 = 0x1000_0000;
/// UART window size.
pub const UART_SIZE: u64 = 0x1000;

rvcap_axi::register_map! {
    /// The UART register window (TX-only terminal).
    pub static UART_MAP: "uart", size 0x1000 {
        /// TX data register.
        UART_TX @ 0x0: 4 WO reset 0x0, "TX data; low byte is transmitted";
        /// Status register (bit 0: TX ready).
        UART_STATUS @ 0x4: 4 RO reset 0x1, "bit 0: TX ready (always 1 here)";
    }
}

/// SPI controller base.
pub const SPI_BASE: u64 = 0x2000_0000;
/// SPI window size.
pub const SPI_SIZE: u64 = 0x1000;

rvcap_axi::register_map! {
    /// The SPI controller register window (SD-card link, §III-A).
    pub static SPI_MAP: "spi", size 0x1000 {
        /// TX/RX data register: write starts an 8-bit exchange, read
        /// returns the last received byte.
        SPI_TXRX @ 0x0: 4 RW reset 0x0, "write starts an 8-bit exchange; read returns RX";
        /// Status register (bit 0: busy).
        SPI_STATUS @ 0x4: 4 RO reset 0x0, "bit 0: shifter busy";
        /// Chip-select register (bit 0: CS asserted/low).
        SPI_CS @ 0x8: 4 RW reset 0x0, "bit 0: CS asserted (low)";
        /// Clock divider register (SPI bit time = `div` core cycles).
        SPI_CLKDIV @ 0xC: 4 RW reset 0x1, "SPI bit time in core cycles";
    }
}

/// AXI_HWICAP base (baseline controller, §III-C).
pub const HWICAP_BASE: u64 = 0x4000_0000;
/// HWICAP window size.
pub const HWICAP_SIZE: u64 = 0x1000;

/// RV-CAP DMA register window (Xilinx AXI DMA layout).
pub const DMA_BASE: u64 = 0x4100_0000;
/// DMA window size.
pub const DMA_SIZE: u64 = 0x1000;

/// RP control interface (decouple / status), §III-B ③.
pub const RP_CTRL_BASE: u64 = 0x4101_0000;
/// RP control window size.
pub const RP_CTRL_SIZE: u64 = 0x1000;

/// AXI-Stream switch control (reconfiguration vs acceleration mode).
pub const SWITCH_BASE: u64 = 0x4102_0000;
/// Switch window size.
pub const SWITCH_SIZE: u64 = 0x1000;

/// DDR base.
pub const DDR_BASE: u64 = 0x8000_0000;
/// Default simulated DDR size (enough for several partial bitstreams
/// and two 512×512 frame buffers; configurable in [`crate::ddr`]).
pub const DDR_DEFAULT_SIZE: u64 = 64 * 1024 * 1024;

/// PLIC interrupt source id of the DMA MM2S (read channel) IOC
/// interrupt.
pub const IRQ_DMA_MM2S: u32 = 1;
/// PLIC source id of the DMA S2MM (write channel) IOC interrupt.
pub const IRQ_DMA_S2MM: u32 = 2;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_do_not_overlap() {
        let windows = [
            (BOOT_ROM_BASE, BOOT_ROM_SIZE),
            (CLINT_BASE, CLINT_SIZE),
            (PLIC_BASE, PLIC_SIZE),
            (UART_BASE, UART_SIZE),
            (SPI_BASE, SPI_SIZE),
            (HWICAP_BASE, HWICAP_SIZE),
            (DMA_BASE, DMA_SIZE),
            (RP_CTRL_BASE, RP_CTRL_SIZE),
            (SWITCH_BASE, SWITCH_SIZE),
            (DDR_BASE, DDR_DEFAULT_SIZE),
        ];
        for (i, &(a, asz)) in windows.iter().enumerate() {
            for &(b, bsz) in windows.iter().skip(i + 1) {
                assert!(
                    a + asz <= b || b + bsz <= a,
                    "windows {a:#x}/{b:#x} overlap"
                );
            }
        }
    }
}
