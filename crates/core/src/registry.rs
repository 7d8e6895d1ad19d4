//! The SoC register registry: every MMIO window and its typed map.
//!
//! One table ties each peripheral's bus placement (base/size, as wired
//! into the crossbar by [`crate::system::SocBuilder`]) to its
//! [`RegisterMap`] declaration. The table is the source the generated
//! `REGISTERS.md` and the `DESIGN.md` memory-map section are rendered
//! from, and the cross-check tests walk it to keep drivers, devices
//! and documentation in agreement.

use rvcap_axi::regmap::RegisterMap;
use rvcap_soc::map::{
    CLINT_BASE, CLINT_MAP, CLINT_SIZE, DMA_BASE, DMA_SIZE, HWICAP_BASE, HWICAP_SIZE, PLIC_BASE,
    PLIC_MAP, PLIC_SIZE, RP_CTRL_BASE, RP_CTRL_SIZE, SPI_BASE, SPI_MAP, SPI_SIZE, SWITCH_BASE,
    SWITCH_SIZE, UART_BASE, UART_MAP, UART_SIZE,
};

use crate::dma::DMA_MAP;
use crate::hwicap::HWICAP_MAP;
use crate::rp_ctrl::RP_CTRL_MAP;
use crate::switch_ctrl::SWITCH_CTRL_MAP;

/// One peripheral window: where it sits on the bus and what it holds.
/// The drivers' typed accessors live in [`crate::drivers::regs`].
#[derive(Debug, Clone, Copy)]
pub struct RegWindow {
    /// Bus base address.
    pub base: u64,
    /// Window size in bytes (matches the crossbar region).
    pub size: u64,
    /// The register declaration driving the device decode.
    pub map: &'static RegisterMap,
}

/// The CLINT window.
pub const CLINT: RegWindow = RegWindow {
    base: CLINT_BASE,
    size: CLINT_SIZE,
    map: &CLINT_MAP,
};
/// The PLIC window.
pub const PLIC: RegWindow = RegWindow {
    base: PLIC_BASE,
    size: PLIC_SIZE,
    map: &PLIC_MAP,
};
/// The UART window.
pub const UART: RegWindow = RegWindow {
    base: UART_BASE,
    size: UART_SIZE,
    map: &UART_MAP,
};
/// The SPI window.
pub const SPI: RegWindow = RegWindow {
    base: SPI_BASE,
    size: SPI_SIZE,
    map: &SPI_MAP,
};
/// The AXI_HWICAP window.
pub const HWICAP: RegWindow = RegWindow {
    base: HWICAP_BASE,
    size: HWICAP_SIZE,
    map: &HWICAP_MAP,
};
/// The DMA window.
pub const DMA: RegWindow = RegWindow {
    base: DMA_BASE,
    size: DMA_SIZE,
    map: &DMA_MAP,
};
/// The RP control window.
pub const RP_CTRL: RegWindow = RegWindow {
    base: RP_CTRL_BASE,
    size: RP_CTRL_SIZE,
    map: &RP_CTRL_MAP,
};
/// The stream-switch control window.
pub const SWITCH_CTRL: RegWindow = RegWindow {
    base: SWITCH_BASE,
    size: SWITCH_SIZE,
    map: &SWITCH_CTRL_MAP,
};

/// Every register window of the RV-CAP SoC, in address order.
pub fn windows() -> [RegWindow; 8] {
    [CLINT, PLIC, UART, SPI, HWICAP, DMA, RP_CTRL, SWITCH_CTRL]
}

/// Render the whole memory map as the `REGISTERS.md` document.
pub fn to_markdown() -> String {
    let mut out = String::from(
        "# RV-CAP register map\n\n\
         Generated from the `register_map!` declarations — the same\n\
         tables drive the device decode, the driver accessors and the\n\
         audit counters. Regenerate with\n\
         `cargo run --release -p rvcap-bench --bin regs_md`.\n\n\
         | Base | Size | Device |\n|---|---|---|\n",
    );
    for w in windows() {
        out.push_str(&format!(
            "| `{:#010x}` | `{:#x}` | {} |\n",
            w.base, w.size, w.map.device
        ));
    }
    out.push('\n');
    for w in windows() {
        out.push_str(&format!("Base `{:#010x}`:\n\n", w.base));
        out.push_str(&w.map.to_markdown());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvcap_axi::regmap::Access;

    /// Every map validates, fits its crossbar window, and the decode
    /// mask (window size) matches the declared size — the invariant
    /// that lets devices decode `addr & (size - 1)` regardless of
    /// whether the crossbar hands them offsets or full addresses.
    #[test]
    fn windows_are_consistent_with_maps() {
        for w in windows() {
            w.map.validate();
            assert_eq!(w.size, w.map.size, "{}: crossbar/map size", w.map.device);
            assert!(w.base % w.size == 0, "{}: base unaligned", w.map.device);
        }
    }

    /// The driver-side constants are the device-side declarations:
    /// looking each register up by name yields the offset the drivers
    /// import. One source of truth, checked end to end.
    #[test]
    fn driver_constants_match_declarations() {
        use crate::dma;
        use crate::hwicap;
        use crate::rp_ctrl;
        use crate::switch_ctrl;
        use rvcap_soc::map;

        let cases: &[(&RegisterMap, &str, u64)] = &[
            (&DMA_MAP, "MM2S_DMACR", dma::MM2S_DMACR),
            (&DMA_MAP, "MM2S_DMASR", dma::MM2S_DMASR),
            (&DMA_MAP, "MM2S_SA", dma::MM2S_SA),
            (&DMA_MAP, "MM2S_SA_MSB", dma::MM2S_SA_MSB),
            (&DMA_MAP, "MM2S_LENGTH", dma::MM2S_LENGTH),
            (&DMA_MAP, "S2MM_DMACR", dma::S2MM_DMACR),
            (&DMA_MAP, "S2MM_DMASR", dma::S2MM_DMASR),
            (&DMA_MAP, "S2MM_DA", dma::S2MM_DA),
            (&DMA_MAP, "S2MM_DA_MSB", dma::S2MM_DA_MSB),
            (&DMA_MAP, "S2MM_LENGTH", dma::S2MM_LENGTH),
            (&HWICAP_MAP, "REG_GIE", hwicap::REG_GIE),
            (&HWICAP_MAP, "REG_WF", hwicap::REG_WF),
            (&HWICAP_MAP, "REG_RF", hwicap::REG_RF),
            (&HWICAP_MAP, "REG_SZ", hwicap::REG_SZ),
            (&HWICAP_MAP, "REG_CR", hwicap::REG_CR),
            (&HWICAP_MAP, "REG_SR", hwicap::REG_SR),
            (&HWICAP_MAP, "REG_WFV", hwicap::REG_WFV),
            (&HWICAP_MAP, "REG_RFO", hwicap::REG_RFO),
            (&HWICAP_MAP, "REG_FAR", hwicap::REG_FAR),
            (&RP_CTRL_MAP, "REG_DECOUPLE", rp_ctrl::REG_DECOUPLE),
            (&RP_CTRL_MAP, "REG_STATUS", rp_ctrl::REG_STATUS),
            (&RP_CTRL_MAP, "REG_RM_ID0", rp_ctrl::REG_RM_ID_BASE),
            (&SWITCH_CTRL_MAP, "REG_SELECT", switch_ctrl::REG_SELECT),
            (&SWITCH_CTRL_MAP, "REG_RM_SEL", switch_ctrl::REG_RM_SEL),
            (&CLINT_MAP, "CLINT_MTIME", map::CLINT_MTIME),
            (&CLINT_MAP, "CLINT_MTIMECMP", map::CLINT_MTIMECMP),
            (&PLIC_MAP, "PLIC_PENDING", map::PLIC_PENDING),
            (&PLIC_MAP, "PLIC_ENABLE", map::PLIC_ENABLE),
            (&PLIC_MAP, "PLIC_CLAIM", map::PLIC_CLAIM),
            (&UART_MAP, "UART_TX", map::UART_TX),
            (&UART_MAP, "UART_STATUS", map::UART_STATUS),
            (&SPI_MAP, "SPI_TXRX", map::SPI_TXRX),
            (&SPI_MAP, "SPI_STATUS", map::SPI_STATUS),
            (&SPI_MAP, "SPI_CS", map::SPI_CS),
            (&SPI_MAP, "SPI_CLKDIV", map::SPI_CLKDIV),
        ];
        for &(map, name, offset) in cases {
            let def = map
                .by_name(name)
                .unwrap_or_else(|| panic!("{}: {name} not declared", map.device));
            assert_eq!(def.offset, offset, "{}: {name}", map.device);
        }
        // Nothing declared that the table above misses.
        for w in windows() {
            if w.map.device == "rp_ctrl" {
                // 8 RM_ID registers share one driver-side base const.
                continue;
            }
            let covered = cases
                .iter()
                .filter(|(cm, ..)| cm.device == w.map.device)
                .count();
            assert_eq!(
                covered,
                w.map.regs.len(),
                "{}: cross-check table incomplete",
                w.map.device
            );
        }
    }

    /// The timer and UART maps the drivers hammer keep their documented
    /// access policy — e.g. the claim register stays readable (claim)
    /// and writable (complete).
    #[test]
    fn access_policies_survive() {
        assert_eq!(PLIC.map.by_name("PLIC_CLAIM").unwrap().access, Access::RW);
        assert_eq!(UART.map.by_name("UART_TX").unwrap().access, Access::WO);
        assert_eq!(HWICAP.map.by_name("REG_SR").unwrap().access, Access::RO);
        assert_eq!(DMA.map.by_name("MM2S_DMASR").unwrap().access, Access::W1C);
        assert_eq!(CLINT.map.by_name("CLINT_MTIME").unwrap().width, 8);
    }

    #[test]
    fn markdown_covers_every_register() {
        let md = to_markdown();
        for w in windows() {
            for def in w.map.regs {
                assert!(md.contains(def.name), "{} missing from markdown", def.name);
            }
        }
    }
}
