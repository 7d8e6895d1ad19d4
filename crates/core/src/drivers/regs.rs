//! Typed register access for the drivers.
//!
//! The drivers name each peripheral by its window constant in
//! [`crate::registry`] — a [`RegWindow`] pairing the bus base with the
//! [`RegisterMap`](rvcap_axi::regmap::RegisterMap) declaration — and
//! access it through the methods below. Every access thus resolves
//! through the same table the device decodes with: the access width
//! comes from the declaration (no more hard-coded `4`s and `8`s), the
//! offset must be a declared register, and debug builds assert the
//! direction against the declared policy. The cost model is untouched
//! — each call is exactly one [`SocCore`] MMIO round trip.

use rvcap_axi::regmap::RegDef;
use rvcap_soc::SocCore;

use crate::registry::RegWindow;

impl RegWindow {
    /// The declaration behind `offset`; panics on an undeclared
    /// offset — drivers never guess at the map.
    pub fn def(&self, offset: u64) -> &'static RegDef {
        self.map
            .lookup(offset)
            .unwrap_or_else(|| panic!("{}: no register at {offset:#x}", self.map.device))
    }

    /// Read a register at its declared width.
    pub fn read(&self, core: &mut SocCore, offset: u64) -> u64 {
        let def = self.def(offset);
        debug_assert!(
            def.access.readable(),
            "{}: read of WO {}",
            self.map.device,
            def.name
        );
        core.mmio_read(self.base + offset, def.width)
    }

    /// Write a register at its declared width.
    pub fn write(&self, core: &mut SocCore, offset: u64, value: u64) {
        let def = self.def(offset);
        debug_assert!(
            def.access.writable(),
            "{}: write of RO {}",
            self.map.device,
            def.name
        );
        core.mmio_write(self.base + offset, value & def.mask(), def.width);
    }

    /// Narrow read (`bytes` ≤ the declared width): the AXI-Lite
    /// byte-lane path the SPI/UART drivers use.
    pub fn read_n(&self, core: &mut SocCore, offset: u64, bytes: u8) -> u64 {
        let def = self.def(offset);
        debug_assert!(
            bytes <= def.width,
            "{}: overwide read of {}",
            self.map.device,
            def.name
        );
        core.mmio_read(self.base + offset, bytes)
    }

    /// Narrow write (`bytes` ≤ the declared width).
    pub fn write_n(&self, core: &mut SocCore, offset: u64, value: u64, bytes: u8) {
        let def = self.def(offset);
        debug_assert!(
            bytes <= def.width,
            "{}: overwide write of {}",
            self.map.device,
            def.name
        );
        core.mmio_write(self.base + offset, value, bytes);
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{CLINT, DMA, UART};
    use crate::system::SocBuilder;
    use rvcap_soc::map::{CLINT_MTIME, UART_TX};

    #[test]
    fn widths_come_from_the_declaration() {
        assert_eq!(CLINT.def(CLINT_MTIME).width, 8);
        assert_eq!(DMA.def(crate::dma::MM2S_DMACR).width, 4);
    }

    #[test]
    #[should_panic(expected = "no register at")]
    fn undeclared_offset_panics() {
        DMA.def(0x0C);
    }

    #[test]
    fn typed_accesses_hit_the_devices() {
        let mut soc = SocBuilder::new().build();
        let t0 = CLINT.read(&mut soc.core, CLINT_MTIME);
        soc.core.compute(200);
        assert!(CLINT.read(&mut soc.core, CLINT_MTIME) > t0);
        UART.write_n(&mut soc.core, UART_TX, b'x' as u64, 1);
        assert_eq!(soc.handles.uart.text(), "x");
    }
}
