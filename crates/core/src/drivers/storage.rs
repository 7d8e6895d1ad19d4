//! SD → DDR staging: the `init_RModules` step.
//!
//! "The first step initializes the RM by reading the pbit_size of the
//! partial bitstream file stored on the external SD card and loading
//! it to a defined destination address in the DDR memory. The first
//! step is performed by the FAT32 I/O file system software modules."
//! (§III-B)
//!
//! The SD card is reached through the SPI peripheral one MMIO byte
//! exchange at a time — the same `rvcap-storage` FAT32 code that runs
//! against an in-memory device mounts the volume through this driver,
//! because the driver *is* a [`BlockDevice`].
//!
//! Staging a block into DDR happens through the data cache (DDR is
//! cacheable), charged at [`DDR_COPY_CYCLES_PER_8B`] per 8 bytes.

use rvcap_soc::map::{SPI_CS, SPI_STATUS, SPI_TXRX};
use rvcap_soc::{DdrHandle, SocCore};
use rvcap_storage::{sd, BlockDevice, Fat32Volume, BLOCK_SIZE};

use crate::registry;

use super::ReconfigModule;

/// Cycles the CPU spends copying 8 bytes from its block buffer into
/// DDR through the cache (load + store + loop share, write-allocate
/// amortized).
pub const DDR_COPY_CYCLES_PER_8B: u64 = 3;

/// The SD block driver: implements [`BlockDevice`] over the SPI
/// peripheral's MMIO interface, so the FAT32 code runs unchanged on
/// simulated hardware.
pub struct SdDriver<'a> {
    /// The CPU host every SPI access goes through.
    pub core: &'a mut SocCore,
    blocks: u64,
}

impl<'a> SdDriver<'a> {
    /// Initialize the card (CMD0/CMD8/ACMD41 over SPI). Returns `None`
    /// if the card does not respond.
    pub fn init(core: &'a mut SocCore) -> Option<Self> {
        // Assert CS and run the init sequence.
        registry::SPI.write(core, SPI_CS, 1);
        let mut driver = SdDriver {
            core,
            // Geometry is irrelevant for mounting: FAT32 reads its
            // size from the BPB. 64 MiB matches the builder's card.
            blocks: 64 * 1024 * 1024 / BLOCK_SIZE as u64,
        };
        if sd::host::init(|b| driver.xfer(b)) {
            Some(driver)
        } else {
            None
        }
    }

    /// One SPI byte exchange through the peripheral registers (byte
    /// lanes of the 4-byte registers, as the C driver does).
    fn xfer(&mut self, mosi: u8) -> u8 {
        let spi = registry::SPI;
        spi.write_n(self.core, SPI_TXRX, mosi as u64, 1);
        while spi.read_n(self.core, SPI_STATUS, 1) & 1 != 0 {}
        spi.read_n(self.core, SPI_TXRX, 1) as u8
    }
}

impl BlockDevice for SdDriver<'_> {
    fn num_blocks(&self) -> u64 {
        self.blocks
    }

    fn read_block(&mut self, lba: u64, buf: &mut [u8; BLOCK_SIZE]) {
        assert!(
            sd::host::read_block(|b| self.xfer(b), lba as u32, buf),
            "SD read of LBA {lba} failed"
        );
    }

    fn write_block(&mut self, lba: u64, buf: &[u8; BLOCK_SIZE]) {
        assert!(
            sd::host::write_block(|b| self.xfer(b), lba as u32, buf),
            "SD write of LBA {lba} failed"
        );
    }
}

/// `init_RModules`: stage each named bitstream from the SD card's
/// FAT32 volume to consecutive DDR addresses starting at `ddr_base`.
/// Returns one [`ReconfigModule`] descriptor per file.
pub fn init_rmodules(
    core: &mut SocCore,
    ddr: &DdrHandle,
    ddr_base: u64,
    files: &[&str],
) -> Vec<ReconfigModule> {
    let driver = SdDriver::init(core).expect("SD card did not initialize");
    let mut vol = Fat32Volume::mount(driver).expect("SD card has no FAT32 volume");
    let mut out = Vec::new();
    let mut addr = ddr_base;
    for (i, name) in files.iter().enumerate() {
        let info = vol
            .list()
            .expect("directory read")
            .into_iter()
            .find(|f| f.name.eq_ignore_ascii_case(name))
            .unwrap_or_else(|| panic!("{name} not found on SD card"));
        let mut staged = 0u64;
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        vol.read_into(&info, |chunk| {
            chunks.push(chunk.to_vec());
        })
        .expect("file read");
        // The SPI time was charged during read_into (every byte went
        // over the simulated link). Now copy the buffered blocks into
        // DDR through the cache.
        let core = &mut vol.device_mut().core;
        for chunk in chunks {
            ddr.write_bytes(addr + staged, &chunk);
            staged += chunk.len() as u64;
            core.compute(chunk.len().div_ceil(8) as u64 * DDR_COPY_CYCLES_PER_8B);
        }
        assert_eq!(staged, info.size as u64, "short read of {name}");
        out.push(ReconfigModule {
            name: info.name.clone(),
            rm_number: i as u32,
            start_address: addr,
            pbit_size: info.size,
        });
        // Next module starts 4 KiB aligned after this one.
        addr += (staged + 4095) & !4095;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SocBuilder;
    use rvcap_soc::map::DDR_BASE;

    #[test]
    fn stages_files_from_sd_to_ddr() {
        let payload_a: Vec<u8> = (0..3000u32).map(|i| (i % 253) as u8).collect();
        let payload_b: Vec<u8> = (0..1000u32).map(|i| (i % 101) as u8).collect();
        let mut soc = SocBuilder::new()
            .with_spi_clkdiv(1)
            .with_sd_file("A.PBI", payload_a.clone())
            .with_sd_file("B.PBI", payload_b.clone())
            .build();
        let modules = init_rmodules(
            &mut soc.core,
            &soc.handles.ddr,
            DDR_BASE + 0x10_0000,
            &["A.PBI", "B.PBI"],
        );
        assert_eq!(modules.len(), 2);
        assert_eq!(modules[0].pbit_size, 3000);
        assert_eq!(
            soc.handles.ddr.read_bytes(modules[0].start_address, 3000),
            payload_a
        );
        assert_eq!(
            soc.handles.ddr.read_bytes(modules[1].start_address, 1000),
            payload_b
        );
        // Staging cost real simulated time (SPI link) — thousands of
        // bytes at 8 SPI bits × clkdiv each plus MMIO overhead.
        assert!(soc.core.now() > 100_000, "only {} cycles", soc.core.now());
        assert!(soc.handles.spi.transfers() > 4000);
    }

    #[test]
    #[should_panic(expected = "not found on SD card")]
    fn missing_file_panics() {
        let mut soc = SocBuilder::new()
            .with_spi_clkdiv(1)
            .with_sd_file("A.PBI", vec![1])
            .build();
        init_rmodules(&mut soc.core, &soc.handles.ddr, DDR_BASE, &["NOPE.PBI"]);
    }
}
