//! The modified AXI_HWICAP driver — the paper's Listing 2.
//!
//! ```c
//! void reconfigure_RP (*data, pbit_size) {
//!   while (pbit_size) {
//!     read_fifo_vac();            // read the write fifo vacancy
//!     do {
//!       write_into_fifo(ICAP_WF, *data++);
//!     } while (fifo_is_not_full)
//!     write_to_icap();            // CR: flush the FIFO to the ICAP
//!     icap_done();                // poll SR until done
//!   }
//! }
//! ```
//!
//! §IV-B's optimization is reproduced as a parameter: the inner
//! FIFO-fill loop is unrolled by `unroll`. Every `WF` store is a full
//! blocking non-cacheable MMIO round trip (Ariane cannot speculate
//! into this space), and the loop's back edge costs
//! [`LOOP_CONTROL_CYCLES`] once per unrolled block — "the Ariane
//! pipeline must block after each loop iteration until the conditional
//! jump is executed completely". Hence throughput rises with the
//! unroll factor exactly as the paper reports (4.16 MB/s at 1,
//! 8.23 MB/s at 16, <5 % beyond).

use rvcap_soc::{DdrHandle, SocCore};

use crate::hwicap::{CR_WRITE, REG_CR, REG_GIE, REG_SR, REG_WF, REG_WFV, SR_DONE};
use crate::registry;

use super::timer::read_mtime;
use super::ReconfigModule;

/// Pipeline cost of one iteration of the fill loop's control
/// (decrement, compare, conditional branch resolving against a
/// non-speculable region, address bump). Calibrated together with the
/// bus path so the measured throughputs land on the paper's two
/// points; the instruction-accurate version of the same loop runs on
/// the RV64 interpreter in the `unroll_sweep` bench.
pub const LOOP_CONTROL_CYCLES: u64 = 51;

/// Cycles to fetch one 32-bit bitstream word from cached DDR
/// (load + pointer bump, amortized cache hits).
pub const WORD_FETCH_CYCLES: u64 = 3;

/// The HWICAP reconfiguration driver (Listing 2).
pub struct HwIcapDriver {
    /// Unroll factor of the FIFO-fill loop (the paper's best: 16).
    pub unroll: usize,
}

impl HwIcapDriver {
    /// Driver with the paper's 16-unrolled fill loop.
    pub fn new() -> Self {
        HwIcapDriver { unroll: 16 }
    }

    /// Driver with an explicit unroll factor.
    pub fn with_unroll(unroll: usize) -> Self {
        assert!(unroll >= 1);
        HwIcapDriver { unroll }
    }

    /// `init_icap`: check the core is idle and disable its global
    /// interrupt (the paper's init step).
    pub fn init_icap(&self, core: &mut SocCore) {
        let w = registry::HWICAP;
        let sr = w.read(core, REG_SR) as u32;
        assert!(sr & SR_DONE != 0, "HWICAP busy at init");
        // GIE disable is a no-op in the model but still costs the bus
        // round trip.
        w.write(core, REG_GIE, 0);
    }

    /// `reconfigure_RP` (Listing 2): push the staged bitstream through
    /// the HWICAP write FIFO. Returns elapsed CLINT ticks.
    ///
    /// Bitstream words are fetched from cached DDR (`ddr` backdoor +
    /// [`WORD_FETCH_CYCLES`]); every FIFO write is a real MMIO store.
    pub fn reconfigure_rp(
        &self,
        core: &mut SocCore,
        ddr: &DdrHandle,
        module: &ReconfigModule,
    ) -> u64 {
        let t0 = read_mtime(core);
        let bytes = ddr.read_bytes(module.start_address, module.pbit_size as usize);
        let words: Vec<u32> = bytes
            .chunks(4)
            .map(|c| {
                let mut b = [0u8; 4];
                b[..c.len()].copy_from_slice(c);
                u32::from_le_bytes(b)
            })
            .collect();
        let w = registry::HWICAP;
        let mut idx = 0usize;
        while idx < words.len() {
            // read_fifo_vac();
            let vacancy = w.read(core, REG_WFV) as usize;
            let fill = vacancy.min(words.len() - idx);
            // do { write_into_fifo(...); } while (fifo_is_not_full)
            let mut written = 0usize;
            while written < fill {
                let block = self.unroll.min(fill - written);
                for _ in 0..block {
                    core.compute(WORD_FETCH_CYCLES);
                    w.write(core, REG_WF, words[idx] as u64);
                    idx += 1;
                    written += 1;
                }
                // The loop back edge: pipeline blocks until the branch
                // resolves (once per unrolled block).
                core.compute(LOOP_CONTROL_CYCLES);
            }
            // write_to_icap();
            w.write(core, REG_CR, CR_WRITE as u64);
            // icap_done();
            while w.read(core, REG_SR) as u32 & SR_DONE == 0 {}
        }
        read_mtime(core) - t0
    }

    /// The full HWICAP flow of Listing 2 with decoupling, returning
    /// elapsed ticks measured "from decoupling the RP till it is
    /// coupled again" (§IV-B).
    pub fn init_reconfig_process(
        &self,
        core: &mut SocCore,
        ddr: &DdrHandle,
        module: &ReconfigModule,
        rp_index: usize,
    ) -> u64 {
        use crate::rp_ctrl::REG_DECOUPLE;
        let rp = registry::RP_CTRL;
        let t0 = read_mtime(core);
        let bit = 1u64 << rp_index;
        let cur = rp.read(core, REG_DECOUPLE);
        rp.write(core, REG_DECOUPLE, cur | bit);
        self.init_icap(core);
        self.reconfigure_rp(core, ddr, module);
        let cur = rp.read(core, REG_DECOUPLE);
        rp.write(core, REG_DECOUPLE, cur & !bit);
        super::uart_print(core, "reconfiguration successful\n");
        read_mtime(core) - t0
    }
}

impl HwIcapDriver {
    /// Configuration readback + verify (the safe-DPR flow of Di Carlo
    /// et al. \[14\], using PG134's read path): read the partition's
    /// frames back through the HWICAP read FIFO and compare against
    /// the staged bitstream's payload. Returns `true` when the
    /// configuration memory holds exactly the expected words.
    ///
    /// Every word comes back over a blocking MMIO read — verification
    /// costs roughly as much as a CPU-driven load, which is why
    /// safety-oriented controllers make it optional.
    pub fn readback_verify(&self, core: &mut SocCore, far: u32, expected: &[u32]) -> bool {
        use crate::hwicap::{CR_READ, READ_FIFO_DEPTH, REG_FAR, REG_RF, REG_SZ};
        const FRAME_WORDS: usize = rvcap_fabric::config_mem::FRAME_WORDS;
        assert!(
            expected.len().is_multiple_of(FRAME_WORDS),
            "readback verifies whole frames"
        );
        let w = registry::HWICAP;
        // Whole frames per chunk so the FAR repointing stays aligned;
        // two frames (202 words) fit the 256-word read FIFO.
        let chunk_frames = READ_FIFO_DEPTH / FRAME_WORDS;
        w.write(core, REG_FAR, far as u64);
        let mut pos = 0usize;
        while pos < expected.len() {
            let chunk = (expected.len() - pos).min(chunk_frames * FRAME_WORDS);
            w.write(core, REG_SZ, chunk as u64);
            // The model's FAR register addresses the chunk's frame
            // offset implicitly via the word offset; re-point it at
            // the absolute word position.
            w.write(core, REG_FAR, far as u64 + (pos / FRAME_WORDS) as u64);
            w.write(core, REG_CR, CR_READ as u64);
            while w.read(core, REG_SR) as u32 & SR_DONE == 0 {}
            for i in 0..chunk {
                if w.read(core, REG_RF) as u32 != expected[pos + i] {
                    return false;
                }
            }
            pos += chunk;
        }
        true
    }
}

impl Default for HwIcapDriver {
    fn default() -> Self {
        HwIcapDriver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SocBuilder;
    use rvcap_fabric::resources::Resources;
    use rvcap_fabric::rm::{RmImage, RmLibrary};
    use rvcap_fabric::rp::RpGeometry;
    use rvcap_soc::map::DDR_BASE;

    fn staged_soc() -> (
        crate::system::RvCapSoc,
        super::super::ReconfigModule,
        RmImage,
    ) {
        let geometry = RpGeometry::scaled(1, 0, 0);
        let img = RmImage::synthesize("HwRm", geometry.frames(), Resources::ZERO);
        let mut lib = RmLibrary::new();
        lib.register_image(img.clone());
        let soc = SocBuilder::new()
            .with_rps(vec![geometry])
            .with_library(lib)
            .build();
        let module = soc.stage_module(0, &img, DDR_BASE + 0x30_0000);
        (soc, module, img)
    }

    #[test]
    fn hwicap_loads_a_bitstream_correctly() {
        let (mut soc, module, img) = staged_soc();
        let ddr = soc.handles.ddr.clone();
        let driver = HwIcapDriver::new();
        let ticks = driver.init_reconfig_process(&mut soc.core, &ddr, &module, 0);
        soc.core
            .wait_until(100_000, {
                let icap = soc.handles.icap.clone();
                move || !icap.busy()
            })
            .unwrap();
        let rec = soc.handles.icap.last_load().unwrap();
        assert!(rec.crc_ok, "load record: {rec:?}");
        assert_eq!(
            soc.handles
                .config_mem
                .range_hash(soc.handles.rps[0].far_base, soc.handles.rps[0].frames()),
            Some(img.hash())
        );
        assert!(ticks > 0);
        assert!(soc.handles.uart.text().contains("successful"));
    }

    #[test]
    fn readback_verify_confirms_good_load_and_catches_tamper() {
        let (mut soc, module, img) = staged_soc();
        let ddr = soc.handles.ddr.clone();
        let driver = HwIcapDriver::new();
        driver.init_reconfig_process(&mut soc.core, &ddr, &module, 0);
        let icap = soc.handles.icap.clone();
        soc.core.wait_until(100_000, || !icap.busy()).unwrap();
        let far = soc.handles.rps[0].far_base;
        assert!(
            driver.readback_verify(&mut soc.core, far, &img.payload),
            "freshly loaded partition must verify"
        );
        // A different payload must not verify.
        let mut tampered = img.payload.clone();
        tampered[500] ^= 1;
        assert!(!driver.readback_verify(&mut soc.core, far, &tampered));
        // Backdoor-corrupt one configured frame: verification catches
        // it (the safe-DPR scenario — SEU or partial overwrite).
        let mut frame = soc.handles.config_mem.read_frame(far + 1).unwrap();
        frame[7] ^= 0x10;
        soc.handles.config_mem.write_frame(far + 1, &frame);
        assert!(!driver.readback_verify(&mut soc.core, far, &img.payload));
    }

    #[test]
    fn readback_costs_real_bus_time() {
        let (mut soc, module, img) = staged_soc();
        let ddr = soc.handles.ddr.clone();
        let driver = HwIcapDriver::new();
        driver.init_reconfig_process(&mut soc.core, &ddr, &module, 0);
        let icap = soc.handles.icap.clone();
        soc.core.wait_until(100_000, || !icap.busy()).unwrap();
        let t0 = soc.core.now();
        driver.readback_verify(&mut soc.core, soc.handles.rps[0].far_base, &img.payload);
        let cycles = soc.core.now() - t0;
        // ~43 cycles per word of MMIO: verification is not free.
        assert!(
            cycles > img.payload.len() as u64 * 30,
            "readback suspiciously cheap: {cycles} cycles for {} words",
            img.payload.len()
        );
    }

    #[test]
    fn unrolling_speeds_up_reconfiguration() {
        let ticks_at = |unroll: usize| {
            let (mut soc, module, _) = staged_soc();
            let ddr = soc.handles.ddr.clone();
            HwIcapDriver::with_unroll(unroll).reconfigure_rp(&mut soc.core, &ddr, &module)
        };
        let u1 = ticks_at(1);
        let u16 = ticks_at(16);
        let u64x = ticks_at(64);
        assert!(u1 > u16, "u1 {u1} vs u16 {u16}");
        // Paper: "<5%" further improvement past 16.
        let further = (u16 as f64 - u64x as f64) / u16 as f64;
        assert!(further < 0.10, "beyond-16 gain {further:.3}");
        // Roughly the 2× the paper reports between u=1 and u=16.
        let speedup = u1 as f64 / u16 as f64;
        assert!(speedup > 1.5 && speedup < 3.2, "speedup {speedup:.2}");
    }
}
