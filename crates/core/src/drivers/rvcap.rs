//! The RV-CAP driver API — the paper's Listing 1.
//!
//! ```c
//! init_RModules(*reconfig_module, RM_number, *pbit_fat_partition);
//! void init_reconfig_process() {
//!   decouple_accel(1);
//!   select_ICAP(1);
//!   reconfigure_RP(reconfig_module->start_address,
//!                  reconfig_module->pbit_size, mode);
//!   decouple_accel(0);
//! }
//! void reconfigure_RP(*data, pbit_size, mode) {
//!   dma_start();
//!   dma_config(mode);
//!   dma_write_stream(*data, pbit_size);
//! }
//! ```
//!
//! Timing instrumentation mirrors §IV-B: the **decision time `T_d`**
//! covers module selection, decoupling, mode switch and DMA set-up up
//! to the moment the transfer is started; the **reconfiguration time
//! `T_r`** runs from the transfer start until the completion interrupt
//! has been claimed. Both are measured by reading the 5 MHz CLINT
//! timer from driver code, as on the board.

use rvcap_soc::map::{IRQ_DMA_MM2S, PLIC_CLAIM, PLIC_ENABLE};
use rvcap_soc::{PlicHandle, SocCore};

use crate::dma::{
    CR_IOC_IRQ_EN, CR_RS, MM2S_DMACR, MM2S_DMASR, MM2S_LENGTH, MM2S_SA, MM2S_SA_MSB, SR_IDLE,
    SR_IOC,
};
use crate::registry;
use crate::rp_ctrl::REG_DECOUPLE;
use crate::switch_ctrl::{REG_RM_SEL, REG_SELECT};

use super::timer::read_mtime;
use super::ReconfigModule;

/// DMA completion mode (Listing 1's `mode` argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaMode {
    /// Poll MM2S_DMASR until idle.
    Blocking,
    /// Enable the IOC interrupt and wait for the PLIC (the paper's
    /// configuration for the reported results).
    NonBlocking,
}

/// Cycles of pure software in the decision path: looking up the
/// requested module, validating its size against the partition, and
/// preparing the register values. Calibrated so the measured `T_d`
/// reproduces the paper's 18 µs on the default SoC (the MMIO part of
/// the path — 7 register accesses — is measured, not assumed).
pub const DECISION_SOFTWARE_CYCLES: u64 = 1650;

/// Cycles for interrupt delivery and trap entry/exit around the DMA
/// completion handler (CSR save/restore, vector dispatch, the
/// non-speculative CSR accesses of the Ariane trap path). Calibrated
/// together with the DMA start-up so the measured `T_r` lands on the
/// paper's 1651 µs for the 650 892-byte bitstream.
pub const IRQ_TRAP_CYCLES: u64 = 1300;

/// Timing record for one reconfiguration (the paper's `T_d`/`T_r`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigTiming {
    /// Decision time in CLINT ticks.
    pub td_ticks: u64,
    /// Reconfiguration time in CLINT ticks.
    pub tr_ticks: u64,
}

impl ReconfigTiming {
    /// `T_d` in microseconds.
    pub fn td_us(&self) -> f64 {
        self.td_ticks as f64 / 5.0
    }

    /// `T_r` in microseconds.
    pub fn tr_us(&self) -> f64 {
        self.tr_ticks as f64 / 5.0
    }

    /// Reconfiguration throughput in MB/s for a bitstream of
    /// `bytes`, computed over `T_r` the way the paper's Fig. 3 is.
    pub fn throughput_mbs(&self, bytes: u64) -> f64 {
        let seconds = self.tr_ticks as f64 / 5.0e6;
        bytes as f64 / 1.0e6 / seconds
    }
}

/// Acceleration-mode flow: stream `len` bytes from `in_addr` through
/// the active module in partition `rp_index` and write the result to
/// `out_addr`. Arms the S2MM (write-back) engine before launching
/// MM2S so no output beat finds it unready; waits on the S2MM
/// completion interrupt. Returns elapsed CLINT ticks — the paper's
/// compute time `T_c`.
pub fn run_stream_job(
    core: &mut SocCore,
    plic: &PlicHandle,
    rp_index: usize,
    in_addr: u64,
    out_addr: u64,
    len: u32,
) -> u64 {
    use crate::dma::{S2MM_DMASR, SR_IOC};
    use rvcap_soc::map::IRQ_DMA_S2MM;
    let plic_w = registry::PLIC;
    let t0 = read_mtime(core);
    start_stream_job(core, rp_index, in_addr, out_addr, len);
    let plic = plic.clone();
    core.wait_until(1_000_000_000, || plic.is_pending(IRQ_DMA_S2MM))
        .unwrap();
    core.compute(IRQ_TRAP_CYCLES);
    let src = plic_w.read(core, PLIC_CLAIM) as u32;
    debug_assert_eq!(src, IRQ_DMA_S2MM);
    registry::DMA.write(core, S2MM_DMASR, SR_IOC as u64);
    plic_w.write(core, PLIC_CLAIM, src as u64);
    read_mtime(core) - t0
}

/// The programming half of [`run_stream_job`]: route the stream
/// switch to partition `rp_index`, arm S2MM write-back with its
/// completion interrupt, then launch MM2S. Returns once the last
/// register write has landed, with the job in flight.
pub fn start_stream_job(
    core: &mut SocCore,
    rp_index: usize,
    in_addr: u64,
    out_addr: u64,
    len: u32,
) {
    use crate::dma::{
        MM2S_LENGTH as LEN, MM2S_SA as SA, MM2S_SA_MSB as SA_MSB, S2MM_DA, S2MM_DA_MSB, S2MM_DMACR,
        S2MM_LENGTH,
    };
    use rvcap_soc::map::IRQ_DMA_S2MM;
    let (sw, dma, plic_w) = (registry::SWITCH_CTRL, registry::DMA, registry::PLIC);
    sw.write(core, REG_SELECT, 0);
    sw.write(core, REG_RM_SEL, rp_index as u64);
    dma.write(core, S2MM_DMACR, (CR_RS | CR_IOC_IRQ_EN) as u64);
    dma.write(core, S2MM_DA, out_addr & 0xFFFF_FFFF);
    dma.write(core, S2MM_DA_MSB, out_addr >> 32);
    dma.write(core, S2MM_LENGTH, len as u64);
    let en = plic_w.read(core, PLIC_ENABLE);
    plic_w.write(core, PLIC_ENABLE, en | (1 << IRQ_DMA_S2MM));
    dma.write(core, MM2S_DMACR, CR_RS as u64);
    dma.write(core, SA, in_addr & 0xFFFF_FFFF);
    dma.write(core, SA_MSB, in_addr >> 32);
    dma.write(core, LEN, len as u64);
}

/// The RV-CAP reconfiguration driver (Listing 1).
pub struct RvCapDriver {
    /// Which partition this driver instance manages.
    pub rp_index: usize,
    /// PLIC observer for interrupt-mode waits.
    plic: PlicHandle,
}

impl RvCapDriver {
    /// Driver for partition `rp_index`.
    pub fn new(rp_index: usize, plic: PlicHandle) -> Self {
        RvCapDriver { rp_index, plic }
    }

    /// `decouple_accel`: raise/lower the partition's PR decoupler.
    pub fn decouple_accel(&self, core: &mut SocCore, decouple: bool) {
        let w = registry::RP_CTRL;
        let bit = 1u64 << self.rp_index;
        let cur = w.read(core, REG_DECOUPLE);
        let val = if decouple { cur | bit } else { cur & !bit };
        w.write(core, REG_DECOUPLE, val);
    }

    /// `select_ICAP`: steer the stream switch to the ICAP (1) or back
    /// to the accelerators (0).
    pub fn select_icap(&self, core: &mut SocCore, icap: bool) {
        registry::SWITCH_CTRL.write(core, REG_SELECT, icap as u64);
    }

    /// Select which partition receives the stream in acceleration
    /// mode.
    pub fn select_rm(&self, core: &mut SocCore) {
        registry::SWITCH_CTRL.write(core, REG_RM_SEL, self.rp_index as u64);
    }

    /// `dma_start`: set the run/stop bit.
    pub fn dma_start(&self, core: &mut SocCore) {
        registry::DMA.write(core, MM2S_DMACR, CR_RS as u64);
    }

    /// `dma_config`: program the completion mode (the irq-enable bit
    /// of the control register).
    pub fn dma_config(&self, core: &mut SocCore, mode: DmaMode) {
        let cr = match mode {
            DmaMode::Blocking => CR_RS,
            DmaMode::NonBlocking => CR_RS | CR_IOC_IRQ_EN,
        };
        registry::DMA.write(core, MM2S_DMACR, cr as u64);
        if mode == DmaMode::NonBlocking {
            // Enable the MM2S source at the PLIC.
            let plic = registry::PLIC;
            let en = plic.read(core, PLIC_ENABLE);
            plic.write(core, PLIC_ENABLE, en | (1 << IRQ_DMA_MM2S));
        }
    }

    /// `dma_write_stream`: program source address + length; the
    /// length write launches the transfer.
    pub fn dma_write_stream(&self, core: &mut SocCore, data: u64, pbit_size: u32) {
        let dma = registry::DMA;
        dma.write(core, MM2S_SA, data & 0xFFFF_FFFF);
        dma.write(core, MM2S_SA_MSB, data >> 32);
        dma.write(core, MM2S_LENGTH, pbit_size as u64);
    }

    /// `reconfigure_RP` (Listing 1): start the DMA and wait for
    /// completion per `mode`. Assumes decoupling and ICAP selection
    /// already happened (as in `init_reconfig_process`).
    pub fn reconfigure_rp(
        &self,
        core: &mut SocCore,
        module: &ReconfigModule,
        mode: DmaMode,
    ) -> u64 {
        let t1 = read_mtime(core);
        self.dma_write_stream(core, module.start_address, module.pbit_size);
        let dma = registry::DMA;
        match mode {
            DmaMode::Blocking => {
                while dma.read(core, MM2S_DMASR) as u32 & SR_IDLE == 0 {}
                // Clear the (unused) IOC flag.
                dma.write(core, MM2S_DMASR, SR_IOC as u64);
            }
            DmaMode::NonBlocking => {
                // The processor is free here; we idle until the PLIC
                // pends (a real application would run other work).
                let plic = self.plic.clone();
                core.wait_until(100_000_000, || plic.is_pending(IRQ_DMA_MM2S))
                    .unwrap();
                // Trap entry: context save + dispatch.
                core.compute(IRQ_TRAP_CYCLES);
                // Interrupt handler: claim, clear IOC, complete.
                let plic_w = registry::PLIC;
                let src = plic_w.read(core, PLIC_CLAIM) as u32;
                debug_assert_eq!(src, IRQ_DMA_MM2S);
                dma.write(core, MM2S_DMASR, SR_IOC as u64);
                plic_w.write(core, PLIC_CLAIM, src as u64);
            }
        }
        read_mtime(core) - t1
    }

    /// Poll the RP controller until the partition reports the
    /// expected module id (library index + 1), up to `max_polls`
    /// register reads. Used after compressed loads, where the DMA
    /// completion interrupt precedes the decompressor/ICAP finishing.
    pub fn wait_for_module(&self, core: &mut SocCore, rm_id: u32, max_polls: u32) -> bool {
        use crate::rp_ctrl::REG_RM_ID_BASE;
        let w = registry::RP_CTRL;
        for _ in 0..max_polls {
            let got = w.read(core, REG_RM_ID_BASE + 4 * self.rp_index as u64) as u32;
            if got == rm_id {
                return true;
            }
        }
        false
    }

    /// `init_reconfig_process` (Listing 1): the full three-step flow,
    /// instrumented like §IV-B. Returns (T_d, T_r) in CLINT ticks.
    pub fn init_reconfig_process(
        &self,
        core: &mut SocCore,
        module: &ReconfigModule,
        mode: DmaMode,
    ) -> ReconfigTiming {
        let t0 = read_mtime(core);
        // Module selection / validation software (see the constant's
        // docs).
        core.compute(DECISION_SOFTWARE_CYCLES);
        self.decouple_accel(core, true);
        self.select_icap(core, true);
        self.dma_start(core);
        self.dma_config(core, mode);
        let td = read_mtime(core) - t0;
        let tr = self.reconfigure_rp(core, module, mode);
        self.decouple_accel(core, false);
        self.select_icap(core, false);
        ReconfigTiming {
            td_ticks: td,
            tr_ticks: tr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{RvCapSoc, SocBuilder};
    use rvcap_fabric::bitstream::BitstreamBuilder;
    use rvcap_fabric::resources::Resources;
    use rvcap_fabric::rm::{RmImage, RmLibrary};
    use rvcap_fabric::rp::RpGeometry;
    use rvcap_soc::map::DDR_BASE;

    /// A small-RP SoC with one registered image, bitstream pre-staged
    /// in DDR (backdoor — SD staging is tested in drivers::storage).
    fn soc_with_staged(frames_geometry: RpGeometry) -> (RvCapSoc, ReconfigModule, RmImage) {
        let mut lib = RmLibrary::new();
        let mut soc_builder = SocBuilder::new().with_rps(vec![frames_geometry.clone()]);
        let frames = frames_geometry.frames();
        let img = RmImage::synthesize("TestRm", frames, Resources::new(100, 100, 0, 0));
        lib.register_image(img.clone());
        soc_builder = soc_builder.with_library(lib);
        let soc = soc_builder.build();
        let module = soc.stage_module(0, &img, DDR_BASE + 0x20_0000);
        (soc, module, img)
    }

    #[test]
    fn full_reconfiguration_nonblocking() {
        let (mut soc, module, img) = soc_with_staged(RpGeometry::scaled(2, 0, 0));
        let driver = RvCapDriver::new(0, soc.handles.plic.clone());
        let timing = driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
        // The partition now holds the image.
        // Allow the few-cycle skid between the DMA interrupt and the
        // ICAP consuming the trailer words.
        let icap = soc.handles.icap.clone();
        soc.core
            .wait_until(10_000, || !icap.busy() && icap.load_count() > 0)
            .unwrap();
        let rec = soc.handles.icap.last_load().unwrap();
        assert!(rec.crc_ok);
        assert_eq!(rec.far_start, soc.handles.rps[0].far_base);
        assert_eq!(
            soc.handles
                .config_mem
                .range_hash(soc.handles.rps[0].far_base, soc.handles.rps[0].frames()),
            Some(img.hash())
        );
        assert!(timing.td_ticks > 0);
        assert!(timing.tr_ticks > 0);
    }

    #[test]
    fn blocking_and_nonblocking_agree_on_tr() {
        let (mut soc_a, module, _) = soc_with_staged(RpGeometry::scaled(2, 0, 0));
        let d = RvCapDriver::new(0, soc_a.handles.plic.clone());
        let t_nb = d.init_reconfig_process(&mut soc_a.core, &module, DmaMode::NonBlocking);

        let (mut soc_b, module_b, _) = soc_with_staged(RpGeometry::scaled(2, 0, 0));
        let d2 = RvCapDriver::new(0, soc_b.handles.plic.clone());
        let t_b = d2.init_reconfig_process(&mut soc_b.core, &module_b, DmaMode::Blocking);

        let diff = t_nb.tr_ticks as i64 - t_b.tr_ticks as i64;
        // Same transfer; the interrupt path pays trap entry/exit
        // (~13 µs) that polling does not, but frees the CPU meanwhile.
        assert!(diff >= 0, "irq mode should not be faster than polling");
        assert!(diff <= 100, "Tr differs by {diff} ticks");
    }

    #[test]
    fn throughput_approaches_icap_limit_for_large_bitstreams() {
        // A bigger RP: the fixed overhead amortizes and throughput
        // approaches (but never exceeds) 400 MB/s.
        let (mut soc, module, _) = soc_with_staged(RpGeometry::scaled(24, 6, 2));
        let d = RvCapDriver::new(0, soc.handles.plic.clone());
        let timing = d.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
        let mbs = timing.throughput_mbs(module.pbit_size as u64);
        assert!(mbs > 380.0 && mbs < 400.0, "throughput {mbs:.1} MB/s");
    }

    #[test]
    fn compressed_loading_extension() {
        use rvcap_fabric::compress;
        // A highly repetitive module image (realistic configuration
        // data), loaded through the decompressor-equipped datapath.
        let geometry = RpGeometry::scaled(2, 0, 0);
        let payload: Vec<u32> = (0..geometry.frames() * rvcap_fabric::config_mem::FRAME_WORDS)
            .map(|i| ((i / 300) % 7) as u32)
            .collect();
        let img = RmImage::new("COMP", payload, Resources::ZERO);
        let mut lib = RmLibrary::new();
        lib.register_image(img.clone());
        let mut soc = crate::system::SocBuilder::new()
            .with_rps(vec![geometry])
            .with_library(lib)
            .with_compressed_loader()
            .build();
        let bs = BitstreamBuilder::kintex7().partial(soc.handles.rps[0].far_base, &img.payload);
        let compressed = compress::compress(bs.words());
        let mut bytes = Vec::with_capacity(compressed.len() * 4);
        for w in &compressed {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert!(
            bytes.len() * 4 < bs.len_bytes(),
            "test payload must actually compress"
        );
        let addr = DDR_BASE + 0x20_0000;
        soc.handles.ddr.write_bytes(addr, &bytes);
        let module = ReconfigModule {
            name: "COMP".into(),
            rm_number: 0,
            start_address: addr,
            pbit_size: bytes.len() as u32,
        };
        let driver = RvCapDriver::new(0, soc.handles.plic.clone());
        driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
        // The DMA finishes with the *compressed* stream; the ICAP is
        // still expanding — wait on the RP status register.
        assert!(
            driver.wait_for_module(&mut soc.core, 1, 10_000),
            "module never activated through the compressed path"
        );
        assert_eq!(
            soc.handles
                .config_mem
                .range_hash(soc.handles.rps[0].far_base, soc.handles.rps[0].frames()),
            Some(img.hash())
        );
        // The DMA moved only the compressed bytes.
        assert!(
            soc.handles.icap.words_consumed() as usize > bytes.len() / 4,
            "ICAP saw the expanded stream"
        );
    }

    #[test]
    fn decoupling_is_released_after_reconfig() {
        let (mut soc, module, _) = soc_with_staged(RpGeometry::scaled(1, 0, 0));
        let d = RvCapDriver::new(0, soc.handles.plic.clone());
        d.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
        assert!(!soc.handles.decouple[0].get());
    }
}
