//! Configuration scrubbing: detect and repair upsets (extension).
//!
//! Safety-oriented DPR controllers (Di Carlo et al. \[14\] in the
//! paper's related work) pair reconfiguration with *verification* —
//! because a partition's configuration can rot underneath a running
//! system: single-event upsets (SEUs) flip configuration bits without
//! any bus transaction, silently changing the implemented logic.
//!
//! [`Scrubber`] builds the classic detect-and-repair loop out of the
//! pieces this workspace already has:
//!
//! 1. **detect** — read the partition's frames back through the
//!    AXI_HWICAP read path and compare against the golden bitstream
//!    payload staged in DDR;
//! 2. **repair** — if the comparison fails, rerun the Listing-1
//!    RV-CAP reconfiguration to rewrite the partition.
//!
//! The cost asymmetry is the point: a scrub *pass* is expensive
//! (every word over blocking MMIO), a repair costs one T_r. The test
//! demonstrates the failure mode the loop exists for — an injected
//! upset that no ordinary bus traffic would ever notice.

use rvcap_soc::{PlicHandle, SocCore};

use super::hwicap::HwIcapDriver;
use super::rvcap::{DmaMode, RvCapDriver};
use super::ReconfigModule;

/// Outcome of one scrub pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubOutcome {
    /// Configuration matched the golden image.
    Clean,
    /// A mismatch was found and the partition was rewritten.
    Repaired,
    /// A mismatch was found, and the repair itself failed verification
    /// (persistent fault — a real system would raise an alarm).
    RepairFailed,
}

/// Scrub statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Scrub passes performed.
    pub passes: u64,
    /// Upsets detected.
    pub detections: u64,
    /// Successful repairs.
    pub repairs: u64,
}

/// The scrubbing driver for one partition.
pub struct Scrubber {
    rp_index: usize,
    far_base: u32,
    /// Golden frame payload (the RM image's words).
    golden: Vec<u32>,
    /// Staged bitstream used for repairs.
    module: ReconfigModule,
    plic: PlicHandle,
    stats: ScrubStats,
}

impl Scrubber {
    /// A scrubber guarding partition `rp_index` (frame base
    /// `far_base`) against divergence from `golden`, repairing with
    /// `module`'s staged bitstream.
    pub fn new(
        rp_index: usize,
        far_base: u32,
        golden: Vec<u32>,
        module: ReconfigModule,
        plic: PlicHandle,
    ) -> Self {
        Scrubber {
            rp_index,
            far_base,
            golden,
            module,
            plic,
            stats: ScrubStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ScrubStats {
        &self.stats
    }

    /// One detect-and-repair pass.
    pub fn scrub(&mut self, core: &mut SocCore) -> ScrubOutcome {
        self.stats.passes += 1;
        let hwicap = HwIcapDriver::new();
        if hwicap.readback_verify(core, self.far_base, &self.golden) {
            return ScrubOutcome::Clean;
        }
        self.stats.detections += 1;
        // Repair: rewrite the partition through the RV-CAP path.
        let driver = RvCapDriver::new(self.rp_index, self.plic.clone());
        driver.init_reconfig_process(core, &self.module, DmaMode::NonBlocking);
        // Let the ICAP trailer drain before re-verifying.
        core.compute(128);
        if hwicap.readback_verify(core, self.far_base, &self.golden) {
            self.stats.repairs += 1;
            ScrubOutcome::Repaired
        } else {
            ScrubOutcome::RepairFailed
        }
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

    fn rig() -> (crate::system::RvCapSoc, Scrubber, RmImage) {
        let geometry = RpGeometry::scaled(1, 0, 0);
        let img = RmImage::synthesize("GUARDED", geometry.frames(), Resources::ZERO);
        let mut lib = RmLibrary::new();
        lib.register_image(img.clone());
        let mut soc = SocBuilder::new()
            .with_rps(vec![geometry])
            .with_library(lib)
            .build();
        let far = soc.handles.rps[0].far_base;
        let module = soc.stage_module(0, &img, DDR_BASE + 0x40_0000);
        // Initial load.
        let driver = RvCapDriver::new(0, soc.handles.plic.clone());
        driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
        soc.core.compute(128);
        let scrubber = Scrubber::new(
            0,
            far,
            img.payload.clone(),
            module,
            soc.handles.plic.clone(),
        );
        (soc, scrubber, img)
    }

    #[test]
    fn clean_partition_scrubs_clean() {
        let (mut soc, mut scrubber, _) = rig();
        assert_eq!(scrubber.scrub(&mut soc.core), ScrubOutcome::Clean);
        assert_eq!(scrubber.stats().detections, 0);
    }

    #[test]
    fn injected_seu_is_detected_and_repaired() {
        let (mut soc, mut scrubber, img) = rig();
        let far = soc.handles.rps[0].far_base;
        // SEU: flip one configuration bit via the backdoor — no bus
        // transaction, no load record; nothing in the system notices.
        let mut frame = soc.handles.config_mem.read_frame(far + 3).unwrap();
        frame[55] ^= 1 << 9;
        soc.handles.config_mem.write_frame(far + 3, &frame);
        assert_ne!(
            soc.handles
                .config_mem
                .range_hash(far, soc.handles.rps[0].frames()),
            Some(img.hash()),
            "upset corrupted the configuration"
        );

        assert_eq!(scrubber.scrub(&mut soc.core), ScrubOutcome::Repaired);
        assert_eq!(scrubber.stats().detections, 1);
        assert_eq!(scrubber.stats().repairs, 1);
        // Configuration restored exactly.
        assert_eq!(
            soc.handles
                .config_mem
                .range_hash(far, soc.handles.rps[0].frames()),
            Some(img.hash())
        );
        // And subsequent passes are clean again.
        assert_eq!(scrubber.scrub(&mut soc.core), ScrubOutcome::Clean);
    }

    #[test]
    fn repair_failure_is_reported_when_golden_source_is_corrupt() {
        let (mut soc, mut scrubber, _) = rig();
        let far = soc.handles.rps[0].far_base;
        // Upset the partition AND corrupt the staged repair bitstream:
        // now the repair reload aborts at the ICAP (CRC) and the
        // partition stays divergent.
        let mut frame = soc.handles.config_mem.read_frame(far).unwrap();
        frame[0] ^= 2;
        soc.handles.config_mem.write_frame(far, &frame);
        let staged = soc.handles.ddr.read_bytes(DDR_BASE + 0x40_0000, 64);
        let mut corrupted = staged.clone();
        corrupted[50] ^= 0xFF;
        soc.handles
            .ddr
            .write_bytes(DDR_BASE + 0x40_0000, &corrupted);

        assert_eq!(scrubber.scrub(&mut soc.core), ScrubOutcome::RepairFailed);
        assert_eq!(scrubber.stats().repairs, 0);
    }

    #[test]
    fn scrub_pass_cost_is_dominated_by_readback() {
        let (mut soc, mut scrubber, img) = rig();
        let t0 = soc.core.now();
        scrubber.scrub(&mut soc.core);
        let clean_cost = soc.core.now() - t0;
        // ~43 cycles/word of MMIO readback.
        assert!(clean_cost > img.payload.len() as u64 * 30);
    }
}
