//! Dense-window engagement pins.
//!
//! The active-set scheduler runs the naive sweep in *dense windows*
//! while a quarter or more of the SoC ticks every cycle (DESIGN.md
//! §2.2). `KernelStats::dense_cycles` counts the cycles it spent there,
//! and the count is deterministic, so it can be pinned on any host the
//! way `cycle_parity` pins simulated cycles: the saturated RV-CAP
//! DMA→ICAP stream opens windows, the MMIO-bound AXI_HWICAP keyhole and
//! the SPI staging path never do. A change that stops the window from
//! opening, or opens it on the MMIO rigs, fails here instead of showing
//! up only as wall-clock drift.
//!
//! The same rigs also pin the active set's whole work count exactly:
//! simulated cycles, executed ticks, clock jumps, jumped cycles and
//! dense-window cycles. A scheduler change that executes one tick more
//! or jumps once less fails here on any host.

use rvcap_bench::paper_soc::{self, STAGE_ADDR};
use rvcap_bench::runner;
use rvcap_repro::core::drivers::{init_rmodules, DmaMode};
use rvcap_repro::core::system::SocBuilder;
use rvcap_repro::fabric::bitstream::BitstreamBuilder;
use rvcap_repro::fabric::resources::Resources;
use rvcap_repro::fabric::rm::{RmImage, RmLibrary};
use rvcap_repro::fabric::rp::RpGeometry;
use rvcap_repro::sim::{KernelStats, Scheduler};

/// The small Fig. 3 geometry: cheap enough for debug builds.
fn small_rp() -> RpGeometry {
    RpGeometry::scaled(2, 0, 0)
}

fn rvcap_stats(scheduler: Scheduler) -> KernelStats {
    let run = runner::reconfigure_rvcap_sched(
        paper_soc::rig_with_geometry(small_rp()),
        DmaMode::NonBlocking,
        scheduler,
    );
    run.soc.core.sim.kernel_stats()
}

fn hwicap_stats() -> KernelStats {
    let run = runner::reconfigure_hwicap(paper_soc::rig_with_geometry(small_rp()), 16);
    run.soc.core.sim.kernel_stats()
}

/// `init_RModules` of one scaled(2,0,0) bitstream from the SD card.
fn sd_staging_stats() -> KernelStats {
    let img = RmImage::synthesize(
        "Module0",
        small_rp().frames(),
        Resources::new(901, 773, 4, 0),
    );
    let bytes = BitstreamBuilder::kintex7()
        .partial(0, &img.payload)
        .to_bytes();
    let mut lib = RmLibrary::new();
    lib.register_image(img);
    let mut soc = SocBuilder::new()
        .with_rps(vec![small_rp()])
        .with_library(lib)
        .with_sd_file("MODULE0.PBI", bytes)
        .build();
    let staged = init_rmodules(
        &mut soc.core,
        &soc.handles.ddr,
        STAGE_ADDR,
        &["MODULE0.PBI"],
    );
    assert_eq!(staged.len(), 1);
    runner::assert_clean_mmio(&soc);
    soc.core.sim.kernel_stats()
}

#[test]
fn dense_windows_engage_on_rvcap_transfers_only() {
    let rvcap = rvcap_stats(Scheduler::ActiveSet);
    assert!(
        rvcap.dense_cycles > 0,
        "the RV-CAP stream never opened a dense window:\n{}",
        rvcap.render()
    );
    assert!(rvcap.dense_cycles < rvcap.cycles);
    assert_eq!(rvcap_stats(Scheduler::Naive).dense_cycles, 0);

    let hwicap = hwicap_stats();
    assert_eq!(
        hwicap.dense_cycles,
        0,
        "a dense window opened on the HWICAP keyhole:\n{}",
        hwicap.render()
    );
    let staging = sd_staging_stats();
    assert_eq!(
        staging.dense_cycles,
        0,
        "a dense window opened on SD staging:\n{}",
        staging.render()
    );
}

#[test]
fn active_set_work_is_pinned() {
    for (rig, stats, want) in [
        (
            "RV-CAP",
            rvcap_stats(Scheduler::ActiveSet),
            [11_330, 123_057, 88, 3_850, 7_168],
        ),
        (
            "HWICAP unroll 16",
            hwicap_stats(),
            [351_730, 52_250, 37_261, 314_822, 0],
        ),
        (
            "SD staging",
            sd_staging_stats(),
            [2_157_618, 932_999, 751_412, 1_403_509, 0],
        ),
    ] {
        let work = [
            stats.cycles,
            stats.total_ticks(),
            stats.jumps,
            stats.jumped_cycles,
            stats.dense_cycles,
        ];
        assert_eq!(
            work,
            want,
            "{rig}: [cycles, ticks, jumps, jumped cycles, dense cycles] moved:\n{}",
            stats.render()
        );
    }
}
