//! Cycle-count parity pins: the register-map refactor (and any future
//! change to the MMIO decode path) must be *cycle-identical* — the
//! fig3/table1/table2 rigs have to produce bit-identical tick counts.
//! The constants below were recorded from the pre-refactor tree; a
//! mismatch means the change altered simulated timing, not just code
//! structure.
//!
//! Every rig here runs **with the bus sanitizer attached**. The pins
//! were recorded before the sanitizer existed, so their continued
//! match is the proof that monitoring is passive: cycle counts are
//! bit-identical with it on or off. Each point additionally asserts
//! that the run recorded zero protocol violations.
//!
//! (Table II's two RISC-V rows are the same measurements as Table I —
//! the paper rig below covers both.)

use rvcap_bench::hostbench::{scheduler_name, SCHEDULERS};
use rvcap_bench::paper_soc::{self, PaperRig};
use rvcap_repro::core::drivers::{DmaMode, HwIcapDriver, RvCapDriver};
use rvcap_repro::core::system::SocBuilder;
use rvcap_repro::fabric::rp::RpGeometry;
use rvcap_repro::sim::Scheduler;

/// A paper rig with the protocol sanitizer watching every channel.
fn sanitized_rig(g: RpGeometry) -> PaperRig {
    paper_soc::rig_with_builder(SocBuilder::new().with_sanitizer(), g)
}

/// RV-CAP reconfiguration on one rig: (Td ticks, Tr ticks, final cycle).
fn rvcap_point(g: RpGeometry) -> (u64, u64, u64) {
    rvcap_point_sched(g, Scheduler::ActiveSet)
}

/// Like [`rvcap_point`] under an explicit kernel scheduler.
fn rvcap_point_sched(g: RpGeometry, scheduler: Scheduler) -> (u64, u64, u64) {
    let PaperRig {
        mut soc, module, ..
    } = sanitized_rig(g);
    soc.core.sim.set_scheduler(scheduler);
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    let t = driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
    let san = soc.handles.sanitizer.as_ref().expect("sanitizer attached");
    assert_eq!(
        san.violation_count(),
        0,
        "protocol violations: {:?}",
        san.violations()
    );
    (t.td_ticks, t.tr_ticks, soc.core.now())
}

/// HWICAP (Listing 2) reconfiguration on one rig: (ticks, final cycle).
fn hwicap_point(g: RpGeometry) -> (u64, u64) {
    hwicap_point_sched(g, Scheduler::ActiveSet)
}

/// Like [`hwicap_point`] under an explicit kernel scheduler.
fn hwicap_point_sched(g: RpGeometry, scheduler: Scheduler) -> (u64, u64) {
    let PaperRig {
        mut soc, module, ..
    } = sanitized_rig(g);
    soc.core.sim.set_scheduler(scheduler);
    let ddr = soc.handles.ddr.clone();
    let ticks = HwIcapDriver::new().reconfigure_rp(&mut soc.core, &ddr, &module);
    let san = soc.handles.sanitizer.as_ref().expect("sanitizer attached");
    assert_eq!(
        san.violation_count(),
        0,
        "protocol violations: {:?}",
        san.violations()
    );
    (ticks, soc.core.now())
}

/// Table I / Table II rig: the paper RP (650 892-byte bitstream).
#[test]
fn table1_rig_cycle_counts_are_pinned() {
    assert_eq!(
        rvcap_point(RpGeometry::paper_rp()),
        (90, 8245, 166770),
        "RV-CAP paper-rig ticks drifted"
    );
    assert_eq!(
        hwicap_point(RpGeometry::paper_rp()),
        (392724, 7854488),
        "HWICAP paper-rig ticks drifted"
    );
}

/// Fig. 3 rig: the smallest and a mid-size sweep geometry (the full
/// seven-point sweep is the bench binary's job; two points pin the
/// timing of both controllers across bitstream sizes).
#[test]
fn fig3_rig_cycle_counts_are_pinned() {
    assert_eq!(
        rvcap_point(RpGeometry::scaled(2, 0, 0)),
        (90, 473, 11330),
        "RV-CAP scaled(2,0,0) ticks drifted"
    );
    assert_eq!(
        hwicap_point(RpGeometry::scaled(2, 0, 0)),
        (17586, 351730),
        "HWICAP scaled(2,0,0) ticks drifted"
    );
    assert_eq!(
        rvcap_point(RpGeometry::scaled(8, 2, 1)),
        (90, 3281, 67486),
        "RV-CAP scaled(8,2,1) ticks drifted"
    );
    assert_eq!(
        hwicap_point(RpGeometry::scaled(8, 2, 1)),
        (153109, 3062192),
        "HWICAP scaled(8,2,1) ticks drifted"
    );
}

/// The pinned values must not depend on the kernel schedule: both
/// [`Scheduler`]s reproduce them bit-identically on the small Fig. 3
/// rig (naive included — affordable at 351 730 cycles even in debug
/// builds); the paper rig runs under the active set, its naive
/// reference being the hostbench harness's job.
#[test]
fn pinned_rigs_match_under_every_scheduler() {
    for scheduler in SCHEDULERS {
        assert_eq!(
            rvcap_point_sched(RpGeometry::scaled(2, 0, 0), scheduler),
            (90, 473, 11330),
            "RV-CAP scaled(2,0,0) drifted under {}",
            scheduler_name(scheduler)
        );
        assert_eq!(
            hwicap_point_sched(RpGeometry::scaled(2, 0, 0), scheduler),
            (17586, 351730),
            "HWICAP scaled(2,0,0) drifted under {}",
            scheduler_name(scheduler)
        );
    }
    assert_eq!(
        rvcap_point_sched(RpGeometry::paper_rp(), Scheduler::ActiveSet),
        (90, 8245, 166770),
        "RV-CAP paper-rig ticks drifted under active_set"
    );
}

/// The paper SoC registers its 17 components in dataflow order. The
/// registration order decides same-cycle forwarding, so a component
/// folded into another, dropped or moved shows up here before it shows
/// up as a cycle drift; the benchmark's per-layer metrics also look
/// components up by these names.
#[test]
fn paper_soc_roster_is_pinned() {
    let rig = paper_soc::rig_with_geometry(RpGeometry::paper_rp());
    let names: Vec<String> = rig
        .soc
        .core
        .sim
        .kernel_stats()
        .components
        .into_iter()
        .map(|c| c.name)
        .collect();
    assert_eq!(
        names,
        [
            "ddr",
            "xbar",
            "dma",
            "switch",
            "iso0.in",
            "iso0.out",
            "axis2icap",
            "hwicap",
            "icap",
            "host0",
            "rpctrl",
            "swctrl",
            "boot",
            "clint",
            "plic",
            "uart",
            "spi",
        ],
        "paper SoC roster changed"
    );
}
