//! Determinism: the simulation is single-threaded and ticked in a
//! fixed order, so identical systems must produce *bit-identical*
//! cycle counts, timer readings, and memory contents across runs.
//! This property is what lets EXPERIMENTS.md quote exact numbers and
//! lets the calibration tests use tight tolerances.

use rvcap_repro::accel::library::filter_library;
use rvcap_repro::accel::{run_accelerator, Image};
use rvcap_repro::core::drivers::{DmaMode, RvCapDriver};
use rvcap_repro::core::system::SocBuilder;
use rvcap_repro::fabric::rp::RpGeometry;
use rvcap_repro::sim::Scheduler;
use rvcap_repro::soc::map::DDR_BASE;

const DIM: usize = 16;

/// One full reconfigure + accelerate run; returns every observable.
fn one_run() -> (u64, u64, u64, Vec<u8>, u64) {
    one_run_sched(Scheduler::ActiveSet)
}

/// Same run under an explicit kernel scheduler.
fn one_run_sched(scheduler: Scheduler) -> (u64, u64, u64, Vec<u8>, u64) {
    let geometry = RpGeometry::scaled(1, 0, 0);
    let library = filter_library(&geometry, DIM, DIM);
    let img = library.by_name("Gaussian").unwrap().clone();
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(library)
        .build();
    soc.core.sim.set_scheduler(scheduler);
    let module = soc.stage_module(0, &img, DDR_BASE + 0x40_0000);
    let input = Image::noise(DIM, DIM, 7);
    soc.handles
        .ddr
        .write_bytes(DDR_BASE + 0x10_0000, input.as_bytes());
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    let t = driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
    let icap = soc.handles.icap.clone();
    soc.core.wait_until(100_000, || !icap.busy()).unwrap();
    let plic = soc.handles.plic.clone();
    let tc = run_accelerator(
        &mut soc.core,
        &plic,
        0,
        DDR_BASE + 0x10_0000,
        DDR_BASE + 0x20_0000,
        (DIM * DIM) as u32,
    );
    (
        t.td_ticks,
        t.tr_ticks,
        tc,
        soc.handles.ddr.read_bytes(DDR_BASE + 0x20_0000, DIM * DIM),
        soc.core.now(),
    )
}

#[test]
fn identical_runs_are_bit_identical() {
    let a = one_run();
    let b = one_run();
    assert_eq!(a.0, b.0, "Td");
    assert_eq!(a.1, b.1, "Tr");
    assert_eq!(a.2, b.2, "Tc");
    assert_eq!(a.3, b.3, "output bytes");
    assert_eq!(a.4, b.4, "final cycle count");
}

/// Idle fast-forward only skips ticks the components declared to be
/// no-ops, so every observable — including the final cycle counter —
/// must be bit-identical with the optimization on or off.
#[test]
fn fast_forward_is_bit_identical_to_naive_schedule() {
    let ff = one_run_sched(Scheduler::ActiveSet);
    let naive = one_run_sched(Scheduler::Naive);
    assert_eq!(ff.0, naive.0, "Td");
    assert_eq!(ff.1, naive.1, "Tr");
    assert_eq!(ff.2, naive.2, "Tc");
    assert_eq!(ff.3, naive.3, "output bytes");
    assert_eq!(ff.4, naive.4, "final cycle count");
}

/// The full Table I measurement (RV-CAP + HWICAP throughput on the
/// paper's 650 892-byte bitstream) serializes to byte-identical JSON
/// with fast-forward on and off.
#[test]
fn table1_json_is_identical_with_and_without_fast_forward() {
    use rvcap_bench::report::Json;
    let on = rvcap_bench::tables::table1_run(Scheduler::ActiveSet);
    let off = rvcap_bench::tables::table1_run(Scheduler::Naive);
    assert_eq!(on.rows.to_json(), off.rows.to_json());
    // And fast-forward actually did something on this workload.
    assert!(
        on.hwicap_stats.jumps > 0,
        "expected idle jumps in the HWICAP run"
    );
    assert_eq!(off.hwicap_stats.jumps, 0, "disabled means no jumps");
}

#[test]
fn paper_headline_numbers_are_stable_constants() {
    // Not a tolerance check (calibration.rs does that) — an exactness
    // check: the measured values are single deterministic integers.
    use rvcap_repro::fabric::resources::Resources;
    use rvcap_repro::fabric::rm::{RmImage, RmLibrary};
    let run = || {
        let geometry = RpGeometry::paper_rp();
        let img = RmImage::synthesize("D", geometry.frames(), Resources::ZERO);
        let mut lib = RmLibrary::new();
        lib.register_image(img.clone());
        let mut soc = SocBuilder::new()
            .with_rps(vec![geometry])
            .with_library(lib)
            .build();
        let module = soc.stage_module(0, &img, DDR_BASE + 0x40_0000);
        let d = RvCapDriver::new(0, soc.handles.plic.clone());
        let t = d.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
        (t.td_ticks, t.tr_ticks)
    };
    assert_eq!(run(), run());
}
