//! Calibration pins: the paper's headline numbers, measured on the
//! full system, asserted with tight tolerances. The simulation is
//! deterministic, so any drift here means a model change altered the
//! reproduced results — these tests are the contract of EXPERIMENTS.md.

use rvcap_repro::core::drivers::{DmaMode, HwIcapDriver, ReconfigModule, RvCapDriver};
use rvcap_repro::core::system::SocBuilder;
use rvcap_repro::fabric::bitstream::Bitstream;
use rvcap_repro::fabric::resources::Resources;
use rvcap_repro::fabric::rm::{RmImage, RmLibrary};
use rvcap_repro::fabric::rp::RpGeometry;
use rvcap_repro::soc::map::DDR_BASE;

fn paper_rig() -> (rvcap_repro::core::system::RvCapSoc, ReconfigModule) {
    let geometry = RpGeometry::paper_rp();
    let img = RmImage::synthesize("CAL", geometry.frames(), Resources::ZERO);
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(lib)
        .build();
    let module = soc.stage_module(0, &img, DDR_BASE + 0x40_0000);
    (soc, module)
}

/// §IV-A: the paper RP's partial bitstream is exactly 650 892 bytes.
#[test]
fn paper_bitstream_size() {
    assert_eq!(RpGeometry::paper_rp().bitstream_bytes(), 650_892);
    assert_eq!(Bitstream::size_for_frames(1611), 650_892);
}

/// §IV-B / Table IV: T_d = 18 µs, T_r = 1651 µs (we measure 1649,
/// −0.12 %), throughput within [394, 400] MB/s.
#[test]
fn rvcap_headline_timings() {
    let (mut soc, module) = paper_rig();
    let d = RvCapDriver::new(0, soc.handles.plic.clone());
    let t = d.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
    assert!(
        (t.td_us() - 18.0).abs() <= 1.0,
        "Td {} µs (paper 18)",
        t.td_us()
    );
    assert!(
        (t.tr_us() - 1651.0).abs() <= 10.0,
        "Tr {} µs (paper 1651)",
        t.tr_us()
    );
    let mbs = t.throughput_mbs(module.pbit_size as u64);
    assert!(
        mbs > 393.0 && mbs < 400.0,
        "throughput {mbs} MB/s (paper 398.1 max, 400 ceiling)"
    );
}

/// §IV-C / Fig. 3: the maximum reconfiguration throughput over larger
/// bitstreams reaches the paper's 398.1 MB/s (and never the 400 MB/s
/// ceiling).
#[test]
fn rvcap_max_throughput_reaches_398() {
    let geometry = RpGeometry::scaled(48, 12, 4);
    let img = RmImage::synthesize("BIG", geometry.frames(), Resources::ZERO);
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(lib)
        .build();
    let module = soc.stage_module(0, &img, DDR_BASE + 0x40_0000);
    let d = RvCapDriver::new(0, soc.handles.plic.clone());
    let t = d.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
    let mbs = t.throughput_mbs(module.pbit_size as u64);
    assert!((397.0..400.0).contains(&mbs), "max throughput {mbs} MB/s");
}

/// §IV-B: the HWICAP driver reaches 4.16 MB/s without unrolling —
/// giving the paper's 156.45 ms for the 650 892-byte bitstream — and
/// ~8.23 MB/s with the 16-unrolled loop.
#[test]
fn hwicap_throughput_both_unroll_points() {
    // Small RP: the per-word cost is identical, only duration scales.
    let geometry = RpGeometry::scaled(2, 0, 0);
    let img = RmImage::synthesize("HW", geometry.frames(), Resources::ZERO);
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let build = || {
        let mut l = RmLibrary::new();
        l.register_image(img.clone());
        let soc = SocBuilder::new()
            .with_rps(vec![geometry.clone()])
            .with_library(l)
            .build();
        let module = soc.stage_module(0, &img, DDR_BASE + 0x40_0000);
        (soc, module)
    };
    drop(lib);

    let (mut soc, module) = build();
    let ddr = soc.handles.ddr.clone();
    let ticks = HwIcapDriver::with_unroll(1).reconfigure_rp(&mut soc.core, &ddr, &module);
    let mbs1 = module.pbit_size as f64 / (ticks as f64 / 5.0);
    assert!((mbs1 - 4.16).abs() < 0.1, "u=1: {mbs1} MB/s (paper 4.16)");

    let (mut soc, module) = build();
    let ddr = soc.handles.ddr.clone();
    let ticks = HwIcapDriver::with_unroll(16).reconfigure_rp(&mut soc.core, &ddr, &module);
    let mbs16 = module.pbit_size as f64 / (ticks as f64 / 5.0);
    assert!(
        (mbs16 - 8.23).abs() < 0.2,
        "u=16: {mbs16} MB/s (paper 8.23)"
    );

    // The paper's 156.45 ms extrapolates from the u=1 rate.
    let ms_for_paper_bitstream = 650_892.0 / mbs1 / 1000.0;
    assert!(
        (ms_for_paper_bitstream - 156.45).abs() < 2.0,
        "full-bitstream u=1 time {ms_for_paper_bitstream:.2} ms (paper 156.45)"
    );
}

/// §III-B ②: the CPU's blocking round trip to every register window
/// of the paper SoC, pinned to the exact cycle, issue and retire
/// included. The AXI4-Lite register files behind the 64→32 width and
/// AXI4→AXI4-Lite protocol converters (HWICAP, DMA) cost 41 cycles a
/// read or write; that round trip is the bulk of each HWICAP keyhole
/// store behind §IV-B's 8.23 MB/s. Every other window answers one
/// crossbar hop away.
#[test]
fn register_round_trips_are_pinned() {
    use rvcap_repro::core::{dma, hwicap, rp_ctrl, switch_ctrl};
    use rvcap_repro::soc::map::*;
    let (mut soc, _) = paper_rig();
    // (window, read address, write address, access bytes,
    //  read cycles, write cycles)
    for (window, read, write, bytes, want_read, want_write) in [
        ("boot", BOOT_ROM_BASE, BOOT_ROM_BASE, 4, 13, 13),
        (
            "clint",
            CLINT_BASE + CLINT_MTIMECMP,
            CLINT_BASE + CLINT_MTIMECMP,
            8,
            12,
            12,
        ),
        (
            "plic",
            PLIC_BASE + PLIC_ENABLE,
            PLIC_BASE + PLIC_ENABLE,
            4,
            12,
            12,
        ),
        (
            "uart",
            UART_BASE + UART_STATUS,
            UART_BASE + UART_TX,
            4,
            12,
            12,
        ),
        ("spi", SPI_BASE + SPI_CS, SPI_BASE + SPI_CS, 4, 12, 12),
        (
            "hwicap",
            HWICAP_BASE + hwicap::REG_GIE,
            HWICAP_BASE + hwicap::REG_GIE,
            4,
            41,
            41,
        ),
        (
            "dma",
            DMA_BASE + dma::MM2S_DMACR,
            DMA_BASE + dma::MM2S_DMACR,
            4,
            41,
            41,
        ),
        (
            "rp_ctrl",
            RP_CTRL_BASE + rp_ctrl::REG_DECOUPLE,
            RP_CTRL_BASE + rp_ctrl::REG_DECOUPLE,
            4,
            12,
            12,
        ),
        (
            "switch_ctrl",
            SWITCH_BASE + switch_ctrl::REG_SELECT,
            SWITCH_BASE + switch_ctrl::REG_SELECT,
            4,
            12,
            12,
        ),
        ("ddr", DDR_BASE, DDR_BASE, 8, 34, 18),
    ] {
        let start = soc.core.now();
        let value = soc.core.mmio_read(read, bytes);
        let read_cycles = soc.core.now() - start;
        // Write back what the read returned: every window but the
        // UART's (whose status byte goes out on TX) reads and writes
        // one RW register, so the state is left as it was.
        let start = soc.core.now();
        soc.core.mmio_write(write, value, bytes);
        let write_cycles = soc.core.now() - start;
        assert_eq!(
            (read_cycles, write_cycles),
            (want_read, want_write),
            "{window}: (read, write) round-trip cycles"
        );
    }
    assert_eq!(soc.core.sim.mmio_audit().violations(), 0);
}

/// §IV-B, instruction-accurate: the 2048-word HWICAP fill loop on the
/// RV64IM interpreter against the simulated SoC, pinned to the exact
/// cycle and instruction at the paper's two unroll points. These runs
/// are `unroll_sweep`'s interpreter column (52.0 and 45.4 cycles per
/// word), and the interpreter's only timed use.
#[test]
fn interpreter_fill_loop_is_pinned() {
    use rvcap_bench::tables::interpreter_fill_loop;
    use rvcap_repro::rv64::{RunExit, RunResult};
    for (unroll, cycles, instructions) in [(1, 106_500, 10_249), (16, 93_059, 6_408)] {
        assert_eq!(
            interpreter_fill_loop(unroll, 2048),
            RunResult {
                cycles,
                instructions,
                exit: RunExit::Halted,
            },
            "unroll {unroll}"
        );
    }
}

/// Table IV: each filter's compute time `T_c` on the 512×512 image is
/// pinned to the exact CLINT tick (Gaussian 606 µs, Median 596 µs,
/// Sobel 586.2 µs), within 1 % of the paper, with output equal to the
/// golden filter.
#[test]
fn table4_compute_times_are_pinned() {
    let run = rvcap_bench::tables::table4_run();
    let ticks: Vec<u64> = run.rows.iter().map(|r| r.tc_ticks).collect();
    assert_eq!(ticks, [3030, 2980, 2931], "T_c in CLINT ticks");
    for r in &run.rows {
        let paper = r.paper[2];
        assert!(
            (r.tc_us - paper).abs() / paper < 0.01,
            "{}: T_c {} µs (paper {paper})",
            r.accelerator,
            r.tc_us
        );
        assert!(r.output_matches_golden, "{} output", r.accelerator);
    }
    assert_eq!(run.audit.violations(), 0);
}

/// Table I/II resource totals are derived, not hard-coded, and equal
/// the paper's numbers.
#[test]
fn resource_totals() {
    use rvcap_repro::core::resources::{full_soc_report, hwicap_report, rvcap_report};
    assert_eq!(rvcap_report().total(), Resources::new(2317, 3953, 6, 0));
    assert_eq!(hwicap_report().total(), Resources::new(1377, 2200, 2, 0));
    assert_eq!(
        full_soc_report().total(),
        Resources::new(74_393, 64_059, 92, 47)
    );
}

/// Table II models: measured throughput within 3 % of every published
/// figure (run at a reduced size; the models' rates are size-stable).
#[test]
fn table2_models_match_published() {
    for row in rvcap_repro::baselines::table2_rows(101 * 120) {
        let rel = (row.measured_mbs - row.published_mbs).abs() / row.published_mbs;
        assert!(
            rel < 0.03,
            "{}: {:.1} vs {:.1}",
            row.name,
            row.measured_mbs,
            row.published_mbs
        );
    }
}
