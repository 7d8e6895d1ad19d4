//! End-to-end integration: the full path the paper describes, from a
//! file on the SD card to a functioning hardware accelerator.

use rvcap_repro::accel::library::filter_library;
use rvcap_repro::accel::{run_accelerator, FilterKind, Image};
use rvcap_repro::core::drivers::{init_rmodules, DmaMode, HwIcapDriver, RvCapDriver};
use rvcap_repro::core::system::SocBuilder;
use rvcap_repro::fabric::bitstream::BitstreamBuilder;
use rvcap_repro::fabric::rp::RpGeometry;
use rvcap_repro::soc::map::DDR_BASE;

const DIM: usize = 24;

/// SD card → FAT32 → DDR → DMA → ICAP → active module → accelerator
/// output identical to the golden filter: the complete §III flow.
#[test]
fn sd_to_accelerator_full_path() {
    let geometry = RpGeometry::scaled(1, 0, 0);
    let library = filter_library(&geometry, DIM, DIM);
    let median = library.by_name("Median").unwrap().clone();

    // Build the SD image: the partial bitstream as a FAT32 file.
    // (The FAR must match where the builder will place RP0; probe it.)
    let far = SocBuilder::new()
        .with_rps(vec![geometry.clone()])
        .build()
        .handles
        .rps[0]
        .far_base;
    let bitstream = BitstreamBuilder::kintex7().partial(far, &median.payload);

    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(library)
        .with_sd_file("MEDIAN.PBI", bitstream.to_bytes())
        .with_spi_clkdiv(1)
        .build();

    // Stage from SD through the SPI peripheral (every byte simulated).
    let modules = init_rmodules(
        &mut soc.core,
        &soc.handles.ddr,
        DDR_BASE + 0x20_0000,
        &["MEDIAN.PBI"],
    );
    assert_eq!(modules.len(), 1);
    assert_eq!(modules[0].pbit_size as usize, bitstream.len_bytes());

    // Reconfigure.
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    let timing = driver.init_reconfig_process(&mut soc.core, &modules[0], DmaMode::NonBlocking);
    let icap = soc.handles.icap.clone();
    soc.core.wait_until(100_000, || !icap.busy()).unwrap();
    assert!(soc.handles.icap.last_load().unwrap().crc_ok);
    assert_eq!(
        soc.handles.rm_hosts[0].active_module().as_deref(),
        Some("Median")
    );
    assert!(timing.td_ticks > 0 && timing.tr_ticks > 0);

    // Accelerate and compare against golden.
    let input = Image::noise(DIM, DIM, 1);
    let in_addr = DDR_BASE + 0x30_0000;
    let out_addr = DDR_BASE + 0x38_0000;
    soc.handles.ddr.write_bytes(in_addr, input.as_bytes());
    let plic = soc.handles.plic.clone();
    run_accelerator(
        &mut soc.core,
        &plic,
        0,
        in_addr,
        out_addr,
        (DIM * DIM) as u32,
    );
    assert_eq!(
        soc.handles.ddr.read_bytes(out_addr, DIM * DIM),
        FilterKind::Median.golden(&input).as_bytes()
    );
}

/// The same module loads correctly through the AXI_HWICAP baseline —
/// slower, same functional result.
#[test]
fn hwicap_path_is_functionally_equivalent() {
    let geometry = RpGeometry::scaled(1, 0, 0);
    let library = filter_library(&geometry, DIM, DIM);
    let gaussian = library.by_name("Gaussian").unwrap().clone();
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(library)
        .build();
    let module = soc.stage_module(0, &gaussian, DDR_BASE + 0x40_0000);
    let ddr = soc.handles.ddr.clone();
    HwIcapDriver::new().init_reconfig_process(&mut soc.core, &ddr, &module, 0);
    let icap = soc.handles.icap.clone();
    soc.core.wait_until(100_000, || !icap.busy()).unwrap();
    assert_eq!(
        soc.handles.rm_hosts[0].active_module().as_deref(),
        Some("Gaussian")
    );
    assert!(soc
        .handles
        .uart
        .text()
        .contains("reconfiguration successful"));

    let input = Image::gradient(DIM, DIM);
    let in_addr = DDR_BASE + 0x30_0000;
    let out_addr = DDR_BASE + 0x38_0000;
    soc.handles.ddr.write_bytes(in_addr, input.as_bytes());
    let plic = soc.handles.plic.clone();
    run_accelerator(
        &mut soc.core,
        &plic,
        0,
        in_addr,
        out_addr,
        (DIM * DIM) as u32,
    );
    assert_eq!(
        soc.handles.ddr.read_bytes(out_addr, DIM * DIM),
        FilterKind::Gaussian.golden(&input).as_bytes()
    );
}

/// Swapping modules repeatedly in one partition: each swap fully
/// replaces the previous function (the core DPR property).
#[test]
fn repeated_module_swaps() {
    let geometry = RpGeometry::scaled(1, 0, 0);
    let library = filter_library(&geometry, DIM, DIM);
    let images: Vec<_> = FilterKind::ALL
        .iter()
        .map(|k| library.by_name(k.name()).unwrap().clone())
        .collect();
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(library)
        .build();
    let input = Image::checkerboard(DIM, DIM, 3);
    let in_addr = DDR_BASE + 0x30_0000;
    let out_addr = DDR_BASE + 0x38_0000;
    let stage = DDR_BASE + 0x40_0000;
    soc.handles.ddr.write_bytes(in_addr, input.as_bytes());
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());

    // Two full rounds over all three filters.
    for round in 0..2 {
        for (kind, img) in FilterKind::ALL.iter().zip(&images) {
            let module = soc.stage_module(0, img, stage);
            driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
            let icap = soc.handles.icap.clone();
            soc.core.wait_until(100_000, || !icap.busy()).unwrap();
            let plic = soc.handles.plic.clone();
            run_accelerator(
                &mut soc.core,
                &plic,
                0,
                in_addr,
                out_addr,
                (DIM * DIM) as u32,
            );
            assert_eq!(
                soc.handles.ddr.read_bytes(out_addr, DIM * DIM),
                kind.golden(&input).as_bytes(),
                "round {round}, filter {}",
                kind.name()
            );
        }
    }
    assert_eq!(soc.handles.rm_hosts[0].reconfig_count(), 6);
}

/// The ICAP word count and the DMA byte count agree across the whole
/// datapath (no words lost or duplicated in switch/bridge/isolators).
#[test]
fn datapath_conservation() {
    let geometry = RpGeometry::scaled(2, 1, 0);
    let library = filter_library(&geometry, DIM, DIM);
    let img = library.by_name("Sobel").unwrap().clone();
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(library)
        .build();
    let module = soc.stage_module(0, &img, DDR_BASE + 0x40_0000);
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
    let icap = soc.handles.icap.clone();
    soc.core.wait_until(100_000, || !icap.busy()).unwrap();
    assert_eq!(
        soc.handles.icap.words_consumed(),
        module.pbit_size as u64 / 4,
        "every bitstream word reached the ICAP exactly once"
    );
}
