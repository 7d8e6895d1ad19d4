//! System-level bus-sanitizer coverage: the strict mode the tier-1
//! gate runs under (`RVCAP_STRICT=1` in `scripts/check.sh`).
//!
//! `SocBuilder::with_sanitizer()` puts every MM link and every stream
//! channel of the Fig. 1/Fig. 2 system under protocol watch. These
//! tests drive both reconfiguration paths *and* the acceleration
//! datapath (stream switch → isolators → reconfigurable module →
//! S2MM) end to end and assert the bus stays protocol-clean, with the
//! violation count visible through every reporting surface the
//! sanitizer feeds: the handle itself, [`rvcap_sim` kernel stats] and
//! the merged MMIO audit.

use rvcap_repro::accel::library::filter_library;
use rvcap_repro::accel::{run_accelerator, FilterKind, Image};
use rvcap_repro::core::drivers::{DmaMode, HwIcapDriver, ReconfigModule, RvCapDriver};
use rvcap_repro::core::system::SocBuilder;
use rvcap_repro::fabric::bitstream::BitstreamBuilder;
use rvcap_repro::fabric::rp::RpGeometry;
use rvcap_repro::soc::map::DDR_BASE;

const DIM: usize = 24;

/// The builder only pays for the sanitizer when asked, and when asked
/// it covers the whole bus: all twelve MM links (two channels each)
/// plus the stream fabric.
#[test]
fn builder_flag_controls_sanitizer_and_covers_the_bus() {
    // Without the flag the builder only attaches a sanitizer when the
    // strict-mode environment variable asks for one (as the tier-1
    // gate does), so the default build is free exactly when strict
    // mode is off.
    let strict = std::env::var("RVCAP_STRICT").is_ok_and(|v| !v.is_empty() && v != "0");
    let plain = SocBuilder::new().build();
    assert_eq!(plain.handles.sanitizer.is_some(), strict);

    let soc = SocBuilder::new().with_sanitizer().build();
    let san = soc.handles.sanitizer.as_ref().expect("sanitizer attached");
    // 12 MM links × (req + resp) = 24, plus mm2s/s2mm/switch.icap/
    // icap.in and three channels around the single RP.
    assert_eq!(san.watched_channels(), 31, "whole-bus coverage");
    assert_eq!(san.violation_count(), 0);
}

/// Reconfigure over the RV-CAP path, then stream an image through the
/// loaded accelerator — the full switch/isolator/RM datapath — with
/// every channel watched. Zero violations, on every surface.
#[test]
fn rvcap_reconfigure_and_accelerate_stay_protocol_clean() {
    let geometry = RpGeometry::scaled(1, 0, 0);
    let library = filter_library(&geometry, DIM, DIM);
    let median = library.by_name("Median").unwrap().clone();
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(library)
        .with_sanitizer()
        .build();
    let module = soc.stage_module(0, &median, DDR_BASE + 0x40_0000);
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
    let icap = soc.handles.icap.clone();
    soc.core.wait_until(100_000, || !icap.busy()).unwrap();

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

    let san = soc.handles.sanitizer.as_ref().unwrap();
    assert_eq!(
        san.violation_count(),
        0,
        "protocol violations: {:?}",
        san.violations()
    );
    assert_eq!(soc.core.sim.mmio_audit().protocol, 0);
    assert_eq!(soc.core.sim.mmio_audit().violations(), 0);
}

/// The HWICAP baseline path (word-by-word MMIO feeding) is also clean
/// under watch.
#[test]
fn hwicap_path_stays_protocol_clean() {
    let geometry = RpGeometry::scaled(1, 0, 0);
    let library = filter_library(&geometry, DIM, DIM);
    let gaussian = library.by_name("Gaussian").unwrap().clone();
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(library)
        .with_sanitizer()
        .build();
    let module = soc.stage_module(0, &gaussian, DDR_BASE + 0x40_0000);
    let ddr = soc.handles.ddr.clone();
    HwIcapDriver::new().reconfigure_rp(&mut soc.core, &ddr, &module);
    assert_eq!(
        soc.handles.rm_hosts[0].active_module().as_deref(),
        Some("Gaussian")
    );
    let san = soc.handles.sanitizer.as_ref().unwrap();
    assert_eq!(
        san.violation_count(),
        0,
        "protocol violations: {:?}",
        san.violations()
    );
}

/// The compressed-loader variant (extension study) adds the RLE
/// decompressor channel to the watch list and stays clean too.
#[test]
fn compressed_loader_path_stays_protocol_clean() {
    use rvcap_repro::fabric::compress;
    use rvcap_repro::fabric::resources::Resources;
    use rvcap_repro::fabric::rm::{RmImage, RmLibrary};

    let geometry = RpGeometry::scaled(1, 0, 0);
    let img = RmImage::synthesize("Z", geometry.frames(), Resources::ZERO);
    let mut lib = RmLibrary::new();
    lib.register_image(img.clone());
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(lib)
        .with_compressed_loader()
        .with_sanitizer()
        .build();
    let bs = BitstreamBuilder::kintex7().partial(soc.handles.rps[0].far_base, &img.payload);
    let compressed = compress::compress(bs.words());
    let mut bytes = Vec::with_capacity(compressed.len() * 4);
    for w in &compressed {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    let stage = DDR_BASE + 0x40_0000;
    soc.handles.ddr.write_bytes(stage, &bytes);
    let module = ReconfigModule {
        name: "Z".into(),
        rm_number: 0,
        start_address: stage,
        pbit_size: bytes.len() as u32,
    };
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
    // The DMA finishes with the compressed stream while the ICAP is
    // still expanding — wait on the RP status register.
    assert!(driver.wait_for_module(&mut soc.core, 1, 10_000));
    assert_eq!(
        soc.handles.rm_hosts[0].active_module().as_deref(),
        Some("Z")
    );

    let san = soc.handles.sanitizer.as_ref().unwrap();
    // The 31 channels of the plain bus (12 MM links), plus rle.in.
    assert_eq!(san.watched_channels(), 32, "rle.in joins the watch list");
    assert_eq!(
        san.violation_count(),
        0,
        "protocol violations: {:?}",
        san.violations()
    );
}
