//! Head-to-head: the RV-CAP controller vs the AXI_HWICAP baseline on
//! the same SoC, same bitstream — the paper's central comparison —
//! plus the driver-level loop-unrolling study.
//!
//! ```text
//! cargo run --release --example hwicap_vs_rvcap
//! ```

use rvcap_core::drivers::{DmaMode, HwIcapDriver, ReconfigModule, RvCapDriver};
use rvcap_core::system::SocBuilder;
use rvcap_fabric::resources::Resources;
use rvcap_fabric::rm::{RmImage, RmLibrary};
use rvcap_fabric::rp::RpGeometry;
use rvcap_soc::map::DDR_BASE;

fn build() -> (rvcap_core::system::RvCapSoc, ReconfigModule) {
    // A mid-size partition (~360 frames) keeps HWICAP runs short while
    // showing the same ratios as the paper's 1611-frame RP.
    let geometry = RpGeometry::scaled(6, 1, 1);
    let image = RmImage::synthesize("VS", geometry.frames(), Resources::new(800, 900, 4, 4));
    let mut library = RmLibrary::new();
    library.register_image(image.clone());
    let soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(library)
        .build();
    let module = soc.stage_module(0, &image, DDR_BASE + 0x40_0000);
    (soc, module)
}

fn main() {
    let (mut soc, module) = build();
    println!(
        "bitstream: {} bytes ({} frames)\n",
        module.pbit_size,
        soc.handles.rps[0].frames()
    );

    // ---- RV-CAP ----
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    let t = driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
    let icap = soc.handles.icap.clone();
    soc.core.wait_until(100_000, || !icap.busy()).unwrap();
    assert!(soc.handles.icap.last_load().unwrap().crc_ok);
    let rvcap_mbs = t.throughput_mbs(module.pbit_size as u64);
    println!(
        "RV-CAP      : Tr {:>9.1} µs  →  {rvcap_mbs:>6.1} MB/s  (DMA + AXIS2ICAP, interrupt mode)",
        t.tr_us()
    );

    // ---- HWICAP at several unroll factors (fresh SoC each run) ----
    let mut hwicap16 = 0.0f64;
    for unroll in [1usize, 4, 16, 64] {
        let (mut soc, module) = build();
        let ddr = soc.handles.ddr.clone();
        let ticks = HwIcapDriver::with_unroll(unroll).reconfigure_rp(&mut soc.core, &ddr, &module);
        let mbs = module.pbit_size as f64 / (ticks as f64 / 5.0);
        if unroll == 16 {
            hwicap16 = mbs;
        }
        println!(
            "HWICAP  u={unroll:<2}: Tr {:>9.1} µs  →  {mbs:>6.2} MB/s  (CPU keyhole stores)",
            ticks as f64 / 5.0
        );
    }
    println!(
        "\nRV-CAP speedup over the 16-unrolled HWICAP driver: {:.1}× (paper: 398.1/8.23 ≈ 48×)",
        rvcap_mbs / hwicap16
    );
    println!(
        "resource price: RV-CAP {} vs HWICAP {}",
        rvcap_core::resources::rvcap_report().total(),
        rvcap_core::resources::hwicap_report().total()
    );
}
