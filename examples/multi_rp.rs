//! Extension study: two reconfigurable partitions on one SoC.
//!
//! The paper's architecture supports "one or more RPs" (§III-A); its
//! evaluation uses one. This example builds two partitions, loads a
//! different filter into each, reconfigures RP1 **while RP0 keeps
//! computing**, and shows that (a) the active partition's output is
//! unaffected by the neighbouring reconfiguration and (b) the two
//! modules can then be used alternately without reloading.
//!
//! ```text
//! cargo run --release --example multi_rp
//! ```

use rvcap_accel::library::filter_library;
use rvcap_accel::{run_accelerator, FilterKind, Image};
use rvcap_core::drivers::{DmaMode, RvCapDriver};
use rvcap_core::system::SocBuilder;
use rvcap_fabric::rp::RpGeometry;
use rvcap_soc::map::DDR_BASE;

const DIM: usize = 64;
const IN_ADDR: u64 = DDR_BASE + 0x10_0000;
const OUT_ADDR: u64 = DDR_BASE + 0x60_0000;
const STAGE: u64 = DDR_BASE + 0xA0_0000;

fn main() {
    let geometry = RpGeometry::scaled(4, 1, 1);
    // One library serves both partitions (same frame count).
    let library = filter_library(&geometry, DIM, DIM);
    let gaussian = library.by_name("Gaussian").unwrap().clone();
    let sobel = library.by_name("Sobel").unwrap().clone();
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry.clone(), geometry])
        .with_library(library)
        .build();
    let input = Image::noise(DIM, DIM, 5);
    soc.handles.ddr.write_bytes(IN_ADDR, input.as_bytes());

    let rp0 = RvCapDriver::new(0, soc.handles.plic.clone());
    let rp1 = RvCapDriver::new(1, soc.handles.plic.clone());

    let load = |soc: &mut rvcap_core::system::RvCapSoc,
                driver: &RvCapDriver,
                rp: usize,
                img: &rvcap_fabric::rm::RmImage| {
        let module = soc.stage_module(rp, img, STAGE);
        let t = driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
        let icap = soc.handles.icap.clone();
        soc.core.wait_until(100_000, || !icap.busy()).unwrap();
        t
    };

    // 1. Gaussian into RP0.
    let t0 = load(&mut soc, &rp0, 0, &gaussian);
    println!(
        "RP0 ← Gaussian: Tr {:.0} µs; active: {:?}",
        t0.tr_us(),
        soc.handles.rm_hosts[0].active_module()
    );

    // 2. Run RP0 while loading Sobel into RP1. (The accelerator run
    //    and the reconfiguration share the single DMA sequentially in
    //    this SoC — the isolation property under test is the
    //    *partition state*, which survives its neighbour's
    //    reconfiguration untouched.)
    let plic = soc.handles.plic.clone();
    run_accelerator(
        &mut soc.core,
        &plic,
        0,
        IN_ADDR,
        OUT_ADDR,
        (DIM * DIM) as u32,
    );
    let gaussian_before = soc.handles.ddr.read_bytes(OUT_ADDR, DIM * DIM);
    let t1 = load(&mut soc, &rp1, 1, &sobel);
    println!(
        "RP1 ← Sobel:    Tr {:.0} µs; active: {:?} (RP0 still: {:?})",
        t1.tr_us(),
        soc.handles.rm_hosts[1].active_module(),
        soc.handles.rm_hosts[0].active_module()
    );
    assert_eq!(
        soc.handles.rm_hosts[0].active_module().as_deref(),
        Some("Gaussian"),
        "RP0 must survive RP1's reconfiguration"
    );

    // 3. Alternate the two accelerators without further reconfig.
    for (rp, kind) in [
        (0usize, FilterKind::Gaussian),
        (1, FilterKind::Sobel),
        (0, FilterKind::Gaussian),
    ] {
        let plic = soc.handles.plic.clone();
        let tc = run_accelerator(
            &mut soc.core,
            &plic,
            rp,
            IN_ADDR,
            OUT_ADDR,
            (DIM * DIM) as u32,
        );
        let out = soc.handles.ddr.read_bytes(OUT_ADDR, DIM * DIM);
        let ok = out == kind.golden(&input).as_bytes();
        println!(
            "run RP{rp} ({}): Tc {:.0} µs, output {}",
            kind.name(),
            tc as f64 / 5.0,
            if ok { "= golden ✓" } else { "≠ golden ✗" }
        );
        assert!(ok);
    }
    // RP0's pre-reconfig output is reproducible (nothing leaked).
    assert_eq!(
        gaussian_before,
        FilterKind::Gaussian.golden(&input).as_bytes(),
        "RP0 output before RP1's reconfiguration was already golden"
    );
    println!("\nmulti-RP OK: independent partitions, zero cross-talk");
}
