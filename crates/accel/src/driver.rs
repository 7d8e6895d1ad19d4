//! The acceleration-mode driver: stream an image through the loaded
//! RM and back to DDR.
//!
//! §IV-D: "The image input is stored in the DDR memory to be loaded by
//! the RV-CAP controller (in accelerator mode) after the
//! reconfiguration process." The flow programs both DMA engines — the
//! S2MM write-back channel is armed first so no output beat finds the
//! engine unready — and waits for the S2MM completion interrupt. The
//! elapsed CLINT ticks are the paper's compute time `T_c`.

use rvcap_soc::{PlicHandle, SocCore};

/// Run the active accelerator in partition `rp_index` over `len`
/// bytes at `in_addr`, writing `len` bytes to `out_addr`. Returns the
/// elapsed CLINT ticks (`T_c`).
///
/// Delegates to [`rvcap_core::drivers::rvcap::run_stream_job`] — the
/// acceleration-mode flow is part of the controller's driver API; this
/// alias keeps the image-processing call sites readable.
pub fn run_accelerator(
    core: &mut SocCore,
    plic: &PlicHandle,
    rp_index: usize,
    in_addr: u64,
    out_addr: u64,
    len: u32,
) -> u64 {
    rvcap_core::drivers::rvcap::run_stream_job(core, plic, rp_index, in_addr, out_addr, len)
}

#[cfg(test)]
mod tests {
    use crate::image::Image;
    use crate::library::{filter_library, FilterKind};
    use rvcap_core::drivers::{DmaMode, RvCapDriver};
    use rvcap_core::system::SocBuilder;
    use rvcap_fabric::rp::RpGeometry;
    use rvcap_soc::map::DDR_BASE;

    const IN_ADDR: u64 = DDR_BASE + 0x10_0000;
    const OUT_ADDR: u64 = DDR_BASE + 0x20_0000;
    const STAGE: u64 = DDR_BASE + 0x40_0000;

    #[test]
    fn reconfigure_then_accelerate_matches_golden() {
        let dim = 32usize;
        let geometry = RpGeometry::scaled(1, 0, 0);
        let lib = filter_library(&geometry, dim, dim);
        let sobel_img = lib.by_name("Sobel").unwrap().clone();
        let mut soc = SocBuilder::new()
            .with_rps(vec![geometry])
            .with_library(lib)
            .build();

        // Stage the Sobel bitstream and reconfigure.
        let module = soc.stage_module(0, &sobel_img, STAGE);
        let driver = RvCapDriver::new(0, soc.handles.plic.clone());
        driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
        let icap = soc.handles.icap.clone();
        soc.core.wait_until(100_000, || !icap.busy()).unwrap();
        assert_eq!(
            soc.handles.rm_hosts[0].active_module().as_deref(),
            Some("Sobel")
        );

        // Run the accelerator over a test image.
        let input = Image::checkerboard(dim, dim, 4);
        soc.handles.ddr.write_bytes(IN_ADDR, input.as_bytes());
        let plic = soc.handles.plic.clone();
        let ticks = super::run_accelerator(
            &mut soc.core,
            &plic,
            0,
            IN_ADDR,
            OUT_ADDR,
            (dim * dim) as u32,
        );
        let out = soc.handles.ddr.read_bytes(OUT_ADDR, dim * dim);
        let golden = FilterKind::Sobel.golden(&input);
        assert_eq!(out, golden.as_bytes(), "hardware output != golden");
        assert!(ticks > 0);
    }

    #[test]
    fn swapping_modules_changes_function() {
        let dim = 16usize;
        let geometry = RpGeometry::scaled(1, 0, 0);
        let lib = filter_library(&geometry, dim, dim);
        let images: Vec<_> = FilterKind::ALL
            .iter()
            .map(|k| lib.by_name(k.name()).unwrap().clone())
            .collect();
        let mut soc = SocBuilder::new()
            .with_rps(vec![geometry])
            .with_library(lib)
            .build();
        let input = Image::noise(dim, dim, 99);
        soc.handles.ddr.write_bytes(IN_ADDR, input.as_bytes());
        let driver = RvCapDriver::new(0, soc.handles.plic.clone());

        for (kind, img) in FilterKind::ALL.iter().zip(&images) {
            let module = soc.stage_module(0, img, STAGE);
            driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
            let icap = soc.handles.icap.clone();
            soc.core.wait_until(100_000, || !icap.busy()).unwrap();
            let plic = soc.handles.plic.clone();
            super::run_accelerator(
                &mut soc.core,
                &plic,
                0,
                IN_ADDR,
                OUT_ADDR,
                (dim * dim) as u32,
            );
            let out = soc.handles.ddr.read_bytes(OUT_ADDR, dim * dim);
            assert_eq!(
                out,
                kind.golden(&input).as_bytes(),
                "{} output mismatch",
                kind.name()
            );
        }
    }
}
