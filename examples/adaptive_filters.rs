//! The paper's §IV-D case study as a runnable application: swap the
//! Sobel, Median and Gaussian filters into one partition at runtime
//! and process an image with each, verifying against the golden
//! software filters and writing the results as PGM images.
//!
//! ```text
//! cargo run --release --example adaptive_filters [--dim 128] [--out DIR]
//! ```
//!
//! The default 128×128 image keeps the demo fast; `--dim 512`
//! reproduces the paper's exact workload (Table IV timings).

use rvcap_accel::library::filter_library;
use rvcap_accel::{run_accelerator, FilterKind, Image};
use rvcap_core::drivers::{DmaMode, RvCapDriver};
use rvcap_core::system::SocBuilder;
use rvcap_fabric::rp::RpGeometry;
use rvcap_soc::map::DDR_BASE;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dim = args
        .iter()
        .position(|a| a == "--dim")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(128usize);
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned();

    // The paper's RP for 512×512; a smaller partition for quick runs.
    let geometry = if dim >= 512 {
        RpGeometry::paper_rp()
    } else {
        RpGeometry::scaled(4, 1, 1)
    };
    let library = filter_library(&geometry, dim, dim);
    let images: Vec<_> = FilterKind::ALL
        .iter()
        .map(|k| library.by_name(k.name()).unwrap().clone())
        .collect();
    let mut soc = SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(library)
        .build();

    // A checkerboard + noise test image in DDR.
    let input = {
        let mut img = Image::checkerboard(dim, dim, dim / 8);
        let noise = Image::noise(dim, dim, 17);
        for r in 0..dim {
            for c in 0..dim {
                let v = img.get(r, c) / 2 + noise.get(r, c) / 2;
                img.set(r, c, v);
            }
        }
        img
    };
    let in_addr = DDR_BASE + 0x10_0000;
    let out_addr = DDR_BASE + 0x60_0000;
    let stage = DDR_BASE + 0xA0_0000;
    soc.handles.ddr.write_bytes(in_addr, input.as_bytes());
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create out dir");
        std::fs::write(format!("{dir}/input.pgm"), input.to_pgm()).expect("write input");
    }

    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    println!("adaptive image pipeline, {dim}×{dim}, one partition, three modules\n");
    for (kind, img) in FilterKind::ALL.iter().zip(&images) {
        // Stage this module's bitstream (backdoor: quickstart shows
        // the SD path) and swap it in.
        let module = soc.stage_module(0, img, stage);
        let t = driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
        let icap = soc.handles.icap.clone();
        soc.core.wait_until(100_000, || !icap.busy()).unwrap();

        // Stream the image through the freshly loaded accelerator.
        let plic = soc.handles.plic.clone();
        let tc = run_accelerator(
            &mut soc.core,
            &plic,
            0,
            in_addr,
            out_addr,
            (dim * dim) as u32,
        );
        let hw_out = soc.handles.ddr.read_bytes(out_addr, dim * dim);
        let golden = kind.golden(&input);
        let ok = hw_out == golden.as_bytes();
        println!(
            "{:>8}: Td {:>4.0} µs | Tr {:>6.0} µs | Tc {:>6.0} µs | Tex {:>6.0} µs | output {}",
            kind.name(),
            t.td_us(),
            t.tr_us(),
            tc as f64 / 5.0,
            t.td_us() + t.tr_us() + tc as f64 / 5.0,
            if ok { "= golden ✓" } else { "≠ golden ✗" }
        );
        assert!(ok, "{} hardware output mismatch", kind.name());
        rvcap_core::drivers::uart_print(
            &mut soc.core,
            &format!("{} swapped in and verified\n", kind.name()),
        );
        if let Some(dir) = &out_dir {
            let img_out = Image::from_pixels(dim, dim, hw_out);
            std::fs::write(
                format!("{dir}/{}.pgm", kind.name().to_lowercase()),
                img_out.to_pgm(),
            )
            .expect("write output");
        }
    }
    println!(
        "\n{} reconfigurations, {} UART bytes, {} ICAP words consumed",
        soc.handles.rm_hosts[0].reconfig_count(),
        soc.handles.uart.len(),
        soc.handles.icap.words_consumed()
    );
    if let Some(dir) = &out_dir {
        println!("PGM images written to {dir}/");
    }
}
