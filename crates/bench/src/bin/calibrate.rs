//! Calibration probe: prints the raw measured values for the paper's
//! headline experiments so the timing constants can be pinned.

use rvcap_bench::{paper_soc, runner};
use rvcap_core::drivers::DmaMode;

fn table4_probe() {
    for r in rvcap_bench::tables::table4_run().rows {
        println!(
            "{:>8}: Td {:.0} us, Tr {:.0} us, Tc {:.0} us (paper Tc: G606/M598/S588), output ok: {}",
            r.accelerator, r.td_us, r.tr_us, r.tc_us, r.output_matches_golden
        );
    }
}

fn main() {
    table4_probe();
    // ---- RV-CAP on the paper's RP (650 892-byte bitstream) ----
    let run = runner::reconfigure_rvcap(paper_soc::rvcap_rig(), DmaMode::NonBlocking);
    println!(
        "RV-CAP: Td = {:.1} us (paper 18), Tr = {:.1} us (paper 1651), throughput = {:.2} MB/s (paper 398.1)",
        run.timing.td_us(),
        run.timing.tr_us(),
        run.throughput_mbs(),
    );
    println!("{}", runner::mmio_summary(&run.soc));

    // ---- Fig 3 sweep end point: max throughput ----
    let scaled_runs: Vec<(u32, f64, f64)> = runner::run_parallel(
        [(12usize, 3usize, 1usize), (24, 6, 2), (48, 12, 4)]
            .into_iter()
            .map(|(c, b, d)| {
                move || {
                    let rig =
                        paper_soc::rig_with_geometry(rvcap_fabric::rp::RpGeometry::scaled(c, b, d));
                    let run = runner::reconfigure_rvcap(rig, DmaMode::NonBlocking);
                    (
                        run.module.pbit_size,
                        run.timing.tr_us(),
                        run.throughput_mbs(),
                    )
                }
            })
            .collect(),
    );
    for &(bytes, tr_us, mbs) in &scaled_runs {
        println!("RV-CAP {bytes} B: Tr = {tr_us:.1} us, throughput = {mbs:.2} MB/s");
    }

    // ---- HWICAP at unroll 1 and 16 ----
    let unroll_runs: Vec<(usize, u64, f64)> = runner::run_parallel(
        [1usize, 16, 32]
            .into_iter()
            .map(|unroll| {
                move || {
                    let run = runner::reconfigure_hwicap(paper_soc::rvcap_rig(), unroll);
                    (unroll, run.ticks, run.throughput_mbs())
                }
            })
            .collect(),
    );
    for &(unroll, ticks, mbs) in &unroll_runs {
        let us = ticks as f64 / 5.0;
        println!(
            "HWICAP u={unroll:>2}: Tr = {:.2} ms, throughput = {mbs:.2} MB/s (paper: u1→4.16, u16→8.23)",
            us / 1000.0,
        );
    }
}
