//! Fig. 3: reconfiguration time vs RP size, RV-CAP and AXI_HWICAP.
//!
//! The paper sweeps partial-bitstream sizes derived from different RP
//! geometries and plots reconfiguration time; RV-CAP's curve is flat
//! near the ICAP wire speed while HWICAP's grows ~48× steeper. The
//! sweep below covers ~0.1–2.3 MB (the paper's RP at 650 892 B sits in
//! the middle) and prints both series plus throughput, reporting the
//! maximum achieved RV-CAP throughput — the paper's 398.1 MB/s
//! headline number.

use std::time::{Duration, Instant};

use rvcap_bench::{paper_soc, report, runner};
use rvcap_core::drivers::DmaMode;
use rvcap_fabric::rp::RpGeometry;
use rvcap_sim::Scheduler;

/// One sweep point, both controllers. Self-contained so points run on
/// worker threads (each builds its own simulator — the sim is
/// single-threaded by design, but independent sims parallelize
/// perfectly).
fn run_point(g: RpGeometry) -> Point {
    let rv = runner::reconfigure_rvcap(
        paper_soc::rig_with_geometry(g.clone()),
        DmaMode::NonBlocking,
    );
    let hw = runner::reconfigure_hwicap(paper_soc::rig_with_geometry(g), 16);
    let hw_us = hw.ticks as f64 / 5.0;

    Point {
        bitstream_bytes: rv.module.pbit_size,
        rvcap_tr_us: rv.timing.tr_us(),
        rvcap_mbs: rv.throughput_mbs(),
        hwicap_tr_us: hw_us,
        hwicap_mbs: hw.throughput_mbs(),
    }
}

/// Wall-clock the paper-RP point (RV-CAP reconfiguration followed by
/// the HWICAP baseline) under `scheduler`. Returns the host time, both
/// simulated tick counts (which must not depend on the scheduler), and
/// the kernel accounting of the HWICAP run.
fn time_paper_point(scheduler: Scheduler) -> (Duration, u64, u64, runner::HwIcapRun) {
    let start = Instant::now();
    let rv =
        runner::reconfigure_rvcap_sched(paper_soc::rvcap_rig(), DmaMode::NonBlocking, scheduler);
    let hw = runner::reconfigure_hwicap_sched(paper_soc::rvcap_rig(), 16, scheduler);
    (start.elapsed(), rv.timing.tr_ticks, hw.ticks, hw)
}

struct Point {
    bitstream_bytes: u32,
    rvcap_tr_us: f64,
    rvcap_mbs: f64,
    hwicap_tr_us: f64,
    hwicap_mbs: f64,
}
rvcap_bench::impl_json_struct!(Point {
    bitstream_bytes,
    rvcap_tr_us,
    rvcap_mbs,
    hwicap_tr_us,
    hwicap_mbs
});

fn main() {
    // RP geometries from ~2 CLB columns up to ~10× the paper RP.
    let geometries: Vec<RpGeometry> = vec![
        RpGeometry::scaled(2, 0, 0),
        RpGeometry::scaled(4, 1, 0),
        RpGeometry::scaled(8, 2, 1),
        RpGeometry::paper_rp(),
        RpGeometry::scaled(24, 6, 2),
        RpGeometry::scaled(48, 12, 4),
        RpGeometry::scaled(72, 18, 6),
    ];
    // Fan the sweep out across the worker pool (RVCAP_BENCH_THREADS);
    // results come back in input order, then re-sort by size so the
    // output is identical to a sequential run.
    let mut points: Vec<Point> = runner::run_parallel(
        geometries
            .into_iter()
            .map(|g| move || run_point(g))
            .collect(),
    );
    points.sort_by_key(|p| p.bitstream_bytes);

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.bitstream_bytes.to_string(),
                format!("{:.1}", p.rvcap_tr_us),
                format!("{:.1}", p.rvcap_mbs),
                format!("{:.1}", p.hwicap_tr_us),
                format!("{:.2}", p.hwicap_mbs),
                format!("{:.1}x", p.hwicap_tr_us / p.rvcap_tr_us),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            "Fig. 3 — reconfiguration time vs RP size (16-unrolled HWICAP driver)",
            &[
                "bitstream B",
                "RV-CAP Tr µs",
                "RV-CAP MB/s",
                "HWICAP Tr µs",
                "HWICAP MB/s",
                "speedup"
            ],
            &rows,
        )
    );
    let max_mbs = points.iter().map(|p| p.rvcap_mbs).fold(0.0, f64::max);
    println!(
        "max RV-CAP throughput over the sweep: {max_mbs:.1} MB/s (paper: 398.1; ICAP ceiling: 400.0)"
    );
    let paper_point = points.iter().find(|p| p.bitstream_bytes == 650_892);
    if let Some(p) = paper_point {
        println!(
            "paper RP (650 892 B): Tr {:.1} µs (paper 1651), deviation {:+.2}%",
            p.rvcap_tr_us,
            report::deviation_pct(p.rvcap_tr_us, 1651.0)
        );
    }
    // Idle fast-forward: same simulated cycles, less host time. The
    // HWICAP run in particular spends most of its cycles waiting out
    // the AXI-Lite lane latency, which the kernel now jumps over.
    let (t_off, tr_off, hw_off, _) = time_paper_point(Scheduler::Naive);
    let (t_on, tr_on, hw_on, hw_run) = time_paper_point(Scheduler::ActiveSet);
    assert_eq!(
        (tr_off, hw_off),
        (tr_on, hw_on),
        "fast-forward must not change simulated cycle counts"
    );
    let speedup = t_off.as_secs_f64() / t_on.as_secs_f64();
    println!(
        "idle fast-forward, paper RP point (RV-CAP + HWICAP runs): \
         {:.0} ms off → {:.0} ms on, {speedup:.1}x wall-clock speedup",
        t_off.as_secs_f64() * 1e3,
        t_on.as_secs_f64() * 1e3,
    );
    println!(
        "\nkernel accounting, HWICAP run (fast-forward on):\n{}",
        hw_run.soc.core.sim.kernel_stats().render()
    );
    println!("HWICAP run {}", runner::mmio_summary(&hw_run.soc));
    report::dump_json("fig3", &points);
}
