//! Table I: resource utilization and throughput of the RV-CAP
//! controller vs the AXI_HWICAP baseline, both measured on the full
//! simulated SoC with the paper's 650 892-byte partial bitstream.
//!
//! The measurement itself lives in [`rvcap_bench::tables`] so the
//! determinism tests can pin it bit-identical with idle fast-forward
//! on and off; this binary renders it.

use rvcap_bench::tables::{table1_run, Table1Run};
use rvcap_bench::{report, runner};
use rvcap_core::resources::{hwicap_report, rvcap_report};
use rvcap_sim::Scheduler;

fn main() {
    let Table1Run {
        rows,
        rvcap_stats,
        hwicap_stats,
        rvcap_audit,
        hwicap_audit,
    } = table1_run(Scheduler::ActiveSet);

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.controller.clone(),
                r.module.clone(),
                r.luts.to_string(),
                r.ffs.to_string(),
                r.brams.to_string(),
                r.throughput_mbs
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_default(),
                r.paper_throughput_mbs
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_default(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            "Table I — resource utilization & throughput (Kintex-7, 100 MHz)",
            &[
                "DPR controller",
                "module",
                "LUTs",
                "FFs",
                "BRAMs",
                "measured MB/s",
                "paper MB/s"
            ],
            &table_rows,
        )
    );
    println!(
        "RV-CAP totals: {} | HWICAP totals: {}",
        rvcap_report().total(),
        hwicap_report().total()
    );
    println!("\nkernel accounting, RV-CAP run:\n{}", rvcap_stats.render());
    println!("kernel accounting, HWICAP run:\n{}", hwicap_stats.render());
    println!(
        "RV-CAP {} | HWICAP {}",
        runner::audit_summary(&rvcap_audit),
        runner::audit_summary(&hwicap_audit)
    );
    report::dump_json("table1", &rows);
}
