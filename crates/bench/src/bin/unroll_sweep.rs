//! §IV-B ablation: HWICAP throughput vs fill-loop unroll factor.
//!
//! Two independent reproductions of the paper's loop-unrolling study:
//!
//! 1. **Driver model**: the Listing-2 driver with its calibrated loop
//!    constants, run end-to-end (fill + flush + ICAP) over a small RP.
//! 2. **Instruction-accurate**: the actual RV64 fill loop, assembled
//!    at each unroll factor and executed on the RV64IM interpreter
//!    against the simulated SoC — every `sw` to the keyhole register
//!    is a real blocking bus round trip, every back-edge `bnez` pays
//!    the pipeline redirect. This is the paper's experiment performed
//!    the way the paper performed it (modulo C compiler vs assembler).
//!
//! Both show the same shape: ~2× from unroll 1 → 16, and <5 % beyond.

use rvcap_bench::{paper_soc, report, runner, tables};
use rvcap_fabric::rp::RpGeometry;

const UNROLLS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

struct Row {
    unroll: usize,
    driver_mbs: f64,
    interpreter_mbs: f64,
    interpreter_cycles_per_word: f64,
}
rvcap_bench::impl_json_struct!(Row {
    unroll,
    driver_mbs,
    interpreter_mbs,
    interpreter_cycles_per_word
});

/// Measure one unroll factor: the driver model end to end, then the
/// instruction-accurate fill loop. Self-contained so the sweep points
/// run on the shared worker pool.
fn run_point(unroll: usize, words: usize) -> Row {
    // --- 1: driver model, end to end over a 72-frame RP ---
    let rig = paper_soc::rig_with_geometry(RpGeometry::scaled(2, 0, 0));
    let driver_mbs = runner::reconfigure_hwicap(rig, unroll).throughput_mbs();

    // --- 2: instruction-accurate fill loop on the interpreter ---
    let res = tables::interpreter_fill_loop(unroll, words);
    let cpw = res.cycles as f64 / words as f64;

    Row {
        unroll,
        driver_mbs,
        interpreter_mbs: 400.0 / cpw,
        interpreter_cycles_per_word: cpw,
    }
}

fn main() {
    let words = 2048usize;
    let rows: Vec<Row> = runner::run_parallel(
        UNROLLS
            .iter()
            .map(|&unroll| move || run_point(unroll, words))
            .collect(),
    );

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.unroll.to_string(),
                format!("{:.2}", r.driver_mbs),
                format!("{:.2}", r.interpreter_mbs),
                format!("{:.1}", r.interpreter_cycles_per_word),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            "Unroll sweep — HWICAP throughput vs fill-loop unroll (paper: u1=4.16, u16=8.23 MB/s, <5% beyond)",
            &["unroll", "driver model MB/s", "RV64 interpreter MB/s (fill only)", "cycles/word"],
            &table,
        )
    );
    let at = |u: usize| rows.iter().find(|r| r.unroll == u).unwrap();
    println!(
        "driver model: u16/u1 speedup {:.2}x (paper ~1.98x); u64 vs u16 gain {:.1}% (paper <5%)",
        at(16).driver_mbs / at(1).driver_mbs,
        (at(64).driver_mbs / at(16).driver_mbs - 1.0) * 100.0
    );
    report::dump_json("unroll_sweep", &rows);
}
