//! Table IV: the adaptive image-processing case study.
//!
//! For each filter: reconfigure the partition with its partial
//! bitstream (T_d, T_r), then stream a 512×512 image through it in
//! acceleration mode (T_c), verifying the hardware output against the
//! golden software filter. `T_ex = T_d + T_r + T_c`.
//!
//! The measurement lives in [`rvcap_bench::tables::table4_run`] so the
//! calibration tests can pin it; this binary renders it.

use rvcap_bench::tables::{table4_run, Table4Run};
use rvcap_bench::{report, runner};

fn main() {
    let Table4Run { rows, audit } = table4_run();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.accelerator.to_string(),
                format!("{:.0} ({:.0})", r.td_us, r.paper[0]),
                format!("{:.0} ({:.0})", r.tr_us, r.paper[1]),
                format!("{:.0} ({:.0})", r.tc_us, r.paper[2]),
                format!("{:.0} ({:.0})", r.tex_us, r.paper[3]),
                if r.output_matches_golden { "yes" } else { "NO" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            "Table IV — accelerator execution times, measured (paper) in µs, 100 MHz",
            &["accelerator", "Td", "Tr", "Tc", "Tex", "output = golden"],
            &table,
        )
    );
    assert!(
        rows.iter().all(|r| r.output_matches_golden),
        "hardware output diverged from the golden filters"
    );
    println!("{}", runner::audit_summary(&audit));
    report::dump_json("table4", &rows);
}
