//! Shared Table I, Table IV and unroll-sweep measurements.
//!
//! The measurements live in the library (not the `table1`/`table4`/
//! `unroll_sweep` binaries) so integration tests can run them: the
//! determinism tests run Table I twice — once with idle fast-forward
//! enabled, once with it disabled — and assert the resulting JSON is
//! byte-identical; the calibration tests pin Table IV's compute times
//! and the interpreter's fill-loop timing. The binaries render the
//! same rows.

use rvcap_accel::{paper_filter_library, run_accelerator, FilterKind, Image};
use rvcap_core::drivers::{DmaMode, RvCapDriver};
use rvcap_core::hwicap::REG_WF;
use rvcap_core::resources::{hwicap_report, rvcap_report};
use rvcap_core::system::SocBuilder;
use rvcap_rv64::{assemble, Cpu, RunExit, RunResult};
use rvcap_sim::{KernelStats, MmioAudit, Scheduler};
use rvcap_soc::cpu::InterpreterBus;
use rvcap_soc::map::{DDR_BASE, HWICAP_BASE};

use crate::paper_soc;
use crate::runner;

/// One row of Table I.
pub struct Table1Row {
    /// Controller name (first row of each group only).
    pub controller: String,
    /// Sub-module name.
    pub module: String,
    /// LUT count.
    pub luts: u32,
    /// Flip-flop count.
    pub ffs: u32,
    /// BRAM count.
    pub brams: u32,
    /// Measured throughput, MB/s (first row of each group only).
    pub throughput_mbs: Option<f64>,
    /// The paper's reported throughput, MB/s.
    pub paper_throughput_mbs: Option<f64>,
}
crate::impl_json_struct!(Table1Row {
    controller,
    module,
    luts,
    ffs,
    brams,
    throughput_mbs,
    paper_throughput_mbs
});

/// The full Table I measurement plus kernel accounting for both runs.
pub struct Table1Run {
    /// The table rows (resources + measured throughputs).
    pub rows: Vec<Table1Row>,
    /// Kernel stats of the RV-CAP reconfiguration run.
    pub rvcap_stats: KernelStats,
    /// Kernel stats of the AXI_HWICAP reconfiguration run.
    pub hwicap_stats: KernelStats,
    /// Register-level MMIO audit of the RV-CAP run.
    pub rvcap_audit: MmioAudit,
    /// Register-level MMIO audit of the AXI_HWICAP run.
    pub hwicap_audit: MmioAudit,
}

/// Measure Table I on the paper rig under `scheduler`; the rows must
/// not depend on it.
pub fn table1_run(scheduler: Scheduler) -> Table1Run {
    // ---- measured throughputs ----
    // The two reconfiguration runs are independent simulations; fan
    // them out across the worker pool. Results come back in input
    // order, so the rows are deterministic regardless of scheduling.
    type Measured = (f64, KernelStats, MmioAudit);
    let mut runs: Vec<Measured> = runner::run_parallel(vec![
        Box::new(move || {
            let run = runner::reconfigure_rvcap_sched(
                paper_soc::rvcap_rig(),
                DmaMode::NonBlocking,
                scheduler,
            );
            // The paper's headline throughput is the max over the
            // Fig. 3 sweep; at the Table I reference bitstream the
            // distinction is under 1 % — we report the measured value
            // for this bitstream.
            (
                run.throughput_mbs(),
                run.soc.core.sim.kernel_stats(),
                runner::mmio_audit(&run.soc),
            )
        }) as Box<dyn FnOnce() -> Measured + Send>,
        Box::new(move || {
            let run = runner::reconfigure_hwicap_sched(paper_soc::rvcap_rig(), 16, scheduler);
            (
                run.throughput_mbs(),
                run.soc.core.sim.kernel_stats(),
                runner::mmio_audit(&run.soc),
            )
        }),
    ]);
    let (hwicap_mbs, hwicap_stats, hwicap_audit) = runs.pop().expect("hwicap run");
    let (rvcap_mbs, rvcap_stats, rvcap_audit) = runs.pop().expect("rvcap run");

    // ---- resource trees (calibrated constants, derived totals) ----
    let mut rows: Vec<Table1Row> = Vec::new();
    for (report, mbs, paper) in [
        (rvcap_report(), Some(rvcap_mbs), Some(398.1)),
        (hwicap_report(), Some(hwicap_mbs), Some(8.23)),
    ] {
        for (i, child) in report.children.iter().enumerate() {
            let r = child.total();
            rows.push(Table1Row {
                controller: if i == 0 {
                    report.name.clone()
                } else {
                    String::new()
                },
                module: child.name.clone(),
                luts: r.luts,
                ffs: r.ffs,
                brams: r.brams,
                throughput_mbs: if i == 0 { mbs } else { None },
                paper_throughput_mbs: if i == 0 { paper } else { None },
            });
        }
    }
    Table1Run {
        rows,
        rvcap_stats,
        hwicap_stats,
        rvcap_audit,
        hwicap_audit,
    }
}

/// One row of Table IV: one filter, reconfigured and then run over a
/// 512×512 image.
pub struct Table4Row {
    /// Filter name.
    pub accelerator: &'static str,
    /// Decision time `T_d`, µs.
    pub td_us: f64,
    /// Reconfiguration time `T_r`, µs.
    pub tr_us: f64,
    /// Compute time `T_c`, µs.
    pub tc_us: f64,
    /// `T_c` in CLINT ticks (5 MHz), the exact count behind `tc_us`.
    pub tc_ticks: u64,
    /// Execution time `T_ex = T_d + T_r + T_c`, µs.
    pub tex_us: f64,
    /// The paper's `T_d`, `T_r`, `T_c`, `T_ex`, µs.
    pub paper: [f64; 4],
    /// The hardware output equals the golden filter's.
    pub output_matches_golden: bool,
}
crate::impl_json_struct!(Table4Row {
    accelerator,
    td_us,
    tr_us,
    tc_us,
    tc_ticks,
    tex_us,
    paper,
    output_matches_golden
});

/// The Table IV measurement plus the run's MMIO audit.
pub struct Table4Run {
    /// One row per filter, in [`FilterKind::ALL`] order.
    pub rows: Vec<Table4Row>,
    /// Register-level MMIO audit of the whole run.
    pub audit: MmioAudit,
}

/// Measure Table IV on the paper SoC: for each filter, reconfigure the
/// partition with its partial bitstream (`T_d`, `T_r`), then stream a
/// 512×512 noise image through it in acceleration mode (`T_c`) and
/// compare the output with the golden filter. Panics if any MMIO
/// access or bus transfer of the run violated policy.
pub fn table4_run() -> Table4Run {
    let lib = paper_filter_library();
    let images: Vec<_> = FilterKind::ALL
        .iter()
        .map(|k| {
            lib.by_name(k.name())
                .expect("the library registers every filter")
                .clone()
        })
        .collect();
    let mut soc = SocBuilder::new().with_library(lib).build();
    let dim = Image::PAPER_DIM;
    let input = Image::noise(dim, dim, 2024);
    let in_addr = DDR_BASE + 0x10_0000;
    let out_addr = DDR_BASE + 0x60_0000;
    let stage = DDR_BASE + 0xA0_0000;
    soc.handles.ddr.write_bytes(in_addr, input.as_bytes());
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());

    let paper: [[f64; 4]; 3] = [
        [18.0, 1651.0, 606.0, 2275.0],
        [18.0, 1651.0, 598.0, 2267.0],
        [18.0, 1651.0, 588.0, 2257.0],
    ];

    let mut rows = Vec::new();
    for ((kind, img), paper_row) in FilterKind::ALL.iter().zip(&images).zip(paper) {
        let module = soc.stage_module(0, img, stage);
        let t = driver.init_reconfig_process(&mut soc.core, &module, DmaMode::NonBlocking);
        let icap = soc.handles.icap.clone();
        soc.core
            .wait_until(100_000, || !icap.busy())
            .expect("the ICAP finishes the load");
        let plic = soc.handles.plic.clone();
        let tc_ticks = run_accelerator(
            &mut soc.core,
            &plic,
            0,
            in_addr,
            out_addr,
            (dim * dim) as u32,
        );
        let out = soc.handles.ddr.read_bytes(out_addr, dim * dim);
        let ok = out == kind.golden(&input).as_bytes();
        let (td, tr, tc) = (t.td_us(), t.tr_us(), tc_ticks as f64 / 5.0);
        rows.push(Table4Row {
            accelerator: kind.name(),
            td_us: td,
            tr_us: tr,
            tc_us: tc,
            tc_ticks,
            tex_us: td + tr + tc,
            paper: paper_row,
            output_matches_golden: ok,
        });
    }
    runner::assert_clean_mmio(&soc);
    Table4Run {
        rows,
        audit: runner::mmio_audit(&soc),
    }
}

/// The §IV-B HWICAP fill loop at a given unroll factor, as RV64
/// assembly: load a bitstream word from DDR, store it to the HWICAP
/// write-FIFO keyhole, `unroll` times per back-edge. The target
/// addresses come from the same register-map declarations the device
/// decode and the drivers use — the interpreter's `sw` stores land on
/// the declared WF keyhole, not a hand-copied literal.
fn fill_loop_asm(unroll: usize, words: usize) -> String {
    assert_eq!(words % unroll, 0);
    let mut s = format!(
        "
        li   a0, {HWICAP_BASE:#x}     # HWICAP base
        addi a0, a0, {REG_WF:#x}      # WF keyhole register
        li   a1, {:#x}
        slli a1, a1, 1          # DDR base: bitstream words
        ",
        DDR_BASE >> 1,
    );
    s.push_str(&format!("li a2, {}\n", words / unroll));
    s.push_str("loop:\n");
    for _ in 0..unroll {
        s.push_str("lw t3, 0(a1)\nsw t3, 0(a0)\naddi a1, a1, 4\n");
    }
    s.push_str("addi a2, a2, -1\nbnez a2, loop\necall\n");
    s
}

/// Run the fill loop for `words` words on the RV64IM interpreter
/// against a simulated SoC: every `sw` to the keyhole is a blocking
/// bus round trip, every back-edge `bnez` pays the pipeline redirect.
/// The HWICAP's write FIFO is sized to hold every word, so the run
/// measures the fill alone (no flush). Panics unless the loop halts.
pub fn interpreter_fill_loop(unroll: usize, words: usize) -> RunResult {
    let mut soc = SocBuilder::new().with_hwicap_depth(words * 2).build();
    soc.handles
        .ddr
        .write_bytes(DDR_BASE, &vec![0x5Au8; words * 4]);
    let program = assemble(&fill_loop_asm(unroll, words), 0x1_0000).expect("asm");
    let mut cpu = Cpu::new(program, 0x1_0000);
    let ddr = soc.handles.ddr.clone();
    let mut bus = InterpreterBus::new(&mut soc.core, ddr);
    let res = cpu.run(&mut bus, 10_000_000);
    assert_eq!(res.exit, RunExit::Halted, "unroll {unroll}");
    res
}
