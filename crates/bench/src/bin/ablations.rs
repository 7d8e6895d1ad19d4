//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! 1. DMA maximum burst length vs reconfiguration time — why the
//!    paper's burst of 16 suffices.
//! 2. HWICAP write-FIFO depth — why the paper resized it to 1024.
//! 3. Blocking (polling) vs non-blocking (interrupt) completion — the
//!    T_r cost of the trap path vs the CPU cycles freed.
//! 4. Where the 18 µs decision time goes — per-step costs of the
//!    Listing-1 sequence.
//! 5. RT-ICAP-style bitstream compression over a compressibility
//!    sweep (extension study).
//! 6. Scheduling policy: FIFO vs module-grouped job batching over the
//!    three-filter workload (extension study).

use rvcap_bench::paper_soc::{self, PaperRig};
use rvcap_bench::{report, runner};
use rvcap_core::drivers::{DmaMode, RvCapDriver};
use rvcap_core::system::SocBuilder;
use rvcap_fabric::compress;
use rvcap_fabric::rp::RpGeometry;

#[derive(Default)]
struct Results {
    burst_sweep: Vec<(u16, f64)>,
    fifo_sweep: Vec<(usize, f64)>,
    blocking_tr_us: f64,
    nonblocking_tr_us: f64,
    cpu_free_pct_nonblocking: f64,
    decision_steps_cycles: Vec<(String, u64)>,
    compression_sweep: Vec<(u32, f64)>,
}
rvcap_bench::impl_json_struct!(Results {
    burst_sweep,
    fifo_sweep,
    blocking_tr_us,
    nonblocking_tr_us,
    cpu_free_pct_nonblocking,
    decision_steps_cycles,
    compression_sweep
});

fn main() {
    let mut results = Results::default();

    // ---- 1. DMA burst sweep (points fan out across the pool) ----
    println!("== Ablation 1: DMA max burst (paper bitstream, 650 892 B) ==");
    let burst_runs: Vec<(u16, f64, f64)> = runner::run_parallel(
        [1u16, 2, 4, 8, 16, 32, 64]
            .into_iter()
            .map(|burst| {
                move || {
                    let rig = paper_soc::rig_with_builder(
                        SocBuilder::new().with_dma_burst(burst),
                        RpGeometry::paper_rp(),
                    );
                    let run = runner::reconfigure_rvcap(rig, DmaMode::NonBlocking);
                    (burst, run.timing.tr_us(), run.throughput_mbs())
                }
            })
            .collect(),
    );
    for &(burst, tr_us, mbs) in &burst_runs {
        println!("  burst {burst:>2}: Tr {tr_us:.1} µs, {mbs:.1} MB/s");
        results.burst_sweep.push((burst, mbs));
    }
    println!("  → the knee is at burst 4: once sustained DDR supply exceeds the ICAP's 4 B/cycle, the port is the bottleneck and longer bursts buy nothing. The paper's 16 sits comfortably past the knee.\n");

    // ---- 2. HWICAP FIFO depth (16-unrolled driver, 72-frame RP) ----
    println!("== Ablation 2: HWICAP write-FIFO depth ==");
    let fifo_runs: Vec<(usize, f64)> = runner::run_parallel(
        [16usize, 64, 256, 1024, 4096]
            .into_iter()
            .map(|depth| {
                move || {
                    let rig = paper_soc::rig_with_builder(
                        SocBuilder::new().with_hwicap_depth(depth),
                        RpGeometry::scaled(2, 0, 0),
                    );
                    (depth, runner::reconfigure_hwicap(rig, 16).throughput_mbs())
                }
            })
            .collect(),
    );
    for &(depth, mbs) in &fifo_runs {
        println!("  depth {depth:>4}: {mbs:.2} MB/s");
        results.fifo_sweep.push((depth, mbs));
    }
    println!("  → the per-chunk flush/poll overhead amortizes with depth; past ~1024 the per-word store cost dominates (why the paper stopped there).\n");

    // ---- 3. blocking vs non-blocking ----
    println!("== Ablation 3: polling vs interrupt completion ==");
    for (mode, name) in [
        (DmaMode::Blocking, "blocking"),
        (DmaMode::NonBlocking, "interrupt"),
    ] {
        let PaperRig {
            mut soc, module, ..
        } = paper_soc::rvcap_rig();
        let d = RvCapDriver::new(0, soc.handles.plic.clone());
        let mmio_before = soc.core.mmio_reads() + soc.core.mmio_writes();
        let t = d.init_reconfig_process(&mut soc.core, &module, mode);
        let mmio = soc.core.mmio_reads() + soc.core.mmio_writes() - mmio_before;
        println!("  {name:>9}: Tr {:.1} µs, {mmio} MMIO ops", t.tr_us());
        match mode {
            DmaMode::Blocking => results.blocking_tr_us = t.tr_us(),
            DmaMode::NonBlocking => results.nonblocking_tr_us = t.tr_us(),
        }
    }
    // In interrupt mode the CPU is free between the LENGTH write and
    // the IRQ: the transfer window minus the handler.
    let transfer_us = results.nonblocking_tr_us;
    let handler_us = (rvcap_core::drivers::rvcap::IRQ_TRAP_CYCLES as f64 + 400.0) / 100.0;
    results.cpu_free_pct_nonblocking = (transfer_us - handler_us) / transfer_us * 100.0;
    println!(
        "  → polling finishes ~{:.0} µs sooner (no trap entry/exit) but occupies the core with thousands of status reads; interrupt mode frees ~{:.1}% of the transfer window for other work.\n",
        (results.nonblocking_tr_us - results.blocking_tr_us).max(0.0),
        results.cpu_free_pct_nonblocking
    );

    // ---- 4. decision-time breakdown ----
    println!("== Ablation 4: where the 18 µs decision time goes ==");
    {
        let PaperRig { mut soc, .. } = paper_soc::rvcap_rig();
        let d = RvCapDriver::new(0, soc.handles.plic.clone());
        let steps: Vec<(String, u64)> = {
            let mut v = Vec::new();
            let t0 = soc.core.now();
            soc.core
                .compute(rvcap_core::drivers::rvcap::DECISION_SOFTWARE_CYCLES);
            v.push((
                "module lookup + validation (software)".to_string(),
                soc.core.now() - t0,
            ));
            let t0 = soc.core.now();
            d.decouple_accel(&mut soc.core, true);
            v.push(("decouple_accel(1)".to_string(), soc.core.now() - t0));
            let t0 = soc.core.now();
            d.select_icap(&mut soc.core, true);
            v.push(("select_ICAP(1)".to_string(), soc.core.now() - t0));
            let t0 = soc.core.now();
            d.dma_start(&mut soc.core);
            d.dma_config(&mut soc.core, DmaMode::NonBlocking);
            v.push(("dma_start + dma_config".to_string(), soc.core.now() - t0));
            v
        };
        let total: u64 = steps.iter().map(|(_, c)| c).sum();
        for (name, cycles) in &steps {
            println!(
                "  {name:<42} {cycles:>5} cycles ({:.1} µs)",
                *cycles as f64 / 100.0
            );
        }
        println!(
            "  total ≈ {:.1} µs (measured Td includes the two mtime reads)\n",
            total as f64 / 100.0
        );
        results.decision_steps_cycles = steps;
    }

    // ---- 5. compression sweep ----
    println!("== Ablation 5: RT-ICAP-style bitstream compression ==");
    for structured in [0u32, 25, 50, 75, 90, 99] {
        let payload = compress::synthetic_payload(101 * 200, structured, 11);
        let ratio = compress::ratio(&payload);
        println!(
            "  {structured:>2}% structured content: compression ratio {ratio:.2}x → storage {:.0}%, transfer bounded at ICAP wire speed",
            100.0 / ratio
        );
        results.compression_sweep.push((structured, ratio));
    }
    println!("  → compression shrinks *storage* dramatically but the ICAP port (1 word/cycle) caps transfer gains — matching RT-ICAP's ~382 MB/s despite compression.");

    // ---- 6. scheduling policy ----
    println!("\n== Ablation 6: job scheduling over one partition ==");
    {
        use rvcap_accel::library::filter_library;
        use rvcap_accel::{FilterKind, Image};
        use rvcap_core::scheduler::{Job, Policy, ReconfigScheduler};
        use rvcap_soc::map::DDR_BASE;
        let dim = 64usize;
        let run_policy = |policy: Policy| {
            let geometry = RpGeometry::scaled(2, 1, 0);
            let lib = filter_library(&geometry, dim, dim);
            let images: Vec<_> = FilterKind::ALL
                .iter()
                .map(|k| lib.by_name(k.name()).unwrap().clone())
                .collect();
            let mut soc = SocBuilder::new()
                .with_rps(vec![geometry])
                .with_library(lib)
                .build();
            let input = Image::noise(dim, dim, 3);
            soc.handles
                .ddr
                .write_bytes(DDR_BASE + 0x10_0000, input.as_bytes());
            let mut sched = ReconfigScheduler::new(0, policy);
            for (i, img) in images.iter().enumerate() {
                let stage = DDR_BASE + 0x40_0000 + i as u64 * 0x10_0000;
                sched.register_bitstream(soc.stage_module(0, img, stage));
            }
            // 9 jobs round-robining over the three filters — the worst
            // case for FIFO.
            for i in 0..9usize {
                sched.submit(Job {
                    module: FilterKind::ALL[i % 3].name().into(),
                    input_addr: DDR_BASE + 0x10_0000,
                    output_addr: DDR_BASE + 0x20_0000 + i as u64 * 0x4000,
                    len: (dim * dim) as u32,
                });
            }
            let plic = soc.handles.plic.clone();
            sched.run(&mut soc.core, &plic)
        };
        for (policy, name) in [(Policy::Fifo, "FIFO"), (Policy::GroupByModule, "grouped")] {
            let stats = run_policy(policy);
            println!(
                "  {name:>8}: {} reconfigurations, reconfig {:.1} ms, compute {:.1} ms ({:.0}% overhead)",
                stats.reconfigurations,
                stats.reconfig_ticks as f64 / 5000.0,
                stats.compute_ticks as f64 / 5000.0,
                stats.reconfig_overhead() * 100.0
            );
        }
        println!("  → with T_r ≫ T_c (the paper's regime), batching same-module jobs cuts the dominant cost 3×.");
    }

    report::dump_json("ablations", &results);
}
