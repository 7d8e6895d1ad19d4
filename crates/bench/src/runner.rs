//! Shared measurement runs for the harness binaries.
//!
//! Every table/figure binary used to open with the same boilerplate:
//! destructure a [`PaperRig`], build the driver, run the
//! reconfiguration, and keep the SoC around for stats. These helpers
//! fold that into one call and finish each run with an MMIO audit —
//! a run that tripped a decode error or register-policy violation is
//! not a valid measurement, so the helpers fail loudly instead of
//! letting a malformed access skew a reported number.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rvcap_core::drivers::{DmaMode, HwIcapDriver, ReconfigModule, ReconfigTiming, RvCapDriver};
use rvcap_core::system::RvCapSoc;
use rvcap_sim::{MmioAudit, Scheduler};

use crate::paper_soc::PaperRig;

/// Worker-thread count for parallel measurements: `RVCAP_BENCH_THREADS`
/// when set (clamped to at least 1), otherwise the host's available
/// parallelism.
pub fn bench_threads() -> usize {
    match std::env::var("RVCAP_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Run independent measurement jobs across [`bench_threads`] worker
/// threads and return the results **in input order**, regardless of
/// completion order — harness output must be deterministic however the
/// host schedules the workers.
///
/// Each job builds its own simulator: the sim is single-threaded by
/// design (`Rc` innards), but independent sims parallelize perfectly.
/// A panicking job propagates when the scope joins, so a failed
/// measurement cannot be silently dropped from the report.
pub fn run_parallel<R, F>(jobs: Vec<F>) -> Vec<R>
where
    R: Send,
    F: FnOnce() -> R + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = bench_threads().min(n);
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let f = jobs[i].lock().unwrap().take().expect("job taken once");
                let r = f();
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("job completed"))
        .collect()
}

/// A finished RV-CAP reconfiguration: the SoC (for stats/inspection),
/// the staged module, and the measured `T_d`/`T_r`.
pub struct RvCapRun {
    /// The SoC after the run.
    pub soc: RvCapSoc,
    /// The module that was loaded.
    pub module: ReconfigModule,
    /// The measured timing.
    pub timing: ReconfigTiming,
}

/// A finished AXI_HWICAP reconfiguration.
pub struct HwIcapRun {
    /// The SoC after the run.
    pub soc: RvCapSoc,
    /// The module that was loaded.
    pub module: ReconfigModule,
    /// Elapsed CLINT ticks.
    pub ticks: u64,
}

impl RvCapRun {
    /// Throughput over `T_r` for the loaded bitstream, MB/s.
    pub fn throughput_mbs(&self) -> f64 {
        self.timing.throughput_mbs(self.module.pbit_size as u64)
    }
}

impl HwIcapRun {
    /// Throughput for the loaded bitstream, MB/s.
    pub fn throughput_mbs(&self) -> f64 {
        self.module.pbit_size as f64 / (self.ticks as f64 / 5.0)
    }
}

/// Run the full RV-CAP `init_reconfig_process` on a rig under the
/// default [`Scheduler::ActiveSet`].
pub fn reconfigure_rvcap(rig: PaperRig, mode: DmaMode) -> RvCapRun {
    reconfigure_rvcap_sched(rig, mode, Scheduler::ActiveSet)
}

/// Like [`reconfigure_rvcap`] under an explicit [`Scheduler`] (the
/// determinism and host-perf harnesses run both).
pub fn reconfigure_rvcap_sched(rig: PaperRig, mode: DmaMode, scheduler: Scheduler) -> RvCapRun {
    let PaperRig {
        mut soc, module, ..
    } = rig;
    soc.core.sim.set_scheduler(scheduler);
    let driver = RvCapDriver::new(0, soc.handles.plic.clone());
    let timing = driver.init_reconfig_process(&mut soc.core, &module, mode);
    let run = RvCapRun {
        soc,
        module,
        timing,
    };
    assert_clean_mmio(&run.soc);
    run
}

/// In-place variant of [`reconfigure_rvcap_sched`] for warm-boot
/// forked measurement: the caller keeps rig ownership (it rewinds the
/// rig from a checkpoint between repetitions) and has already selected
/// the scheduler, so only the driver run and the MMIO audit
/// remain.
pub fn reconfigure_rvcap_in_place(rig: &mut PaperRig, mode: DmaMode) -> ReconfigTiming {
    let driver = RvCapDriver::new(0, rig.soc.handles.plic.clone());
    let module = rig.module.clone();
    let timing = driver.init_reconfig_process(&mut rig.soc.core, &module, mode);
    assert_clean_mmio(&rig.soc);
    timing
}

/// Run the HWICAP Listing-2 transfer (no decoupling) on a rig under
/// the default [`Scheduler::ActiveSet`].
pub fn reconfigure_hwicap(rig: PaperRig, unroll: usize) -> HwIcapRun {
    reconfigure_hwicap_sched(rig, unroll, Scheduler::ActiveSet)
}

/// Like [`reconfigure_hwicap`] under an explicit [`Scheduler`].
pub fn reconfigure_hwicap_sched(rig: PaperRig, unroll: usize, scheduler: Scheduler) -> HwIcapRun {
    let PaperRig {
        mut soc, module, ..
    } = rig;
    soc.core.sim.set_scheduler(scheduler);
    let ddr = soc.handles.ddr.clone();
    let ticks = HwIcapDriver::with_unroll(unroll).reconfigure_rp(&mut soc.core, &ddr, &module);
    let run = HwIcapRun { soc, module, ticks };
    assert_clean_mmio(&run.soc);
    run
}

/// In-place variant of [`reconfigure_hwicap_sched`] for warm-boot
/// forked measurement (see [`reconfigure_rvcap_in_place`]).
pub fn reconfigure_hwicap_in_place(rig: &mut PaperRig, unroll: usize) -> u64 {
    let ddr = rig.soc.handles.ddr.clone();
    let module = rig.module.clone();
    let ticks = HwIcapDriver::with_unroll(unroll).reconfigure_rp(&mut rig.soc.core, &ddr, &module);
    assert_clean_mmio(&rig.soc);
    ticks
}

/// The merged MMIO audit of a run (crossbar decode errors fold into
/// the `unmapped` counter).
pub fn mmio_audit(soc: &RvCapSoc) -> MmioAudit {
    soc.core.sim.mmio_audit()
}

/// One-line audit summary for harness output.
pub fn mmio_summary(soc: &RvCapSoc) -> String {
    audit_summary(&mmio_audit(soc))
}

/// Render an already-collected audit the same way.
pub fn audit_summary(a: &MmioAudit) -> String {
    format!(
        "mmio audit: {} reads / {} writes, {} violations",
        a.reads,
        a.writes,
        a.violations()
    )
}

/// Assert the run decoded cleanly: no crossbar decode errors, no
/// unmapped/misaligned/policy-violating register accesses.
pub fn assert_clean_mmio(soc: &RvCapSoc) {
    // When the bus sanitizer is attached (`with_sanitizer` /
    // RVCAP_STRICT), name the recorded protocol violations before the
    // aggregate count fails — "protocol: 3" alone is undebuggable.
    if let Some(s) = &soc.handles.sanitizer {
        let v = s.violations();
        assert!(
            v.is_empty(),
            "protocol violations during a run:\n{}",
            v.iter()
                .map(|v| format!("  {v}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    let a = mmio_audit(soc);
    assert_eq!(a.violations(), 0, "MMIO violations during a run: {a:?}");
}
