//! Host-performance measurement for the `hostbench` binary
//! (`bin/hostbench.rs`): **simulated cycles per host second** per rig
//! and per [`Scheduler`], the number that caps how many sweeps and
//! fault campaigns the paper harness can afford. Results land in
//! `BENCH_hostbench.json` so the perf trajectory is recorded and CI
//! can fail on gross regressions.

use std::time::{Duration, Instant};

use rvcap_sim::Scheduler;

/// Every kernel schedule, slowest first: the order of the hostbench
/// grid's columns.
pub const SCHEDULERS: [Scheduler; 2] = [Scheduler::Naive, Scheduler::ActiveSet];

/// Stable scheduler label used in reports and JSON records.
pub fn scheduler_name(scheduler: Scheduler) -> &'static str {
    match scheduler {
        Scheduler::Naive => "naive",
        Scheduler::ActiveSet => "active_set",
    }
}

/// One rig × scheduler host-performance measurement.
pub struct RigPerf {
    /// Rig label (e.g. `rvcap_paper`).
    pub rig: String,
    /// Scheduler label ([`scheduler_name`]).
    pub scheduler: String,
    /// Simulated cycles one run of the rig covers (must not depend on
    /// the scheduler — the parity tests pin this).
    pub sim_cycles: u64,
    /// Cycles of one run spent in the active set's dense windows
    /// (deterministic; always zero for the naive schedule).
    pub dense_cycles: u64,
    /// Median wall-clock seconds per run.
    pub wall_s: f64,
    /// `sim_cycles / wall_s`.
    pub cycles_per_sec: f64,
}
crate::impl_json_struct!(RigPerf {
    rig,
    scheduler,
    sim_cycles,
    dense_cycles,
    wall_s,
    cycles_per_sec
});

impl RigPerf {
    /// Render one result line.
    pub fn render(&self) -> String {
        format!(
            "{:<24} {:<20} {:>12} cycles {:>10} dense {:>10.3} ms {:>12.0} cyc/s",
            self.rig,
            self.scheduler,
            self.sim_cycles,
            self.dense_cycles,
            self.wall_s * 1e3,
            self.cycles_per_sec
        )
    }
}

/// Measure simulated-cycles-per-second for one rig run under each of
/// `schedulers`, forking every sample from a shared warm-boot
/// prototype. Returns one row per scheduler, in the given order.
///
/// `proto` is the prototype the caller built **once** (bitstream
/// synthesis, SoC boot, and DDR/SD staging are paid a single time, not
/// per sample); `fork` rewinds it to the post-boot snapshot and selects
/// the scheduler before each sample (untimed — a checkpoint restore
/// plus a stats reset costs the same under every scheduler and would
/// dilute the ratio between them); `run` executes the measured phase in
/// place and returns the simulated cycles covered; `dense_cycles`
/// reads the run's dense-window cycle count afterwards (untimed).
/// `samples` runs per scheduler are timed and the median reported.
/// Samples interleave the schedulers round-robin, so a transient host
/// slowdown (a shared or frequency-scaled core) lands on every row of
/// the rig alike instead of sinking one row's median, and the rows'
/// ratio stays meaningful.
///
/// The replay-parity suite (`tests/replay_parity.rs`) proves a forked
/// run is bit-identical to a cold-booted one, so these numbers are
/// directly comparable with a cold-boot harness; the simulated cycle
/// count is re-asserted identical across samples and schedulers here —
/// a forked repetition that drifts from the first by even one cycle
/// means the fork leaked state (or a scheduler changed simulated
/// timing) and the measurement is invalid. The dense-window count is
/// re-asserted identical across one scheduler's samples the same way.
pub fn measure_rig_forked<S>(
    rig: &str,
    schedulers: &[Scheduler],
    samples: usize,
    proto: &mut S,
    mut fork: impl FnMut(&mut S, Scheduler),
    mut run: impl FnMut(&mut S) -> u64,
    mut dense_cycles: impl FnMut(&mut S) -> u64,
) -> Vec<RigPerf> {
    let samples = samples.max(1);
    let mut runs: Vec<Vec<(Duration, u64, u64)>> =
        vec![Vec::with_capacity(samples); schedulers.len()];
    for _ in 0..samples {
        for (&scheduler, row) in schedulers.iter().zip(&mut runs) {
            fork(proto, scheduler);
            let t0 = Instant::now();
            let cycles = run(proto);
            let wall = t0.elapsed();
            row.push((wall, cycles, dense_cycles(proto)));
        }
    }
    let cycles = runs[0][0].1;
    schedulers
        .iter()
        .zip(runs)
        .map(|(&scheduler, mut row)| {
            let dense = row[0].2;
            for &(_, c, d) in &row {
                assert_eq!(
                    (c, d),
                    (cycles, dense),
                    "rig {rig}: forked repetitions disagree on (simulated, dense-window) \
                     cycles under {}",
                    scheduler_name(scheduler)
                );
            }
            row.sort_unstable();
            let wall = row[row.len() / 2].0.as_secs_f64();
            RigPerf {
                rig: rig.into(),
                scheduler: scheduler_name(scheduler).into(),
                sim_cycles: cycles,
                dense_cycles: dense,
                wall_s: wall,
                cycles_per_sec: if wall > 0.0 {
                    cycles as f64 / wall
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect()
}
