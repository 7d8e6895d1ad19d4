//! The closed-loop measurement: one client, the next op starts when the
//! previous one has finished and the seeded simulated gap has passed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::alloc;
use crate::trace::Tracer;
use crate::workloads::{Kind, OpOut, Rig, Schedule};

/// Setups timed per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// How long a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Keep starting ops until this many host seconds have passed.
    Seconds(f64),
    /// Exactly this many timed ops.
    Ops(usize),
}

/// One timed op that passed its checks.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Host ns of the op alone (no gap, no checks).
    pub host_ns: u64,
    /// Simulated cycles of the op.
    pub cycles: u64,
    /// Simulated µs of the op.
    pub sim_us: f64,
    /// Payload bytes the op moved.
    pub payload: u64,
    /// The paper's time for the op, µs.
    pub paper_us: Option<f64>,
    /// Largest heap growth within the op, bytes.
    pub heap_growth: usize,
    /// Host ns of the op's checks.
    pub verify_ns: u64,
    /// Driver-reported times.
    pub out: OpOut,
}

/// One workload's state through a run.
pub struct Runner {
    /// Which workload.
    pub kind: Kind,
    seed: u64,
    /// The SoC under test (rebuilt after a failed op).
    pub rig: Rig,
    schedule: Schedule,
    traced: bool,
    /// Host seconds of each timed setup.
    pub setup_s: Vec<f64>,
    /// Heap bytes the kept setup left live.
    pub heap_setup: usize,
    /// Timed ops that passed, in order.
    pub samples: Vec<Sample>,
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// Ops that failed a check, stalled or panicked.
    pub failed: u64,
    /// Spans of the timed ops (recording only when traced).
    pub tracer: Tracer,
    next_op_id: u64,
}

impl Runner {
    /// Set the workload up `setups` times (keeping the last SoC), then
    /// run one checked, untimed warm-up op. A traced runner profiles
    /// per-component host time and records spans for every timed op.
    pub fn new(kind: Kind, seed: u64, setups: usize, traced: bool) -> Runner {
        let mut setup_s = Vec::with_capacity(setups);
        let (mut rig, mut heap_setup) = (None, 0);
        for _ in 0..setups.max(1) {
            drop(rig.take());
            // Other workloads' SoCs may be live: count only this setup.
            let live0 = alloc::live();
            let t0 = Instant::now();
            rig = Some(Rig::setup(kind, seed));
            setup_s.push(t0.elapsed().as_secs_f64());
            heap_setup = alloc::live() - live0;
        }
        let mut rig = rig.expect("at least one setup");
        rig.soc.core.sim.set_profiling(traced);
        let mut r = Runner {
            kind,
            seed,
            rig,
            schedule: Schedule::new(kind, seed),
            traced,
            setup_s,
            heap_setup,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            tracer: Tracer::new(false),
            next_op_id: 0,
        };
        r.attempt(false);
        r.tracer = Tracer::new(traced);
        r
    }

    /// Run timed ops until `budget` is spent.
    pub fn run(&mut self, budget: Budget) {
        let t0 = Instant::now();
        let mut done = 0;
        while match budget {
            Budget::Seconds(s) => t0.elapsed().as_secs_f64() < s,
            Budget::Ops(n) => done < n,
        } {
            self.attempt(true);
            done += 1;
        }
    }

    /// Run timed ops until the simulated-metric window is full, giving
    /// up when failures keep it from filling.
    pub fn fill_window(&mut self) {
        let window = self.kind.sim_window();
        while self.samples.len() < window && self.timed_attempts() < 4 * window as u64 {
            self.attempt(true);
        }
    }

    /// Timed ops attempted (the warm-up excluded).
    pub fn timed_attempts(&self) -> u64 {
        self.attempted - 1
    }

    /// One op: prepare, time, check. A failure of any kind is counted
    /// and the workload rebuilds its SoC from the seed.
    fn attempt(&mut self, timed: bool) {
        let op = if timed {
            self.schedule.next_op()
        } else {
            self.schedule.warm_up()
        };
        self.attempted += 1;
        self.tracer.set_op(self.next_op_id);
        self.next_op_id += 1;
        let (rig, tracer) = (&mut self.rig, &mut self.tracer);
        let result = catch_unwind(AssertUnwindSafe(|| -> Result<Sample, String> {
            rig.prepare(&op);
            let c0 = rig.soc.core.now();
            let live0 = alloc::reset_peak();
            let t0 = Instant::now();
            let out = tracer.span("op", rig, |rig, tr| rig.run_op(&op, tr))?;
            let host_ns = t0.elapsed().as_nanos() as u64;
            let heap_growth = alloc::peak() - live0;
            let cycles = rig.soc.core.now() - c0;
            let t1 = Instant::now();
            tracer.span("verify", rig, |rig, _| rig.verify(&op, &out))?;
            Ok(Sample {
                host_ns,
                cycles,
                sim_us: rig.soc.core.sim.freq().cycles_to_us(cycles),
                payload: rig.payload_bytes(&op),
                paper_us: rig.paper_us(&op),
                heap_growth,
                verify_ns: t1.elapsed().as_nanos() as u64,
                out,
            })
        }));
        let err = match result {
            Ok(Ok(s)) => {
                if timed {
                    self.samples.push(s);
                }
                return;
            }
            Ok(Err(e)) => e,
            Err(panic) => panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into()),
        };
        self.failed += 1;
        eprintln!(
            "{} seed {}: op {} ({op:?}) failed: {err}; rebuilding the SoC",
            self.kind.name(),
            self.seed,
            self.attempted - 1
        );
        self.rig = Rig::setup(self.kind, self.seed);
        self.rig.soc.core.sim.set_profiling(self.traced);
    }

    /// Samples the simulated metrics and `heap_mb` cover.
    pub fn window(&self) -> &[Sample] {
        &self.samples[..self.samples.len().min(self.kind.sim_window())]
    }
}

/// A named, measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

pub(crate) fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Median (mean of the middle two for even counts); 0 when empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 when empty.
pub fn quantile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json`
/// order.
pub fn end_to_end(r: &Runner) -> Vec<Metric> {
    let w = r.window();
    let sim_us: f64 = w.iter().map(|s| s.sim_us).sum();
    let bytes: u64 = w.iter().map(|s| s.payload).sum();
    let growth = w.iter().map(|s| s.heap_growth).max().unwrap_or(0);
    vec![
        // The fastest op. Every op of a workload does the same simulated
        // work, so host noise only ever adds time; on a shared host, slow
        // episodes of seconds to minutes shift the median op by up to
        // 90%, while some op of a run still runs at full speed.
        metric(
            "sim_mcyc_per_host_s",
            "Mcyc/s",
            r.samples
                .iter()
                .map(|s| s.cycles as f64 * 1e3 / s.host_ns as f64)
                .fold(0.0, f64::max),
        ),
        metric("setup_s", "s", median(r.setup_s.iter().copied())),
        metric(
            "heap_mb",
            "MiB",
            (r.heap_setup + growth) as f64 / (1u64 << 20) as f64,
        ),
        metric(
            "sim_us_per_op",
            "sim_us",
            median(w.iter().map(|s| s.sim_us)),
        ),
        metric("sim_mb_s", "sim_MB/s", bytes as f64 / sim_us),
    ]
}

/// Host op-time distribution and check cost of a run: its slow tail
/// (the highest of p99/p95/p90/p75/p50 with at least ten samples above
/// it, and which one), the sample count, and the median check time.
pub fn op_times(r: &Runner) -> Vec<Metric> {
    let host_ms: Vec<f64> = r.samples.iter().map(|s| s.host_ns as f64 / 1e6).collect();
    let n = host_ms.len() as f64;
    let q = [0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|q| n * (1.0 - q) >= 10.0)
        .unwrap_or(0.5);
    vec![
        metric("host_ms_per_op.tail", "ms", quantile(host_ms, q)),
        metric("host_ms_per_op.tail_q", "quantile", q),
        metric("host_ms_per_op.samples", "count", n),
        metric(
            "verify_ms_per_op",
            "ms",
            median(r.samples.iter().map(|s| s.verify_ns as f64 / 1e6)),
        ),
    ]
}

/// Diagnostics of an untraced run: not gated, printed beside the
/// end-to-end metrics.
pub fn diagnostics(r: &Runner) -> Vec<Metric> {
    let mut out = vec![metric(
        "host_ms_per_op.median",
        "ms",
        median(r.samples.iter().map(|s| s.host_ns as f64 / 1e6)),
    )];
    out.extend(op_times(r));
    out.push(metric(
        "error_rate",
        "fraction",
        r.failed as f64 / r.attempted.max(1) as f64,
    ));
    let ratios: Vec<f64> = r
        .window()
        .iter()
        .filter_map(|s| s.paper_us.map(|p| s.sim_us / p))
        .collect();
    if !ratios.is_empty() {
        out.push(metric(
            "paper_err_pct",
            "%",
            (median(ratios) - 1.0).abs() * 100.0,
        ));
    }
    out
}
