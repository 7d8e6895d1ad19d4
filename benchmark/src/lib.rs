//! # rvcap-benchmark — the repository's end-to-end benchmark
//!
//! Four seeded workloads drive the simulated RV-CAP SoC through the
//! public library API (see `README.md` for why each was chosen). An
//! untraced run reports the end-to-end metrics; a traced run replays
//! the same ops with spans around each library call and per-component
//! profiling, and reports per-layer metrics.

pub mod alloc;
pub mod layers;
pub mod report;
pub mod runner;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

use report::WorkloadResult;
use runner::{Budget, Runner, SETUP_REPEATS};
use workloads::Kind;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// Rounds an interleaved run splits every workload's budget into.
const ROUNDS: usize = 10;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workloads, run interleaved when there are several.
    pub workloads: Vec<Kind>,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget per workload.
    pub budget: Budget,
    /// Replay the ops traced and report per-layer metrics.
    pub trace: bool,
    /// Where a traced run writes its span file.
    pub trace_dir: Option<PathBuf>,
}

/// A finished run.
pub struct Outcome {
    /// Per-workload results, in `Config::workloads` order.
    pub results: Vec<WorkloadResult>,
    /// Human-readable report.
    pub report: String,
    /// The JSON result line.
    pub json: String,
}

/// Budget of round `r` of [`ROUNDS`].
fn slice(budget: Budget, r: usize) -> Budget {
    match budget {
        Budget::Seconds(s) => Budget::Seconds(s / ROUNDS as f64),
        Budget::Ops(n) => Budget::Ops(n * (r + 1) / ROUNDS - n * r / ROUNDS),
    }
}

/// Untraced runners for `kinds`, interleaved: each of [`ROUNDS`] rounds
/// runs a tenth of every workload's budget, starting one workload later
/// each round, so a slow host episode spreads over all workloads.
fn measure(kinds: &[Kind], seed: u64, budget: Budget) -> Vec<Runner> {
    let mut runners: Vec<Runner> = kinds
        .iter()
        .map(|&k| Runner::new(k, seed, SETUP_REPEATS, false))
        .collect();
    let n = runners.len();
    for r in 0..ROUNDS {
        for i in 0..n {
            runners[(i + r) % n].run(slice(budget, r));
        }
    }
    if let Budget::Seconds(_) = budget {
        for r in &mut runners {
            r.fill_window();
        }
    }
    runners
}

/// Run the benchmark.
pub fn run(cfg: &Config) -> std::io::Result<Outcome> {
    let mut report = String::new();
    let mut results = Vec::new();
    if !cfg.trace {
        for r in measure(&cfg.workloads, cfg.seed, cfg.budget) {
            results.push(WorkloadResult {
                name: r.kind.name(),
                metrics: runner::end_to_end(&r),
                diagnostics: runner::diagnostics(&r),
                attempted: r.attempted,
                failed: r.failed,
                end_cycle: r.rig.soc.core.now(),
            });
        }
    } else {
        // The untraced half gives the baseline op times; the traced half
        // replays the same seeded op sequence from a fresh SoC, and the
        // two are compared over the ops both ran.
        let half = match cfg.budget {
            Budget::Seconds(s) => Budget::Seconds(s / 2.0),
            ops => ops,
        };
        let untraced = measure(&cfg.workloads, cfg.seed, half);
        let mut traced = Vec::new();
        for u in &untraced {
            let mut t = Runner::new(u.kind, cfg.seed, 1, true);
            t.run(half);
            report.push_str(&format!("{} spans (traced replay):\n", u.kind.name()));
            report.push_str(&layers::span_table(&t));
            report.push_str(&format!(
                "{} profiled component host time:\n",
                u.kind.name()
            ));
            report.push_str(&layers::component_table(&t));
            // The untraced half's end-to-end numbers and diagnostics are
            // printed beside the per-layer metrics.
            let metrics = layers::per_layer(u, &t);
            let mut diagnostics = runner::end_to_end(u);
            diagnostics.extend(runner::diagnostics(u));
            diagnostics.retain(|d| metrics.iter().all(|m| m.name != d.name));
            results.push(WorkloadResult {
                name: u.kind.name(),
                metrics,
                diagnostics,
                attempted: u.attempted + t.attempted,
                failed: u.failed + t.failed,
                end_cycle: t.rig.soc.core.now(),
            });
            traced.push(t);
        }
        if let Some(dir) = &cfg.trace_dir {
            let label = match cfg.workloads.as_slice() {
                [k] => k.name(),
                _ => "all",
            };
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("trace-{label}-{}.json", cfg.seed));
            let refs: Vec<&Runner> = traced.iter().collect();
            std::fs::write(&path, report::trace_json(cfg.seed, &refs))?;
            report.push_str(&format!("wrote {}\n", path.display()));
        }
    }
    for r in &results {
        report.push_str(&report::render(r));
    }
    let json = report::result_line(&results);
    Ok(Outcome {
        results,
        report,
        json,
    })
}
