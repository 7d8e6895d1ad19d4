//! Host-performance harness: simulated-cycles-per-second per rig and
//! per kernel scheduler, written to `BENCH_hostbench.json`.
//!
//! Every paper figure is *measured* from simulated cycles, so host
//! wall-clock per simulated cycle caps how many sweeps and fault
//! campaigns the harness can afford. This binary makes that number
//! visible and regression-proof:
//!
//! * each rig runs under both kernel [`Scheduler`]s (the naive
//!   tick-everything reference and the default active set);
//! * simulated cycle counts are asserted identical across schedulers
//!   (they may only trade host time, never timing);
//! * the active_set rows are checked against a generous pinned
//!   cycles/sec floor, so a >5x host-performance regression fails CI
//!   while ordinary machine-to-machine variance does not;
//! * when a committed `BENCH_hostbench.json` baseline is present, each
//!   active_set row is additionally gated against it with host-speed
//!   normalization: the baseline's active_set row is rescaled by the
//!   rig's naive/baseline-naive ratio (the two rows' samples
//!   interleave), and a >20% drop fails. Absolute floors catch
//!   catastrophic breakage on any machine; the normalized gate catches
//!   the slow bleed a generous floor misses.
//!
//! Each rig builds its SoC **once**: the prototype is checkpointed
//! post-boot and every scheduler × sample measurement is a warm-boot fork
//! from that snapshot (restore + stats reset) rather than a fresh
//! build-and-boot — the replay-parity suite proves forked runs are
//! bit-identical to cold boots, and the harness re-asserts the
//! simulated cycle counts across repetitions and schedulers.
//!
//! The default is a median of three samples per row — cheap enough
//! for CI now that samples fork instead of rebooting, and robust
//! against the single-sample jitter that used to flake the baseline
//! gate. `--smoke` still runs one timed sample per row for quick
//! local triage. The JSON lands in `BENCH_hostbench.json` in the
//! current directory (override with `--out <path>`), and additionally
//! in `$RVCAP_RESULTS_DIR/hostbench.json` when that variable is set.
//! A full-grid run also renders `BENCH_hostbench_summary.md`, a
//! markdown speedup table CI appends to the job summary, next to the
//! JSON (as does `--profile` with `BENCH_hostbench_profile.md`). The
//! baseline gate always reads `BENCH_hostbench.json` in the current
//! directory, so `--out target/BENCH_hostbench.json` gates against the
//! committed record without rewriting it. Runs filtered by
//! `--rig`/`--mode` measure an incomplete grid, so they default
//! `--out` to `BENCH_hostbench.partial.json` instead — a triage run
//! must not overwrite the committed full-grid record with a one-row
//! report.

use std::time::{Duration, Instant};

use rvcap_bench::hostbench::{measure_rig_forked, scheduler_name, RigPerf, SCHEDULERS};
use rvcap_bench::{paper_soc, report, runner};
use rvcap_core::drivers::DmaMode;
use rvcap_core::system::{RvCapSoc, SocBuilder};
use rvcap_fabric::bitstream::BitstreamBuilder;
use rvcap_fabric::resources::Resources;
use rvcap_fabric::rm::{RmImage, RmLibrary};
use rvcap_fabric::rp::RpGeometry;
use rvcap_sim::{KernelStats, Scheduler};

/// Generous pinned cycles/sec floors for the `active_set` rows (the
/// default kernel schedule), ~5x below what a modest 2020s
/// laptop core measures (see EXPERIMENTS.md for reference numbers).
/// A violation means the scheduler lost most of its advantage, not
/// that the host is slow.
const FLOORS: &[(&str, f64)] = &[
    ("rvcap_paper", 1_400_000.0),
    ("rvcap_deep", 1_400_000.0),
    ("hwicap_paper", 13_000_000.0),
    ("hwicap_small", 15_000_000.0),
    ("sd_staging", 3_000_000.0),
    ("hwicap_multi_rp", 15_000_000.0),
];

/// Maximum tolerated drop of an active_set row against the committed
/// baseline after host-speed normalization.
const BASELINE_TOLERANCE: f64 = 0.8;

/// One rig: a paper measurement the harness times end to end
/// (setup excluded), returning the simulated cycles covered.
struct Rig {
    name: &'static str,
    /// Human description for the report header.
    what: &'static str,
}

const RIGS: &[Rig] = &[
    Rig {
        name: "rvcap_paper",
        what: "RV-CAP reconfiguration, paper RP (650 892 B)",
    },
    Rig {
        name: "rvcap_deep",
        what: "RV-CAP reconfiguration, paper RP, 64-deep stream FIFOs",
    },
    Rig {
        name: "hwicap_paper",
        what: "AXI_HWICAP reconfiguration, paper RP, 16-unrolled driver",
    },
    Rig {
        name: "hwicap_small",
        what: "AXI_HWICAP reconfiguration, scaled(2,0,0) RP",
    },
    Rig {
        name: "sd_staging",
        what: "init_RModules SD -> DDR staging over SPI, scaled(2,0,0) bitstream",
    },
    Rig {
        name: "hwicap_multi_rp",
        what: "AXI_HWICAP reconfiguration of RP0, paper RP + 11 idle partitions",
    },
];

/// The multi-partition shell of §III: the paper RP plus eleven more
/// partitions whose isolators and module hosts are registered but idle
/// during the timed RP0 reconfiguration. This is the shape the
/// active-set scheduler targets — per-cycle work proportional to the
/// handful of *active* components, where the naive schedule pays a
/// tick per *registered* component on every cycle.
fn multi_rp_rig() -> paper_soc::PaperRig {
    let mut rps = vec![RpGeometry::paper_rp()];
    rps.extend((1..12).map(|_| RpGeometry::scaled(2, 0, 0)));
    paper_soc::rig_with_rps(SocBuilder::new(), rps)
}

/// The deep-elasticity ablation: the paper transfer with 64-deep
/// stream FIFOs on the DMA→ICAP datapath instead of the default
/// shallow skid buffers.
fn deep_rig() -> paper_soc::PaperRig {
    paper_soc::rig_with_builder(
        SocBuilder::new().with_stream_depth(64),
        RpGeometry::paper_rp(),
    )
}

/// Build the staging rig: the scaled(2,0,0) partial bitstream sits on
/// the SD card's FAT32 volume, not yet in DDR. The timed run is the
/// paper's `init_RModules` step — every byte crosses the simulated SPI
/// link, so the simulation is dominated by short idle waits (32-cycle
/// byte shifts between MMIO polls), the shape the wake-queue scheduler
/// is built for.
fn staging_soc() -> RvCapSoc {
    let geometry = RpGeometry::scaled(2, 0, 0);
    let img = RmImage::synthesize("Module0", geometry.frames(), Resources::new(901, 773, 4, 0));
    let bytes = BitstreamBuilder::kintex7()
        .partial(0, &img.payload)
        .to_bytes();
    let mut lib = RmLibrary::new();
    lib.register_image(img);
    SocBuilder::new()
        .with_rps(vec![geometry])
        .with_library(lib)
        .with_sd_file("MODULE0.PBI", bytes)
        .build()
}

/// Measure one rig under every requested scheduler from a single
/// warm-boot prototype: the SoC is built, booted, and staged **once**,
/// checkpointed, and every scheduler × sample measurement forks from that
/// snapshot — a restore into the same structure plus
/// [`reset_stats`](rvcap_sim::Simulator::reset_stats), so per-run tick
/// accounting covers only the measured phase. Checkpoints are
/// scheduler-portable (`checkpoint_is_scheduler_portable` in
/// `tests/replay_parity.rs`), so one snapshot serves both schedulers,
/// and the replay-parity suite proves each forked run is bit-identical
/// to a cold boot — the numbers stay comparable with older cold-boot
/// records. With `profile` set it also returns the profiled pass's
/// kernel stats and wall time.
fn warm_grid<S>(
    name: &'static str,
    schedulers: &[Scheduler],
    samples: usize,
    profile: bool,
    mut proto: S,
    soc_of: impl Fn(&mut S) -> &mut RvCapSoc,
    mut run: impl FnMut(&mut S) -> u64,
) -> (Vec<RigPerf>, Option<(KernelStats, Duration)>) {
    let base = soc_of(&mut proto)
        .core
        .checkpoint()
        .expect("post-boot checkpoint");
    let results = measure_rig_forked(
        name,
        schedulers,
        samples,
        &mut proto,
        |p, scheduler| {
            let core = &mut soc_of(p).core;
            core.sim.set_scheduler(scheduler);
            core.restore(&base).expect("warm-boot fork");
            core.sim.reset_stats();
        },
        &mut run,
        |p| soc_of(p).core.sim.kernel_stats().dense_cycles,
    );
    // The profiled pass runs after (and outside) every timed row: the
    // clock reads it inserts around each tick would pollute wall-time
    // medians, so attribution gets its own fork under the default
    // active-set schedule.
    let profiled = profile.then(|| {
        let core = &mut soc_of(&mut proto).core;
        core.sim.set_scheduler(Scheduler::ActiveSet);
        core.restore(&base).expect("warm-boot fork");
        core.sim.reset_stats();
        core.sim.set_profiling(true);
        let t0 = Instant::now();
        run(&mut proto);
        let wall = t0.elapsed();
        let core = &mut soc_of(&mut proto).core;
        core.sim.set_profiling(false);
        (core.sim.kernel_stats(), wall)
    });
    (results, profiled)
}

fn rig_soc(rig: &mut paper_soc::PaperRig) -> &mut RvCapSoc {
    &mut rig.soc
}

fn soc_ident(soc: &mut RvCapSoc) -> &mut RvCapSoc {
    soc
}

fn measure_all(
    name: &'static str,
    schedulers: &[Scheduler],
    samples: usize,
    profile: bool,
) -> (Vec<RigPerf>, Option<(KernelStats, Duration)>) {
    match name {
        "rvcap_paper" => warm_grid(
            name,
            schedulers,
            samples,
            profile,
            paper_soc::rvcap_rig(),
            rig_soc,
            |rig| {
                runner::reconfigure_rvcap_in_place(rig, DmaMode::NonBlocking);
                rig.soc.core.now()
            },
        ),
        "rvcap_deep" => warm_grid(
            name,
            schedulers,
            samples,
            profile,
            deep_rig(),
            rig_soc,
            |rig| {
                runner::reconfigure_rvcap_in_place(rig, DmaMode::NonBlocking);
                rig.soc.core.now()
            },
        ),
        "hwicap_paper" => warm_grid(
            name,
            schedulers,
            samples,
            profile,
            paper_soc::rvcap_rig(),
            rig_soc,
            |rig| {
                runner::reconfigure_hwicap_in_place(rig, 16);
                rig.soc.core.now()
            },
        ),
        "hwicap_small" => warm_grid(
            name,
            schedulers,
            samples,
            profile,
            paper_soc::rig_with_geometry(RpGeometry::scaled(2, 0, 0)),
            rig_soc,
            |rig| {
                runner::reconfigure_hwicap_in_place(rig, 16);
                rig.soc.core.now()
            },
        ),
        "hwicap_multi_rp" => warm_grid(
            name,
            schedulers,
            samples,
            profile,
            multi_rp_rig(),
            rig_soc,
            |rig| {
                runner::reconfigure_hwicap_in_place(rig, 16);
                rig.soc.core.now()
            },
        ),
        "sd_staging" => warm_grid(
            name,
            schedulers,
            samples,
            profile,
            staging_soc(),
            soc_ident,
            |soc| {
                let modules = rvcap_core::drivers::init_rmodules(
                    &mut soc.core,
                    &soc.handles.ddr,
                    paper_soc::STAGE_ADDR,
                    &["MODULE0.PBI"],
                );
                assert_eq!(modules.len(), 1, "one file staged");
                runner::assert_clean_mmio(soc);
                soc.core.now()
            },
        ),
        _ => unreachable!("unknown rig {name}"),
    }
}

/// Per-rig speedup summary derived from the measured rows.
struct Summary {
    rig: String,
    naive_cps: f64,
    active_set_cps: f64,
    /// The active set over the naive reference.
    speedup_vs_naive: f64,
    /// The active-set run's cycles inside dense windows: the
    /// deterministic record of where the naive sweep took over.
    dense_cycles: u64,
}
rvcap_bench::impl_json_struct!(Summary {
    rig,
    naive_cps,
    active_set_cps,
    speedup_vs_naive,
    dense_cycles
});

/// One component's share of a rig's profiled tick cost
/// (`--profile`): host nanoseconds spent inside its `tick` calls
/// during a single active-set pass over the rig's measured phase.
struct ProfileRow {
    rig: String,
    component: String,
    ticks: u64,
    host_ns: u64,
    share_pct: f64,
}
rvcap_bench::impl_json_struct!(ProfileRow {
    rig,
    component,
    ticks,
    host_ns,
    share_pct
});

/// One rig's profiled pass as a whole (`--profile`). The time outside
/// tick calls is kernel bookkeeping, driver code and the probes' own
/// clock reads, so its share includes the probe cost.
struct ProfilePass {
    rig: String,
    wall_ms: f64,
    outside_tick_pct: f64,
}
rvcap_bench::impl_json_struct!(ProfilePass {
    rig,
    wall_ms,
    outside_tick_pct
});

struct HostbenchReport {
    samples: usize,
    results: Vec<RigPerf>,
    summary: Vec<Summary>,
    profile_passes: Vec<ProfilePass>,
    profile: Vec<ProfileRow>,
}
rvcap_bench::impl_json_struct!(HostbenchReport {
    samples,
    results,
    summary,
    profile_passes,
    profile
});

/// Extract `(rig, scheduler, cycles_per_sec)` rows from a previously
/// written `BENCH_hostbench.json`. Hand-rolled like the encoder (no
/// serde in the build environment): every result row is a flat object
/// carrying exactly these fields, so scanning object-by-object is
/// reliable for the format this binary itself produces. Summary
/// objects lack a `scheduler` field and are skipped.
fn parse_baseline(json: &str) -> Vec<(String, String, f64)> {
    fn str_field(obj: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\":\"");
        let start = obj.find(&pat)? + pat.len();
        let end = obj[start..].find('"')?;
        Some(obj[start..start + end].to_string())
    }
    fn num_field(obj: &str, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\":");
        let start = obj.find(&pat)? + pat.len();
        let rest = &obj[start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }
    json.split('{')
        .filter_map(|obj| {
            Some((
                str_field(obj, "rig")?,
                str_field(obj, "scheduler")?,
                num_field(obj, "cycles_per_sec")?,
            ))
        })
        .collect()
}

/// Render the markdown speedup table CI appends to the job summary.
fn render_markdown(summary: &[Summary], samples: usize) -> String {
    let mut md = String::from(
        "## Host performance (simulated cycles/sec)\n\n\
         | rig | naive | active_set | active_set vs naive | dense-window cycles |\n\
         |---|---:|---:|---:|---:|\n",
    );
    for s in summary {
        md.push_str(&format!(
            "| {} | {:.0} | {:.0} | {:.1}x | {} |\n",
            s.rig, s.naive_cps, s.active_set_cps, s.speedup_vs_naive, s.dense_cycles
        ));
    }
    md.push_str(&format!(
        "\nEvery row is the median of {samples} warm-boot forked sample(s); \
         the regression gates read the `active_set` rows. Dense-window cycles \
         count the `active_set` run's cycles on the naive sweep (deterministic).\n"
    ));
    md
}

/// Render the per-rig tick-cost attribution tables (`--profile`) CI
/// appends to the job summary.
fn render_profile_markdown(passes: &[ProfilePass], profile: &[ProfileRow]) -> String {
    let mut md = String::from(
        "## Tick-cost attribution (profiled host time inside tick calls, active_set)\n\n\
         Each rig header gives the profiled pass's wall time and its share outside tick \
         calls: kernel bookkeeping, driver code and the probes' own clock reads, so the \
         share includes the probe cost.\n",
    );
    let mut rig = "";
    for row in profile {
        if row.rig != rig {
            rig = &row.rig;
            let pass = passes
                .iter()
                .find(|p| p.rig == rig)
                .expect("one pass per rig");
            md.push_str(&format!(
                "\n### {rig} — {:.3} ms pass, {:.1}% outside tick calls\n\n\
                 | component | ticks | host ms | ns/tick | share |\n|---|---:|---:|---:|---:|\n",
                pass.wall_ms, pass.outside_tick_pct
            ));
        }
        let per_tick = if row.ticks > 0 {
            row.host_ns as f64 / row.ticks as f64
        } else {
            0.0
        };
        md.push_str(&format!(
            "| {} | {} | {:.3} | {:.1} | {:.1}% |\n",
            row.component,
            row.ticks,
            row.host_ns as f64 / 1e6,
            per_tick,
            row.share_pct,
        ));
    }
    md
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // `--profile` adds one profiled active-set pass per rig after its
    // timed rows: per-component host-time attribution, rendered as a
    // tick-cost table headed by the pass's wall time and outside-tick
    // share, embedded in the JSON, and (on unfiltered runs) written to
    // `BENCH_hostbench_profile.md` next to `--out` for the CI job
    // summary.
    let profile = args.iter().any(|a| a == "--profile");
    // `--rig <name>` restricts the run to one rig (repeatable) —
    // for profiling a single row or triaging a floor failure.
    let only: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--rig")
        .filter_map(|(i, _)| args.get(i + 1).map(|s| s.as_str()))
        .collect();
    let rigs: Vec<&Rig> = RIGS
        .iter()
        .filter(|r| only.is_empty() || only.contains(&r.name))
        .collect();
    assert!(!rigs.is_empty(), "no rig matches {only:?}");
    // `--mode <name>` restricts to one scheduler (repeatable). A
    // filtered run measures without summarizing or floor-checking —
    // the ratios need every column.
    let only_modes: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(_, a)| *a == "--mode")
        .filter_map(|(i, _)| args.get(i + 1).map(|s| s.as_str()))
        .collect();
    let schedulers: Vec<Scheduler> = SCHEDULERS
        .into_iter()
        .filter(|&s| only_modes.is_empty() || only_modes.contains(&scheduler_name(s)))
        .collect();
    assert!(
        !schedulers.is_empty(),
        "no scheduler matches {only_modes:?}"
    );
    let filtered = !only.is_empty() || !only_modes.is_empty();
    // A filtered run writes a partial grid; keep it away from the
    // committed full-grid record unless the caller says otherwise.
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| {
            if filtered {
                "BENCH_hostbench.partial.json".into()
            } else {
                "BENCH_hostbench.json".into()
            }
        });
    let full_grid = schedulers.len() == SCHEDULERS.len();
    // Snapshot the committed baseline before this run can overwrite it
    // (it does when `--out` is left at its full-grid default).
    let baseline = std::fs::read_to_string("BENCH_hostbench.json")
        .ok()
        .map(|s| parse_baseline(&s))
        .filter(|rows| !rows.is_empty());
    let samples = if smoke { 1 } else { 3 };

    // Sequential on purpose: these rows are *timed*; concurrent
    // measurements would contend for cores and skew the ratios the
    // floor check and the speedup summary depend on.
    let mut results: Vec<RigPerf> = Vec::new();
    let mut profile_rows: Vec<ProfileRow> = Vec::new();
    let mut profile_passes: Vec<ProfilePass> = Vec::new();
    for rig in &rigs {
        println!("{} — {}", rig.name, rig.what);
        // Schedulers trade host time only: `measure_rig_forked`
        // re-asserts identical simulated cycles across every sample and
        // scheduler, which also re-checks that warm-boot forking left
        // no residue.
        let (perfs, profiled) = measure_all(rig.name, &schedulers, samples, profile);
        for perf in perfs {
            println!("  {}", perf.render());
            results.push(perf);
        }
        if let Some((stats, wall)) = profiled {
            print!("{}", stats.render_tick_costs());
            let total = stats.total_host_ns().max(1);
            let wall_ns = wall.as_nanos().max(1) as f64;
            let pass = ProfilePass {
                rig: rig.name.into(),
                wall_ms: wall_ns / 1e6,
                outside_tick_pct: (1.0 - total as f64 / wall_ns).max(0.0) * 100.0,
            };
            println!(
                "  profiled pass: {:.3} ms wall, {:.1}% outside tick calls (incl. probe cost)",
                pass.wall_ms, pass.outside_tick_pct
            );
            profile_passes.push(pass);
            let mut comps: Vec<_> = stats.components.iter().filter(|c| c.host_ns > 0).collect();
            comps.sort_by_key(|c| std::cmp::Reverse(c.host_ns));
            profile_rows.extend(comps.into_iter().map(|c| ProfileRow {
                rig: rig.name.into(),
                component: c.name.clone(),
                ticks: c.ticks_executed,
                host_ns: c.host_ns,
                share_pct: c.host_ns as f64 / total as f64 * 100.0,
            }));
        }
    }

    let row = |rig: &str, scheduler: Scheduler| {
        results
            .iter()
            .find(|r| r.rig == rig && r.scheduler == scheduler_name(scheduler))
            .expect("measured above")
    };
    let cps = |rig: &str, scheduler: Scheduler| row(rig, scheduler).cycles_per_sec;
    let summary: Vec<Summary> = rigs
        .iter()
        .filter(|_| full_grid)
        .map(|rig| {
            let naive = cps(rig.name, Scheduler::Naive);
            let active = cps(rig.name, Scheduler::ActiveSet);
            Summary {
                rig: rig.name.into(),
                naive_cps: naive,
                active_set_cps: active,
                speedup_vs_naive: active / naive,
                dense_cycles: row(rig.name, Scheduler::ActiveSet).dense_cycles,
            }
        })
        .collect();

    println!();
    for s in &summary {
        println!(
            "{:<16} active_set: {:>12.0} cyc/s = {:.1}x vs naive, {} dense-window cycles",
            s.rig, s.active_set_cps, s.speedup_vs_naive, s.dense_cycles
        );
    }

    // Regression gate 1: every active_set row must clear its pinned
    // floor.
    let mut failed = false;
    for (rig, floor) in FLOORS {
        if !full_grid || !rigs.iter().any(|r| r.name == *rig) {
            continue;
        }
        let got = cps(rig, Scheduler::ActiveSet);
        if got < *floor {
            eprintln!(
                "FAIL: {rig} active_set measured {got:.0} cyc/s, \
                 below the pinned floor of {floor:.0}"
            );
            failed = true;
        }
    }

    // Regression gate 2: active_set rows against the committed
    // baseline, normalized for host speed by the same rig's naive row
    // (no hints, no scheduling decisions — pure per-cycle ticking):
    // `new.naive / old.naive` estimates how much faster or slower this
    // machine is than the one that recorded the baseline, and the two
    // rows' samples interleave, so a transient host slowdown hits both
    // alike. Equivalently, a rig's active_set-over-naive speedup must
    // keep within 20% of the baseline's.
    if let (true, Some(rows)) = (full_grid, &baseline) {
        let old = |rig: &str, scheduler: Scheduler| {
            rows.iter()
                .find(|(r, s, _)| r == rig && s == scheduler_name(scheduler))
                .map(|&(_, _, v)| v)
        };
        for rig in &rigs {
            let (Some(old_naive), Some(old_active)) = (
                old(rig.name, Scheduler::Naive),
                old(rig.name, Scheduler::ActiveSet),
            ) else {
                // New rig: nothing to hold this row against yet.
                continue;
            };
            if old_naive <= 0.0 {
                continue;
            }
            let norm = cps(rig.name, Scheduler::Naive) / old_naive;
            let want = BASELINE_TOLERANCE * old_active * norm;
            let got = cps(rig.name, Scheduler::ActiveSet);
            if got < want {
                eprintln!(
                    "FAIL: {} active_set measured {:.0} cyc/s, below {:.0} \
                     (baseline {:.0} x host-speed ratio {:.2} x {:.0}% tolerance)",
                    rig.name,
                    got,
                    want,
                    old_active,
                    norm,
                    BASELINE_TOLERANCE * 100.0
                );
                failed = true;
            }
        }
    } else if full_grid {
        println!("no committed baseline to gate against (BENCH_hostbench.json absent)");
    }

    let rep = HostbenchReport {
        samples,
        results,
        summary,
        profile_passes,
        profile: profile_rows,
    };
    let json = report::record_json("hostbench", &rep);
    if let Err(e) = std::fs::write(&out_path, json.as_bytes()) {
        eprintln!("warning: could not write {out_path}: {e}");
        println!("{json}");
    } else {
        println!("\nwrote {out_path}");
    }
    report::dump_json("hostbench", &rep);

    // Only a complete run — every rig, every scheduler — may (re)write the
    // committed summary: a `--rig`-filtered run used to overwrite it
    // with a one-row table while BENCH_hostbench.json kept the full
    // grid (the committed artifacts disagreed; `summary_matches_json`
    // in tests/hostbench_artifacts.rs pins the invariant now).
    let out = std::path::Path::new(&out_path);
    let write_md = |name: &str, md: String| {
        let path = out.with_file_name(name);
        if let Err(e) = std::fs::write(&path, md.as_bytes()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("wrote {}", path.display());
        }
    };
    if !filtered {
        write_md(
            "BENCH_hostbench_summary.md",
            render_markdown(&rep.summary, samples),
        );
    }
    // The same holds for the profile tables, whose headers the
    // artifact test checks against the JSON.
    if profile && !filtered {
        write_md(
            "BENCH_hostbench_profile.md",
            render_profile_markdown(&rep.profile_passes, &rep.profile),
        );
    }

    if failed {
        std::process::exit(1);
    }
    println!("all rigs clear their host-performance gates");
}
