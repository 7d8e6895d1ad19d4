//! Self-test of the benchmark: every workload at 3 ops for seeds 1 and
//! 2. Run it as `RVCAP_STRICT=1 cargo test --release --offline` so the
//! bus sanitizer watches every op.
//!
//! The tests share the counting global allocator, so they take one lock
//! and never measure concurrently.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;

use rvcap_benchmark::runner::Budget;
use rvcap_benchmark::workloads::{Kind, Rig};
use rvcap_benchmark::{run, Config, Outcome};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn run_all(seed: u64, trace: bool) -> Outcome {
    run(&Config {
        workloads: Kind::ALL.to_vec(),
        seed,
        budget: Budget::Ops(3),
        trace,
        trace_dir: trace.then(|| Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace")),
    })
    .expect("benchmark run")
}

/// Just enough JSON for `BENCHMARK.json`.
#[derive(Debug)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = text.trim_start();
        let v = Json::value(&mut p);
        assert!(p.trim().is_empty(), "trailing JSON: {p:?}");
        v
    }

    fn value(p: &mut &str) -> Json {
        let s = p.trim_start();
        let (v, rest) = match s.as_bytes().first() {
            Some(b'{') => {
                let mut rest = &s[1..];
                let mut obj = BTreeMap::new();
                loop {
                    rest = rest.trim_start();
                    if let Some(r) = rest.strip_prefix('}') {
                        break (Json::Obj(obj), r);
                    }
                    rest = rest.strip_prefix(',').unwrap_or(rest);
                    let Json::Str(key) = Json::value(&mut rest) else {
                        panic!("object key is not a string")
                    };
                    rest = rest.trim_start().strip_prefix(':').expect("colon");
                    obj.insert(key, Json::value(&mut rest));
                }
            }
            Some(b'[') => {
                let mut rest = &s[1..];
                let mut arr = Vec::new();
                loop {
                    rest = rest.trim_start();
                    if let Some(r) = rest.strip_prefix(']') {
                        break (Json::Arr(arr), r);
                    }
                    rest = rest.strip_prefix(',').unwrap_or(rest);
                    arr.push(Json::value(&mut rest));
                }
            }
            Some(b'"') => {
                let end = s[1..].find('"').expect("closing quote") + 1;
                (Json::Str(s[1..end].to_string()), &s[end + 1..])
            }
            _ => {
                let end = s.find([',', '}', ']']).unwrap_or(s.len());
                let v = match s[..end].trim() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("bad token {n:?}"))),
                };
                (v, &s[end..])
            }
        };
        *p = rest;
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(o) => o.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array"),
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to benchmark/"))
}

/// (name, unit) of every metric in a `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .arr()
        .iter()
        .map(|m| (m.get("name").str().into(), m.get("unit").str().into()))
        .collect()
}

fn assert_reports(out: &Outcome, list: &str) {
    let line = Json::parse(&out.json);
    assert!(
        matches!(line.get("correct"), Json::Bool(true)),
        "{}",
        out.json
    );
    let metrics = line.get("metrics");
    for (name, unit) in declared(list) {
        for r in &out.results {
            let m = metrics.get(&format!("{}.{name}", r.name));
            assert_eq!(m.get("unit").str(), unit, "{} {name}", r.name);
            assert!(
                matches!(m.get("value"), Json::Num(v) if v.is_finite()),
                "{} {name} has no value",
                r.name
            );
            assert!(
                out.report
                    .lines()
                    .any(|l| l.contains(&name) && l.trim_end().ends_with(&unit)),
                "{name} not printed with {unit}"
            );
        }
    }
}

#[test]
fn workloads_and_metrics_match_benchmark_json() {
    let _g = lock();
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().into())
        .collect();
    assert_eq!(names, Kind::ALL.map(|k| k.name().to_string()));

    let untraced = run_all(1, false);
    assert_reports(&untraced, "end_to_end");
    let traced = run_all(1, true);
    assert_reports(&traced, "per_layer");
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trace/trace-all-1.json");
    let spans = std::fs::read_to_string(file).expect("span file written");
    for name in [
        "\"op\"",
        "core.drivers.init_reconfig_process",
        "core.drivers.hwicap.init_reconfig_process",
        "core.drivers.init_rmodules",
        "accel.run_accelerator",
        "soc.wait_until",
        "\"verify\"",
    ] {
        assert!(spans.contains(name), "no {name} span");
    }
}

/// Simulated values of a run: everything that must repeat exactly.
fn simulated(out: &Outcome) -> Vec<(String, u64)> {
    let mut v = Vec::new();
    for r in &out.results {
        v.push((format!("{}.end_cycle", r.name), r.end_cycle));
        for m in r.metrics.iter().chain(&r.diagnostics) {
            if m.unit.starts_with("sim_") || m.name == "heap_mb" || m.name == "paper_err_pct" {
                v.push((format!("{}.{}", r.name, m.name), m.value.to_bits()));
            }
        }
    }
    v
}

#[test]
fn runs_are_clean_repeatable_and_seeded() {
    let _g = lock();
    if std::env::var("RVCAP_STRICT").is_ok_and(|v| !v.is_empty() && v != "0") {
        for k in Kind::ALL {
            let rig = Rig::setup(k, 1);
            assert!(
                rig.soc.handles.sanitizer.is_some(),
                "{} unsanitized",
                k.name()
            );
        }
    }
    let a = run_all(1, false);
    let b = run_all(1, false);
    let c = run_all(2, false);
    for out in [&a, &b, &c] {
        for r in &out.results {
            assert_eq!(r.failed, 0, "{} failed ops:\n{}", r.name, out.report);
            assert_eq!(r.attempted, 4, "{}: warm-up plus 3 ops", r.name);
        }
    }
    assert_eq!(simulated(&a), simulated(&b), "seed 1 is not repeatable");
    // Gaps are seeded, so every workload ends at another cycle.
    for (ra, rc) in a.results.iter().zip(&c.results) {
        assert_ne!(
            ra.end_cycle, rc.end_cycle,
            "{}: seed does not reach inputs",
            ra.name
        );
    }
    let rvcap = &a.results[0];
    let err = rvcap
        .diagnostics
        .iter()
        .find(|m| m.name == "paper_err_pct")
        .expect("rvcap_reconfig has a paper number");
    assert!(
        err.value <= 1.0,
        "rvcap_reconfig is {}% off the paper",
        err.value
    );
}

#[test]
fn timed_run_refuses_the_sanitizer() {
    let _g = lock();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_rvcap-benchmark"))
        .args(["--workload", "sd_stage", "--seconds", "1"])
        .env("RVCAP_STRICT", "1")
        .output()
        .expect("benchmark binary runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "printed a result under RVCAP_STRICT");
}
