//! Command line of the benchmark:
//!
//! ```text
//! rvcap-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
//! ```
//!
//! Without `--workload` every workload runs, interleaved, in one
//! process on one thread. The last line of stdout is the JSON result.

use std::path::Path;
use std::process::ExitCode;

use rvcap_benchmark::runner::Budget;
use rvcap_benchmark::workloads::Kind;
use rvcap_benchmark::{run, Config};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: rvcap-benchmark [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace [0|1]]",
        Kind::ALL.map(Kind::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // The sanitizer changes no cycle count but costs host time, so a
    // timed run under it would report a slower simulator.
    if std::env::var("RVCAP_STRICT").is_ok_and(|v| !v.is_empty() && v != "0") {
        return usage("RVCAP_STRICT is set; timed runs must not run under the sanitizer");
    }
    let mut cfg = Config {
        workloads: Kind::ALL.to_vec(),
        seed: 1,
        budget: Budget::Seconds(10.0),
        trace: false,
        trace_dir: Some(Path::new(env!("CARGO_MANIFEST_DIR")).join("out")),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), value) {
            ("--workload", Some(v)) => match Kind::from_name(v) {
                Some(k) => cfg.workloads = vec![k],
                None => return usage(&format!("unknown workload {v:?}")),
            },
            ("--seed", Some(v)) => match v.parse() {
                Ok(s) => cfg.seed = s,
                Err(_) => return usage(&format!("bad seed {v:?}")),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => cfg.budget = Budget::Seconds(s),
                _ => return usage(&format!("bad seconds {v:?}")),
            },
            ("--trace", Some(v @ ("0" | "1"))) => cfg.trace = v == "1",
            ("--trace", _) => {
                cfg.trace = true;
                i += 1;
                continue;
            }
            (a, _) => return usage(&format!("unexpected argument {a:?}")),
        }
        i += 2;
    }
    match run(&cfg) {
        Ok(out) => {
            print!("{}", out.report);
            println!("{}", out.json);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
