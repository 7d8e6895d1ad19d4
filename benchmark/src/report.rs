//! Output: the human-readable report, the one-line JSON result and the
//! span file. JSON is written by hand; the build has no serde.

use std::fmt::Write;

use crate::runner::{Metric, Runner};

/// A number as JSON, with every digit Rust's shortest round-trip
/// formatting gives; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// What one workload reported.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// The metrics the result line carries: end-to-end when untraced,
    /// per-layer when traced.
    pub metrics: Vec<Metric>,
    /// Ungated diagnostics, printed only.
    pub diagnostics: Vec<Metric>,
    /// Ops attempted (warm-ups included).
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Simulated cycle the (last) SoC ended at, gaps included.
    pub end_cycle: u64,
}

/// The last stdout line: `correct`, `attempted`, `failed` and the
/// metrics, keyed `<metric>` for one workload and
/// `<workload>.<metric>` for several.
pub fn result_line(results: &[WorkloadResult]) -> String {
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let mut metrics = Vec::new();
    for r in results {
        for m in &r.metrics {
            let key = if results.len() == 1 {
                m.name.clone()
            } else {
                format!("{}.{}", r.name, m.name)
            };
            metrics.push(format!(
                "\"{key}\":{{\"value\":{},\"unit\":\"{}\"}}",
                num(m.value),
                m.unit
            ));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        metrics.join(",")
    )
}

/// Human-readable lines for one workload.
pub fn render(r: &WorkloadResult) -> String {
    let mut s = format!(
        "{}: {} ops attempted, {} failed\n",
        r.name, r.attempted, r.failed
    );
    for m in r.metrics.iter().chain(&r.diagnostics) {
        let _ = writeln!(s, "  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    s
}

/// The span file: every recorded span of every traced workload.
pub fn trace_json(seed: u64, traced: &[&Runner]) -> String {
    let mut s = format!("{{\"seed\":{seed},\"workloads\":[");
    for (i, r) in traced.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"name\":\"{}\",\"spans\":[", r.kind.name());
        for (j, sp) in r.tracer.spans.iter().enumerate() {
            let d = &sp.delta;
            let _ = write!(
                s,
                "{}{{\"name\":\"{}\",\"op\":{},\"parent\":{},\"host_start_ns\":{},\
                 \"host_end_ns\":{},\"sim_start\":{},\"sim_cycles\":{},\"ticks\":{},\
                 \"jumps\":{},\"mmio\":{},\"icap_words\":{},\"spi_transfers\":{},\
                 \"config_writes\":{},\"plic_claims\":{}}}",
                if j > 0 { "," } else { "" },
                sp.name,
                sp.op,
                sp.parent.map_or("null".into(), |p| p.to_string()),
                sp.host_start_ns,
                sp.host_end_ns,
                sp.sim_start,
                d.cycles,
                d.ticks,
                d.jumps,
                d.mmio,
                d.icap_words,
                d.spi_transfers,
                d.config_writes,
                d.plic_claims
            );
        }
        s.push_str("]}");
    }
    s.push_str("]}\n");
    s
}
