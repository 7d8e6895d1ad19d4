//! Per-layer metrics of a traced run, each measured from outside the
//! library as deltas of public counters over the `op` spans, plus the
//! per-layer span table.

use rvcap_soc::ddr::DdrConfig;

use crate::runner::{median, metric as m, op_times, Metric, Runner};
use crate::trace::{Counters, Span};

/// Simulator components whose profiled host time is reported, as
/// (metric prefix, registered component name).
const COMPONENTS: [(&str, &str); 9] = [
    ("axi.xbar", "xbar"),
    ("axi.switch", "switch"),
    ("core.dma", "dma"),
    ("core.axis2icap", "axis2icap"),
    ("fabric.icap", "icap"),
    ("soc.ddr", "ddr"),
    ("core.hwicap", "hwicap"),
    ("soc.spi", "spi"),
    // The module host of RP0, where the loaded filter runs.
    ("accel", "host0"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}

/// DDR refresh stalls started within `[start, start + len)`. The DDR
/// refreshes on a fixed schedule, every `refresh_interval` cycles from
/// cycle 0, whatever the traffic; the counter itself is private to the
/// component inside the simulator.
fn refreshes(start: u64, len: u64) -> u64 {
    let every = DdrConfig::default().refresh_interval;
    let upto = |c: u64| c.saturating_sub(1) / every;
    upto(start + len) - upto(start)
}

fn op_spans(r: &Runner) -> impl Iterator<Item = &Span> {
    r.tracer.spans.iter().filter(|s| s.name == "op")
}

/// Counter deltas summed over every traced op.
fn op_total(traced: &Runner) -> Counters {
    let mut total = Counters::default();
    for s in op_spans(traced) {
        total.add(&s.delta);
    }
    total
}

/// Registered component names, in [`Counters::components`] order.
fn component_names(r: &Runner) -> Vec<String> {
    let stats = r.rig.soc.core.sim.kernel_stats();
    stats.components.into_iter().map(|c| c.name).collect()
}

/// Per-layer metrics: `traced` replayed (a prefix of) the ops
/// `untraced` timed, or the other way round.
pub fn per_layer(untraced: &Runner, traced: &Runner) -> Vec<Metric> {
    let total = op_total(traced);
    let n = op_spans(traced).count() as f64;
    let op_ns: f64 = op_spans(traced).map(|s| s.host_ns() as f64).sum();
    let refresh: u64 = op_spans(traced)
        .map(|s| refreshes(s.sim_start, s.delta.cycles))
        .sum();
    let names = component_names(traced);
    let comp = |name: &str| {
        names
            .iter()
            .position(|c| c == name)
            .and_then(|i| total.components.get(i).copied())
            .unwrap_or((0, 0))
    };
    let comp_ns: u64 = total.components.iter().map(|c| c.1).sum();
    let cycles = total.cycles as f64;
    let samples = &traced.samples;
    let cycles_per_us = traced.rig.soc.core.sim.freq().as_mhz() as f64;
    let tr_cycles: f64 = samples.iter().map(|s| s.out.tr_us() * cycles_per_us).sum();
    // Host times compared over the ops both passes ran.
    let common = samples.len().min(untraced.samples.len());
    let host_ns = |r: &Runner| -> Vec<f64> {
        r.samples[..common]
            .iter()
            .map(|s| s.host_ns as f64)
            .collect()
    };
    let (base_ns, traced_ns) = (host_ns(untraced), host_ns(traced));

    let mut out = vec![
        m(
            "sim.ticks_per_kcycle",
            "ticks/kcyc",
            ratio(total.ticks as f64 * 1e3, cycles),
        ),
        m(
            "sim.jumps_per_kcycle",
            "jumps/kcyc",
            ratio(total.jumps as f64 * 1e3, cycles),
        ),
        m(
            "sim.kernel_self_pct",
            "%",
            ratio((op_ns - comp_ns as f64) * 100.0, op_ns),
        ),
        m(
            "sim.host_ns_per_tick",
            "ns",
            ratio(
                mean(base_ns.iter().copied()),
                mean(op_spans(traced).take(common).map(|s| s.delta.ticks as f64)),
            ),
        ),
        m(
            "axi.xbar.ticks_per_op",
            "ticks/op",
            ratio(comp("xbar").0 as f64, n),
        ),
    ];
    for (prefix, component) in COMPONENTS {
        out.push(m(
            &format!("{prefix}.host_pct"),
            "%",
            ratio(comp(component).1 as f64 * 100.0, op_ns),
        ));
    }
    out.extend([
        m("core.mmio_per_op", "mmio/op", ratio(total.mmio as f64, n)),
        m(
            "core.sim_cycles_per_mmio",
            "cyc/mmio",
            ratio(cycles, total.mmio as f64),
        ),
        m(
            "core.td_us",
            "sim_us",
            mean(samples.iter().map(|s| s.out.td_us())),
        ),
        m(
            "core.tr_us",
            "sim_us",
            mean(samples.iter().map(|s| s.out.tr_us())),
        ),
        m(
            "fabric.icap.port_util_pct",
            "%",
            ratio(total.icap_words as f64 * 100.0, tr_cycles),
        ),
        m(
            "soc.ddr.refreshes_per_op",
            "refresh/op",
            ratio(refresh as f64, n),
        ),
        m(
            "soc.spi.transfers_per_op",
            "xfer/op",
            ratio(total.spi_transfers as f64, n),
        ),
        m(
            "accel.tc_us",
            "sim_us",
            mean(samples.iter().map(|s| s.out.tc_us())),
        ),
        m(
            "fabric.config_writes_per_op",
            "frames/op",
            ratio(total.config_writes as f64, n),
        ),
        m(
            "soc.plic.claims_per_op",
            "claims/op",
            ratio(total.plic_claims as f64, n),
        ),
    ]);
    out.extend(op_times(untraced));
    let base = median(base_ns);
    out.push(m(
        "trace_overhead_pct",
        "%",
        ratio((median(traced_ns) - base) * 100.0, base),
    ));
    out
}

/// The per-layer span table: per span name, calls, host time, self
/// time (span time minus its child spans) and simulated cycles.
pub fn span_table(traced: &Runner) -> String {
    let spans = &traced.tracer.spans;
    let own = traced.tracer.self_ns();
    let mut rows: Vec<(&str, u64, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(own) {
        let i = match rows.iter().position(|r| r.0 == s.name) {
            Some(i) => i,
            None => {
                rows.push((s.name, 0, 0, 0, 0));
                rows.len() - 1
            }
        };
        let r = &mut rows[i];
        r.1 += 1;
        r.2 += s.host_ns();
        r.3 += own;
        r.4 += s.delta.cycles;
    }
    let op_ns: u64 = op_spans(traced).map(Span::host_ns).sum();
    let mut t = format!(
        "  {:<42} {:>6} {:>11} {:>11} {:>7} {:>14}\n",
        "span", "calls", "host ms", "self ms", "self %", "sim cycles"
    );
    for (name, calls, ns, own, cyc) in rows {
        t.push_str(&format!(
            "  {:<42} {:>6} {:>11.3} {:>11.3} {:>6.1}% {:>14}\n",
            name,
            calls,
            ns as f64 / 1e6,
            own as f64 / 1e6,
            ratio(own as f64 * 100.0, op_ns as f64),
            cyc
        ));
    }
    t
}

/// Per-component profiled host time over the traced ops, largest first.
pub fn component_table(traced: &Runner) -> String {
    let total = op_total(traced);
    let mut rows: Vec<(String, (u64, u64))> = component_names(traced)
        .into_iter()
        .zip(total.components)
        .filter(|(_, (_, ns))| *ns > 0)
        .collect();
    rows.sort_by_key(|(_, (_, ns))| std::cmp::Reverse(*ns));
    let mut t = format!(
        "  {:<20} {:>14} {:>11} {:>9}\n",
        "component", "ticks", "host ms", "ns/tick"
    );
    for (name, (ticks, ns)) in rows {
        t.push_str(&format!(
            "  {:<20} {:>14} {:>11.3} {:>9.1}\n",
            name,
            ticks,
            ns as f64 / 1e6,
            ratio(ns as f64, ticks as f64)
        ));
    }
    t
}
