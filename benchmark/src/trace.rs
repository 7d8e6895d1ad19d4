//! Spans recorded from the benchmark's own code, around each public
//! library call an op makes, with the public counters sampled at both
//! ends. Spans stay in memory and are written out when the run ends.

use std::borrow::Borrow;
use std::time::Instant;

use rvcap_core::system::RvCapSoc;

/// Public counters of one SoC, sampled at a span boundary. Subtracting
/// two samples gives the work done in between.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Simulated cycles.
    pub cycles: u64,
    /// Component `tick` calls, all components.
    pub ticks: u64,
    /// Whole-system clock jumps taken by the kernel.
    pub jumps: u64,
    /// CPU MMIO accesses (reads + writes).
    pub mmio: u64,
    /// Configuration words the ICAP consumed.
    pub icap_words: u64,
    /// SPI byte transfers.
    pub spi_transfers: u64,
    /// Configuration-memory frame writes.
    pub config_writes: u64,
    /// PLIC interrupt claims.
    pub plic_claims: u64,
    /// Per component, in registration order: (ticks, profiled host ns).
    pub components: Vec<(u64, u64)>,
}

impl Counters {
    /// Sample `soc`'s counters now.
    pub fn sample(soc: &RvCapSoc) -> Self {
        let k = soc.core.sim.kernel_stats();
        let h = &soc.handles;
        Counters {
            cycles: k.cycles,
            ticks: k.total_ticks(),
            jumps: k.jumps,
            mmio: soc.core.mmio_reads() + soc.core.mmio_writes(),
            icap_words: h.icap.words_consumed(),
            spi_transfers: h.spi.transfers(),
            config_writes: h.config_mem.total_writes(),
            plic_claims: h.plic.claims(),
            components: k
                .components
                .iter()
                .map(|c| (c.ticks_executed, c.host_ns))
                .collect(),
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            cycles: self.cycles - earlier.cycles,
            ticks: self.ticks - earlier.ticks,
            jumps: self.jumps - earlier.jumps,
            mmio: self.mmio - earlier.mmio,
            icap_words: self.icap_words - earlier.icap_words,
            spi_transfers: self.spi_transfers - earlier.spi_transfers,
            config_writes: self.config_writes - earlier.config_writes,
            plic_claims: self.plic_claims - earlier.plic_claims,
            components: self
                .components
                .iter()
                .zip(&earlier.components)
                .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
                .collect(),
        }
    }

    /// Accumulate `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        self.cycles += other.cycles;
        self.ticks += other.ticks;
        self.jumps += other.jumps;
        self.mmio += other.mmio;
        self.icap_words += other.icap_words;
        self.spi_transfers += other.spi_transfers;
        self.config_writes += other.config_writes;
        self.plic_claims += other.plic_claims;
        if self.components.is_empty() {
            self.components = vec![(0, 0); other.components.len()];
        }
        for (a, b) in self.components.iter_mut().zip(&other.components) {
            a.0 += b.0;
            a.1 += b.1;
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, `<crate>.<call>`.
    pub name: &'static str,
    /// Op the span belongs to (shared by all spans of one op).
    pub op: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Host start, ns since the tracer was created.
    pub host_start_ns: u64,
    /// Host end, ns since the tracer was created.
    pub host_end_ns: u64,
    /// Simulated cycle the span started at.
    pub sim_start: u64,
    /// Counter deltas over the span (simulated cycles included).
    pub delta: Counters,
}

impl Span {
    /// Host duration in ns.
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }
}

/// Span recorder. A disabled tracer runs the wrapped calls and records
/// nothing, so the untraced pass executes the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    /// Spans in open order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`true`) or only runs the calls (`false`).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Tag the spans that follow with op id `op`. No span is open
    /// between ops; spans a panic left open are closed off here.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
        self.stack.clear();
    }

    /// Run `f` on `target` (the SoC, or something holding it) inside a
    /// span named `name`.
    pub fn span<T: Borrow<RvCapSoc>, R>(
        &mut self,
        name: &'static str,
        target: &mut T,
        f: impl FnOnce(&mut T, &mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(target, self);
        }
        let idx = self.spans.len();
        let start = Counters::sample((*target).borrow());
        let host_start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.stack.last().copied(),
            host_start_ns,
            host_end_ns: host_start_ns,
            sim_start: start.cycles,
            delta: Counters::default(),
        });
        self.stack.push(idx);
        let out = f(target, self);
        self.stack.pop();
        let span = &mut self.spans[idx];
        span.host_end_ns = self.epoch.elapsed().as_nanos() as u64;
        span.delta = Counters::sample((*target).borrow()).since(&start);
        out
    }

    /// Host ns of each span minus the part its direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::host_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.host_ns());
            }
        }
        own
    }
}
