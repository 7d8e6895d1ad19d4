//! Kernel work accounting ([`KernelStats`]) and per-device MMIO audits.

use crate::time::Cycle;

/// MMIO access accounting for one register-mapped device.
///
/// Populated by components that decode bus traffic through a typed
/// register map (see `rvcap-axi`'s `regmap` module) and surfaced
/// through [`ComponentStats`] / [`KernelStats`]. The first two
/// counters are plain traffic; the rest are protocol violations the
/// device answered with a bus error instead of silently absorbing.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MmioAudit {
    /// Accepted register reads.
    pub reads: u64,
    /// Accepted register writes.
    pub writes: u64,
    /// Accesses to an offset no register covers.
    pub unmapped: u64,
    /// Accesses inside a register's span but not at its offset.
    pub misaligned: u64,
    /// Writes to a read-only register.
    pub ro_writes: u64,
    /// Reads of a write-only register.
    pub wo_reads: u64,
    /// Accesses wider than the register.
    pub overwide: u64,
    /// Burst operations aimed at single-beat register space.
    pub bursts: u64,
    /// Bus/stream protocol violations recorded by the sanitizer
    /// (see `rvcap-sim`'s `sanitizer` module). Zero unless a sanitizer
    /// is attached; folded in by `Simulator::mmio_audit` so a single
    /// `violations() == 0` assertion covers both register policy and
    /// bus protocol.
    pub protocol: u64,
}

impl MmioAudit {
    /// Total rejected accesses (everything except plain reads/writes).
    pub fn violations(&self) -> u64 {
        self.unmapped
            + self.misaligned
            + self.ro_writes
            + self.wo_reads
            + self.overwide
            + self.bursts
            + self.protocol
    }

    /// Accumulate another audit into this one.
    pub fn merge(&mut self, other: &MmioAudit) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.unmapped += other.unmapped;
        self.misaligned += other.misaligned;
        self.ro_writes += other.ro_writes;
        self.wo_reads += other.wo_reads;
        self.overwide += other.overwide;
        self.bursts += other.bursts;
        self.protocol += other.protocol;
    }
}

/// Per-component activity accounting from the simulation kernel.
///
/// For a component registered at cycle 0, `ticks_executed +
/// cycles_skipped` equals the total cycles simulated: every cycle
/// either ran the component's `tick` or skipped it (gated by its
/// [`crate::Component::next_activity`] hint, or jumped over entirely).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentStats {
    /// Component instance name.
    pub name: String,
    /// Cycles on which `tick` actually ran.
    pub ticks_executed: u64,
    /// Cycles skipped as guaranteed no-ops (gating + jumps).
    pub cycles_skipped: u64,
    /// Host nanoseconds spent inside this component's `tick` calls. Accumulated only while profiling is enabled
    /// ([`crate::Simulator::set_profiling`]); zero otherwise.
    pub host_ns: u64,
    /// MMIO access audit, for components that decode a register map.
    pub audit: Option<MmioAudit>,
}

impl ComponentStats {
    /// Fraction of simulated cycles this component was actually
    /// ticked, in percent. 100 % means it never declared idleness.
    pub fn utilization_pct(&self) -> f64 {
        let total = self.ticks_executed + self.cycles_skipped;
        if total == 0 {
            0.0
        } else {
            self.ticks_executed as f64 / total as f64 * 100.0
        }
    }
}

/// Snapshot of the kernel's work accounting
/// ([`crate::Simulator::kernel_stats`]): clock jumps, dense windows,
/// and per-component executed and skipped ticks.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStats {
    /// Total simulated cycles.
    pub cycles: Cycle,
    /// Whether [`crate::Scheduler::ActiveSet`] was selected at
    /// snapshot time (hint-gated ticks, clock jumps, dense windows);
    /// false under the naive reference.
    pub fast_forward: bool,
    /// Number of whole-system clock jumps taken.
    pub jumps: u64,
    /// Total cycles covered by those jumps.
    pub jumped_cycles: Cycle,
    /// Cycles the active set ran inside dense windows, where every
    /// component ticks (always zero under the naive reference).
    pub dense_cycles: Cycle,
    /// Bus/stream protocol violations recorded by the attached
    /// sanitizer (zero when no sanitizer is attached).
    pub protocol_violations: u64,
    /// Whether per-component host-time profiling was enabled at
    /// snapshot time (the `host_ns` fields are meaningful only then).
    pub profiled: bool,
    /// Per-component counters, in registration order.
    pub components: Vec<ComponentStats>,
}

impl KernelStats {
    /// Total `tick` calls across all components.
    pub fn total_ticks(&self) -> u64 {
        self.components.iter().map(|c| c.ticks_executed).sum()
    }

    /// Total skipped component-cycles across all components.
    pub fn total_skipped(&self) -> u64 {
        self.components.iter().map(|c| c.cycles_skipped).sum()
    }

    /// Total MMIO protocol violations across every audited component.
    pub fn total_mmio_violations(&self) -> u64 {
        self.components
            .iter()
            .filter_map(|c| c.audit.as_ref())
            .map(|a| a.violations())
            .sum()
    }

    /// Merged MMIO audit across every audited component.
    pub fn mmio_audit(&self) -> MmioAudit {
        let mut total = MmioAudit::default();
        for a in self.components.iter().filter_map(|c| c.audit.as_ref()) {
            total.merge(a);
        }
        total
    }

    /// Total profiled host nanoseconds across all components (zero
    /// when profiling was disabled).
    pub fn total_host_ns(&self) -> u64 {
        self.components.iter().map(|c| c.host_ns).sum()
    }

    /// Render the tick-cost attribution table: per-component profiled
    /// host time, descending, with per-tick cost and share of the
    /// attributed total. Empty string when no host time was recorded
    /// (profiling disabled or nothing ticked).
    pub fn render_tick_costs(&self) -> String {
        let total = self.total_host_ns();
        if total == 0 {
            return String::new();
        }
        let mut rows: Vec<&ComponentStats> =
            self.components.iter().filter(|c| c.host_ns > 0).collect();
        rows.sort_by_key(|c| std::cmp::Reverse(c.host_ns));
        let name_w = rows.iter().map(|c| c.name.len()).max().unwrap_or(9).max(9);
        let mut out = String::new();
        out.push_str(&format!(
            "tick-cost attribution: {:.3} ms host time inside tick calls over {} cycles\n",
            total as f64 / 1e6,
            self.cycles,
        ));
        out.push_str(&format!(
            "  {:<name_w$}  {:>12}  {:>10}  {:>8}  {:>6}\n",
            "component", "ticks", "host ms", "ns/tick", "share",
        ));
        for c in rows {
            let per_tick = if c.ticks_executed > 0 {
                c.host_ns as f64 / c.ticks_executed as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<name_w$}  {:>12}  {:>10.3}  {:>8.1}  {:>5.1}%\n",
                c.name,
                c.ticks_executed,
                c.host_ns as f64 / 1e6,
                per_tick,
                c.host_ns as f64 / total as f64 * 100.0,
            ));
        }
        out
    }

    /// Fraction of component-cycles that were skipped, in percent —
    /// the headline savings of the fast-forward machinery.
    pub fn skipped_pct(&self) -> f64 {
        let total = self.total_ticks() + self.total_skipped();
        if total == 0 {
            0.0
        } else {
            self.total_skipped() as f64 / total as f64 * 100.0
        }
    }

    /// Render a per-component utilization table plus kernel totals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "kernel: {} cycles, fast-forward {}, {} jumps covering {} cycles, \
             {} dense-window cycles, {} ticks executed / {} skipped ({:.1} % skipped)\n",
            self.cycles,
            if self.fast_forward { "on" } else { "off" },
            self.jumps,
            self.jumped_cycles,
            self.dense_cycles,
            self.total_ticks(),
            self.total_skipped(),
            self.skipped_pct(),
        ));
        let name_w = self
            .components
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for c in &self.components {
            out.push_str(&format!(
                "  {:<name_w$}  {:>12} ticks  {:>12} skipped  {:>6.1} % util\n",
                c.name,
                c.ticks_executed,
                c.cycles_skipped,
                c.utilization_pct(),
            ));
        }
        let audit = self.mmio_audit();
        if audit != MmioAudit::default() {
            out.push_str(&format!(
                "  mmio: {} reads / {} writes, {} violations \
                 (unmapped {}, misaligned {}, ro-writes {}, wo-reads {}, \
                 overwide {}, bursts {})\n",
                audit.reads,
                audit.writes,
                audit.violations(),
                audit.unmapped,
                audit.misaligned,
                audit.ro_writes,
                audit.wo_reads,
                audit.overwide,
                audit.bursts,
            ));
        }
        if self.protocol_violations > 0 {
            out.push_str(&format!(
                "  sanitizer: {} protocol violations\n",
                self.protocol_violations,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmio_audit_merges_and_counts_violations() {
        let mut a = MmioAudit {
            reads: 10,
            writes: 5,
            unmapped: 1,
            ..MmioAudit::default()
        };
        let b = MmioAudit {
            misaligned: 2,
            ro_writes: 3,
            wo_reads: 1,
            overwide: 1,
            bursts: 1,
            ..MmioAudit::default()
        };
        a.merge(&b);
        assert_eq!(a.reads, 10);
        assert_eq!(a.violations(), 9);
    }

    #[test]
    fn kernel_stats_aggregate_audits() {
        let stats = KernelStats {
            cycles: 100,
            fast_forward: true,
            jumps: 0,
            jumped_cycles: 0,
            dense_cycles: 0,
            protocol_violations: 0,
            profiled: false,
            components: vec![
                ComponentStats {
                    name: "a".into(),
                    ticks_executed: 100,
                    cycles_skipped: 0,
                    host_ns: 0,
                    audit: Some(MmioAudit {
                        reads: 4,
                        unmapped: 2,
                        ..MmioAudit::default()
                    }),
                },
                ComponentStats {
                    name: "b".into(),
                    ticks_executed: 100,
                    cycles_skipped: 0,
                    host_ns: 0,
                    audit: None,
                },
                ComponentStats {
                    name: "c".into(),
                    ticks_executed: 100,
                    cycles_skipped: 0,
                    host_ns: 0,
                    audit: Some(MmioAudit {
                        writes: 7,
                        ro_writes: 1,
                        ..MmioAudit::default()
                    }),
                },
            ],
        };
        assert_eq!(stats.total_mmio_violations(), 3);
        let merged = stats.mmio_audit();
        assert_eq!(merged.reads, 4);
        assert_eq!(merged.writes, 7);
        let rendered = stats.render();
        assert!(rendered.contains("violations"), "{rendered}");
    }

    #[test]
    fn tick_cost_table_sorts_descending_and_shares_sum() {
        let mk = |name: &str, ticks: u64, host_ns: u64| ComponentStats {
            name: name.into(),
            ticks_executed: ticks,
            cycles_skipped: 0,
            host_ns,
            audit: None,
        };
        let stats = KernelStats {
            cycles: 1000,
            fast_forward: true,
            jumps: 0,
            jumped_cycles: 0,
            dense_cycles: 0,
            protocol_violations: 0,
            profiled: true,
            components: vec![
                mk("cold", 10, 1_000),
                mk("hot", 1000, 9_000_000),
                mk("idle", 0, 0),
            ],
        };
        assert_eq!(stats.total_host_ns(), 9_001_000);
        let table = stats.render_tick_costs();
        let hot = table.find("hot").expect("hot row present");
        let cold = table.find("cold").expect("cold row present");
        assert!(hot < cold, "hot component sorts first:\n{table}");
        assert!(!table.contains("idle"), "zero-time rows elided:\n{table}");
        // Unprofiled stats render nothing.
        let empty = KernelStats {
            profiled: false,
            components: vec![mk("a", 5, 0)],
            ..stats
        };
        assert_eq!(empty.render_tick_costs(), "");
    }
}
