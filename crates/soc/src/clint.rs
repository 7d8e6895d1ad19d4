//! The CLINT: core-local interruptor with the measurement timer.
//!
//! "The reconfiguration time is measured by the CLINT component with a
//! clock timer frequency of 5 MHz" (§IV-B): `mtime` advances once per
//! 20 fabric cycles, so every duration the paper reports is quantized
//! to 4 µs. The drivers read `mtime` over the bus exactly like the C
//! code does; the handle also exposes a zero-time view for tests.
//!
//! `mtime` is *derived*, not ticked: the value at cycle `t` is a pure
//! function of `t` and the last `mtime` write, so the component does
//! not need a tick on every divider edge — it computes the register on
//! demand when a bus access arrives and sleeps otherwise. Without this
//! the CLINT would wake the whole active-set scheduler every 20 cycles
//! for an increment nobody observes, fragmenting the kernel's idle
//! jumps (it was the single busiest component of the AXI_HWICAP paper
//! run). The observable behavior is bit-identical to an eagerly
//! ticked timer: reads see the same values, and `timer_irq` still
//! flips exactly on divider edges via a scheduled wake at the
//! crossing edge.

use std::cell::RefCell;
use std::rc::Rc;

use rvcap_axi::mm::{MmResp, SlavePort};
use rvcap_axi::regmap::{Decoded, RegisterFile};
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};
use rvcap_sim::{Cycle, Freq, MmioAudit};

use crate::map::{CLINT_MAP, CLINT_MTIME};

#[derive(Debug, Default)]
struct Shared {
    /// `mtime` as of the CLINT's most recent *observable* event — a
    /// serviced bus access or a `timer_irq` level change. Refreshing
    /// only on those (never on an idle tick) keeps the mirror a pure
    /// function of simulated history, identical under every scheduler
    /// mode, which replay parity pins.
    mtime: u64,
    mtimecmp: u64,
}

/// Zero-time observer for the CLINT state.
#[derive(Debug, Clone)]
pub struct ClintHandle {
    shared: Rc<RefCell<Shared>>,
    divider: Cycle,
}

impl ClintHandle {
    /// `mtime` as of the CLINT's last serviced access. The timer is
    /// derived from the clock on demand, so with no bus traffic this
    /// view goes stale — drivers read the live value over the bus,
    /// exactly like the C code.
    pub fn mtime(&self) -> u64 {
        self.shared.borrow().mtime
    }

    /// Convert a tick count to microseconds at the timer frequency.
    pub fn ticks_to_us(&self, ticks: u64, fabric: Freq) -> f64 {
        fabric.cycles_to_us(ticks * self.divider)
    }
}

/// The CLINT component.
pub struct Clint {
    name: String,
    port: SlavePort,
    /// Typed decode of the register window.
    regs: RegisterFile,
    /// Fabric cycles per timer tick (20 for 5 MHz at 100 MHz).
    divider: Cycle,
    /// `mtime` value the derivation is based on: the value written by
    /// the last `mtime` store (0 at reset), …
    base_mtime: u64,
    /// … as of this many elapsed divider edges. `mtime` at cycle `t`
    /// is `base_mtime + edges(t) - base_edges` where
    /// `edges(t) = (t + 1) / divider` (the increment lands on cycles
    /// `t ≡ divider − 1 (mod divider)`, visible within that cycle).
    base_edges: u64,
    shared: Rc<RefCell<Shared>>,
    /// Timer interrupt line (mtime >= mtimecmp), for completeness.
    pub timer_irq: rvcap_sim::Signal<bool>,
}

impl Clint {
    /// Create a CLINT whose timer ticks every `divider` fabric cycles.
    pub fn new(
        name: impl Into<String>,
        port: SlavePort,
        _base: u64,
        divider: Cycle,
    ) -> (Self, ClintHandle) {
        assert!(divider > 0);
        let shared = Rc::new(RefCell::new(Shared {
            mtime: 0,
            mtimecmp: u64::MAX,
        }));
        let handle = ClintHandle {
            shared: shared.clone(),
            divider,
        };
        (
            Clint {
                name: name.into(),
                port,
                regs: RegisterFile::new(&CLINT_MAP),
                divider,
                base_mtime: 0,
                base_edges: 0,
                shared,
                timer_irq: rvcap_sim::Signal::new(false),
            },
            handle,
        )
    }

    /// The paper's configuration: 5 MHz timer on the 100 MHz fabric.
    pub fn paper(port: SlavePort, base: u64) -> (Self, ClintHandle) {
        Clint::new("clint", port, base, 20)
    }

    /// Divider edges elapsed by the end of `cycle` (the increment on
    /// an edge cycle is visible within that cycle, matching an eager
    /// increment at the top of the tick).
    fn edges(&self, cycle: Cycle) -> u64 {
        (cycle + 1) / self.divider
    }

    /// The derived `mtime` visible during `cycle`.
    fn mtime_at(&self, cycle: Cycle) -> u64 {
        self.base_mtime + (self.edges(cycle) - self.base_edges)
    }

    /// The first divider-edge cycle at or after `now`.
    fn edge_at_or_after(&self, now: Cycle) -> Cycle {
        if (now + 1).is_multiple_of(self.divider) {
            now
        } else {
            (self.edges(now) + 1) * self.divider - 1
        }
    }
}

impl Component for Clint {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let cycle = ctx.cycle;
        let mtime = self.mtime_at(cycle);
        let cmp = self.shared.borrow().mtimecmp;
        // The irq level re-latches on divider edges only, exactly like
        // an eagerly ticked timer; the hint schedules a tick on the
        // next edge whenever the latched level disagrees with the
        // comparison. The handle mirror refreshes only on observable
        // events (a level change here, a serviced access below) so its
        // value is schedule-independent.
        if (cycle + 1).is_multiple_of(self.divider) {
            let want = mtime >= cmp;
            if self.timer_irq.get() != want {
                self.timer_irq.set(want);
                self.shared.borrow_mut().mtime = mtime;
            }
        }
        if let Some(req) = self.port.try_take(cycle) {
            self.shared.borrow_mut().mtime = mtime;
            let resp = match self.regs.decode(&req) {
                Decoded::Read { def, bytes } => {
                    let v = match def.offset {
                        CLINT_MTIME => mtime,
                        _ => cmp,
                    };
                    MmResp::data(v, bytes, true)
                }
                Decoded::Write { def, value, .. } => {
                    let mut sh = self.shared.borrow_mut();
                    match def.offset {
                        CLINT_MTIME => {
                            // Rebase the derivation: `value` is what a
                            // read during this cycle returns, and the
                            // count resumes from it on the next edge.
                            self.base_mtime = value;
                            self.base_edges = self.edges(cycle);
                            sh.mtime = value;
                        }
                        _ => sh.mtimecmp = value,
                    }
                    MmResp::write_ack()
                }
                Decoded::Reject => MmResp::err(),
            };
            let _ = self.port.try_respond(cycle, resp);
        }
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        if !self.port.req.is_empty() {
            return now;
        }
        // `mtime` is derived on demand, so the only event that needs a
        // tick with no bus traffic is a `timer_irq` level change — and
        // those land on divider edges.
        let level = self.timer_irq.get();
        let cmp = self.shared.borrow().mtimecmp;
        let want = self.mtime_at(now) >= cmp;
        if level != want {
            // A write moved the comparison mid-interval: re-latch on
            // the next edge, like the eager timer would.
            return self.edge_at_or_after(now);
        }
        if level {
            // High, and mtime only grows: the level holds until a
            // write, which arrives through the request channel.
            return Cycle::MAX;
        }
        // Low and rising when mtime reaches mtimecmp: that takes
        // `cmp - base_mtime` edges past the base point, landing on
        // cycle `k * divider - 1`. Saturate to "never" on overflow
        // (the reset mtimecmp is u64::MAX).
        let at = cmp
            .checked_sub(self.base_mtime)
            .and_then(|need| self.base_edges.checked_add(need))
            .and_then(|k| k.checked_mul(self.divider))
            .and_then(|c| c.checked_sub(1));
        at.unwrap_or(Cycle::MAX)
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // The timer edge is a pure time-based deadline (post-tick
        // hint); bus reads/writes are the only external input.
        self.port.req.subscribe_wake(waker.clone());
    }

    fn mmio_audit(&self) -> Option<MmioAudit> {
        Some(self.regs.audit())
    }

    fn save_state(&self) -> Option<StateBlob> {
        let sh = self.shared.borrow();
        let mut b = StateBlob::new("soc.clint", 1);
        b.put("port_req", self.port.req.save_state());
        b.put("regs", self.regs.save_state());
        b.put_u64("divider", self.divider);
        b.put_u64("base_mtime", self.base_mtime);
        b.put_u64("base_edges", self.base_edges);
        b.put_u64("mtime", sh.mtime);
        b.put_u64("mtimecmp", sh.mtimecmp);
        b.put_bool("timer_irq", self.timer_irq.get());
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("soc.clint", 1)?;
        if state.get_u64("divider")? != self.divider {
            return Err(state.structure_error(format!(
                "divider mismatch: instance {}, state {}",
                self.divider,
                state.get_u64("divider")?
            )));
        }
        self.port.req.restore_state(state.get("port_req")?)?;
        self.regs.restore_state(state.get("regs")?)?;
        self.base_mtime = state.get_u64("base_mtime")?;
        self.base_edges = state.get_u64("base_edges")?;
        {
            let mut sh = self.shared.borrow_mut();
            sh.mtime = state.get_u64("mtime")?;
            sh.mtimecmp = state.get_u64("mtimecmp")?;
        }
        self.timer_irq.set(state.get_bool("timer_irq")?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{CLINT_BASE, CLINT_MTIMECMP};
    use rvcap_axi::mm::{link, MmReq};
    use rvcap_sim::{Freq, Simulator};

    fn rig() -> (Simulator, rvcap_axi::MasterPort, ClintHandle) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (m, s) = link("clint", 2);
        let (clint, h) = Clint::paper(s, CLINT_BASE);
        sim.register(Box::new(clint));
        (sim, m, h)
    }

    #[test]
    fn mtime_ticks_at_5mhz() {
        let (mut sim, m, h) = rig();
        sim.step_n(199);
        // Read during cycles 199..: 200 elapsed cycles / 20 = 10. The
        // timer is derived on demand, so the check reads over the bus
        // (and completes well before the next edge at 219).
        m.try_issue(sim.now(), MmReq::read(CLINT_BASE + CLINT_MTIME, 8))
            .unwrap();
        let mut got = None;
        sim.run_until(10, || {
            got = m.resp.force_pop();
            got.is_some()
        })
        .unwrap();
        assert_eq!(got.unwrap().data, 10);
        assert_eq!(h.mtime(), 10, "handle mirrors the serviced value");
        assert_eq!(h.ticks_to_us(10, Freq::FABRIC_100MHZ), 2.0);
    }

    #[test]
    fn mtime_readable_over_bus() {
        let (mut sim, m, h) = rig();
        sim.step_n(100);
        m.try_issue(sim.now(), MmReq::read(CLINT_BASE + CLINT_MTIME, 8))
            .unwrap();
        let mut got = None;
        sim.run_until(100, || {
            got = m.resp.force_pop();
            got.is_some()
        })
        .unwrap();
        let v = got.unwrap().data;
        assert!(v >= 5 && v <= h.mtime(), "mtime over bus: {v}");
    }

    #[test]
    fn mtimecmp_raises_timer_irq() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (m, s) = link("clint", 2);
        let (clint, _h) = Clint::paper(s, CLINT_BASE);
        let irq = clint.timer_irq.clone();
        sim.register(Box::new(clint));
        m.try_issue(0, MmReq::write(CLINT_BASE + CLINT_MTIMECMP, 3, 8))
            .unwrap();
        sim.run_until(100, || m.resp.force_pop().is_some()).unwrap();
        assert!(!irq.get());
        sim.step_n(100);
        assert!(irq.get());
    }
}
