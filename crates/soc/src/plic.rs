//! The PLIC: platform-level interrupt controller.
//!
//! "The DMA controller interrupts are directly connected to the
//! processor-level interrupt controller (PLIC) to support non-blocking
//! mode during data transfer and free up the processor for other
//! tasks" (§III-B). The model implements the subset drivers use:
//! level-sensitive sources, an enable mask, a pending bitmap, and the
//! claim/complete handshake.

use std::cell::RefCell;
use std::rc::Rc;

use rvcap_axi::mm::{MmResp, SlavePort};
use rvcap_axi::regmap::{Decoded, RegisterFile};
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};
use rvcap_sim::{MmioAudit, Signal};

use crate::map::{PLIC_ENABLE, PLIC_MAP, PLIC_PENDING};

#[derive(Debug, Default)]
struct Shared {
    pending: u32,
    enabled: u32,
    /// Sources claimed but not completed (gated from re-pending).
    in_service: u32,
    claims: u64,
}

/// Zero-time observer of PLIC state.
#[derive(Debug, Clone)]
pub struct PlicHandle {
    shared: Rc<RefCell<Shared>>,
}

impl PlicHandle {
    /// Is source `id` pending (enabled and raised)?
    pub fn is_pending(&self, id: u32) -> bool {
        self.shared.borrow().pending & (1 << id) != 0
    }

    /// Any enabled source pending?
    pub fn any_pending(&self) -> bool {
        self.shared.borrow().pending != 0
    }

    /// Total successful claims.
    pub fn claims(&self) -> u64 {
        self.shared.borrow().claims
    }
}

/// The PLIC component. Source 0 is reserved (as in the spec); sources
/// are 1..=31 here.
pub struct Plic {
    name: String,
    port: SlavePort,
    /// Typed decode of the register window.
    regs: RegisterFile,
    /// Level signals indexed by source id.
    sources: Vec<(u32, Signal<bool>)>,
    shared: Rc<RefCell<Shared>>,
}

impl Plic {
    /// Create a PLIC with the given (id, level-signal) sources.
    pub fn new(
        name: impl Into<String>,
        port: SlavePort,
        _base: u64,
        sources: Vec<(u32, Signal<bool>)>,
    ) -> (Self, PlicHandle) {
        for &(id, _) in &sources {
            assert!((1..32).contains(&id), "source id {id} out of range");
        }
        let shared = Rc::new(RefCell::new(Shared::default()));
        let handle = PlicHandle {
            shared: shared.clone(),
        };
        (
            Plic {
                name: name.into(),
                port,
                regs: RegisterFile::new(&PLIC_MAP),
                sources,
                shared,
            },
            handle,
        )
    }
}

impl Component for Plic {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let cycle = ctx.cycle;
        // Sample level sources into the pending bitmap.
        {
            let mut sh = self.shared.borrow_mut();
            for (id, sig) in &self.sources {
                let bit = 1u32 << id;
                if sig.get() && sh.enabled & bit != 0 && sh.in_service & bit == 0 {
                    if sh.pending & bit == 0 {
                        ctx.tracer
                            .info(cycle, &self.name, || format!("irq {id} pending"));
                    }
                    sh.pending |= bit;
                }
            }
        }
        if let Some(req) = self.port.try_take(cycle) {
            let resp = match self.regs.decode(&req) {
                Decoded::Read { def, bytes } => {
                    let mut sh = self.shared.borrow_mut();
                    let v = match def.offset {
                        PLIC_PENDING => sh.pending as u64,
                        PLIC_ENABLE => sh.enabled as u64,
                        _ => {
                            // Claim: highest-priority (lowest id) pending.
                            let id = (1..32).find(|i| sh.pending & (1 << i) != 0);
                            match id {
                                Some(i) => {
                                    sh.pending &= !(1 << i);
                                    sh.in_service |= 1 << i;
                                    sh.claims += 1;
                                    i as u64
                                }
                                None => 0,
                            }
                        }
                    };
                    MmResp::data(v, bytes, true)
                }
                Decoded::Write { def, value, .. } => {
                    let mut sh = self.shared.borrow_mut();
                    if def.offset == PLIC_ENABLE {
                        sh.enabled = value as u32;
                    } else {
                        // Complete: allow the source to pend again.
                        let bit = 1u32 << (value as u32 & 31);
                        sh.in_service &= !bit;
                    }
                    MmResp::write_ack()
                }
                Decoded::Reject => MmResp::err(),
            };
            let _ = self.port.try_respond(cycle, resp);
        }
    }

    fn next_activity(&self, now: rvcap_sim::Cycle) -> rvcap_sim::Cycle {
        if !self.port.req.is_empty() {
            return now;
        }
        // A tick changes state only when some enabled, not-in-service,
        // not-yet-pending source line is high — the exact condition
        // under which the sampler sets a pending bit. A line held high
        // while latched pending (or in service, or disabled) is a
        // no-op, so it must not keep the system from fast-forwarding.
        let sh = self.shared.borrow();
        let newly_pending = self.sources.iter().any(|(id, sig)| {
            let bit = 1u32 << id;
            sig.get() && sh.enabled & bit != 0 && sh.in_service & bit == 0 && sh.pending & bit == 0
        });
        if newly_pending {
            now
        } else {
            rvcap_sim::Cycle::MAX
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // Level sources re-evaluate the hint on every signal edge (a
        // rising line may newly pend; enable/claim traffic arrives via
        // the bus request channel, which is also subscribed).
        self.port.req.subscribe_wake(waker.clone());
        for (_, sig) in &self.sources {
            sig.subscribe_wake(waker.clone());
        }
    }

    fn mmio_audit(&self) -> Option<MmioAudit> {
        Some(self.regs.audit())
    }

    fn save_state(&self) -> Option<StateBlob> {
        let sh = self.shared.borrow();
        let mut b = StateBlob::new("soc.plic", 1);
        b.put("port_req", self.port.req.save_state());
        b.put("regs", self.regs.save_state());
        b.put_u64("pending", sh.pending as u64);
        b.put_u64("enabled", sh.enabled as u64);
        b.put_u64("in_service", sh.in_service as u64);
        b.put_u64("claims", sh.claims);
        // Source line levels are owned (saved) by their drivers.
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("soc.plic", 1)?;
        self.port.req.restore_state(state.get("port_req")?)?;
        self.regs.restore_state(state.get("regs")?)?;
        let mut sh = self.shared.borrow_mut();
        sh.pending = state.get_u32("pending")?;
        sh.enabled = state.get_u32("enabled")?;
        sh.in_service = state.get_u32("in_service")?;
        sh.claims = state.get_u64("claims")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::{PLIC_BASE, PLIC_CLAIM};
    use rvcap_axi::mm::{link, MmReq};
    use rvcap_sim::{Freq, Simulator};

    struct Rig {
        sim: Simulator,
        m: rvcap_axi::MasterPort,
        h: PlicHandle,
        line1: Signal<bool>,
        line2: Signal<bool>,
    }

    fn rig() -> Rig {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (m, s) = link("plic", 2);
        let line1 = Signal::new(false);
        let line2 = Signal::new(false);
        let (plic, h) = Plic::new(
            "plic",
            s,
            PLIC_BASE,
            vec![(1, line1.clone()), (2, line2.clone())],
        );
        sim.register(Box::new(plic));
        Rig {
            sim,
            m,
            h,
            line1,
            line2,
        }
    }

    fn mmio_read(r: &mut Rig, addr: u64) -> u64 {
        r.m.try_issue(r.sim.now(), MmReq::read(addr, 4)).unwrap();
        let mut got = None;
        r.sim
            .run_until(100, || {
                got = r.m.resp.force_pop();
                got.is_some()
            })
            .unwrap();
        got.unwrap().data
    }

    fn mmio_write(r: &mut Rig, addr: u64, v: u64) {
        r.m.try_issue(r.sim.now(), MmReq::write(addr, v, 4))
            .unwrap();
        r.sim
            .run_until(100, || r.m.resp.force_pop().is_some())
            .unwrap();
    }

    #[test]
    fn disabled_source_never_pends() {
        let mut r = rig();
        r.line1.set(true);
        r.sim.step_n(10);
        assert!(!r.h.is_pending(1));
    }

    #[test]
    fn enabled_source_pends_and_claims() {
        let mut r = rig();
        mmio_write(&mut r, PLIC_BASE + PLIC_ENABLE, 0b110);
        r.line1.set(true); // not enabled (bit 1 is id 1? enabled=0b110 → ids 1,2)
        r.line2.set(true);
        r.sim.step_n(5);
        assert!(r.h.is_pending(1));
        assert!(r.h.is_pending(2));
        // Claim returns the lowest pending id.
        assert_eq!(mmio_read(&mut r, PLIC_BASE + PLIC_CLAIM), 1);
        assert!(!r.h.is_pending(1));
        assert_eq!(mmio_read(&mut r, PLIC_BASE + PLIC_CLAIM), 2);
        assert_eq!(mmio_read(&mut r, PLIC_BASE + PLIC_CLAIM), 0);
        assert_eq!(r.h.claims(), 2);
    }

    #[test]
    fn claimed_source_does_not_repend_until_complete() {
        let mut r = rig();
        mmio_write(&mut r, PLIC_BASE + PLIC_ENABLE, 0b10);
        r.line1.set(true);
        r.sim.step_n(5);
        assert_eq!(mmio_read(&mut r, PLIC_BASE + PLIC_CLAIM), 1);
        // Line still high, but in-service: no re-pend.
        r.sim.step_n(10);
        assert!(!r.h.is_pending(1));
        // Complete; still high → pends again (level semantics).
        mmio_write(&mut r, PLIC_BASE + PLIC_CLAIM, 1);
        r.sim.step_n(5);
        assert!(r.h.is_pending(1));
        // Drop the line and complete the second claim: quiet.
        assert_eq!(mmio_read(&mut r, PLIC_BASE + PLIC_CLAIM), 1);
        r.line1.set(false);
        mmio_write(&mut r, PLIC_BASE + PLIC_CLAIM, 1);
        r.sim.step_n(5);
        assert!(!r.h.any_pending());
    }

    #[test]
    fn pending_bitmap_readable() {
        let mut r = rig();
        mmio_write(&mut r, PLIC_BASE + PLIC_ENABLE, 0b110);
        r.line2.set(true);
        r.sim.step_n(5);
        assert_eq!(mmio_read(&mut r, PLIC_BASE + PLIC_PENDING), 0b100);
    }
}
