//! The stream-switch control window (Fig. 2 ④).
//!
//! The `select_ICAP` driver API writes here to steer the DMA's MM2S
//! stream: "An AXI stream switch is inserted between the DMA and ICAP
//! output ports to select whether the RV-CAP controller operates in
//! reconfiguration mode or acceleration mode" (§III-B ④).
//!
//! The two registers are declared in [`SWITCH_CTRL_MAP`]. Switch
//! routes are laid out `[RM0, RM1, …, ICAP]`; the controller resolves
//! the two registers into a route index. The switch itself latches the
//! route at packet boundaries; the decision time `T_d` the paper
//! measures (18 µs) is the software path that culminates in these
//! writes plus the DMA programming.

use rvcap_axi::mm::{MmResp, SlavePort};
use rvcap_axi::regmap::{Decoded, RegisterFile};
use rvcap_axi::switch::SwitchSelect;
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};
use rvcap_sim::MmioAudit;

rvcap_axi::register_map! {
    /// The stream-switch control window.
    pub static SWITCH_CTRL_MAP: "switch_ctrl", size 0x1000 {
        /// SELECT register (1 = ICAP, 0 = RM).
        REG_SELECT @ 0x00: 4 RW reset 0x0, "1 = ICAP (reconfiguration), 0 = RM (acceleration)";
        /// RM_SEL register (partition index for acceleration mode).
        REG_RM_SEL @ 0x04: 4 RW reset 0x0, "partition whose RM receives the stream";
    }
}

/// The switch-control component.
pub struct SwitchCtrl {
    name: String,
    port: SlavePort,
    /// Typed decode of the register window.
    regs: RegisterFile,
    select: SwitchSelect,
    /// Route index of the ICAP output (= number of RM routes).
    icap_route: u8,
    icap_mode: bool,
    rm_sel: u8,
}

impl SwitchCtrl {
    /// Create the register window driving `select`; the switch's
    /// outputs are `[RM0..RM(n-1), ICAP]` with `icap_route = n`.
    pub fn new(
        name: impl Into<String>,
        port: SlavePort,
        select: SwitchSelect,
        icap_route: u8,
    ) -> Self {
        let ctrl = SwitchCtrl {
            name: name.into(),
            port,
            regs: RegisterFile::new(&SWITCH_CTRL_MAP),
            select,
            icap_route,
            icap_mode: false,
            rm_sel: 0,
        };
        ctrl.apply();
        ctrl
    }

    fn apply(&self) {
        self.select.set(if self.icap_mode {
            self.icap_route
        } else {
            self.rm_sel
        });
    }
}

impl Component for SwitchCtrl {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if let Some(req) = self.port.try_take(ctx.cycle) {
            let resp = match self.regs.decode(&req) {
                Decoded::Write { def, value, .. } => {
                    match def.offset {
                        REG_SELECT => {
                            self.icap_mode = value & 1 != 0;
                            ctx.tracer.info(ctx.cycle, &self.name, || {
                                format!(
                                    "mode: {}",
                                    if value & 1 != 0 {
                                        "reconfiguration"
                                    } else {
                                        "acceleration"
                                    }
                                )
                            });
                        }
                        _ => {
                            self.rm_sel = (value as u8).min(self.icap_route.saturating_sub(1));
                        }
                    }
                    self.apply();
                    MmResp::write_ack()
                }
                Decoded::Read { def, bytes } => {
                    let v = match def.offset {
                        REG_SELECT => self.icap_mode as u64,
                        _ => self.rm_sel as u64,
                    };
                    MmResp::data(v, bytes, true)
                }
                Decoded::Reject => MmResp::err(),
            };
            let _ = self.port.try_respond(ctx.cycle, resp);
        }
    }

    fn next_activity(&self, now: rvcap_sim::Cycle) -> rvcap_sim::Cycle {
        if self.port.req.is_empty() {
            rvcap_sim::Cycle::MAX
        } else {
            now
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        self.port.req.subscribe_wake(waker.clone());
    }

    fn mmio_audit(&self) -> Option<MmioAudit> {
        Some(self.regs.audit())
    }

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("core.switch_ctrl", 1);
        b.put("port_req", self.port.req.save_state());
        b.put("regs", self.regs.save_state());
        b.put_u64("icap_route", self.icap_route as u64);
        b.put_bool("icap_mode", self.icap_mode);
        b.put_u64("rm_sel", self.rm_sel as u64);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("core.switch_ctrl", 1)?;
        if state.get_u64("icap_route")? != self.icap_route as u64 {
            return Err(state.structure_error(format!(
                "icap_route mismatch: instance {}, state {}",
                self.icap_route,
                state.get_u64("icap_route")?
            )));
        }
        self.port.req.restore_state(state.get("port_req")?)?;
        self.regs.restore_state(state.get("regs")?)?;
        self.icap_mode = state.get_bool("icap_mode")?;
        let sel = state.get_u64("rm_sel")?;
        self.rm_sel = u8::try_from(sel)
            .map_err(|_| state.structure_error(format!("rm_sel {sel} exceeds u8")))?;
        // Re-drive the select line (this component is its sole driver).
        self.apply();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvcap_axi::mm::{link, MmReq};
    use rvcap_sim::{Freq, Signal, Simulator};

    fn rig(icap_route: u8) -> (Simulator, rvcap_axi::MasterPort, SwitchSelect) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (m, s) = link("swctrl", 2);
        let select = Signal::new(0u8);
        sim.register(Box::new(SwitchCtrl::new(
            "swctrl",
            s,
            select.clone(),
            icap_route,
        )));
        (sim, m, select)
    }

    fn wr(sim: &mut Simulator, m: &rvcap_axi::MasterPort, off: u64, v: u64) {
        m.try_issue(sim.now(), MmReq::write(off, v, 4)).unwrap();
        sim.run_until(100, || m.resp.force_pop().is_some()).unwrap();
    }

    #[test]
    fn select_icap_routes_to_last_output() {
        let (mut sim, m, select) = rig(2); // 2 RMs + ICAP at route 2
        assert_eq!(select.get(), 0);
        wr(&mut sim, &m, REG_SELECT, 1);
        assert_eq!(select.get(), 2);
        wr(&mut sim, &m, REG_SELECT, 0);
        assert_eq!(select.get(), 0);
    }

    #[test]
    fn rm_sel_chooses_partition_in_accel_mode() {
        let (mut sim, m, select) = rig(2);
        wr(&mut sim, &m, REG_RM_SEL, 1);
        assert_eq!(select.get(), 1);
        // In ICAP mode, RM_SEL has no visible effect until mode flips
        // back.
        wr(&mut sim, &m, REG_SELECT, 1);
        wr(&mut sim, &m, REG_RM_SEL, 0);
        assert_eq!(select.get(), 2);
        wr(&mut sim, &m, REG_SELECT, 0);
        assert_eq!(select.get(), 0);
    }

    #[test]
    fn rm_sel_clamped_to_valid_routes() {
        let (mut sim, m, select) = rig(1);
        wr(&mut sim, &m, REG_RM_SEL, 9);
        assert_eq!(select.get(), 0);
    }
}
