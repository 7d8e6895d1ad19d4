//! The RP control interface (Fig. 2 ③).
//!
//! "An RP control interface is implemented to provide R/W control
//! signals to the RMs including RP coupling/decoupling" (§III-B ③).
//! One register window controls up to 16 partitions; the map is
//! declared once in [`RP_CTRL_MAP`] and drives the decode, the driver
//! constants, and the generated `REGISTERS.md`.

use std::rc::Rc;

use rvcap_axi::mm::{MmResp, SlavePort};
use rvcap_axi::regmap::{Decoded, RegisterFile};
use rvcap_fabric::host::RmHostHandle;
use rvcap_fabric::rm::RmLibrary;
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};
use rvcap_sim::{MmioAudit, Signal};

rvcap_axi::register_map! {
    /// The RP control register window (one per SoC, up to 16 RPs).
    pub static RP_CTRL_MAP: "rp_ctrl", size 0x1000 {
        /// DECOUPLE register: bit *n* decouples partition *n*.
        REG_DECOUPLE @ 0x00: 4 RW reset 0x0, "bit n: decouple partition n (1 = isolated)";
        /// STATUS register: bit *n* set while RP *n* hosts a module.
        REG_STATUS @ 0x04: 4 RO reset 0x0, "bit n: partition n hosts an active module";
        /// RM_ID register for partition 0 (library index + 1, 0 = none).
        REG_RM_ID0 @ 0x10: 4 RO reset 0x0, "id of the module in RP 0, 0 = none";
        /// RM_ID register for partition 1.
        REG_RM_ID1 @ 0x14: 4 RO reset 0x0, "id of the module in RP 1, 0 = none";
        /// RM_ID register for partition 2.
        REG_RM_ID2 @ 0x18: 4 RO reset 0x0, "id of the module in RP 2, 0 = none";
        /// RM_ID register for partition 3.
        REG_RM_ID3 @ 0x1C: 4 RO reset 0x0, "id of the module in RP 3, 0 = none";
        /// RM_ID register for partition 4.
        REG_RM_ID4 @ 0x20: 4 RO reset 0x0, "id of the module in RP 4, 0 = none";
        /// RM_ID register for partition 5.
        REG_RM_ID5 @ 0x24: 4 RO reset 0x0, "id of the module in RP 5, 0 = none";
        /// RM_ID register for partition 6.
        REG_RM_ID6 @ 0x28: 4 RO reset 0x0, "id of the module in RP 6, 0 = none";
        /// RM_ID register for partition 7.
        REG_RM_ID7 @ 0x2C: 4 RO reset 0x0, "id of the module in RP 7, 0 = none";
        /// RM_ID register for partition 8.
        REG_RM_ID8 @ 0x30: 4 RO reset 0x0, "id of the module in RP 8, 0 = none";
        /// RM_ID register for partition 9.
        REG_RM_ID9 @ 0x34: 4 RO reset 0x0, "id of the module in RP 9, 0 = none";
        /// RM_ID register for partition 10.
        REG_RM_ID10 @ 0x38: 4 RO reset 0x0, "id of the module in RP 10, 0 = none";
        /// RM_ID register for partition 11.
        REG_RM_ID11 @ 0x3C: 4 RO reset 0x0, "id of the module in RP 11, 0 = none";
        /// RM_ID register for partition 12.
        REG_RM_ID12 @ 0x40: 4 RO reset 0x0, "id of the module in RP 12, 0 = none";
        /// RM_ID register for partition 13.
        REG_RM_ID13 @ 0x44: 4 RO reset 0x0, "id of the module in RP 13, 0 = none";
        /// RM_ID register for partition 14.
        REG_RM_ID14 @ 0x48: 4 RO reset 0x0, "id of the module in RP 14, 0 = none";
        /// RM_ID register for partition 15.
        REG_RM_ID15 @ 0x4C: 4 RO reset 0x0, "id of the module in RP 15, 0 = none";
    }
}

/// Base of the per-partition RM_ID registers (`REG_RM_ID0` + 4·n).
pub const REG_RM_ID_BASE: u64 = REG_RM_ID0;

/// The RP controller component.
pub struct RpController {
    name: String,
    port: SlavePort,
    /// Typed decode of the register window.
    regs: RegisterFile,
    /// Decouple line per partition.
    decouple: Vec<Signal<bool>>,
    /// Host state per partition.
    hosts: Vec<RmHostHandle>,
    library: Rc<RmLibrary>,
    decouple_reg: u32,
}

impl RpController {
    /// Create the controller for the given partitions.
    pub fn new(
        name: impl Into<String>,
        port: SlavePort,
        decouple: Vec<Signal<bool>>,
        hosts: Vec<RmHostHandle>,
        library: Rc<RmLibrary>,
    ) -> Self {
        assert_eq!(decouple.len(), hosts.len());
        assert!(decouple.len() <= 16, "register map supports 16 partitions");
        RpController {
            name: name.into(),
            port,
            regs: RegisterFile::new(&RP_CTRL_MAP),
            decouple,
            hosts,
            library,
            decouple_reg: 0,
        }
    }

    fn rm_id(&self, rp: usize) -> u32 {
        let Some(active) = self.hosts.get(rp).and_then(|h| h.active_module()) else {
            return 0;
        };
        self.library
            .images()
            .position(|img| img.name == active)
            .map(|i| i as u32 + 1)
            .unwrap_or(0)
    }
}

impl Component for RpController {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let cycle = ctx.cycle;
        if let Some(req) = self.port.try_take(cycle) {
            let resp = match self.regs.decode(&req) {
                Decoded::Write { def, value, .. } => {
                    if def.offset == REG_DECOUPLE {
                        self.decouple_reg = value as u32;
                        for (i, line) in self.decouple.iter().enumerate() {
                            let level = value & (1 << i) != 0;
                            if level != line.get() {
                                ctx.tracer.info(cycle, &self.name, || {
                                    format!("RP{i} {}", if level { "decoupled" } else { "coupled" })
                                });
                            }
                            line.set(level);
                        }
                    }
                    MmResp::write_ack()
                }
                Decoded::Read { def, bytes } => {
                    let v: u64 = match def.offset {
                        REG_DECOUPLE => self.decouple_reg as u64,
                        REG_STATUS => {
                            let mut s = 0u64;
                            for (i, h) in self.hosts.iter().enumerate() {
                                if h.active_module().is_some() {
                                    s |= 1 << i;
                                }
                            }
                            s
                        }
                        off => {
                            let rp = ((off - REG_RM_ID_BASE) / 4) as usize;
                            self.rm_id(rp) as u64
                        }
                    };
                    MmResp::data(v, bytes, true)
                }
                Decoded::Reject => MmResp::err(),
            };
            let _ = self.port.try_respond(cycle, resp);
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
        let mut b = StateBlob::new("core.rp_ctrl", 1);
        b.put("port_req", self.port.req.save_state());
        b.put("regs", self.regs.save_state());
        b.put_u64("decouple_reg", self.decouple_reg as u64);
        // Decouple line levels (this component is their sole driver).
        let mut lines = 0u64;
        for (i, l) in self.decouple.iter().enumerate() {
            if l.get() {
                lines |= 1 << i;
            }
        }
        b.put_u64("decouple_lines", lines);
        b.put_u64("partitions", self.decouple.len() as u64);
        // Per-partition host state is owned by the RmHost components.
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("core.rp_ctrl", 1)?;
        if state.get_u64("partitions")? != self.decouple.len() as u64 {
            return Err(state.structure_error(format!(
                "partition count mismatch: instance {}, state {}",
                self.decouple.len(),
                state.get_u64("partitions")?
            )));
        }
        self.port.req.restore_state(state.get("port_req")?)?;
        self.regs.restore_state(state.get("regs")?)?;
        self.decouple_reg = state.get_u32("decouple_reg")?;
        let lines = state.get_u64("decouple_lines")?;
        for (i, l) in self.decouple.iter().enumerate() {
            l.set(lines & (1 << i) != 0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvcap_axi::mm::{link, MmReq};
    use rvcap_fabric::resources::Resources;
    use rvcap_fabric::rm::RmImage;
    use rvcap_sim::{Freq, Simulator};

    fn rig() -> (Simulator, rvcap_axi::MasterPort, Vec<Signal<bool>>) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (m, s) = link("rpctrl", 2);
        let lines = vec![Signal::new(false), Signal::new(false)];
        let hosts = vec![RmHostHandle::default(), RmHostHandle::default()];
        let mut lib = RmLibrary::new();
        lib.register_image(RmImage::synthesize("A", 1, Resources::ZERO));
        let ctrl = RpController::new("rpctrl", s, lines.clone(), hosts, Rc::new(lib));
        sim.register(Box::new(ctrl));
        (sim, m, lines)
    }

    fn wr(sim: &mut Simulator, m: &rvcap_axi::MasterPort, off: u64, v: u64) {
        m.try_issue(sim.now(), MmReq::write(off, v, 4)).unwrap();
        sim.run_until(100, || m.resp.force_pop().is_some()).unwrap();
    }

    fn rd(sim: &mut Simulator, m: &rvcap_axi::MasterPort, off: u64) -> u64 {
        m.try_issue(sim.now(), MmReq::read(off, 4)).unwrap();
        let mut got = None;
        sim.run_until(100, || {
            got = m.resp.force_pop();
            got.is_some()
        })
        .unwrap();
        got.unwrap().data
    }

    #[test]
    fn decouple_bits_drive_lines() {
        let (mut sim, m, lines) = rig();
        wr(&mut sim, &m, REG_DECOUPLE, 0b10);
        assert!(!lines[0].get());
        assert!(lines[1].get());
        assert_eq!(rd(&mut sim, &m, REG_DECOUPLE), 0b10);
        wr(&mut sim, &m, REG_DECOUPLE, 0b00);
        assert!(!lines[1].get());
    }

    #[test]
    fn status_reflects_inactive_hosts() {
        let (mut sim, m, _l) = rig();
        assert_eq!(rd(&mut sim, &m, REG_STATUS), 0);
        assert_eq!(rd(&mut sim, &m, REG_RM_ID_BASE), 0);
    }
}
