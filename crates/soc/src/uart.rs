//! A minimal UART: the drivers' terminal.
//!
//! "A terminal message informs that the reconfiguration was
//! successful" (§III-C). TX only; bytes land in a shared log the
//! examples print and the tests assert on.

use std::cell::RefCell;
use std::rc::Rc;

use rvcap_axi::mm::{MmResp, SlavePort};
use rvcap_axi::regmap::{Decoded, RegisterFile};
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError, StateValue};
use rvcap_sim::MmioAudit;
use std::sync::Arc;

use crate::map::{UART_MAP, UART_STATUS, UART_TX};

/// Shared view of everything the UART transmitted.
#[derive(Debug, Clone, Default)]
pub struct UartHandle {
    log: Rc<RefCell<Vec<u8>>>,
}

impl UartHandle {
    /// The transmitted bytes as a lossy string.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.log.borrow()).into_owned()
    }

    /// Number of bytes transmitted.
    pub fn len(&self) -> usize {
        self.log.borrow().len()
    }

    /// True if nothing was transmitted.
    pub fn is_empty(&self) -> bool {
        self.log.borrow().is_empty()
    }
}

/// The UART component.
pub struct Uart {
    name: String,
    port: SlavePort,
    /// Typed decode of the register window.
    regs: RegisterFile,
    handle: UartHandle,
}

impl Uart {
    /// Create a UART; the window base is resolved through the
    /// power-of-two [`UART_MAP`] mask, so `_base` only documents
    /// placement.
    pub fn new(name: impl Into<String>, port: SlavePort, _base: u64) -> (Self, UartHandle) {
        let handle = UartHandle::default();
        (
            Uart {
                name: name.into(),
                port,
                regs: RegisterFile::new(&UART_MAP),
                handle: handle.clone(),
            },
            handle,
        )
    }
}

impl Component for Uart {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        if let Some(req) = self.port.try_take(ctx.cycle) {
            let resp = match self.regs.decode(&req) {
                Decoded::Write { def, value, .. } => {
                    if def.offset == UART_TX {
                        self.handle.log.borrow_mut().push(value as u8);
                    }
                    MmResp::write_ack()
                }
                Decoded::Read { def, bytes } => {
                    let v = match def.offset {
                        UART_STATUS => 1,
                        _ => 0,
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
        let mut b = StateBlob::new("soc.uart", 1);
        b.put("port_req", self.port.req.save_state());
        b.put("regs", self.regs.save_state());
        b.put(
            "log",
            StateValue::Bytes(Arc::new(self.handle.log.borrow().clone())),
        );
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("soc.uart", 1)?;
        self.port.req.restore_state(state.get("port_req")?)?;
        self.regs.restore_state(state.get("regs")?)?;
        *self.handle.log.borrow_mut() = state.get_bytes("log")?.to_vec();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::UART_BASE;
    use rvcap_axi::mm::{link, MmReq};
    use rvcap_sim::{Freq, Simulator};

    #[test]
    fn transmits_bytes_in_order() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (m, s) = link("uart", 2);
        let (uart, h) = Uart::new("uart", s, UART_BASE);
        sim.register(Box::new(uart));
        for (i, b) in b"ok\n".iter().enumerate() {
            m.try_issue(sim.now(), MmReq::write(UART_BASE + UART_TX, *b as u64, 1))
                .unwrap();
            sim.run_until(100, || m.resp.force_pop().is_some()).unwrap();
            assert_eq!(h.len(), i + 1);
        }
        assert_eq!(h.text(), "ok\n");
    }

    #[test]
    fn status_reads_ready() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (m, s) = link("uart", 2);
        let (uart, _h) = Uart::new("uart", s, UART_BASE);
        sim.register(Box::new(uart));
        m.try_issue(0, MmReq::read(UART_BASE + UART_STATUS, 4))
            .unwrap();
        let mut got = None;
        sim.run_until(100, || {
            got = m.resp.force_pop();
            got.is_some()
        })
        .unwrap();
        assert_eq!(got.unwrap().data, 1);
    }
}
