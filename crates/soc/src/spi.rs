//! The SPI master peripheral, wired to the SD card.
//!
//! "To read and write logical blocks from the SD card, the
//! serial-parallel interface (SPI) peripheral is used to communicate
//! between the AXI-4 bus and the external SD card" (§III-A). The
//! peripheral shifts one byte per `8 × clkdiv` fabric cycles — SPI
//! link time is what makes `init_RModules` (SD → DDR staging) slow
//! compared to the reconfiguration itself, exactly as on the board.

use rvcap_axi::mm::{MmOp, MmResp, SlavePort};
use rvcap_axi::regmap::{Decoded, RegisterFile};
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};
use rvcap_sim::{Cycle, MmioAudit};
use rvcap_storage::{BlockDevice, SdCard};

use crate::map::{SPI_CS, SPI_MAP, SPI_STATUS, SPI_TXRX};

use std::cell::RefCell;
use std::rc::Rc;

#[derive(Debug, Default)]
struct Shared {
    transfers: u64,
}

/// Observer for SPI traffic statistics.
#[derive(Debug, Clone)]
pub struct SpiHandle {
    shared: Rc<RefCell<Shared>>,
}

impl SpiHandle {
    /// Byte transfers performed.
    pub fn transfers(&self) -> u64 {
        self.shared.borrow().transfers
    }
}

/// The SPI master with an attached SD card.
pub struct Spi<D: BlockDevice> {
    name: String,
    port: SlavePort,
    /// Typed decode of the register window.
    regs: RegisterFile,
    card: SdCard<D>,
    /// Fabric cycles per SPI bit (clock divider).
    clkdiv: u32,
    cs_asserted: bool,
    /// In-flight byte: (completes_at, miso byte).
    busy_until: Option<(Cycle, u8)>,
    rx: u8,
    shared: Rc<RefCell<Shared>>,
}

impl<D: BlockDevice> Spi<D> {
    /// Create the peripheral. `clkdiv` of 4 gives a 25 MHz SPI clock
    /// at the 100 MHz fabric — a typical SD full-speed setting.
    pub fn new(
        name: impl Into<String>,
        port: SlavePort,
        _base: u64,
        card: SdCard<D>,
        clkdiv: u32,
    ) -> (Self, SpiHandle) {
        assert!(clkdiv >= 1);
        let shared = Rc::new(RefCell::new(Shared::default()));
        let handle = SpiHandle {
            shared: shared.clone(),
        };
        (
            Spi {
                name: name.into(),
                port,
                regs: RegisterFile::new(&SPI_MAP),
                card,
                clkdiv,
                cs_asserted: false,
                busy_until: None,
                rx: 0xFF,
                shared,
            },
            handle,
        )
    }

    /// Access the attached card (for test setup/inspection).
    pub fn card(&self) -> &SdCard<D> {
        &self.card
    }
}

impl<D: BlockDevice> Component for Spi<D> {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        let cycle = ctx.cycle;
        if let Some((done, miso)) = self.busy_until {
            if done <= cycle {
                self.rx = miso;
                self.busy_until = None;
            }
        }
        // Service one register access per cycle; TXRX writes are
        // refused (retried by the bus) while a transfer is in flight.
        if let Some(req) = self.port.req.peek() {
            let off = self.regs.offset_of(req.addr);
            let busy = self.busy_until.is_some();
            if off == SPI_TXRX && matches!(req.op, MmOp::Write { .. }) && busy {
                return; // back-pressure until the shifter is free
            }
            let req = self.port.try_take(cycle).expect("peeked");
            let resp = match self.regs.decode(&req) {
                Decoded::Write { def, value, .. } => {
                    match def.offset {
                        SPI_TXRX => {
                            // Full-duplex exchange: the card computes
                            // MISO now; it becomes readable when the
                            // shift completes.
                            let miso = if self.cs_asserted {
                                self.card.exchange(value as u8)
                            } else {
                                0xFF // nothing selected
                            };
                            let bit_time = self.clkdiv as Cycle;
                            self.busy_until = Some((cycle + 8 * bit_time, miso));
                            self.shared.borrow_mut().transfers += 1;
                        }
                        SPI_CS => self.cs_asserted = value & 1 != 0,
                        _ => self.clkdiv = (value as u32).max(1),
                    }
                    MmResp::write_ack()
                }
                Decoded::Read { def, bytes } => {
                    let v = match def.offset {
                        SPI_TXRX => self.rx as u64,
                        SPI_STATUS => self.busy_until.is_some() as u64,
                        SPI_CS => self.cs_asserted as u64,
                        _ => self.clkdiv as u64,
                    };
                    MmResp::data(v, bytes, true)
                }
                Decoded::Reject => MmResp::err(),
            };
            let _ = self.port.try_respond(cycle, resp);
        }
    }

    fn busy(&self) -> bool {
        self.busy_until.is_some()
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        // A queued register access is serviced (or back-pressured into
        // a retry) this cycle — status reads work while the shifter is
        // busy, so any pending request means activity now.
        if !self.port.req.is_empty() {
            return now;
        }
        match self.busy_until {
            Some((done, _)) => done.max(now),
            None => Cycle::MAX,
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // Register traffic arrives on the request channel; the shift
        // completion is a time-based deadline the hint already names.
        self.port.req.subscribe_wake(waker.clone());
    }

    fn mmio_audit(&self) -> Option<MmioAudit> {
        Some(self.regs.audit())
    }

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("soc.spi", 1);
        b.put("port_req", self.port.req.save_state());
        b.put("regs", self.regs.save_state());
        b.put_blob("card", self.card.save_state()?);
        b.put_u64("clkdiv", self.clkdiv as u64);
        b.put_bool("cs_asserted", self.cs_asserted);
        let (busy, miso) = match self.busy_until {
            Some((done, miso)) => (Some(done), miso as u64),
            None => (None, 0),
        };
        b.put_opt_u64("busy_until", busy);
        b.put_u64("busy_miso", miso);
        b.put_u64("rx", self.rx as u64);
        b.put_u64("transfers", self.shared.borrow().transfers);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("soc.spi", 1)?;
        self.port.req.restore_state(state.get("port_req")?)?;
        self.regs.restore_state(state.get("regs")?)?;
        self.card.restore_state(state.get_blob("card")?)?;
        self.clkdiv = state.get_u32("clkdiv")?.max(1);
        self.cs_asserted = state.get_bool("cs_asserted")?;
        let miso = state.get_u64("busy_miso")?;
        let miso = u8::try_from(miso)
            .map_err(|_| state.structure_error(format!("busy_miso {miso} exceeds u8")))?;
        self.busy_until = state.get_opt_u64("busy_until")?.map(|done| (done, miso));
        let rx = state.get_u64("rx")?;
        self.rx =
            u8::try_from(rx).map_err(|_| state.structure_error(format!("rx {rx} exceeds u8")))?;
        self.shared.borrow_mut().transfers = state.get_u64("transfers")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::SPI_BASE;
    use rvcap_axi::mm::{link, MmReq};
    use rvcap_sim::{Freq, Simulator};
    use rvcap_storage::MemBlockDevice;

    struct Rig {
        sim: Simulator,
        m: rvcap_axi::MasterPort,
    }

    fn rig(clkdiv: u32) -> Rig {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (m, s) = link("spi", 2);
        let card = SdCard::new(MemBlockDevice::with_mib(1));
        let (spi, _h) = Spi::new("spi", s, SPI_BASE, card, clkdiv);
        sim.register(Box::new(spi));
        Rig { sim, m }
    }

    fn wr(r: &mut Rig, addr: u64, v: u64) {
        loop {
            if r.m.try_issue(r.sim.now(), MmReq::write(addr, v, 1)).is_ok() {
                break;
            }
            r.sim.step();
        }
        r.sim
            .run_until(10_000, || r.m.resp.force_pop().is_some())
            .unwrap();
    }

    fn rd(r: &mut Rig, addr: u64) -> u64 {
        r.m.try_issue(r.sim.now(), MmReq::read(addr, 1)).unwrap();
        let mut got = None;
        r.sim
            .run_until(10_000, || {
                got = r.m.resp.force_pop();
                got.is_some()
            })
            .unwrap();
        got.unwrap().data
    }

    /// Exchange one byte through the peripheral, waiting for the
    /// shifter.
    fn xfer(r: &mut Rig, mosi: u8) -> u8 {
        wr(r, SPI_BASE + SPI_TXRX, mosi as u64);
        while rd(r, SPI_BASE + SPI_STATUS) & 1 != 0 {}
        rd(r, SPI_BASE + SPI_TXRX) as u8
    }

    #[test]
    fn deselected_card_reads_ff() {
        let mut r = rig(1);
        assert_eq!(xfer(&mut r, 0x40), 0xFF);
    }

    #[test]
    fn byte_time_scales_with_clkdiv() {
        // Time a single exchange at two dividers.
        let time = |div: u32| {
            let mut r = rig(div);
            wr(&mut r, SPI_BASE + SPI_CS, 1);
            let t0 = r.sim.now();
            xfer(&mut r, 0xFF);
            r.sim.now() - t0
        };
        let fast = time(1);
        let slow = time(8);
        assert!(slow > fast + 40, "slow {slow} vs fast {fast}");
    }

    #[test]
    fn sd_init_through_peripheral() {
        let mut r = rig(1);
        wr(&mut r, SPI_BASE + SPI_CS, 1);
        // Run the standard init sequence over MMIO.
        let ok = rvcap_storage::sd::host::init(|b| xfer(&mut r, b));
        assert!(ok, "SD init over the SPI peripheral must succeed");
    }

    #[test]
    fn block_read_through_peripheral() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (m, s) = link("spi", 2);
        let mut dev = MemBlockDevice::with_mib(1);
        let mut block = [0u8; 512];
        block[0] = 0x42;
        block[511] = 0x24;
        use rvcap_storage::BlockDevice as _;
        dev.write_block(3, &block);
        let card = SdCard::new(dev);
        let (spi, h) = Spi::new("spi", s, SPI_BASE, card, 1);
        sim.register(Box::new(spi));
        let mut r = Rig { sim, m };
        wr(&mut r, SPI_BASE + SPI_CS, 1);
        assert!(rvcap_storage::sd::host::init(|b| xfer(&mut r, b)));
        let mut out = [0u8; 512];
        assert!(rvcap_storage::sd::host::read_block(
            |b| xfer(&mut r, b),
            3,
            &mut out
        ));
        assert_eq!(out, block);
        assert!(h.transfers() > 512);
    }
}
