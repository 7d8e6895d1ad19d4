//! The AXI_HWICAP baseline controller (§III-C).
//!
//! The Xilinx vendor IP the paper compares RV-CAP against: an
//! AXI4-Lite slave in front of the ICAP with an internal write FIFO.
//! The paper's modifications are reproduced: the write FIFO is resized
//! to **1024 words** "to improve the time transfer", and the register
//! interface is driven by the RISC-V core through the 64→32-bit width
//! and AXI4→AXI4-Lite protocol converters.
//!
//! The register map (PG134 subset) is declared once in [`HWICAP_MAP`]
//! via [`rvcap_axi::register_map!`]; the declaration drives the decode
//! below, exports the `REG_*` constants the driver imports, and renders
//! the table in the generated `REGISTERS.md`.
//!
//! The read path (PG134's configuration readback) pulls frames out of
//! the device's configuration memory at one word per cycle — the
//! verify-after-load flow of safety-oriented controllers like Di Carlo
//! et al. \[14\]. The readback FAR is taken from the most recent FAR
//! write the ICAP saw; [`crate::drivers::hwicap::HwIcapDriver::readback_verify`]
//! packages the whole sequence.
//!
//! Why it is slow: every word must cross the CPU's blocking
//! non-cacheable store path (~tens of cycles), while the ICAP itself
//! could take a word *every* cycle. The FIFO only amortizes the flush
//! command, not the per-word store cost — which is precisely the
//! paper's Table I contrast (8.23 MB/s vs 398.1 MB/s).

use rvcap_axi::mm::{MmResp, SlavePort};
use rvcap_axi::regmap::{Decoded, RegisterFile};
use rvcap_axi::stream::AxisBeat;
use rvcap_axi::AxisChannel;
use rvcap_fabric::config_mem::{ConfigMem, FRAME_WORDS};
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};
use rvcap_sim::MmioAudit;
use std::collections::VecDeque;

rvcap_axi::register_map! {
    /// The AXI_HWICAP register window (PG134 subset).
    pub static HWICAP_MAP: "hwicap", size 0x1000 {
        /// Global interrupt enable (the driver's init writes it; the
        /// model takes the polling path, so it holds no state).
        REG_GIE @ 0x1C: 4 RW reset 0x0, "global interrupt enable (no-op here)";
        /// Write-FIFO keyhole register offset.
        REG_WF @ 0x100: 4 WO reset 0x0, "write-FIFO keyhole: each write queues one word";
        /// Read-FIFO keyhole register offset (each read pops a word).
        REG_RF @ 0x104: 4 RO reset 0x0, "read-FIFO keyhole: each read pops one readback word";
        /// Readback size register offset (words).
        REG_SZ @ 0x108: 4 RW reset 0x0, "readback size in words (write before CR.READ)";
        /// Control register offset.
        REG_CR @ 0x10C: 4 RW reset 0x0, "bit 0 WRITE: flush FIFO to ICAP; bit 1 READ: read back SZ words";
        /// Status register offset.
        REG_SR @ 0x110: 4 RO reset 0x1, "bit 0 DONE (idle, flush / readback complete)";
        /// Write-FIFO vacancy register offset.
        REG_WFV @ 0x114: 4 RO reset 0x400, "write-FIFO vacancy in words";
        /// Read-FIFO occupancy register offset.
        REG_RFO @ 0x118: 4 RO reset 0x0, "read-FIFO occupancy in words";
        /// Readback frame-address register offset (model shortcut for
        /// the FAR-write packet the real IP expects through the WF).
        REG_FAR @ 0x11C: 4 WO reset 0x0, "readback frame address";
    }
}

/// CR bit 0: initiate the FIFO → ICAP transfer.
pub const CR_WRITE: u32 = 1 << 0;
/// CR bit 1: initiate a configuration readback of SZ words.
pub const CR_READ: u32 = 1 << 1;
/// SR bit 0: done (transfer complete, FIFO empty).
pub const SR_DONE: u32 = 1 << 0;
/// Depth of the read FIFO (PG134 default: 256).
pub const READ_FIFO_DEPTH: usize = 256;

/// The paper's resized write-FIFO depth.
pub const PAPER_FIFO_DEPTH: usize = 1024;

/// The AXI_HWICAP component.
pub struct AxiHwicap {
    name: String,
    port: SlavePort,
    /// Typed decode of the register window.
    regs: RegisterFile,
    /// Output to the ICAP primitive's word port.
    icap: AxisChannel,
    fifo: VecDeque<u32>,
    depth: usize,
    /// Transfer in progress (CR.WRITE seen, FIFO still draining).
    writing: bool,
    words_written: u64,
    flushes: u64,
    /// Readback source (the device's configuration memory); `None`
    /// disables the read path.
    config_mem: Option<ConfigMem>,
    /// Read FIFO (configuration readback words).
    rf: VecDeque<u32>,
    /// Readback size register.
    sz: u32,
    /// Readback FAR (latched from the last FAR write command pushed
    /// through the WF — the driver programs it with a type-1 packet).
    read_far: u32,
    /// Words still to fetch for the active readback.
    reading_remaining: u32,
    /// Word offset within the current readback.
    read_offset: u32,
}

impl AxiHwicap {
    /// Create the controller with the paper's 1024-word FIFO.
    pub fn new(name: impl Into<String>, port: SlavePort, icap: AxisChannel) -> Self {
        AxiHwicap::with_depth(name, port, icap, PAPER_FIFO_DEPTH)
    }

    /// Create with an explicit FIFO depth (for the depth ablation; the
    /// stock IP ships with 64).
    pub fn with_depth(
        name: impl Into<String>,
        port: SlavePort,
        icap: AxisChannel,
        depth: usize,
    ) -> Self {
        assert!(depth >= 1);
        AxiHwicap {
            name: name.into(),
            port,
            regs: RegisterFile::new(&HWICAP_MAP),
            icap,
            fifo: VecDeque::with_capacity(depth),
            depth,
            writing: false,
            words_written: 0,
            flushes: 0,
            config_mem: None,
            rf: VecDeque::with_capacity(READ_FIFO_DEPTH),
            sz: 0,
            read_far: 0,
            reading_remaining: 0,
            read_offset: 0,
        }
    }

    /// Enable the configuration-readback path (CR.READ / RF / SZ).
    pub fn with_readback(mut self, config_mem: ConfigMem) -> Self {
        self.config_mem = Some(config_mem);
        self
    }

    /// Latch the readback frame address. The driver communicates it by
    /// pushing a `FAR` write packet through the WF; the register-file
    /// shortcut here mirrors what that packet ends up setting.
    pub fn set_read_far(&mut self, far: u32) {
        self.read_far = far;
    }

    /// Total words forwarded to the ICAP.
    pub fn words_written(&self) -> u64 {
        self.words_written
    }

    /// Number of CR.WRITE flushes.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

impl Component for AxiHwicap {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let cycle = ctx.cycle;
        // Readback engine: one configuration word per cycle out of
        // configuration memory into the read FIFO.
        if self.reading_remaining > 0 && self.rf.len() < READ_FIFO_DEPTH {
            if let Some(cm) = &self.config_mem {
                let far = self.read_far + self.read_offset / FRAME_WORDS as u32;
                let off = (self.read_offset % FRAME_WORDS as u32) as usize;
                let word = cm.read_frame(far).map(|f| f[off]).unwrap_or(0);
                self.rf.push_back(word);
                self.read_offset += 1;
                self.reading_remaining -= 1;
            } else {
                // No fabric attached: readback returns nothing.
                self.reading_remaining = 0;
            }
        }
        // Drain toward the ICAP, one word per cycle, while writing.
        if self.writing {
            if let Some(&w) = self.fifo.front() {
                if self.icap.try_push(cycle, AxisBeat::word(w, false)).is_ok() {
                    self.fifo.pop_front();
                    self.words_written += 1;
                }
            } else {
                self.writing = false;
            }
        }
        // One register access per cycle.
        if let Some(req) = self.port.try_take(cycle) {
            let resp = match self.regs.decode(&req) {
                Decoded::Write { def, value, .. } => {
                    let data = value as u32;
                    match def.offset {
                        REG_WF
                            // Keyhole: full-FIFO writes are dropped by
                            // the real IP; drivers must respect WFV.
                            if self.fifo.len() < self.depth => {
                                self.fifo.push_back(data);
                            }
                        REG_CR => {
                            if data & CR_WRITE != 0 && !self.fifo.is_empty() {
                                self.writing = true;
                                self.flushes += 1;
                            }
                            if data & CR_READ != 0 && self.sz > 0 {
                                self.rf.clear();
                                self.reading_remaining = self.sz;
                                self.read_offset = 0;
                            }
                        }
                        REG_SZ => self.sz = data,
                        REG_FAR => self.read_far = data,
                        // GIE and keyhole-full WF writes: accepted,
                        // no effect.
                        _ => {}
                    }
                    MmResp::write_ack()
                }
                Decoded::Read { def, bytes } => {
                    let v = match def.offset {
                        REG_SR => {
                            if self.writing || self.reading_remaining > 0 {
                                0
                            } else {
                                SR_DONE as u64
                            }
                        }
                        REG_WFV => (self.depth - self.fifo.len()) as u64,
                        REG_RF => self.rf.pop_front().unwrap_or(0) as u64,
                        REG_RFO => self.rf.len() as u64,
                        REG_SZ => self.sz as u64,
                        _ => 0,
                    };
                    MmResp::data(v, bytes, true)
                }
                Decoded::Reject => MmResp::err(),
            };
            let _ = self.port.try_respond(cycle, resp);
        }
    }

    fn busy(&self) -> bool {
        self.writing || self.reading_remaining > 0
    }

    fn next_activity(&self, now: rvcap_sim::Cycle) -> rvcap_sim::Cycle {
        // Both engines move (or retry) a word every cycle while
        // active, and a queued register access must be serviced now.
        if self.writing || self.reading_remaining > 0 || !self.port.req.is_empty() {
            now
        } else {
            rvcap_sim::Cycle::MAX
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // Both engines are armed by register writes (bus traffic) and
        // then self-reschedule via the "now" hint until they drain.
        self.port.req.subscribe_wake(waker.clone());
    }

    fn mmio_audit(&self) -> Option<MmioAudit> {
        Some(self.regs.audit())
    }

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("core.hwicap", 1);
        b.put("port_req", self.port.req.save_state());
        b.put("regs", self.regs.save_state());
        b.put_u64("depth", self.depth as u64);
        b.put_words("fifo", self.fifo.iter().copied().collect());
        b.put_bool("writing", self.writing);
        b.put_u64("words_written", self.words_written);
        b.put_u64("flushes", self.flushes);
        b.put_words("rf", self.rf.iter().copied().collect());
        b.put_u64("sz", self.sz as u64);
        b.put_u64("read_far", self.read_far as u64);
        b.put_u64("reading_remaining", self.reading_remaining as u64);
        b.put_u64("read_offset", self.read_offset as u64);
        // The shared configuration memory is owned (saved/restored) by
        // the ICAP primitive, the sole frame writer.
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("core.hwicap", 1)?;
        if state.get_u64("depth")? != self.depth as u64 {
            return Err(state.structure_error(format!(
                "FIFO depth mismatch: instance {}, state {}",
                self.depth,
                state.get_u64("depth")?
            )));
        }
        let fifo = state.get_words("fifo")?;
        if fifo.len() > self.depth {
            return Err(state.structure_error(format!(
                "write FIFO fill {} exceeds depth {}",
                fifo.len(),
                self.depth
            )));
        }
        let rf = state.get_words("rf")?;
        if rf.len() > READ_FIFO_DEPTH {
            return Err(state.structure_error(format!(
                "read FIFO fill {} exceeds depth {READ_FIFO_DEPTH}",
                rf.len()
            )));
        }
        self.port.req.restore_state(state.get("port_req")?)?;
        self.regs.restore_state(state.get("regs")?)?;
        self.fifo = fifo.iter().copied().collect();
        self.writing = state.get_bool("writing")?;
        self.words_written = state.get_u64("words_written")?;
        self.flushes = state.get_u64("flushes")?;
        self.rf = rf.iter().copied().collect();
        self.sz = state.get_u32("sz")?;
        self.read_far = state.get_u32("read_far")?;
        self.reading_remaining = state.get_u32("reading_remaining")?;
        self.read_offset = state.get_u32("read_offset")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvcap_axi::mm::{link, MmReq};
    use rvcap_sim::{Fifo, Freq, Simulator};

    struct Rig {
        sim: Simulator,
        m: rvcap_axi::MasterPort,
        icap: AxisChannel,
    }

    fn rig(depth: usize) -> Rig {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (m, s) = link("hwicap", 2);
        let icap: AxisChannel = Fifo::new("icap.in", 4096);
        let hw = AxiHwicap::with_depth("hwicap", s, icap.clone(), depth);
        sim.register(Box::new(hw));
        Rig { sim, m, icap }
    }

    fn wr(r: &mut Rig, off: u64, v: u32) {
        loop {
            if r.m
                .try_issue(r.sim.now(), MmReq::write(off, v as u64, 4))
                .is_ok()
            {
                break;
            }
            r.sim.step();
        }
        r.sim
            .run_until(1000, || r.m.resp.force_pop().is_some())
            .unwrap();
    }

    fn rd(r: &mut Rig, off: u64) -> u32 {
        r.m.try_issue(r.sim.now(), MmReq::read(off, 4)).unwrap();
        let mut got = None;
        r.sim
            .run_until(1000, || {
                got = r.m.resp.force_pop();
                got.is_some()
            })
            .unwrap();
        got.unwrap().data as u32
    }

    #[test]
    fn vacancy_tracks_fill() {
        let mut r = rig(16);
        assert_eq!(rd(&mut r, REG_WFV), 16);
        wr(&mut r, REG_WF, 0xAA99_5566);
        wr(&mut r, REG_WF, 0x1111_1111);
        assert_eq!(rd(&mut r, REG_WFV), 14);
    }

    #[test]
    fn flush_forwards_in_order_one_word_per_cycle() {
        let mut r = rig(16);
        for i in 0..8u32 {
            wr(&mut r, REG_WF, i);
        }
        wr(&mut r, REG_CR, CR_WRITE);
        while rd(&mut r, REG_SR) & SR_DONE == 0 {
            r.sim.step_n(4);
        }
        let mut words = Vec::new();
        while let Some(b) = r.icap.force_pop() {
            words.push(b.low_word());
        }
        assert_eq!(words, (0..8).collect::<Vec<_>>());
        assert_eq!(rd(&mut r, REG_WFV), 16);
    }

    #[test]
    fn sr_not_done_while_draining() {
        let mut r = rig(1024);
        for i in 0..512u32 {
            wr(&mut r, REG_WF, i);
        }
        wr(&mut r, REG_CR, CR_WRITE);
        // Immediately after the CR write the drain is in progress.
        assert_eq!(rd(&mut r, REG_SR) & SR_DONE, 0);
        let mut done = false;
        for _ in 0..2000 {
            if rd(&mut r, REG_SR) & SR_DONE != 0 {
                done = true;
                break;
            }
            r.sim.step_n(4);
        }
        assert!(done);
    }

    #[test]
    fn overfill_drops_words_like_real_keyhole() {
        let mut r = rig(4);
        for i in 0..6u32 {
            wr(&mut r, REG_WF, i);
        }
        assert_eq!(rd(&mut r, REG_WFV), 0);
        wr(&mut r, REG_CR, CR_WRITE);
        while rd(&mut r, REG_SR) & SR_DONE == 0 {
            r.sim.step_n(4);
        }
        let mut n = 0;
        while r.icap.force_pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 4, "only the accepted words reach the ICAP");
    }

    #[test]
    fn cr_write_with_empty_fifo_is_a_noop() {
        let mut r = rig(8);
        wr(&mut r, REG_CR, CR_WRITE);
        r.sim.step_n(50);
        assert!(r.icap.is_empty());
        assert_eq!(rd(&mut r, REG_SR) & SR_DONE, SR_DONE);
    }
}
