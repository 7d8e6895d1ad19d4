//! The RV-CAP DMA engine.
//!
//! Modelled on the Xilinx AXI DMA in simple (direct register) mode,
//! which is how the paper deploys it: "a Xilinx DMA controller
//! connected to the SoC DDR controller through an additional crossbar
//! … configured to transfer a 64-bit data word from the SoC DDR
//! memory" (§III-B ①), with "the maximum AXI burst size of the DMA
//! controller … set to 16" (§IV-A).
//!
//! Two engines:
//! * **MM2S** (memory → stream): fetches 16-beat × 64-bit bursts from
//!   DDR and emits them as an AXI-Stream packet (to the ICAP in
//!   reconfiguration mode, to the RM in acceleration mode). Keeps two
//!   bursts in flight so the stream never starves while the next
//!   command posts.
//! * **S2MM** (stream → memory): absorbs the RM's output stream and
//!   writes it back to DDR (acceleration mode only).
//!
//! The register map (offsets follow the Xilinx AXI DMA layout, PG021)
//! is declared once via [`rvcap_axi::register_map!`]: [`DMA_MAP`]
//! drives the device decode, exports the offset constants the drivers
//! import, and renders the table in the generated `REGISTERS.md`.

use rvcap_axi::mm::{MasterPort, MmReq, MmResp, SlavePort};
use rvcap_axi::regmap::{Decoded, RegisterFile};
use rvcap_axi::stream::AxisBeat;
use rvcap_axi::AxisChannel;
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};
use rvcap_sim::{Cycle, MmioAudit, Signal};

/// Burst length in 64-bit beats (the paper's setting).
pub const DMA_BURST_BEATS: u16 = 16;

rvcap_axi::register_map! {
    /// The DMA's AXI-Lite register window.
    pub static DMA_MAP: "dma", size 0x1000 {
        /// MM2S control: bit 0 RS (run/stop), bit 12 IOC IRQ enable.
        MM2S_DMACR @ 0x00: 4 RW reset 0x0, "MM2S control (RS, IOC IRQ enable)";
        /// MM2S status: bit 0 halted, bit 1 idle, bit 4 DMAIntErr and
        /// bit 6 DMADecErr (sticky until restart), bit 12 IOC (W1C).
        MM2S_DMASR @ 0x04: 4 W1C reset 0x1, "MM2S status (halted, idle, DMAIntErr, DMADecErr, IOC W1C)";
        /// MM2S source address (low word).
        MM2S_SA @ 0x18: 4 RW reset 0x0, "MM2S source address, low 32 bits";
        /// MM2S source address (high word).
        MM2S_SA_MSB @ 0x1C: 4 RW reset 0x0, "MM2S source address, high 32 bits";
        /// MM2S length register (write starts the transfer).
        MM2S_LENGTH @ 0x28: 4 WO reset 0x0, "MM2S length in bytes; writing starts";
        /// S2MM control register.
        S2MM_DMACR @ 0x30: 4 RW reset 0x0, "S2MM control (RS, IOC IRQ enable)";
        /// S2MM status register.
        S2MM_DMASR @ 0x34: 4 W1C reset 0x1, "S2MM status (halted, idle, DMAIntErr, DMADecErr, IOC W1C)";
        /// S2MM destination address (low word).
        S2MM_DA @ 0x48: 4 RW reset 0x0, "S2MM destination address, low 32 bits";
        /// S2MM destination address (high word).
        S2MM_DA_MSB @ 0x4C: 4 RW reset 0x0, "S2MM destination address, high 32 bits";
        /// S2MM length register (write arms the engine).
        S2MM_LENGTH @ 0x58: 4 WO reset 0x0, "S2MM expected length; writing arms";
    }
}

/// DMACR: run/stop.
pub const CR_RS: u32 = 1 << 0;
/// DMACR: interrupt-on-complete enable.
pub const CR_IOC_IRQ_EN: u32 = 1 << 12;
/// DMASR: engine halted.
pub const SR_HALTED: u32 = 1 << 0;
/// DMASR: engine idle (transfer complete).
pub const SR_IDLE: u32 = 1 << 1;
/// DMASR: DMA internal error — raised on a zero-byte LENGTH write
/// (PG021). Sticky: not W1C; cleared only when the channel is
/// restarted via DMACR.RS (hardware requires a reset; the model has
/// no soft-reset bit, so RS re-assert stands in for it).
pub const SR_DMA_INT_ERR: u32 = 1 << 4;
/// DMASR: DMA decode error — a memory access came back with a bus
/// error (PG021 DMADecErr). [`MmResp`] carries a single error flag, so
/// this bit also stands for PG021's DMASlvErr. The channel halts and
/// RS clears; sticky like [`SR_DMA_INT_ERR`], cleared only by
/// re-asserting DMACR.RS.
pub const SR_DMA_DEC_ERR: u32 = 1 << 6;
/// DMASR: interrupt-on-complete (write 1 to clear).
pub const SR_IOC: u32 = 1 << 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mm2sState {
    Halted,
    Idle,
    /// Start-up latency after the LENGTH write (engine command
    /// pipeline) before the first burst request issues.
    Starting {
        until: Cycle,
    },
    Running,
}

/// The DMA component.
pub struct XilinxDma {
    name: String,
    /// Register file slave (behind the AXI-Lite adapter).
    ctrl: SlavePort,
    /// Typed decode of the register window.
    regs: RegisterFile,
    /// Memory master toward DDR (through the additional crossbar).
    mem: MasterPort,
    /// MM2S output stream (64-bit, TLAST at end of transfer).
    mm2s: AxisChannel,
    /// S2MM input stream.
    s2mm: AxisChannel,
    /// MM2S IOC interrupt line (to the PLIC).
    pub mm2s_irq: Signal<bool>,
    /// S2MM IOC interrupt line (to the PLIC).
    pub s2mm_irq: Signal<bool>,

    // MM2S engine.
    mm2s_cr: u32,
    mm2s_sr: u32,
    mm2s_sa: u64,
    mm2s_state: Mm2sState,
    /// Next fetch address / bytes not yet requested.
    fetch_addr: u64,
    fetch_remaining: u64,
    /// Bytes not yet emitted to the stream.
    emit_remaining: u64,
    /// Burst requests in flight (responses pending).
    bursts_in_flight: u8,
    /// In-flight bursts of a transfer a bus error aborted: their
    /// responses are consumed and dropped.
    discard_bursts: u8,
    /// Engine start-up latency (command pipeline), cycles.
    start_latency: Cycle,
    burst_beats: u16,

    // S2MM engine.
    s2mm_cr: u32,
    s2mm_sr: u32,
    s2mm_da: u64,
    s2mm_addr: u64,
    s2mm_remaining: u64,

    /// Stats for the bench harness.
    beats_streamed: u64,
}

impl XilinxDma {
    /// Create a DMA with the paper's configuration.
    pub fn new(
        name: impl Into<String>,
        ctrl: SlavePort,
        mem: MasterPort,
        mm2s: AxisChannel,
        s2mm: AxisChannel,
    ) -> Self {
        XilinxDma {
            name: name.into(),
            ctrl,
            regs: RegisterFile::new(&DMA_MAP),
            mem,
            mm2s,
            s2mm,
            mm2s_irq: Signal::new(false),
            s2mm_irq: Signal::new(false),
            mm2s_cr: 0,
            mm2s_sr: SR_HALTED,
            mm2s_sa: 0,
            mm2s_state: Mm2sState::Halted,
            fetch_addr: 0,
            fetch_remaining: 0,
            emit_remaining: 0,
            bursts_in_flight: 0,
            discard_bursts: 0,
            // Command processing + MM2S start-up of the soft DMA
            // (register sync through the AXI-Lite domain, engine
            // arbitration): calibrated against the paper's T_r.
            start_latency: 690,
            burst_beats: DMA_BURST_BEATS,
            s2mm_cr: 0,
            s2mm_sr: SR_HALTED,
            s2mm_da: 0,
            s2mm_addr: 0,
            s2mm_remaining: 0,
            beats_streamed: 0,
        }
    }

    /// Override the maximum burst length (for the burst-size ablation).
    pub fn with_burst_beats(mut self, beats: u16) -> Self {
        assert!((1..=256).contains(&beats));
        self.burst_beats = beats;
        self
    }

    /// Beats streamed out of MM2S since reset.
    pub fn beats_streamed(&self) -> u64 {
        self.beats_streamed
    }

    fn reg_read(&self, off: u64) -> u32 {
        match off {
            MM2S_DMACR => self.mm2s_cr,
            MM2S_DMASR => self.mm2s_sr,
            MM2S_SA => self.mm2s_sa as u32,
            MM2S_SA_MSB => (self.mm2s_sa >> 32) as u32,
            S2MM_DMACR => self.s2mm_cr,
            S2MM_DMASR => self.s2mm_sr,
            S2MM_DA => self.s2mm_da as u32,
            S2MM_DA_MSB => (self.s2mm_da >> 32) as u32,
            _ => 0,
        }
    }

    fn reg_write(&mut self, cycle: Cycle, off: u64, v: u32) {
        match off {
            MM2S_DMACR => {
                self.mm2s_cr = v;
                if v & CR_RS != 0 {
                    if self.mm2s_state == Mm2sState::Halted {
                        self.mm2s_state = Mm2sState::Idle;
                        self.mm2s_sr &= !(SR_HALTED | SR_DMA_INT_ERR | SR_DMA_DEC_ERR);
                        self.mm2s_sr |= SR_IDLE;
                    }
                } else {
                    self.mm2s_state = Mm2sState::Halted;
                    self.mm2s_sr |= SR_HALTED;
                }
            }
            MM2S_DMASR
                // W1C on IOC.
                if v & SR_IOC != 0 => {
                    self.mm2s_sr &= !SR_IOC;
                    self.mm2s_irq.set(false);
                }
            MM2S_SA => self.mm2s_sa = (self.mm2s_sa & !0xFFFF_FFFF) | v as u64,
            MM2S_SA_MSB => self.mm2s_sa = (self.mm2s_sa & 0xFFFF_FFFF) | ((v as u64) << 32),
            MM2S_LENGTH
                if self.mm2s_cr & CR_RS != 0 && v > 0 => {
                    self.fetch_addr = self.mm2s_sa;
                    self.fetch_remaining = v as u64;
                    self.emit_remaining = v as u64;
                    self.bursts_in_flight = 0;
                    self.mm2s_state = Mm2sState::Starting {
                        until: cycle + self.start_latency,
                    };
                    self.mm2s_sr &= !SR_IDLE;
                }
            MM2S_LENGTH
                // Hardware raises DMAIntErr on a zero-byte LENGTH
                // (PG021) and halts the channel. Arming a transfer
                // that can never complete would otherwise end in an
                // opaque stall report.
                if self.mm2s_cr & CR_RS != 0 => {
                    self.mm2s_sr |= SR_DMA_INT_ERR | SR_HALTED;
                    self.mm2s_sr &= !SR_IDLE;
                    self.mm2s_cr &= !CR_RS;
                    self.mm2s_state = Mm2sState::Halted;
                }
            S2MM_DMACR => {
                self.s2mm_cr = v;
                if v & CR_RS != 0 {
                    self.s2mm_sr &= !(SR_HALTED | SR_DMA_INT_ERR | SR_DMA_DEC_ERR);
                    self.s2mm_sr |= SR_IDLE;
                } else {
                    self.s2mm_sr |= SR_HALTED;
                }
            }
            S2MM_DMASR
                if v & SR_IOC != 0 => {
                    self.s2mm_sr &= !SR_IOC;
                    self.s2mm_irq.set(false);
                }
            S2MM_DA => self.s2mm_da = (self.s2mm_da & !0xFFFF_FFFF) | v as u64,
            S2MM_DA_MSB => self.s2mm_da = (self.s2mm_da & 0xFFFF_FFFF) | ((v as u64) << 32),
            S2MM_LENGTH
                if self.s2mm_cr & CR_RS != 0 && v > 0 => {
                    self.s2mm_addr = self.s2mm_da;
                    self.s2mm_remaining = v as u64;
                    self.s2mm_sr &= !SR_IDLE;
                }
            S2MM_LENGTH
                // Zero-byte LENGTH: DMAIntErr, same as MM2S.
                if self.s2mm_cr & CR_RS != 0 => {
                    self.s2mm_sr |= SR_DMA_INT_ERR | SR_HALTED;
                    self.s2mm_sr &= !SR_IDLE;
                    self.s2mm_cr &= !CR_RS;
                }
            // Guard-failed arms (W1C without the IOC bit, LENGTH while
            // halted) are accepted writes with no effect.
            _ => {}
        }
    }

    /// A bus error on the memory port (PG021: DMADecErr/DMASlvErr).
    /// Read data and errors share the response channel and carry no
    /// transaction ID: an error while MM2S bursts are outstanding ends
    /// one of them, any other error answers an S2MM posted write. The
    /// affected channel halts with RS cleared and drops its transfer;
    /// MM2S discards the beats of its other in-flight bursts.
    fn bus_error(&mut self, ctx: &TickCtx<'_>) {
        let channel = if self.bursts_in_flight > 0 {
            // The error response terminates its burst.
            self.discard_bursts = self.bursts_in_flight - 1;
            self.bursts_in_flight = 0;
            self.fetch_remaining = 0;
            self.emit_remaining = 0;
            self.mm2s_state = Mm2sState::Halted;
            self.mm2s_cr &= !CR_RS;
            self.mm2s_sr = (self.mm2s_sr | SR_DMA_DEC_ERR | SR_HALTED) & !SR_IDLE;
            "MM2S"
        } else {
            self.s2mm_remaining = 0;
            self.s2mm_cr &= !CR_RS;
            self.s2mm_sr = (self.s2mm_sr | SR_DMA_DEC_ERR | SR_HALTED) & !SR_IDLE;
            "S2MM"
        };
        ctx.tracer.info(ctx.cycle, &self.name, || {
            format!("{channel} bus error: DMADecErr, channel halted")
        });
    }

    fn mm2s_complete(&mut self, ctx: &TickCtx<'_>) {
        self.mm2s_state = Mm2sState::Idle;
        self.mm2s_sr |= SR_IDLE;
        self.mm2s_sr |= SR_IOC;
        if self.mm2s_cr & CR_IOC_IRQ_EN != 0 {
            self.mm2s_irq.set(true);
        }
        ctx.tracer
            .info(ctx.cycle, &self.name, || "MM2S transfer complete".into());
    }
}

impl Component for XilinxDma {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let cycle = ctx.cycle;

        // ---- register interface (one access per cycle) ----
        if let Some(req) = self.ctrl.try_take(cycle) {
            let resp = match self.regs.decode(&req) {
                Decoded::Read { def, bytes } => {
                    MmResp::data(self.reg_read(def.offset) as u64, bytes, true)
                }
                Decoded::Write { def, value, .. } => {
                    self.reg_write(cycle, def.offset, value as u32);
                    MmResp::write_ack()
                }
                Decoded::Reject => MmResp::err(),
            };
            let _ = self.ctrl.try_respond(cycle, resp);
        }

        // ---- MM2S: issue burst fetches ----
        match self.mm2s_state {
            Mm2sState::Starting { until } if until <= cycle => {
                self.mm2s_state = Mm2sState::Running;
            }
            _ => {}
        }
        if self.mm2s_state == Mm2sState::Running
            && self.fetch_remaining > 0
            && self.bursts_in_flight < 2
        {
            let burst_bytes = (self.burst_beats as u64) * 8;
            let chunk = self.fetch_remaining.min(burst_bytes);
            let beats = chunk.div_ceil(8) as u16;
            if self
                .mem
                .try_issue(cycle, MmReq::read_burst(self.fetch_addr, beats, 8))
                .is_ok()
            {
                self.fetch_addr += chunk;
                self.fetch_remaining -= chunk;
                self.bursts_in_flight += 1;
            }
        }

        // ---- MM2S: move fetched beats onto the stream ----
        // The response channel carries read data and bus errors (S2MM
        // writes are posted, so no acknowledgements).
        if self.discard_bursts == 0 && self.emit_remaining > 0 {
            if self.mm2s.can_push(cycle) {
                if let Some(resp) = self.mem.resp.try_pop(cycle) {
                    if resp.error {
                        self.bus_error(ctx);
                    } else {
                        if resp.last {
                            self.bursts_in_flight = self.bursts_in_flight.saturating_sub(1);
                        }
                        let bytes = (resp.bytes as u64).min(self.emit_remaining) as u8;
                        self.emit_remaining -= bytes as u64;
                        let last = self.emit_remaining == 0;
                        let beat = AxisBeat {
                            data: resp.data,
                            bytes,
                            last,
                        };
                        self.mm2s.try_push(cycle, beat).expect("can_push checked");
                        self.beats_streamed += 1;
                        if last {
                            self.mm2s_complete(ctx);
                        }
                    }
                }
            }
        } else if let Some(resp) = self.mem.resp.try_pop(cycle) {
            // No transfer to feed: drop the beats of an aborted one, or
            // take a bus error (an S2MM write's when no burst is out).
            if self.discard_bursts > 0 {
                if resp.last {
                    self.discard_bursts -= 1;
                }
            } else if resp.error {
                self.bus_error(ctx);
            }
        }

        // ---- S2MM: drain the return stream into memory ----
        // Writes are posted (AXI W/B channels are independent of R),
        // so the write-back stream never contends with MM2S read data
        // on the response path.
        if self.s2mm_remaining > 0 && self.mem.req.can_push(cycle) {
            if let Some(beat) = self.s2mm.try_pop(cycle) {
                let bytes = (beat.bytes as u64).min(self.s2mm_remaining) as u8;
                self.mem
                    .try_issue(cycle, MmReq::write_posted(self.s2mm_addr, beat.data, bytes))
                    .expect("can_push checked");
                self.s2mm_addr += bytes as u64;
                self.s2mm_remaining -= bytes as u64;
                if self.s2mm_remaining == 0 {
                    self.s2mm_sr |= SR_IDLE | SR_IOC;
                    if self.s2mm_cr & CR_IOC_IRQ_EN != 0 {
                        self.s2mm_irq.set(true);
                    }
                    ctx.tracer
                        .info(cycle, &self.name, || "S2MM transfer complete".into());
                }
            }
        }
    }

    fn busy(&self) -> bool {
        matches!(
            self.mm2s_state,
            Mm2sState::Starting { .. } | Mm2sState::Running
        ) || self.s2mm_remaining > 0
            || self.discard_bursts > 0
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        if !self.ctrl.req.is_empty() {
            return now;
        }
        match self.mm2s_state {
            // Running covers the whole fetch/emit pipeline: burst
            // issue retries every cycle and the state only leaves
            // Running once the final beat is emitted.
            Mm2sState::Running => return now,
            // The command pipeline wakes exactly at its deadline; the
            // ticks in between only re-check `until`.
            Mm2sState::Starting { until } => return until.max(now),
            Mm2sState::Halted | Mm2sState::Idle => {}
        }
        // A response to stream, to drop, or to take as a bus error.
        if !self.mem.resp.is_empty() {
            return now;
        }
        if self.s2mm_remaining > 0 && !self.s2mm.is_empty() {
            return now;
        }
        Cycle::MAX
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // External inputs: register traffic, burst read data coming
        // back from memory, and the RM's return stream. The start-up
        // deadline is time-based (post-tick hint).
        self.ctrl.req.subscribe_wake(waker.clone());
        self.mem.resp.subscribe_wake(waker.clone());
        self.s2mm.subscribe_wake(waker.clone());
    }

    fn mmio_audit(&self) -> Option<MmioAudit> {
        Some(self.regs.audit())
    }

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("core.dma", 2);
        // Channels this component consumes (ownership convention), and
        // the IRQ levels it drives.
        b.put("ctrl_req", self.ctrl.req.save_state());
        b.put("mem_resp", self.mem.resp.save_state());
        b.put("s2mm", self.s2mm.save_state());
        b.put("regs", self.regs.save_state());
        b.put_bool("mm2s_irq", self.mm2s_irq.get());
        b.put_bool("s2mm_irq", self.s2mm_irq.get());
        b.put_u64("mm2s_cr", self.mm2s_cr as u64);
        b.put_u64("mm2s_sr", self.mm2s_sr as u64);
        b.put_u64("mm2s_sa", self.mm2s_sa);
        let (state, until) = match self.mm2s_state {
            Mm2sState::Halted => ("halted", None),
            Mm2sState::Idle => ("idle", None),
            Mm2sState::Starting { until } => ("starting", Some(until)),
            Mm2sState::Running => ("running", None),
        };
        b.put_str("mm2s_state", state);
        b.put_opt_u64("mm2s_until", until);
        b.put_u64("fetch_addr", self.fetch_addr);
        b.put_u64("fetch_remaining", self.fetch_remaining);
        b.put_u64("emit_remaining", self.emit_remaining);
        b.put_u64("bursts_in_flight", self.bursts_in_flight as u64);
        b.put_u64("discard_bursts", self.discard_bursts as u64);
        b.put_u64("burst_beats", self.burst_beats as u64);
        b.put_u64("s2mm_cr", self.s2mm_cr as u64);
        b.put_u64("s2mm_sr", self.s2mm_sr as u64);
        b.put_u64("s2mm_da", self.s2mm_da);
        b.put_u64("s2mm_addr", self.s2mm_addr);
        b.put_u64("s2mm_remaining", self.s2mm_remaining);
        b.put_u64("beats_streamed", self.beats_streamed);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("core.dma", 2)?;
        if state.get_u64("burst_beats")? != self.burst_beats as u64 {
            return Err(state.structure_error(format!(
                "burst_beats mismatch: instance {}, state {}",
                self.burst_beats,
                state.get_u64("burst_beats")?
            )));
        }
        self.ctrl.req.restore_state(state.get("ctrl_req")?)?;
        self.mem.resp.restore_state(state.get("mem_resp")?)?;
        self.s2mm.restore_state(state.get("s2mm")?)?;
        self.regs.restore_state(state.get("regs")?)?;
        self.mm2s_irq.set(state.get_bool("mm2s_irq")?);
        self.s2mm_irq.set(state.get_bool("s2mm_irq")?);
        self.mm2s_cr = state.get_u32("mm2s_cr")?;
        self.mm2s_sr = state.get_u32("mm2s_sr")?;
        self.mm2s_sa = state.get_u64("mm2s_sa")?;
        self.mm2s_state = match state.get_str("mm2s_state")? {
            "halted" => Mm2sState::Halted,
            "idle" => Mm2sState::Idle,
            "starting" => Mm2sState::Starting {
                until: state
                    .get_opt_u64("mm2s_until")?
                    .ok_or_else(|| state.structure_error("starting state without mm2s_until"))?,
            },
            "running" => Mm2sState::Running,
            other => {
                return Err(state.structure_error(format!("unknown mm2s_state {other:?}")));
            }
        };
        self.fetch_addr = state.get_u64("fetch_addr")?;
        self.fetch_remaining = state.get_u64("fetch_remaining")?;
        self.emit_remaining = state.get_u64("emit_remaining")?;
        let bif = state.get_u64("bursts_in_flight")?;
        self.bursts_in_flight = u8::try_from(bif)
            .map_err(|_| state.structure_error(format!("bursts_in_flight {bif} exceeds u8")))?;
        let discard = state.get_u64("discard_bursts")?;
        self.discard_bursts = u8::try_from(discard)
            .map_err(|_| state.structure_error(format!("discard_bursts {discard} exceeds u8")))?;
        self.s2mm_cr = state.get_u32("s2mm_cr")?;
        self.s2mm_sr = state.get_u32("s2mm_sr")?;
        self.s2mm_da = state.get_u64("s2mm_da")?;
        self.s2mm_addr = state.get_u64("s2mm_addr")?;
        self.s2mm_remaining = state.get_u64("s2mm_remaining")?;
        self.beats_streamed = state.get_u64("beats_streamed")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvcap_axi::crossbar::{Crossbar, SlaveRegion};
    use rvcap_axi::mm::link;
    use rvcap_sim::{Fifo, Freq, Simulator};
    use rvcap_soc::ddr::{Ddr, DdrConfig};
    use rvcap_soc::map::DDR_BASE;

    struct Rig {
        sim: Simulator,
        ctrl: rvcap_axi::MasterPort,
        mm2s: AxisChannel,
        s2mm: AxisChannel,
        ddr: rvcap_soc::DdrHandle,
        irq: Signal<bool>,
    }

    fn rig() -> Rig {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (ctrl_m, ctrl_s) = link("dma.ctrl", 2);
        let (mem_m, mem_s) = link("dma.mem", 4);
        let (ddr_m, ddr_s) = link("ddr", 8);
        // The "additional crossbar" between DMA and DDR.
        let xbar = Crossbar::new(
            "xbar2",
            vec![mem_s],
            vec![(SlaveRegion::new("ddr", DDR_BASE, 1 << 22), ddr_m)],
        );
        let (ddr, ddr_h) = Ddr::new(
            "ddr",
            ddr_s,
            DDR_BASE,
            DdrConfig {
                size: 1 << 22,
                ..DdrConfig::default()
            },
        );
        let mm2s: AxisChannel = Fifo::new("mm2s", 64);
        let s2mm: AxisChannel = Fifo::new("s2mm", 64);
        let dma = XilinxDma::new("dma", ctrl_s, mem_m, mm2s.clone(), s2mm.clone());
        let irq = dma.mm2s_irq.clone();
        sim.register(Box::new(dma));
        sim.register(Box::new(xbar));
        sim.register(Box::new(ddr));
        Rig {
            sim,
            ctrl: ctrl_m,
            mm2s,
            s2mm,
            ddr: ddr_h,
            irq,
        }
    }

    fn wr(r: &mut Rig, off: u64, v: u32) {
        loop {
            if r.ctrl
                .try_issue(r.sim.now(), MmReq::write(off, v as u64, 4))
                .is_ok()
            {
                break;
            }
            r.sim.step();
        }
        r.sim
            .run_until(1000, || r.ctrl.resp.force_pop().is_some())
            .unwrap();
    }

    fn rd(r: &mut Rig, off: u64) -> u32 {
        r.ctrl.try_issue(r.sim.now(), MmReq::read(off, 4)).unwrap();
        let mut got = None;
        r.sim
            .run_until(1000, || {
                got = r.ctrl.resp.force_pop();
                got.is_some()
            })
            .unwrap();
        got.unwrap().data as u32
    }

    fn start_mm2s(r: &mut Rig, sa: u64, len: u32, irq_en: bool) {
        let cr = CR_RS | if irq_en { CR_IOC_IRQ_EN } else { 0 };
        wr(r, MM2S_DMACR, cr);
        wr(r, MM2S_SA, sa as u32);
        wr(r, MM2S_SA_MSB, (sa >> 32) as u32);
        wr(r, MM2S_LENGTH, len);
    }

    #[test]
    fn halted_until_run() {
        let mut r = rig();
        assert_eq!(rd(&mut r, MM2S_DMASR) & SR_HALTED, SR_HALTED);
        wr(&mut r, MM2S_DMACR, CR_RS);
        assert_eq!(rd(&mut r, MM2S_DMASR) & (SR_HALTED | SR_IDLE), SR_IDLE);
    }

    #[test]
    fn length_write_without_run_is_ignored() {
        let mut r = rig();
        wr(&mut r, MM2S_SA, DDR_BASE as u32);
        wr(&mut r, MM2S_LENGTH, 64);
        r.sim.step_n(200);
        assert!(r.mm2s.is_empty());
    }

    #[test]
    fn zero_length_write_raises_dma_int_err() {
        let mut r = rig();
        wr(&mut r, MM2S_DMACR, CR_RS);
        wr(&mut r, MM2S_LENGTH, 0);
        // Pre-fix this write fell into the silent-ignore arm; hardware
        // raises DMAIntErr and halts the channel (PG021).
        let sr = rd(&mut r, MM2S_DMASR);
        assert_ne!(sr & SR_DMA_INT_ERR, 0, "DMAIntErr must be set");
        assert_ne!(sr & SR_HALTED, 0, "channel must halt");
        assert_eq!(sr & SR_IDLE, 0);
        // Nothing was armed: the stream stays silent.
        r.sim.step_n(2000);
        assert!(r.mm2s.is_empty());
        // The error is sticky across W1C stores...
        wr(&mut r, MM2S_DMASR, SR_DMA_INT_ERR | SR_IOC);
        assert_ne!(rd(&mut r, MM2S_DMASR) & SR_DMA_INT_ERR, 0);
        // ...and clears only on restart, after which the channel works.
        wr(&mut r, MM2S_DMACR, CR_RS);
        assert_eq!(rd(&mut r, MM2S_DMASR) & SR_DMA_INT_ERR, 0);
        r.ddr.write_bytes(DDR_BASE, &[7u8; 64]);
        start_mm2s(&mut r, DDR_BASE, 64, false);
        r.sim
            .run_until(5000, || r.mm2s.len() == 8)
            .expect("recovered transfer completes");
    }

    #[test]
    fn fetch_bus_error_halts_with_dec_err() {
        let mut r = rig();
        // SA beyond the crossbar's 4 MiB DDR window: every burst fetch
        // decodes to no slave and comes back as one error response.
        start_mm2s(&mut r, DDR_BASE + (1 << 23), 64, true);
        // Pre-fix the error head was never consumed and the channel
        // stayed Running forever.
        r.sim
            .run_until_quiescent(20_000)
            .expect("a fetch error must halt the channel, not hang it");
        let sr = rd(&mut r, MM2S_DMASR);
        assert_ne!(sr & SR_DMA_DEC_ERR, 0, "DMADecErr must be set");
        assert_ne!(sr & SR_HALTED, 0, "channel must halt");
        assert_eq!(sr & (SR_IDLE | SR_IOC), 0);
        assert_eq!(rd(&mut r, MM2S_DMACR) & CR_RS, 0, "RS clears");
        assert!(!r.irq.get(), "no completion interrupt");
        assert!(r.mm2s.is_empty());
        // Sticky across W1C stores; cleared by re-asserting RS, after
        // which the channel works again.
        wr(&mut r, MM2S_DMASR, SR_DMA_DEC_ERR | SR_IOC);
        assert_ne!(rd(&mut r, MM2S_DMASR) & SR_DMA_DEC_ERR, 0);
        r.ddr.write_bytes(DDR_BASE, &[7u8; 64]);
        start_mm2s(&mut r, DDR_BASE, 64, false);
        assert_eq!(rd(&mut r, MM2S_DMASR) & SR_DMA_DEC_ERR, 0);
        r.sim
            .run_until(5000, || r.mm2s.len() == 8)
            .expect("recovered transfer completes");
    }

    #[test]
    fn fetch_error_discards_the_other_burst_in_flight() {
        let mut r = rig();
        // The first 16-beat burst lies inside the DDR window, the second
        // starts past its end: the second's decode error comes back
        // before the first's data, which must be dropped, not streamed.
        let sa = DDR_BASE + (1 << 22) - 128;
        r.ddr.write_bytes(sa, &[0x5A; 128]);
        start_mm2s(&mut r, sa, 256, false);
        r.sim.run_until_quiescent(20_000).unwrap();
        assert_ne!(rd(&mut r, MM2S_DMASR) & SR_DMA_DEC_ERR, 0);
        assert!(r.mm2s.is_empty(), "aborted transfer emitted beats");
        // No stale beat leaks into the next transfer.
        let payload: Vec<u8> = (0..64u8).collect();
        r.ddr.write_bytes(DDR_BASE, &payload);
        start_mm2s(&mut r, DDR_BASE, 64, false);
        let mut beats = Vec::new();
        r.sim
            .run_until(5000, || {
                while let Some(b) = r.mm2s.force_pop() {
                    beats.push(b);
                }
                beats.last().is_some_and(|b| b.last)
            })
            .unwrap();
        assert_eq!(rvcap_axi::stream::unpack_bytes(&beats), payload);
    }

    #[test]
    fn s2mm_write_bus_error_halts_s2mm() {
        let mut r = rig();
        let da = DDR_BASE + (1 << 23);
        wr(&mut r, S2MM_DMACR, CR_RS);
        wr(&mut r, S2MM_DA, da as u32);
        wr(&mut r, S2MM_DA_MSB, (da >> 32) as u32);
        wr(&mut r, S2MM_LENGTH, 32);
        for b in rvcap_axi::stream::pack_bytes(&[1u8; 32], 8) {
            r.s2mm.force_push(b);
        }
        r.sim.run_until_quiescent(20_000).unwrap();
        let sr = rd(&mut r, S2MM_DMASR);
        assert_ne!(sr & SR_DMA_DEC_ERR, 0);
        assert_ne!(sr & SR_HALTED, 0);
        assert_eq!(sr & SR_IOC, 0);
        // MM2S is unaffected.
        assert_eq!(rd(&mut r, MM2S_DMASR) & SR_DMA_DEC_ERR, 0);
    }

    #[test]
    fn s2mm_zero_length_write_raises_dma_int_err() {
        let mut r = rig();
        wr(&mut r, S2MM_DMACR, CR_RS);
        wr(&mut r, S2MM_LENGTH, 0);
        let sr = rd(&mut r, S2MM_DMASR);
        assert_ne!(sr & SR_DMA_INT_ERR, 0);
        assert_ne!(sr & SR_HALTED, 0);
        // Beats pushed at the engine are not consumed: it never armed.
        r.s2mm.force_push(AxisBeat::wide(1, true));
        r.sim.step_n(500);
        assert_eq!(r.s2mm.len(), 1);
    }

    #[test]
    fn narrow_w1c_store_to_dmasr_preserves_ioc() {
        let mut r = rig();
        r.ddr.write_bytes(DDR_BASE, &[0u8; 64]);
        start_mm2s(&mut r, DDR_BASE, 64, true);
        r.sim.run_until(5000, || r.irq.get()).unwrap();
        assert_ne!(rd(&mut r, MM2S_DMASR) & SR_IOC, 0);
        // A 1-byte store of 0x1000 to DMASR: bit 12 lies outside the
        // accessed byte lane, so IOC must survive (pre-fix the decode
        // leaked register-width bits through and cleared it).
        loop {
            if r.ctrl
                .try_issue(r.sim.now(), MmReq::write(MM2S_DMASR, SR_IOC as u64, 1))
                .is_ok()
            {
                break;
            }
            r.sim.step();
        }
        r.sim
            .run_until(1000, || r.ctrl.resp.force_pop().is_some())
            .unwrap();
        assert_ne!(
            rd(&mut r, MM2S_DMASR) & SR_IOC,
            0,
            "1-byte store must not reach bit 12"
        );
        assert!(r.irq.get(), "interrupt line stays asserted");
        // The full-width store clears it.
        wr(&mut r, MM2S_DMASR, SR_IOC);
        assert_eq!(rd(&mut r, MM2S_DMASR) & SR_IOC, 0);
        assert!(!r.irq.get());
    }

    #[test]
    fn mm2s_streams_payload_with_tlast() {
        let mut r = rig();
        let payload: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        r.ddr.write_bytes(DDR_BASE + 0x1000, &payload);
        start_mm2s(&mut r, DDR_BASE + 0x1000, 200, false);
        let mut beats = Vec::new();
        r.sim
            .run_until(5000, || {
                while let Some(b) = r.mm2s.force_pop() {
                    beats.push(b);
                }
                beats.last().is_some_and(|b| b.last)
            })
            .unwrap();
        assert_eq!(rvcap_axi::stream::unpack_bytes(&beats), payload);
        // 200 bytes = 25 beats, ragged tail 8×25=200 exact.
        assert_eq!(beats.len(), 25);
        assert_eq!(rd(&mut r, MM2S_DMASR) & SR_IDLE, SR_IDLE);
    }

    #[test]
    fn ioc_interrupt_and_w1c() {
        let mut r = rig();
        r.ddr.write_bytes(DDR_BASE, &[0u8; 64]);
        start_mm2s(&mut r, DDR_BASE, 64, true);
        r.sim.run_until(5000, || r.irq.get()).unwrap();
        assert_eq!(rd(&mut r, MM2S_DMASR) & SR_IOC, SR_IOC);
        // Drain the stream and clear.
        while r.mm2s.force_pop().is_some() {}
        wr(&mut r, MM2S_DMASR, SR_IOC);
        assert!(!r.irq.get());
        assert_eq!(rd(&mut r, MM2S_DMASR) & SR_IOC, 0);
    }

    #[test]
    fn sustained_throughput_is_stream_limited() {
        let mut r = rig();
        let len = 64 * 1024u32;
        r.ddr.write_bytes(DDR_BASE, &vec![0xAB; len as usize]);
        start_mm2s(&mut r, DDR_BASE, len, false);
        let start = r.sim.now();
        let mut beats = 0u64;
        r.sim
            .run_until(200_000, || {
                while r.mm2s.force_pop().is_some() {
                    beats += 1;
                }
                beats == len as u64 / 8
            })
            .unwrap();
        let cycles = r.sim.now() - start;
        // Consumer drains instantly, so the DMA should sustain ~1
        // beat/cycle (8 B/cycle) minus startup + refresh.
        let bpc = len as f64 / cycles as f64;
        assert!(bpc > 7.0, "sustained {bpc:.2} B/cycle");
    }

    #[test]
    fn s2mm_writes_stream_to_memory() {
        let mut r = rig();
        wr(&mut r, S2MM_DMACR, CR_RS | CR_IOC_IRQ_EN);
        wr(&mut r, S2MM_DA, (DDR_BASE + 0x2000) as u32);
        wr(&mut r, S2MM_DA_MSB, ((DDR_BASE + 0x2000) >> 32) as u32);
        wr(&mut r, S2MM_LENGTH, 32);
        let payload: Vec<u8> = (100..132).collect();
        for b in rvcap_axi::stream::pack_bytes(&payload, 8) {
            r.s2mm.force_push(b);
        }
        for _ in 0..200 {
            if rd(&mut r, S2MM_DMASR) & SR_IOC != 0 {
                break;
            }
            r.sim.step_n(25);
        }
        assert!(rd(&mut r, S2MM_DMASR) & SR_IOC != 0);
        assert_eq!(r.ddr.read_bytes(DDR_BASE + 0x2000, 32), payload);
    }

    #[test]
    fn back_to_back_transfers() {
        let mut r = rig();
        r.ddr.write_bytes(DDR_BASE, &vec![1u8; 256]);
        for i in 0..3 {
            start_mm2s(&mut r, DDR_BASE + i * 64, 64, false);
            let mut beats = 0;
            r.sim
                .run_until(5000, || {
                    while r.mm2s.force_pop().is_some() {
                        beats += 1;
                    }
                    beats == 8
                })
                .unwrap();
        }
    }
}
