//! PR decoupling: AXI isolators at the static/reconfigurable boundary.
//!
//! Paper §III-A: "AXI isolator components are inserted between the RPs
//! and the main AXI-4 bus for PR decoupling during the reconfiguration
//! process to isolate the RPs from the overall SoC." While a partial
//! bitstream is loading, the logic inside the RP is in an undefined
//! state; anything it drives must be gated off, and anything driving
//! into it must be held. The `decouple_accel(1)` driver API raises the
//! decouple signal; `decouple_accel(0)` lowers it.
//!
//! Two isolator flavours are modelled: [`StreamIsolator`] for the
//! AXI-Stream data paths between the DMA and the RM, and
//! [`MmIsolator`] for memory-mapped control paths into the RP. Both
//! count the beats/requests they block — the integration tests assert
//! that reconfiguration with traffic in flight corrupts nothing.

use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};
use rvcap_sim::Signal;

use crate::mm::{MasterPort, MmResp, SlavePort};
use crate::stream::AxisChannel;

/// Gates an AXI-Stream path with a decouple signal.
///
/// While decoupled, beats are **held upstream** (valid is masked, the
/// producer back-pressures); nothing is dropped. This matches the
/// standard PR decoupler behaviour of clamping the handshake rather
/// than discarding data.
pub struct StreamIsolator {
    name: String,
    input: AxisChannel,
    output: AxisChannel,
    decouple: Signal<bool>,
    blocked_cycles: u64,
}

impl StreamIsolator {
    /// Wire an isolator; `decouple` high blocks the path.
    pub fn new(
        name: impl Into<String>,
        input: AxisChannel,
        output: AxisChannel,
        decouple: Signal<bool>,
    ) -> Self {
        StreamIsolator {
            name: name.into(),
            input,
            output,
            decouple,
            blocked_cycles: 0,
        }
    }

    /// Cycles during which a beat was ready but the path was decoupled.
    pub fn blocked_cycles(&self) -> u64 {
        self.blocked_cycles
    }
}

impl Component for StreamIsolator {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        if self.decouple.get() {
            if !self.input.is_empty() {
                self.blocked_cycles += 1;
            }
            return;
        }
        if !self.output.can_push(ctx.cycle) {
            return;
        }
        if let Some(beat) = self.input.try_pop(ctx.cycle) {
            self.output
                .try_push(ctx.cycle, beat)
                .expect("can_push checked");
        }
    }

    fn busy(&self) -> bool {
        // A decoupled isolator with queued traffic is *not* busy: it
        // is intentionally parked, and quiescence detection must not
        // spin on it.
        !self.decouple.get() && !self.input.is_empty()
    }

    fn next_activity(&self, now: rvcap_sim::Cycle) -> rvcap_sim::Cycle {
        // A decoupled tick with a queued beat is NOT a no-op: it
        // increments `blocked_cycles`. Any queued input therefore
        // means activity now, coupled or not.
        if self.input.is_empty() {
            rvcap_sim::Cycle::MAX
        } else {
            now
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // The decouple signal needs no subscription: with an empty
        // input a decouple flip changes nothing observable, and with a
        // queued beat the hint is already "now".
        self.input.subscribe_wake(waker.clone());
    }

    fn save_state(&self) -> Option<StateBlob> {
        // The decouple signal is saved by its driver (RP_CTRL or the
        // test harness), not by the isolator that merely reads it.
        let mut b = StateBlob::new("axi.stream_isolator", 1);
        b.put("input", self.input.save_state());
        b.put_u64("blocked_cycles", self.blocked_cycles);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("axi.stream_isolator", 1)?;
        self.input.restore_state(state.get("input")?)?;
        self.blocked_cycles = state.get_u64("blocked_cycles")?;
        Ok(())
    }
}

/// Gates a memory-mapped path with a decouple signal.
///
/// While decoupled, new requests are answered immediately with a
/// SLVERR-style error response instead of reaching the RP (reads of a
/// half-configured module must not hang the bus — this mirrors the
/// isolation interfaces of the paper's open-source on-chip library).
pub struct MmIsolator {
    name: String,
    upstream: SlavePort,
    downstream: MasterPort,
    decouple: Signal<bool>,
    rejected: u64,
}

impl MmIsolator {
    /// Wire an MM isolator; `decouple` high bounces requests.
    pub fn new(
        name: impl Into<String>,
        upstream: SlavePort,
        downstream: MasterPort,
        decouple: Signal<bool>,
    ) -> Self {
        MmIsolator {
            name: name.into(),
            upstream,
            downstream,
            decouple,
            rejected: 0,
        }
    }

    /// Requests bounced while decoupled.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

impl Component for MmIsolator {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        let cycle = ctx.cycle;
        // Responses always flow back (a transaction that entered the
        // RP before decoupling completes normally; Xilinx requires
        // quiescence before decoupling, and the drivers ensure it).
        if let Some(resp) = self.downstream.resp.try_pop(cycle) {
            let _ = self.upstream.resp.try_push(cycle, resp);
        }
        if self.decouple.get() {
            if self.upstream.resp.can_push(cycle) {
                if let Some(_req) = self.upstream.req.try_pop(cycle) {
                    self.rejected += 1;
                    self.upstream
                        .resp
                        .try_push(cycle, MmResp::err())
                        .expect("can_push checked");
                }
            }
            return;
        }
        if self.downstream.req.can_push(cycle) {
            if let Some(req) = self.upstream.req.try_pop(cycle) {
                self.downstream
                    .req
                    .try_push(cycle, req)
                    .expect("can_push checked");
            }
        }
    }

    fn busy(&self) -> bool {
        false
    }

    fn next_activity(&self, now: rvcap_sim::Cycle) -> rvcap_sim::Cycle {
        if self.upstream.req.is_empty() && self.downstream.resp.is_empty() {
            rvcap_sim::Cycle::MAX
        } else {
            now
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        self.upstream.req.subscribe_wake(waker.clone());
        self.downstream.resp.subscribe_wake(waker.clone());
    }

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("axi.mm_isolator", 1);
        b.put("upstream_req", self.upstream.req.save_state());
        b.put("downstream_resp", self.downstream.resp.save_state());
        b.put_u64("rejected", self.rejected);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("axi.mm_isolator", 1)?;
        self.upstream
            .req
            .restore_state(state.get("upstream_req")?)?;
        self.downstream
            .resp
            .restore_state(state.get("downstream_resp")?)?;
        self.rejected = state.get_u64("rejected")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm::{link, MmReq};
    use crate::stream::{pack_bytes, unpack_bytes, AxisBeat};
    use rvcap_sim::{Fifo, Freq, Simulator};

    #[test]
    fn stream_passes_when_coupled() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let a: AxisChannel = Fifo::new("a", 64);
        let b: AxisChannel = Fifo::new("b", 64);
        let dec = Signal::new(false);
        sim.register(Box::new(StreamIsolator::new(
            "iso",
            a.clone(),
            b.clone(),
            dec,
        )));
        let payload: Vec<u8> = (0..32).collect();
        for beat in pack_bytes(&payload, 8) {
            a.force_push(beat);
        }
        sim.run_until_quiescent(1000).unwrap();
        let mut got = Vec::new();
        while let Some(x) = b.force_pop() {
            got.push(x);
        }
        assert_eq!(unpack_bytes(&got), payload);
    }

    #[test]
    fn stream_holds_upstream_while_decoupled() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let a: AxisChannel = Fifo::new("a", 64);
        let b: AxisChannel = Fifo::new("b", 64);
        let dec = Signal::new(true);
        sim.register(Box::new(StreamIsolator::new(
            "iso",
            a.clone(),
            b.clone(),
            dec.clone(),
        )));
        a.force_push(AxisBeat::wide(42, true));
        sim.step_n(100);
        assert_eq!(a.len(), 1, "beat must be held, not dropped");
        assert!(b.is_empty());
        // Recoupling releases it.
        dec.set(false);
        sim.step_n(5);
        assert_eq!(b.len(), 1);
        assert!(a.is_empty());
    }

    #[test]
    fn mm_bounces_requests_while_decoupled() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (cpu_m, cpu_s) = link("cpu", 2);
        let (rp_m, rp_s) = link("rp", 2);
        let dec = Signal::new(true);
        sim.register(Box::new(MmIsolator::new("iso", cpu_s, rp_m, dec.clone())));
        cpu_m.try_issue(0, MmReq::read(0x100, 4)).unwrap();
        let mut got = None;
        sim.run_until(100, || {
            got = cpu_m.resp.force_pop();
            got.is_some()
        })
        .unwrap();
        assert!(got.unwrap().error, "decoupled read must error, not hang");
        assert!(rp_s.req.is_empty(), "request must not reach the RP");
        // Couple and retry: flows through.
        dec.set(false);
        cpu_m.try_issue(sim.now(), MmReq::read(0x100, 4)).unwrap();
        sim.run_until(100, || !rp_s.req.is_empty()).unwrap();
    }

    #[test]
    fn mm_passes_and_responds_when_coupled() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (cpu_m, cpu_s) = link("cpu", 2);
        let (rp_m, rp_s) = link("rp", 2);
        let dec = Signal::new(false);
        sim.register(Box::new(MmIsolator::new("iso", cpu_s, rp_m, dec)));
        cpu_m.try_issue(0, MmReq::write(0x8, 9, 4)).unwrap();
        sim.run_until(100, || !rp_s.req.is_empty()).unwrap();
        let req = rp_s.try_take(sim.now()).unwrap();
        assert_eq!(req.addr, 0x8);
        rp_s.try_respond(sim.now(), MmResp::write_ack()).unwrap();
        let mut got = None;
        sim.run_until(100, || {
            got = cpu_m.resp.force_pop();
            got.is_some()
        })
        .unwrap();
        assert!(!got.unwrap().error);
    }
}
