//! The AXI-Stream switch selecting the RV-CAP operating mode.
//!
//! Paper §III-B ④: "An AXI stream switch is inserted between the DMA
//! and ICAP output ports to select whether the RV-CAP controller
//! operates in reconfiguration mode or acceleration mode by connecting
//! the DMA data stream interfaces to the RM or ICAP primitive."
//!
//! The switch has one input (the DMA MM2S stream) and N outputs; a
//! shared select [`Signal`] — written by the `select_ICAP` driver API —
//! chooses the active output. Beats never duplicate or leak to the
//! unselected port, and switching while a packet is in flight is
//! detected (the real IP requires TLAST alignment; the driver's
//! `decision time` T_d covers reprogramming it between packets).

use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};
use rvcap_sim::Signal;

use crate::stream::AxisChannel;

/// Route select for a [`StreamSwitch`]: index into its output list.
pub type SwitchSelect = Signal<u8>;

/// 1-to-N AXI-Stream switch.
pub struct StreamSwitch {
    name: String,
    input: AxisChannel,
    outputs: Vec<AxisChannel>,
    select: SwitchSelect,
    /// True while a packet (beats up to TLAST) is partially forwarded.
    mid_packet: bool,
    /// Select value latched for the in-flight packet.
    active_route: u8,
}

impl StreamSwitch {
    /// Build a switch. `select` chooses the output index; values out
    /// of range stall the stream (matching a held-in-reset port).
    pub fn new(
        name: impl Into<String>,
        input: AxisChannel,
        outputs: Vec<AxisChannel>,
        select: SwitchSelect,
    ) -> Self {
        assert!(!outputs.is_empty(), "switch needs at least one output");
        StreamSwitch {
            name: name.into(),
            input,
            outputs,
            select,
            mid_packet: false,
            active_route: 0,
        }
    }
}

impl Component for StreamSwitch {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        // Latch the route at packet boundaries only: a select change
        // mid-packet takes effect after TLAST, like the real IP
        // reprogrammed via its control interface.
        if !self.mid_packet {
            self.active_route = self.select.get();
        }
        let route = self.active_route as usize;
        if route >= self.outputs.len() {
            return; // unrouted: stall
        }
        let out = &self.outputs[route];
        if !out.can_push(ctx.cycle) {
            return;
        }
        if let Some(beat) = self.input.try_pop(ctx.cycle) {
            self.mid_packet = !beat.last;
            out.try_push(ctx.cycle, beat).expect("can_push checked");
        }
    }

    fn busy(&self) -> bool {
        self.mid_packet || !self.input.is_empty()
    }

    fn next_activity(&self, now: rvcap_sim::Cycle) -> rvcap_sim::Cycle {
        // With no queued beat a tick only re-latches the route from
        // the select signal — which the first forwarding tick does
        // anyway before routing, so skipping the idle latch is
        // unobservable. (Mid-packet with a starved input is the same:
        // nothing moves until a beat arrives.)
        if self.input.is_empty() {
            rvcap_sim::Cycle::MAX
        } else {
            now
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // The select signal needs no subscription: an idle re-latch is
        // unobservable (see `next_activity`), and mid-packet routing
        // ignores select until the next beat — which wakes us.
        self.input.subscribe_wake(waker.clone());
    }

    fn save_state(&self) -> Option<StateBlob> {
        // The select signal is driven (and saved) by its writer — the
        // switch controller or the test harness — not by the switch.
        let mut b = StateBlob::new("axi.switch", 2);
        b.put("input", self.input.save_state());
        b.put_u64("outputs", self.outputs.len() as u64);
        b.put_bool("mid_packet", self.mid_packet);
        b.put_u64("active_route", u64::from(self.active_route));
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("axi.switch", 2)?;
        let outputs = state.get_u64("outputs")?;
        if outputs != self.outputs.len() as u64 {
            return Err(state.structure_error(format!(
                "output count mismatch: instance {}, state {outputs}",
                self.outputs.len()
            )));
        }
        self.input.restore_state(state.get("input")?)?;
        self.mid_packet = state.get_bool("mid_packet")?;
        self.active_route = u8::try_from(state.get_u64("active_route")?)
            .map_err(|_| state.structure_error("active route does not fit u8"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{pack_bytes, unpack_bytes, AxisBeat};
    use rvcap_sim::{Fifo, Freq, Simulator};

    struct Rig {
        sim: Simulator,
        input: AxisChannel,
        icap: AxisChannel,
        rm: AxisChannel,
        select: SwitchSelect,
    }

    fn rig() -> Rig {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let input: AxisChannel = Fifo::new("in", 1024);
        let icap: AxisChannel = Fifo::new("icap", 1024);
        let rm: AxisChannel = Fifo::new("rm", 1024);
        let select = Signal::new(0u8);
        sim.register(Box::new(StreamSwitch::new(
            "switch",
            input.clone(),
            vec![icap.clone(), rm.clone()],
            select.clone(),
        )));
        Rig {
            sim,
            input,
            icap,
            rm,
            select,
        }
    }

    fn drain(ch: &AxisChannel) -> Vec<AxisBeat> {
        let mut v = Vec::new();
        while let Some(b) = ch.force_pop() {
            v.push(b);
        }
        v
    }

    #[test]
    fn routes_to_selected_output_only() {
        let mut r = rig();
        r.select.set(0);
        for b in pack_bytes(&[1, 2, 3, 4, 5, 6, 7, 8], 8) {
            r.input.force_push(b);
        }
        r.sim.run_until_quiescent(1000).unwrap();
        assert_eq!(drain(&r.icap).len(), 1);
        assert!(r.rm.is_empty());
    }

    #[test]
    fn reroute_between_packets() {
        let mut r = rig();
        r.select.set(0);
        let payload_a: Vec<u8> = (0..16).collect();
        for b in pack_bytes(&payload_a, 8) {
            r.input.force_push(b);
        }
        r.sim.run_until_quiescent(1000).unwrap();
        r.select.set(1);
        let payload_b: Vec<u8> = (100..132).collect();
        for b in pack_bytes(&payload_b, 8) {
            r.input.force_push(b);
        }
        r.sim.run_until_quiescent(1000).unwrap();
        assert_eq!(unpack_bytes(&drain(&r.icap)), payload_a);
        assert_eq!(unpack_bytes(&drain(&r.rm)), payload_b);
    }

    #[test]
    fn mid_packet_select_change_is_deferred() {
        let mut r = rig();
        r.select.set(0);
        let payload: Vec<u8> = (0..64).collect();
        for b in pack_bytes(&payload, 8) {
            r.input.force_push(b);
        }
        // Let a couple of beats through, then flip the select.
        r.sim.step_n(3);
        r.select.set(1);
        r.sim.run_until_quiescent(1000).unwrap();
        // Whole packet still lands on output 0.
        assert_eq!(unpack_bytes(&drain(&r.icap)), payload);
        assert!(r.rm.is_empty());
    }

    #[test]
    fn out_of_range_select_stalls() {
        let mut r = rig();
        r.select.set(7);
        for b in pack_bytes(&[1, 2, 3, 4], 8) {
            r.input.force_push(b);
        }
        r.sim.step_n(50);
        assert_eq!(r.input.len(), 1, "beat must stay queued");
        r.select.set(1);
        r.sim.run_until_quiescent(1000).unwrap();
        assert_eq!(drain(&r.rm).len(), 1);
    }

    #[test]
    fn forwards_every_beat_of_a_packet() {
        let mut r = rig();
        r.select.set(0);
        for b in pack_bytes(&[0; 64], 8) {
            r.input.force_push(b);
        }
        r.sim.run_until_quiescent(1000).unwrap();
        assert_eq!(r.icap.total_pushed(), 8);
    }
}
