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
//! [`StreamIsolator`] gates the AXI-Stream data paths between the DMA
//! and the RM, the only paths that cross the partition boundary in the
//! modelled SoC. It holds beats rather than dropping them — the
//! integration tests assert that reconfiguration with traffic in
//! flight corrupts nothing.

use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};
use rvcap_sim::Signal;

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
        }
    }
}

impl Component for StreamIsolator {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        if self.decouple.get() || !self.output.can_push(ctx.cycle) {
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
        // Any queued input means activity now, coupled or not. A
        // decoupled tick changes nothing, so waiting for the decouple
        // line to fall would be exact too, but it would need a wake
        // subscription on that line; this hint instead costs one no-op
        // tick per decoupled cycle with a beat queued.
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
        let mut b = StateBlob::new("axi.stream_isolator", 2);
        b.put("input", self.input.save_state());
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("axi.stream_isolator", 2)?;
        self.input.restore_state(state.get("input")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
