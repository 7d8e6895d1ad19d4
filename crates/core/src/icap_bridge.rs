//! The AXIS2ICAP block (Fig. 2 ⑤).
//!
//! "The AXIS2ICAP block … is responsible for converting a 64-bit data
//! word fetched from the DDR memory into two 32-bit data words, which
//! are written in order to the ICAP data port. Besides, the valid
//! stream signal is inverted and connected to the ICAP data port. The
//! R/W select input port is permanently set to zero." (§III-B ⑤)
//!
//! Functionally this is the 64→32 stream narrower plus the ICAP's
//! active-low control conventions (CSIB/RDWRB). The handshake
//! inversion has no cycle-level consequence — the ICAP samples a word
//! whenever CSIB is low — so the bridge is the narrower with the
//! control facts recorded as constants and a word counter for
//! verification.

use rvcap_axi::width::Narrower;
use rvcap_axi::AxisChannel;
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};

/// The ICAP RDWRB level driven by the bridge: permanently write mode.
pub const RDWRB_LEVEL: bool = false;
/// The CSIB (chip select, active low) level while a word is valid:
/// the inverted stream-valid.
pub const CSIB_ACTIVE: bool = false;

/// The bridge component: 64-bit beats in, ordered 32-bit words out.
pub struct Axis2Icap {
    inner: Narrower,
    out: AxisChannel,
    last_count: u64,
}

impl Axis2Icap {
    /// Wire the bridge between the stream switch and the ICAP.
    pub fn new(name: impl Into<String>, input: AxisChannel, output: AxisChannel) -> Self {
        Axis2Icap {
            inner: Narrower::new(name, input, output.clone()),
            out: output,
            last_count: 0,
        }
    }

    /// 32-bit words delivered to the ICAP port so far.
    pub fn words_out(&self) -> u64 {
        self.out.total_pushed()
    }
}

impl Component for Axis2Icap {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        self.inner.tick(ctx);
        let now = self.out.total_pushed();
        if now != self.last_count {
            self.last_count = now;
        }
    }

    fn busy(&self) -> bool {
        self.inner.busy()
    }

    fn next_activity(&self, now: rvcap_sim::Cycle) -> rvcap_sim::Cycle {
        self.inner.next_activity(now)
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        self.inner.wake_sources(waker)
    }

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("core.axis2icap", 1);
        b.put_blob("narrower", self.inner.save_state()?);
        b.put_u64("last_count", self.last_count);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("core.axis2icap", 1)?;
        self.inner.restore_state(state.get_blob("narrower")?)?;
        self.last_count = state.get_u64("last_count")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvcap_axi::stream::pack_bytes;
    use rvcap_sim::{Fifo, Freq, Simulator};

    #[test]
    fn splits_low_word_first_in_order() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let input: AxisChannel = Fifo::new("in", 64);
        let output: AxisChannel = Fifo::new("out", 128);
        sim.register(Box::new(Axis2Icap::new(
            "axis2icap",
            input.clone(),
            output.clone(),
        )));
        // A sync word followed by a type-1 header, as the DMA would
        // fetch them from DDR (little-endian words).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&0xAA99_5566u32.to_le_bytes());
        bytes.extend_from_slice(&0x3000_8001u32.to_le_bytes());
        for b in pack_bytes(&bytes, 8) {
            input.force_push(b);
        }
        sim.run_until_quiescent(1000).unwrap();
        let w0 = output.force_pop().unwrap();
        let w1 = output.force_pop().unwrap();
        assert_eq!(w0.low_word(), 0xAA99_5566);
        assert_eq!(w1.low_word(), 0x3000_8001);
        assert!(w1.last);
    }

    #[test]
    fn counts_words() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let input: AxisChannel = Fifo::new("in", 64);
        let output: AxisChannel = Fifo::new("out", 512);
        let bridge = Axis2Icap::new("axis2icap", input.clone(), output.clone());
        for b in pack_bytes(&vec![0u8; 256], 8) {
            input.force_push(b);
        }
        sim.register(Box::new(bridge));
        sim.run_until_quiescent(1000).unwrap();
        assert_eq!(output.total_pushed(), 64);
    }

    #[test]
    fn control_levels_are_write_mode() {
        // The paper's fixed control wiring.
        const { assert!(!RDWRB_LEVEL) };
        const { assert!(!CSIB_ACTIVE) };
    }
}
