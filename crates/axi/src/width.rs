//! AXI-Stream data width converters.
//!
//! The SoC bus is 64-bit while the ICAP/HWICAP world is 32-bit (paper
//! §III-B/§III-C: "a data width converter (from 64-bit to 32-bit)").
//! [`Narrower`] splits each 64-bit beat into two 32-bit beats (low
//! word first — the AXIS2ICAP block writes the two 32-bit halves "in
//! order"); [`Widener`] packs pairs of 32-bit beats back into 64-bit
//! beats for the write-back direction.

use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError, StateItem};

use crate::stream::{AxisBeat, AxisChannel};

/// Save an optional buffered beat (the narrower's carry, the widener's
/// half) as a presence flag plus an encoded beat.
fn put_opt_beat(b: &mut StateBlob, field: &str, beat: &Option<AxisBeat>) {
    match beat {
        Some(x) => b.put(field, x.to_state()),
        None => b.put_opt_u64(field, None),
    }
}

/// Inverse of [`put_opt_beat`].
fn get_opt_beat(b: &StateBlob, field: &str) -> Result<Option<AxisBeat>, StateError> {
    match b.get(field)? {
        rvcap_sim::state::StateValue::OptU64(None) => Ok(None),
        v => AxisBeat::from_state(v, b.tag()).map(Some),
    }
}

/// 64-bit → 32-bit stream width converter.
///
/// Emits one 32-bit beat per cycle, so a sustained 64-bit input can be
/// accepted at most every second cycle — the converter, not the ICAP,
/// is then the clock-for-clock bottleneck, which is why the RV-CAP
/// datapath needs the DMA to supply only 4 B/cycle on average to
/// saturate the ICAP.
pub struct Narrower {
    name: String,
    input: AxisChannel,
    output: AxisChannel,
    /// Pending high half of a previously split beat.
    carry: Option<AxisBeat>,
}

impl Narrower {
    /// Wire a narrower between two channels.
    pub fn new(name: impl Into<String>, input: AxisChannel, output: AxisChannel) -> Self {
        Narrower {
            name: name.into(),
            input,
            output,
            carry: None,
        }
    }
}

impl Component for Narrower {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        // First drain the carried high word.
        if let Some(beat) = self.carry.take() {
            if let Err(b) = self.output.try_push(ctx.cycle, beat) {
                self.carry = Some(b);
            }
            return;
        }
        if !self.output.can_push(ctx.cycle) {
            return;
        }
        if let Some(beat) = self.input.try_pop(ctx.cycle) {
            if beat.bytes <= 4 {
                // Already narrow (ragged tail): forward as-is.
                self.output
                    .try_push(ctx.cycle, beat)
                    .expect("can_push checked");
            } else {
                let low = AxisBeat {
                    data: beat.data & 0xffff_ffff,
                    bytes: 4,
                    last: false,
                };
                let high = AxisBeat {
                    data: beat.data >> 32,
                    bytes: beat.bytes - 4,
                    last: beat.last,
                };
                self.output
                    .try_push(ctx.cycle, low)
                    .expect("can_push checked");
                self.carry = Some(high);
            }
        }
    }

    fn busy(&self) -> bool {
        self.carry.is_some() || !self.input.is_empty()
    }

    fn next_activity(&self, now: rvcap_sim::Cycle) -> rvcap_sim::Cycle {
        // A carried high word retries its push every cycle until the
        // output accepts it, so it pins activity to "now".
        if self.carry.is_some() || !self.input.is_empty() {
            now
        } else {
            rvcap_sim::Cycle::MAX
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // Only a new input beat can make an empty narrower runnable; a
        // buffered carry self-reschedules via the post-tick "now" hint.
        self.input.subscribe_wake(waker.clone());
    }

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("axi.narrower", 1);
        b.put("input", self.input.save_state());
        put_opt_beat(&mut b, "carry", &self.carry);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("axi.narrower", 1)?;
        self.input.restore_state(state.get("input")?)?;
        self.carry = get_opt_beat(state, "carry")?;
        Ok(())
    }
}

/// 32-bit → 64-bit stream width converter.
///
/// Packs two 32-bit beats into one 64-bit beat (low word first). A
/// TLAST on the first half flushes immediately as a 4-byte beat, so
/// odd-length packets are preserved.
pub struct Widener {
    name: String,
    input: AxisChannel,
    output: AxisChannel,
    half: Option<AxisBeat>,
}

impl Widener {
    /// Wire a widener between two channels.
    pub fn new(name: impl Into<String>, input: AxisChannel, output: AxisChannel) -> Self {
        Widener {
            name: name.into(),
            input,
            output,
            half: None,
        }
    }
}

impl Component for Widener {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        if !self.output.can_push(ctx.cycle) {
            return;
        }
        match self.half {
            None => {
                if let Some(beat) = self.input.try_pop(ctx.cycle) {
                    debug_assert!(beat.bytes <= 4, "widener input must be 32-bit");
                    if beat.last {
                        // Odd-length packet: flush the lone half.
                        self.output
                            .try_push(ctx.cycle, beat)
                            .expect("can_push checked");
                    } else {
                        self.half = Some(beat);
                    }
                }
            }
            Some(low) => {
                if let Some(high) = self.input.try_pop(ctx.cycle) {
                    debug_assert!(high.bytes <= 4, "widener input must be 32-bit");
                    let merged = AxisBeat {
                        data: (high.data << 32) | (low.data & 0xffff_ffff),
                        bytes: 4 + high.bytes,
                        last: high.last,
                    };
                    self.output
                        .try_push(ctx.cycle, merged)
                        .expect("can_push checked");
                    self.half = None;
                }
            }
        }
    }

    fn busy(&self) -> bool {
        self.half.is_some() || !self.input.is_empty()
    }

    fn next_activity(&self, now: rvcap_sim::Cycle) -> rvcap_sim::Cycle {
        // A lone buffered half-word moves only when its partner beat
        // arrives, so an empty input means nothing can happen yet.
        if self.input.is_empty() {
            rvcap_sim::Cycle::MAX
        } else {
            now
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // The hint depends only on input emptiness.
        self.input.subscribe_wake(waker.clone());
    }

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("axi.widener", 1);
        b.put("input", self.input.save_state());
        put_opt_beat(&mut b, "half", &self.half);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("axi.widener", 1)?;
        self.input.restore_state(state.get("input")?)?;
        self.half = get_opt_beat(state, "half")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{pack_bytes, unpack_bytes};
    use proptest::prelude::*;
    use rvcap_sim::{Fifo, Freq, Simulator};

    fn run_narrower(payload: &[u8]) -> Vec<AxisBeat> {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let input: AxisChannel = Fifo::new("in", 1024);
        let output: AxisChannel = Fifo::new("out", 2048);
        for b in pack_bytes(payload, 8) {
            input.force_push(b);
        }
        sim.register(Box::new(Narrower::new("narrow", input, output.clone())));
        sim.run_until_quiescent(100_000).unwrap();
        let mut beats = Vec::new();
        while let Some(b) = output.force_pop() {
            beats.push(b);
        }
        beats
    }

    #[test]
    fn narrower_splits_low_word_first() {
        let beats = run_narrower(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[0].data, 0x0403_0201);
        assert!(!beats[0].last);
        assert_eq!(beats[1].data, 0x0807_0605);
        assert!(beats[1].last);
    }

    #[test]
    fn narrower_preserves_bytes() {
        let payload: Vec<u8> = (0..100).collect();
        let beats = run_narrower(&payload);
        assert_eq!(unpack_bytes(&beats), payload);
        assert!(beats.iter().all(|b| b.bytes <= 4));
    }

    #[test]
    fn narrower_rate_is_one_word_per_cycle() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let input: AxisChannel = Fifo::new("in", 256);
        let output: AxisChannel = Fifo::new("out", 512);
        for b in pack_bytes(&vec![0u8; 512], 8) {
            input.force_push(b);
        }
        sim.register(Box::new(Narrower::new("narrow", input, output.clone())));
        // 64 × 64-bit beats → 128 words; at 1 word/cycle that's ~128 cycles.
        let cycles = sim.run_until_quiescent(10_000).unwrap();
        assert_eq!(output.len(), 128);
        assert!((128..=130).contains(&cycles), "took {cycles}");
    }

    fn run_widener(words: Vec<AxisBeat>) -> Vec<AxisBeat> {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let input: AxisChannel = Fifo::new("in", 2048);
        let output: AxisChannel = Fifo::new("out", 1024);
        for b in words {
            input.force_push(b);
        }
        sim.register(Box::new(Widener::new("widen", input, output.clone())));
        sim.run_until_quiescent(100_000).unwrap();
        let mut beats = Vec::new();
        while let Some(b) = output.force_pop() {
            beats.push(b);
        }
        beats
    }

    #[test]
    fn widener_packs_pairs() {
        let words = pack_bytes(&[1, 2, 3, 4, 5, 6, 7, 8], 4);
        let wide = run_widener(words);
        assert_eq!(wide.len(), 1);
        assert_eq!(wide[0].data, 0x0807_0605_0403_0201);
        assert!(wide[0].last);
    }

    #[test]
    fn widener_flushes_odd_tail() {
        let words = pack_bytes(&[1, 2, 3, 4, 5, 6], 4); // 4+2 bytes
        let wide = run_widener(words);
        assert_eq!(wide.len(), 1);
        assert_eq!(wide[0].bytes, 6);
        assert!(wide[0].last);
    }

    #[test]
    fn widener_flushes_single_word_packet() {
        let words = pack_bytes(&[9, 9, 9, 9], 4);
        let wide = run_widener(words);
        assert_eq!(wide.len(), 1);
        assert_eq!(wide[0].bytes, 4);
    }

    proptest! {
        #[test]
        fn prop_narrow_then_widen_round_trips(payload in proptest::collection::vec(any::<u8>(), 1..256)) {
            let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
            let a: AxisChannel = Fifo::new("a", 1024);
            let b: AxisChannel = Fifo::new("b", 1024);
            let c: AxisChannel = Fifo::new("c", 1024);
            for beat in pack_bytes(&payload, 8) {
                a.force_push(beat);
            }
            sim.register(Box::new(Narrower::new("n", a, b.clone())));
            sim.register(Box::new(Widener::new("w", b, c.clone())));
            sim.run_until_quiescent(100_000).unwrap();
            let mut beats = Vec::new();
            while let Some(x) = c.force_pop() {
                beats.push(x);
            }
            prop_assert_eq!(unpack_bytes(&beats), payload);
            prop_assert!(beats.last().unwrap().last);
        }
    }
}
