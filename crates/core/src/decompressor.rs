//! In-fabric bitstream decompression — the RT-ICAP technique grafted
//! onto the RV-CAP datapath (extension study).
//!
//! When the SoC is built with `SocBuilder::with_compressed_loader`, an
//! [`RleDecompressor`] sits between the AXIS2ICAP narrower and the ICAP:
//! the DMA then transfers RLE-compressed bitstreams
//! ([`rvcap_fabric::compress`] format — `(count, word)` pairs) and the
//! decompressor reconstitutes the configuration stream at up to one
//! word per cycle.
//!
//! What this buys, and what it does not: DDR traffic and storage
//! shrink by the compression ratio, but the ICAP still consumes one
//! word per cycle — so reconfiguration *time* is unchanged for
//! RV-CAP, which already saturates the port. (For a bandwidth-starved
//! controller the compressed stream is exactly how RT-ICAP holds
//! ~382 MB/s from a slow memory.) The ablations bench quantifies both
//! sides.

use rvcap_axi::stream::AxisBeat;
use rvcap_axi::AxisChannel;
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Expecting a run-count word.
    Count,
    /// Expecting the run's data word (count latched).
    Word { count: u32, input_last: bool },
    /// Emitting the run.
    Emit {
        word: u32,
        remaining: u32,
        input_last: bool,
    },
}

/// The streaming RLE decompressor.
pub struct RleDecompressor {
    name: String,
    input: AxisChannel,
    output: AxisChannel,
    state: State,
    /// Malformed-stream strikes (zero-length runs).
    format_errors: u64,
}

impl RleDecompressor {
    /// Wire a decompressor between two 32-bit word channels.
    pub fn new(name: impl Into<String>, input: AxisChannel, output: AxisChannel) -> Self {
        RleDecompressor {
            name: name.into(),
            input,
            output,
            state: State::Count,
            format_errors: 0,
        }
    }
}

impl Component for RleDecompressor {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        let cycle = ctx.cycle;
        match self.state {
            State::Count => {
                if let Some(beat) = self.input.try_pop(cycle) {
                    let count = beat.low_word();
                    if count == 0 {
                        // Malformed: drop the record (and its word,
                        // next cycle) — the ICAP's CRC will reject the
                        // stream anyway; we just must not hang.
                        self.format_errors += 1;
                        self.state = State::Word {
                            count: 0,
                            input_last: beat.last,
                        };
                    } else {
                        self.state = State::Word {
                            count,
                            input_last: beat.last,
                        };
                    }
                }
            }
            State::Word { count, .. } => {
                if let Some(beat) = self.input.try_pop(cycle) {
                    if count == 0 {
                        self.state = State::Count;
                    } else {
                        self.state = State::Emit {
                            word: beat.low_word(),
                            remaining: count,
                            input_last: beat.last,
                        };
                    }
                }
            }
            State::Emit {
                word,
                remaining,
                input_last,
            } => {
                if self.output.can_push(cycle) {
                    let last = input_last && remaining == 1;
                    self.output
                        .try_push(cycle, AxisBeat::word(word, last))
                        .expect("can_push checked");
                    self.state = if remaining == 1 {
                        State::Count
                    } else {
                        State::Emit {
                            word,
                            remaining: remaining - 1,
                            input_last,
                        }
                    };
                }
            }
        }
    }

    fn busy(&self) -> bool {
        !matches!(self.state, State::Count) || !self.input.is_empty()
    }

    fn next_activity(&self, now: rvcap_sim::Cycle) -> rvcap_sim::Cycle {
        // Emit pushes (or retries a full output) every cycle; the
        // other states only move when a compressed word is queued.
        if matches!(self.state, State::Emit { .. }) || !self.input.is_empty() {
            now
        } else {
            rvcap_sim::Cycle::MAX
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // Emit self-reschedules via the "now" hint (and can only be
        // entered by consuming input); everything else waits on a
        // compressed word arriving.
        self.input.subscribe_wake(waker.clone());
    }

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("core.rle", 2);
        b.put("input", self.input.save_state());
        let (state, count, word, input_last) = match self.state {
            State::Count => ("count", None, None, false),
            State::Word { count, input_last } => ("word", Some(count as u64), None, input_last),
            State::Emit {
                word,
                remaining,
                input_last,
            } => (
                "emit",
                Some(remaining as u64),
                Some(word as u64),
                input_last,
            ),
        };
        b.put_str("state", state);
        b.put_opt_u64("count", count);
        b.put_opt_u64("word", word);
        b.put_bool("input_last", input_last);
        b.put_u64("format_errors", self.format_errors);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("core.rle", 2)?;
        let missing = |field: &str| state.structure_error(format!("state lacks {field}"));
        let input_last = state.get_bool("input_last")?;
        self.state = match state.get_str("state")? {
            "count" => State::Count,
            "word" => State::Word {
                count: state
                    .get_opt_u64("count")?
                    .ok_or_else(|| missing("count"))? as u32,
                input_last,
            },
            "emit" => State::Emit {
                word: state.get_opt_u64("word")?.ok_or_else(|| missing("word"))? as u32,
                remaining: state
                    .get_opt_u64("count")?
                    .ok_or_else(|| missing("count"))? as u32,
                input_last,
            },
            other => return Err(state.structure_error(format!("unknown state {other:?}"))),
        };
        self.input.restore_state(state.get("input")?)?;
        self.format_errors = state.get_u64("format_errors")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvcap_axi::stream::pack_bytes;
    use rvcap_fabric::compress;
    use rvcap_sim::{Fifo, Freq, Simulator};

    fn run(compressed: &[u32]) -> (Vec<u32>, Simulator) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let input: AxisChannel = Fifo::new("in", 1 << 16);
        let output: AxisChannel = Fifo::new("out", 1 << 20);
        let mut bytes = Vec::new();
        for w in compressed {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for b in pack_bytes(&bytes, 4) {
            input.force_push(b);
        }
        sim.register(Box::new(RleDecompressor::new("rle", input, output.clone())));
        sim.run_until_quiescent(10_000_000).unwrap();
        let mut out = Vec::new();
        while let Some(b) = output.force_pop() {
            out.push(b.low_word());
        }
        (out, sim)
    }

    #[test]
    fn expands_runs_correctly() {
        let original = vec![5u32, 5, 5, 9, 1, 1];
        let compressed = compress::compress(&original);
        assert_eq!(run(&compressed).0, original);
    }

    #[test]
    fn expansion_rate_is_one_word_per_cycle() {
        let original = vec![7u32; 1000];
        let compressed = compress::compress(&original); // 2 words
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let input: AxisChannel = Fifo::new("in", 64);
        let output: AxisChannel = Fifo::new("out", 2048);
        let mut bytes = Vec::new();
        for w in &compressed {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for b in pack_bytes(&bytes, 4) {
            input.force_push(b);
        }
        sim.register(Box::new(RleDecompressor::new("rle", input, output.clone())));
        let cycles = sim.run_until_quiescent(10_000).unwrap();
        assert_eq!(output.len(), 1000);
        // ~1 word/cycle after the 2-word header.
        assert!((1000..=1010).contains(&cycles), "{cycles} cycles");
    }

    #[test]
    fn tlast_lands_on_final_expanded_word() {
        let original = vec![3u32, 3, 8];
        let compressed = compress::compress(&original);
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let input: AxisChannel = Fifo::new("in", 64);
        let output: AxisChannel = Fifo::new("out", 64);
        let mut bytes = Vec::new();
        for w in &compressed {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for b in pack_bytes(&bytes, 4) {
            input.force_push(b);
        }
        sim.register(Box::new(RleDecompressor::new("rle", input, output.clone())));
        sim.run_until_quiescent(1000).unwrap();
        let beats: Vec<AxisBeat> = std::iter::from_fn(|| output.force_pop()).collect();
        assert_eq!(beats.len(), 3);
        assert!(beats[2].last);
        assert!(!beats[0].last && !beats[1].last);
    }

    #[test]
    fn zero_count_record_skipped_without_hanging() {
        // [0, 99] is malformed; [2, 4] is fine.
        let (out, sim) = run(&[0, 99, 2, 4]);
        assert_eq!(out, vec![4, 4]);
        let state = sim.checkpoint().unwrap();
        assert_eq!(state.components[0].blob.get_u64("format_errors"), Ok(1));
    }
}
