//! Sanitizer payload descriptions and wiring helpers for AXI traffic.
//!
//! `rvcap-sim`'s sanitizer is payload-agnostic: it checks whatever a
//! watched channel's element type reports via the `Payload` trait.
//! This module teaches it the AXI vocabulary — [`AxisBeat`] stream
//! framing, [`MmReq`]/[`MmResp`] transaction pairing — and provides
//! the wiring helpers the SoC builder uses to put a whole bus under
//! watch:
//!
//! * [`watch_stream`] / [`watch_stream_gated`] — an AXI-Stream channel
//!   (the gated variant also flags traffic while a decouple signal is
//!   high, the isolator invariant);
//! * [`watch_mm_link`] — a request/response port pair as one tracked
//!   link with an advertised maximum burst length.
//!
//! The sanitizer is the always-on, whole-system protocol checker: it
//! records instead of panicking and costs zero simulated cycles.

use rvcap_sim::sanitizer::{ChannelKind, Payload, PayloadMeta, Sanitizer};
use rvcap_sim::{Fifo, Signal};

use crate::mm::{MmOp, MmReq, MmResp};
use crate::stream::AxisBeat;

impl Payload for AxisBeat {
    fn meta(&self) -> PayloadMeta {
        PayloadMeta::Stream {
            bytes: self.bytes,
            last: self.last,
        }
    }
}

impl Payload for MmReq {
    fn meta(&self) -> PayloadMeta {
        match self.op {
            MmOp::Read { .. } => PayloadMeta::MmRequest {
                beats: 1,
                posted: false,
            },
            MmOp::ReadBurst { beats, .. } => PayloadMeta::MmRequest {
                beats,
                posted: false,
            },
            MmOp::Write { posted, .. } => PayloadMeta::MmRequest { beats: 1, posted },
        }
    }
}

impl Payload for MmResp {
    fn meta(&self) -> PayloadMeta {
        PayloadMeta::MmResponse {
            last: self.last,
            error: self.error,
        }
    }
}

/// Watch an AXI-Stream channel (framing + rate + capacity rules).
pub fn watch_stream(san: &Sanitizer, channel: &Fifo<AxisBeat>) {
    san.watch(channel, ChannelKind::Stream);
}

/// Watch an AXI-Stream channel behind a decouple gate: pushes while
/// `gate` is high violate the isolator invariant.
pub fn watch_stream_gated(san: &Sanitizer, channel: &Fifo<AxisBeat>, gate: Signal<bool>) {
    san.watch_gated(channel, gate);
}

/// Watch a memory-mapped link (a request/response channel pair) that
/// advertises at most `max_burst` beats per transaction. The two
/// FIFOs must be the same link's — pairing is tracked per link.
pub fn watch_mm_link(san: &Sanitizer, req: &Fifo<MmReq>, resp: &Fifo<MmResp>, max_burst: u16) {
    let link = san.mm_link(max_burst);
    san.watch(req, ChannelKind::MmReq { link });
    san.watch(resp, ChannelKind::MmResp { link });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isolator::StreamIsolator;
    use crate::mm::link;
    use crate::stream::pack_bytes;
    use proptest::prelude::*;
    use rvcap_sim::sanitizer::ViolationKind;
    use rvcap_sim::{Freq, Simulator};

    #[test]
    fn legal_mm_traffic_through_a_link_is_clean() {
        let san = Sanitizer::new();
        let (m, s) = link("t", 4);
        watch_mm_link(&san, &m.req, &m.resp, 16);
        // Single read.
        m.req.force_push(MmReq::read(0x10, 4));
        assert!(s.req.force_pop().is_some());
        s.resp.force_push(MmResp::data(7, 4, true));
        assert!(m.resp.force_pop().is_some());
        // Posted write: no response owed.
        m.req.force_push(MmReq::write_posted(0x20, 1, 4));
        assert!(s.req.force_pop().is_some());
        // Non-posted write: one ack.
        m.req.force_push(MmReq::write(0x28, 2, 4));
        assert!(s.req.force_pop().is_some());
        s.resp.force_push(MmResp::write_ack());
        // 16-beat burst at exactly the advertised maximum.
        m.req.force_push(MmReq::read_burst(0x1000, 16, 8));
        for i in 0..16 {
            s.resp.force_push(MmResp::data(i, 8, i == 15));
        }
        assert_eq!(san.violation_count(), 0, "{:?}", san.violations());
    }

    #[test]
    fn over_length_burst_and_zero_length_are_flagged() {
        let san = Sanitizer::new();
        let (m, _s) = link("t", 4);
        watch_mm_link(&san, &m.req, &m.resp, 16);
        // Invalid ops are constructible via the public struct fields,
        // bypassing the constructors' debug assertions — exactly the
        // misuse the sanitizer exists to catch.
        m.req.force_push(MmReq {
            addr: 0x0,
            op: MmOp::ReadBurst {
                beats: 17,
                beat_bytes: 8,
            },
        });
        assert_eq!(san.count_of(ViolationKind::BurstTooLong), 1);
        m.req.force_pop();
        m.req.force_push(MmReq {
            addr: 0x0,
            op: MmOp::ReadBurst {
                beats: 0,
                beat_bytes: 8,
            },
        });
        assert_eq!(san.count_of(ViolationKind::ZeroLength), 1);
    }

    #[test]
    fn response_before_request_is_flagged() {
        let san = Sanitizer::new();
        let (m, _s) = link("t", 4);
        watch_mm_link(&san, &m.req, &m.resp, 16);
        m.resp.force_push(MmResp::data(1, 4, true));
        assert_eq!(san.count_of(ViolationKind::UnsolicitedResponse), 1);
    }

    #[test]
    fn burst_beat_ordering_is_checked() {
        let san = Sanitizer::new();
        let (m, _s) = link("t", 4);
        watch_mm_link(&san, &m.req, &m.resp, 16);
        m.req.force_push(MmReq::read_burst(0x0, 4, 8));
        m.resp.force_push(MmResp::data(0, 8, false));
        m.resp.force_push(MmResp::data(1, 8, true)); // TLAST 2 beats early
        assert_eq!(san.count_of(ViolationKind::BeatOrdering), 1);

        // After resync, a fresh transaction pairs cleanly again.
        m.req.force_push(MmReq::read(0x8, 8));
        m.resp.force_push(MmResp::data(2, 8, true));
        assert_eq!(san.violation_count(), 1);
    }

    #[test]
    fn decoupled_isolator_input_stays_silent_under_legal_use() {
        // An isolator whose upstream keeps pushing while decoupled is
        // legal *upstream* (beats park in the input FIFO); the gated
        // invariant applies to the downstream channel the isolator
        // guards — nothing may cross it while the gate is high.
        let san = Sanitizer::new();
        let up: Fifo<AxisBeat> = Fifo::new("up", 8);
        let dn: Fifo<AxisBeat> = Fifo::new("dn", 8);
        let dec = Signal::new(false);
        watch_stream(&san, &up);
        watch_stream_gated(&san, &dn, dec.clone());
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        sim.register(Box::new(StreamIsolator::new(
            "iso",
            up.clone(),
            dn.clone(),
            dec.clone(),
        )));
        sim.attach_sanitizer(san.clone());

        // Coupled: beats flow through.
        up.force_push(AxisBeat::wide(1, false));
        up.force_push(AxisBeat::wide(2, false));
        sim.step_n(4);
        assert_eq!(dn.total_pushed(), 2);

        // Decoupled: beats park upstream, the guarded channel stays
        // silent, and the sanitizer agrees.
        dec.set(true);
        up.force_push(AxisBeat::wide(3, false));
        sim.step_n(10);
        assert_eq!(dn.total_pushed(), 2, "no beat crossed while decoupled");
        assert_eq!(san.violation_count(), 0, "{:?}", san.violations());

        // A buggy component that pushes through the gate anyway is
        // caught immediately.
        dn.force_push(AxisBeat::wide(9, false));
        assert_eq!(san.count_of(ViolationKind::DecoupledTraffic), 1);
    }

    proptest! {
        /// Random legal traffic through a monitored stream channel
        /// never trips the sanitizer: packets of arbitrary byte
        /// lengths, chunked by `pack_bytes` (full-width beats with a
        /// short TLAST tail), pushed and popped at one op per cycle.
        #[test]
        fn random_legal_stream_traffic_is_clean(
            lens in proptest::collection::vec(1usize..64, 1..8),
            depth in 2usize..16,
        ) {
            let san = Sanitizer::new();
            let chan: Fifo<AxisBeat> = Fifo::new("s", depth);
            watch_stream(&san, &chan);
            let mut beats: std::collections::VecDeque<AxisBeat> = lens
                .iter()
                .flat_map(|&n| pack_bytes(&vec![0xA5; n], 8))
                .collect();
            let mut cycle = 0u64;
            while !(beats.is_empty() && chan.is_empty()) {
                san.begin_cycle(cycle);
                if let Some(&b) = beats.front() {
                    if chan.try_push(cycle, b).is_ok() {
                        beats.pop_front();
                    }
                }
                // Drain every other cycle so occupancy exercises the
                // full depth range.
                if cycle.is_multiple_of(2) {
                    chan.try_pop(cycle);
                }
                san.end_cycle();
                cycle += 1;
            }
            prop_assert_eq!(san.violation_count(), 0);
        }

        /// Random legal single-beat and burst transactions through a
        /// monitored link never trip the sanitizer.
        #[test]
        fn random_legal_mm_traffic_is_clean(
            ops in proptest::collection::vec((1u16..=16, any::<bool>()), 1..12),
        ) {
            let san = Sanitizer::new();
            let (m, s) = link("t", 4);
            watch_mm_link(&san, &m.req, &m.resp, 16);
            for (beats, write) in ops {
                if write {
                    m.req.force_push(MmReq::write(0x0, 1, 4));
                    prop_assert!(s.req.force_pop().is_some());
                    s.resp.force_push(MmResp::write_ack());
                    prop_assert!(m.resp.force_pop().is_some());
                } else {
                    m.req.force_push(MmReq::read_burst(0x0, beats, 8));
                    prop_assert!(s.req.force_pop().is_some());
                    for i in 0..beats {
                        s.resp.force_push(MmResp::data(0, 8, i + 1 == beats));
                        prop_assert!(m.resp.force_pop().is_some());
                    }
                }
            }
            prop_assert_eq!(san.violation_count(), 0);
        }
    }
}
