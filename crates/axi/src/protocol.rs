//! Memory-mapped protocol/width adapters.
//!
//! The paper inserts two adapters in front of every AXI4-Lite slave
//! (the Xilinx DMA register file, the AXI_HWICAP): a data width
//! converter (64→32 bit) and a protocol converter (AXI4→AXI4-Lite)
//! (§III-B ②, §III-C). Both are pure pipeline stages on the
//! single-beat register path; their latency is what makes CPU accesses
//! to these slaves expensive. [`MmAdapter`] models the pair as one
//! stage with one latency on both the request and the response path.

use std::collections::VecDeque;

use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError, StateItem, StateValue};
use rvcap_sim::Cycle;

use crate::mm::{MasterPort, MmOp, MmReq, MmResp, SlavePort};

/// Encode a `(ready_at, item)` pipeline for a checkpoint.
fn pipe_to_state<T: StateItem>(pipe: &VecDeque<(Cycle, T)>) -> StateValue {
    StateValue::List(
        pipe.iter()
            .map(|(ready, item)| {
                let mut b = StateBlob::new("axi.delayed", 1);
                b.put_u64("ready_at", *ready);
                b.put("item", item.to_state());
                StateValue::Blob(Box::new(b))
            })
            .collect(),
    )
}

/// Inverse of [`pipe_to_state`].
fn pipe_from_state<T: StateItem>(
    v: &StateValue,
    ctx: &str,
) -> Result<VecDeque<(Cycle, T)>, StateError> {
    let values = match v {
        StateValue::List(values) => values,
        other => {
            return Err(StateError::Structure {
                tag: ctx.into(),
                detail: format!("pipeline is {}, expected list", other.kind()),
            })
        }
    };
    values
        .iter()
        .map(|v| {
            let b = v.as_blob(ctx)?;
            b.expect("axi.delayed", 1)?;
            Ok((b.get_u64("ready_at")?, T::from_state(b.get("item")?, ctx)?))
        })
        .collect()
}

/// A pipelined adapter on a memory-mapped path.
///
/// Forwards requests from `upstream` to `downstream` and responses
/// back, adding `latency` cycles each way. When `lite` is
/// set the adapter asserts AXI4-Lite semantics: burst requests are a
/// wiring bug and panic (the real converter would error; in this
/// workspace nothing ever legitimately bursts into a register file).
pub struct MmAdapter {
    name: String,
    upstream: SlavePort,
    downstream: MasterPort,
    latency: Cycle,
    lite: bool,
    req_pipe: VecDeque<(Cycle, MmReq)>,
    resp_pipe: VecDeque<(Cycle, MmResp)>,
}

impl MmAdapter {
    /// Combined width + protocol converter with the latencies used in
    /// the Ariane SoC model. The chain is deep: the 64→32 data-width
    /// converter, the AXI4→AXI4-Lite protocol converter (which must
    /// serialize the AW/W channels and wait out B), and the clock
    /// boundary register slices on both sides. 14 cycles each way is
    /// calibrated so a CPU store to the HWICAP keyhole costs what the
    /// paper measured (≈43 bus cycles of the ~48-cycle per-word cost
    /// behind the 8.23 MB/s figure).
    pub fn axi4_to_lite(
        name: impl Into<String>,
        upstream: SlavePort,
        downstream: MasterPort,
    ) -> Self {
        MmAdapter {
            name: name.into(),
            upstream,
            downstream,
            latency: 14,
            lite: true,
            req_pipe: VecDeque::new(),
            resp_pipe: VecDeque::new(),
        }
    }

    /// A plain register slice (full AXI4, bursts allowed).
    pub fn register_slice(
        name: impl Into<String>,
        upstream: SlavePort,
        downstream: MasterPort,
        latency: Cycle,
    ) -> Self {
        MmAdapter {
            name: name.into(),
            upstream,
            downstream,
            latency,
            lite: false,
            req_pipe: VecDeque::new(),
            resp_pipe: VecDeque::new(),
        }
    }
}

impl Component for MmAdapter {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        let cycle = ctx.cycle;
        // Responses upstream.
        if let Some(resp) = self.downstream.resp.try_pop(cycle) {
            self.resp_pipe.push_back((cycle + self.latency, resp));
        }
        if let Some(&(ready, resp)) = self.resp_pipe.front() {
            if ready <= cycle && self.upstream.resp.try_push(cycle, resp).is_ok() {
                self.resp_pipe.pop_front();
            }
        }
        // Requests downstream.
        if let Some(req) = self.upstream.req.try_pop(cycle) {
            if self.lite {
                assert!(
                    !matches!(req.op, MmOp::ReadBurst { .. }),
                    "{}: burst request on an AXI4-Lite path (addr {:#x})",
                    self.name,
                    req.addr
                );
            }
            self.req_pipe.push_back((cycle + self.latency, req));
        }
        if let Some(&(ready, req)) = self.req_pipe.front() {
            if ready <= cycle && self.downstream.req.try_push(cycle, req).is_ok() {
                self.req_pipe.pop_front();
            }
        }
    }

    fn busy(&self) -> bool {
        !self.req_pipe.is_empty() || !self.resp_pipe.is_empty()
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        if !self.upstream.req.is_empty() || !self.downstream.resp.is_empty() {
            return now;
        }
        // Pipe heads deliver at their ready cycle, then retry every
        // cycle while the destination FIFO refuses the push.
        let mut at = Cycle::MAX;
        let heads = [
            self.req_pipe.front().map(|&(ready, _)| ready),
            self.resp_pipe.front().map(|&(ready, _)| ready),
        ];
        for ready in heads.into_iter().flatten() {
            if ready <= now {
                return now;
            }
            at = at.min(ready);
        }
        at
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // Pipe-head deadlines are time-based and covered by the
        // post-tick hint; only new bus traffic needs a wake.
        self.upstream.req.subscribe_wake(waker.clone());
        self.downstream.resp.subscribe_wake(waker.clone());
    }

    fn save_state(&self) -> Option<StateBlob> {
        // Consumed channels: the upstream request FIFO and the
        // downstream response FIFO both drain into this adapter.
        let mut b = StateBlob::new("axi.mm_adapter", 1);
        b.put("upstream_req", self.upstream.req.save_state());
        b.put("downstream_resp", self.downstream.resp.save_state());
        b.put("req_pipe", pipe_to_state(&self.req_pipe));
        b.put("resp_pipe", pipe_to_state(&self.resp_pipe));
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("axi.mm_adapter", 1)?;
        self.upstream
            .req
            .restore_state(state.get("upstream_req")?)?;
        self.downstream
            .resp
            .restore_state(state.get("downstream_resp")?)?;
        self.req_pipe = pipe_from_state(state.get("req_pipe")?, "axi.mm_adapter")?;
        self.resp_pipe = pipe_from_state(state.get("resp_pipe")?, "axi.mm_adapter")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::RamSlave;
    use crate::mm::link;
    use rvcap_sim::{Freq, Simulator};

    fn adapter_system(lite: bool) -> (Simulator, MasterPort) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (cpu_m, cpu_s) = link("cpu", 2);
        let (dev_m, dev_s) = link("dev", 2);
        let adapter = if lite {
            MmAdapter::axi4_to_lite("adapter", cpu_s, dev_m)
        } else {
            MmAdapter::register_slice("adapter", cpu_s, dev_m, 1)
        };
        let ram = RamSlave::new("ram", dev_s, 0x4000_0000, 0x100);
        sim.register(Box::new(adapter));
        sim.register(Box::new(ram));
        (sim, cpu_m)
    }

    #[test]
    fn lite_adapter_round_trip_and_latency() {
        let (mut sim, cpu) = adapter_system(true);
        cpu.try_issue(0, MmReq::write(0x4000_0000, 0x77, 1))
            .unwrap();
        let mut got = None;
        let cycles = sim
            .run_until(100, || {
                got = cpu.resp.force_pop();
                got.is_some()
            })
            .unwrap();
        assert!(got.unwrap().last);
        // 4 req + service + 4 resp plus port hops: noticeably more
        // than a direct connection.
        assert!(cycles >= 9, "round trip too fast: {cycles}");
    }

    #[test]
    fn register_slice_is_faster_than_lite_path() {
        let time = |lite| {
            let (mut sim, cpu) = adapter_system(lite);
            cpu.try_issue(0, MmReq::read(0x4000_0000, 4)).unwrap();
            sim.run_until(100, || cpu.resp.force_pop().is_some())
                .unwrap()
        };
        assert!(time(false) < time(true));
    }

    #[test]
    #[should_panic(expected = "burst request on an AXI4-Lite path")]
    fn lite_adapter_rejects_bursts() {
        let (mut sim, cpu) = adapter_system(true);
        cpu.try_issue(0, MmReq::read_burst(0x4000_0000, 4, 4))
            .unwrap();
        sim.step_n(10);
    }

    #[test]
    fn register_slice_passes_bursts() {
        let (mut sim, cpu) = adapter_system(false);
        cpu.try_issue(0, MmReq::read_burst(0x4000_0000, 4, 8))
            .unwrap();
        let mut beats = 0;
        sim.run_until(100, || {
            if let Some(r) = cpu.resp.force_pop() {
                assert!(!r.error);
                beats += 1;
                return r.last;
            }
            false
        })
        .unwrap();
        assert_eq!(beats, 4);
    }

    #[test]
    fn back_to_back_requests_pipeline() {
        let (mut sim, cpu) = adapter_system(true);
        // Two writes issued on consecutive cycles both complete.
        cpu.try_issue(0, MmReq::write(0x4000_0000, 1, 1)).unwrap();
        sim.step();
        cpu.try_issue(1, MmReq::write(0x4000_0001, 2, 1)).unwrap();
        let mut acks = 0;
        sim.run_until(100, || {
            if cpu.resp.force_pop().is_some() {
                acks += 1;
            }
            acks == 2
        })
        .unwrap();
    }
}
