//! The DDR memory controller model.
//!
//! A 64-bit port at the fabric clock: peak 800 MB/s — comfortably
//! above the ICAP's 400 MB/s, which is why the RV-CAP datapath is
//! ICAP-limited, not memory-limited. The model keeps the three
//! first-order effects of a real controller:
//!
//! * **first-access latency** (row activate + CAS) on a fresh burst;
//! * **back-to-back streaming**: consecutive bursts of an open stream
//!   flow at one 8-byte beat per cycle with no inter-burst gap (the
//!   DMA's sequential fetch is the textbook row-buffer-friendly
//!   pattern);
//! * **refresh**: every `refresh_interval` cycles the controller
//!   stalls for `refresh_penalty` cycles (tREFI/tRFC), a ~0.5 %
//!   bandwidth tax. With the DMA's 2:1 supply surplus the stream
//!   switch's skid buffering hides refresh from the ICAP, but it is
//!   visible to latency-sensitive probes.
//!
//! Reads and writes use independent engines, mirroring AXI's separate
//! R and W channels — in acceleration mode the DMA reads the input
//! image while writing filter output without the two serializing.

use std::cell::RefCell;
use std::rc::Rc;

use rvcap_axi::mm::{MmOp, MmReq, MmResp, SlavePort};
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError, StateItem, StateValue};
use rvcap_sim::Cycle;
use std::sync::Arc;

/// DDR timing/geometry configuration.
#[derive(Debug, Clone, Copy)]
pub struct DdrConfig {
    /// Memory size in bytes.
    pub size: u64,
    /// First-beat latency of a fresh read burst (cycles).
    pub read_latency: Cycle,
    /// Write acceptance latency (posted; cycles to the B response).
    pub write_latency: Cycle,
    /// Cycles between refresh stalls (tREFI at 100 MHz ≈ 780).
    pub refresh_interval: Cycle,
    /// Length of each refresh stall (cycles).
    pub refresh_penalty: Cycle,
}

impl Default for DdrConfig {
    fn default() -> Self {
        DdrConfig {
            size: crate::map::DDR_DEFAULT_SIZE,
            read_latency: 22,
            write_latency: 6,
            refresh_interval: 780,
            refresh_penalty: 4,
        }
    }
}

/// Shared backdoor handle to DDR contents (zero-time access for
/// initialization and verification — the simulation analogue of a
/// testbench poking memory).
#[derive(Debug, Clone)]
pub struct DdrHandle {
    base: u64,
    bytes: Rc<RefCell<Vec<u8>>>,
}

impl DdrHandle {
    /// Copy `data` into DDR at absolute address `addr`.
    pub fn write_bytes(&self, addr: u64, data: &[u8]) {
        let off = (addr - self.base) as usize;
        self.bytes.borrow_mut()[off..off + data.len()].copy_from_slice(data);
    }

    /// Read `len` bytes at absolute address `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let off = (addr - self.base) as usize;
        self.bytes.borrow()[off..off + len].to_vec()
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.borrow().len()
    }
}

enum ReadState {
    Idle,
    /// Waiting out first-beat latency.
    Latency {
        until: Cycle,
        req: MmReq,
    },
    /// Streaming burst beats.
    Streaming {
        addr: u64,
        beat_bytes: u8,
        remaining: u16,
    },
}

/// The DDR controller component.
pub struct Ddr {
    name: String,
    port: SlavePort,
    base: u64,
    bytes: Rc<RefCell<Vec<u8>>>,
    cfg: DdrConfig,
    read: ReadState,
    /// Posted-write pipeline: writes commit (and ack) in order, one
    /// per cycle, each `write_latency` after acceptance.
    write_pipe: std::collections::VecDeque<(Cycle, MmReq)>,
    refresh_at: Cycle,
    refresh_until: Cycle,
    /// End address of the last completed/streaming read (row-buffer
    /// hit detection for sequential bursts).
    last_read_end: Option<u64>,
    /// Reads served / beats streamed (bench counters).
    beats_read: u64,
    beats_written: u64,
    refreshes: u64,
}

impl Ddr {
    /// Create a DDR at `base` with `cfg`.
    pub fn new(
        name: impl Into<String>,
        port: SlavePort,
        base: u64,
        cfg: DdrConfig,
    ) -> (Self, DdrHandle) {
        let bytes = Rc::new(RefCell::new(vec![0u8; cfg.size as usize]));
        let handle = DdrHandle {
            base,
            bytes: bytes.clone(),
        };
        (
            Ddr {
                name: name.into(),
                port,
                base,
                bytes,
                cfg,
                read: ReadState::Idle,
                write_pipe: std::collections::VecDeque::new(),
                refresh_at: cfg.refresh_interval,
                refresh_until: 0,
                last_read_end: None,
                beats_read: 0,
                beats_written: 0,
                refreshes: 0,
            },
            handle,
        )
    }

    /// Refresh stalls taken so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    fn read_u64(&self, addr: u64, bytes: u8) -> u64 {
        let off = (addr - self.base) as usize;
        let mem = self.bytes.borrow();
        let mut buf = [0u8; 8];
        buf[..bytes as usize].copy_from_slice(&mem[off..off + bytes as usize]);
        u64::from_le_bytes(buf)
    }

    fn in_bounds(&self, addr: u64, len: u64) -> bool {
        addr >= self.base && addr - self.base + len <= self.cfg.size
    }
}

impl Component for Ddr {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        let cycle = ctx.cycle;

        // Refresh bookkeeping: a periodic all-stop window.
        if cycle >= self.refresh_at {
            self.refresh_until = cycle + self.cfg.refresh_penalty;
            self.refresh_at = cycle + self.cfg.refresh_interval;
            self.refreshes += 1;
        }
        let refreshing = cycle < self.refresh_until;

        // Write engine: commit/ack the oldest posted write, one per
        // cycle (writes pipeline — a real controller's write queue).
        if !refreshing {
            if let Some(&(done, req)) = self.write_pipe.front() {
                if done <= cycle {
                    if let MmOp::Write {
                        data,
                        bytes,
                        posted,
                    } = req.op
                    {
                        let ok = self.in_bounds(req.addr, bytes as u64);
                        if ok {
                            let off = (req.addr - self.base) as usize;
                            self.bytes.borrow_mut()[off..off + bytes as usize]
                                .copy_from_slice(&data.to_le_bytes()[..bytes as usize]);
                        }
                        if posted {
                            // No B response: commit and move on. An
                            // out-of-bounds posted write is dropped
                            // (and would be caught by the crossbar's
                            // decode in any real configuration).
                            if ok {
                                self.beats_written += 1;
                            }
                            self.write_pipe.pop_front();
                        } else {
                            let resp = if ok {
                                MmResp::write_ack()
                            } else {
                                MmResp::err()
                            };
                            if self.port.try_respond(cycle, resp).is_ok() {
                                if ok {
                                    self.beats_written += 1;
                                }
                                self.write_pipe.pop_front();
                            }
                        }
                    }
                }
            }
        }

        // Read engine.
        if !refreshing {
            match std::mem::replace(&mut self.read, ReadState::Idle) {
                ReadState::Idle => {}
                ReadState::Latency { until, req } => {
                    if until <= cycle {
                        match req.op {
                            MmOp::Read { bytes } => {
                                if self.in_bounds(req.addr, bytes as u64) {
                                    let v = self.read_u64(req.addr, bytes);
                                    if self
                                        .port
                                        .try_respond(cycle, MmResp::data(v, bytes, true))
                                        .is_ok()
                                    {
                                        self.beats_read += 1;
                                    } else {
                                        self.read = ReadState::Latency { until, req };
                                    }
                                } else if self.port.try_respond(cycle, MmResp::err()).is_err() {
                                    // The response channel took one push
                                    // this cycle already (a write ack):
                                    // retry, like the in-bounds arm.
                                    self.read = ReadState::Latency { until, req };
                                }
                            }
                            MmOp::ReadBurst { beats, beat_bytes } => {
                                if self.in_bounds(req.addr, beats as u64 * beat_bytes as u64) {
                                    self.read = ReadState::Streaming {
                                        addr: req.addr,
                                        beat_bytes,
                                        remaining: beats,
                                    };
                                    // First beat flows this very cycle.
                                    self.stream_beat(cycle);
                                } else if self.port.try_respond(cycle, MmResp::err()).is_err() {
                                    self.read = ReadState::Latency { until, req };
                                }
                            }
                            MmOp::Write { .. } => unreachable!("write in read engine"),
                        }
                    } else {
                        self.read = ReadState::Latency { until, req };
                    }
                }
                s @ ReadState::Streaming { .. } => {
                    self.read = s;
                    self.stream_beat(cycle);
                }
            }
        }

        // Accept new requests: writes go to the (single-entry) write
        // engine, reads to the read engine. One request per cycle from
        // the port; engines run concurrently.
        let can_take_write = self.write_pipe.len() < 8;
        let can_take_read = matches!(self.read, ReadState::Idle);
        if can_take_write || can_take_read {
            if let Some(req) = self.port.req.peek() {
                let is_write = matches!(req.op, MmOp::Write { .. });
                if (is_write && can_take_write) || (!is_write && can_take_read) {
                    let req = self.port.try_take(cycle).expect("peeked");
                    if is_write {
                        self.write_pipe
                            .push_back((cycle + self.cfg.write_latency, req));
                    } else {
                        // Row-buffer hit: a burst continuing exactly
                        // where the previous one ended streams with no
                        // fresh activate/CAS latency — the DMA's
                        // sequential fetch rides an open row.
                        let sequential = self.last_read_end == Some(req.addr);
                        self.read = ReadState::Latency {
                            until: if sequential {
                                cycle
                            } else {
                                cycle + self.cfg.read_latency
                            },
                            req,
                        };
                    }
                }
            }
        }
    }

    fn busy(&self) -> bool {
        !matches!(self.read, ReadState::Idle) || !self.write_pipe.is_empty()
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        if !self.port.req.is_empty() {
            return now;
        }
        // The refresh schedule is observable work (it moves
        // `refresh_at` forward and shifts future stalls), so its next
        // edge is always a wake-up candidate — the controller never
        // declares unbounded idleness.
        let mut at = self.refresh_at.max(now);
        match &self.read {
            ReadState::Idle => {}
            ReadState::Latency { until, .. } => at = at.min((*until).max(now)),
            // A streaming burst moves a beat (or retries a full
            // response FIFO) every cycle.
            ReadState::Streaming { .. } => return now,
        }
        if let Some(&(done, _)) = self.write_pipe.front() {
            at = at.min(done.max(now));
        }
        at
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // Refresh edges, read latency, and write drains are all
        // time-based deadlines covered by the post-tick hint; the only
        // external input is the request channel.
        self.port.req.subscribe_wake(waker.clone());
    }

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("soc.ddr", 1);
        b.put("port_req", self.port.req.save_state());
        b.put(
            "mem",
            StateValue::Bytes(Arc::new(self.bytes.borrow().clone())),
        );
        let (read, until, req) = match &self.read {
            ReadState::Idle => ("idle", None, StateValue::OptU64(None)),
            ReadState::Latency { until, req } => ("latency", Some(*until), req.to_state()),
            ReadState::Streaming {
                addr,
                beat_bytes,
                remaining,
            } => {
                let mut s = StateBlob::new("soc.ddr.stream", 1);
                s.put_u64("addr", *addr);
                s.put_u64("beat_bytes", *beat_bytes as u64);
                s.put_u64("remaining", *remaining as u64);
                ("streaming", None, StateValue::Blob(Box::new(s)))
            }
        };
        b.put_str("read", read);
        b.put_opt_u64("read_until", until);
        b.put("read_req", req);
        b.put_list(
            "write_pipe",
            self.write_pipe
                .iter()
                .map(|(done, req)| {
                    let mut w = StateBlob::new("soc.ddr.write", 1);
                    w.put_u64("done", *done);
                    w.put("req", req.to_state());
                    StateValue::Blob(Box::new(w))
                })
                .collect(),
        );
        b.put_u64("refresh_at", self.refresh_at);
        b.put_u64("refresh_until", self.refresh_until);
        b.put_opt_u64("last_read_end", self.last_read_end);
        b.put_u64("beats_read", self.beats_read);
        b.put_u64("beats_written", self.beats_written);
        b.put_u64("refreshes", self.refreshes);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("soc.ddr", 1)?;
        let mem = state.get_bytes("mem")?;
        if mem.len() as u64 != self.cfg.size {
            return Err(state.structure_error(format!(
                "memory size mismatch: instance {}, state {}",
                self.cfg.size,
                mem.len()
            )));
        }
        self.port.req.restore_state(state.get("port_req")?)?;
        self.bytes.borrow_mut().copy_from_slice(mem);
        self.read = match state.get_str("read")? {
            "idle" => ReadState::Idle,
            "latency" => ReadState::Latency {
                until: state
                    .get_opt_u64("read_until")?
                    .ok_or_else(|| state.structure_error("latency state without read_until"))?,
                req: MmReq::from_state(state.get("read_req")?, "soc.ddr")?,
            },
            "streaming" => {
                let s = state.get("read_req")?.as_blob("soc.ddr")?;
                s.expect("soc.ddr.stream", 1)?;
                ReadState::Streaming {
                    addr: s.get_u64("addr")?,
                    beat_bytes: s.get_u64("beat_bytes")? as u8,
                    remaining: s.get_u64("remaining")? as u16,
                }
            }
            other => return Err(state.structure_error(format!("unknown read state {other:?}"))),
        };
        self.write_pipe.clear();
        for entry in state.get_list("write_pipe")? {
            let w = entry.as_blob("soc.ddr")?;
            w.expect("soc.ddr.write", 1)?;
            self.write_pipe.push_back((
                w.get_u64("done")?,
                MmReq::from_state(w.get("req")?, "soc.ddr")?,
            ));
        }
        self.refresh_at = state.get_u64("refresh_at")?;
        self.refresh_until = state.get_u64("refresh_until")?;
        self.last_read_end = state.get_opt_u64("last_read_end")?;
        self.beats_read = state.get_u64("beats_read")?;
        self.beats_written = state.get_u64("beats_written")?;
        self.refreshes = state.get_u64("refreshes")?;
        Ok(())
    }
}

impl Ddr {
    fn stream_beat(&mut self, cycle: Cycle) {
        if let ReadState::Streaming {
            addr,
            beat_bytes,
            remaining,
        } = self.read
        {
            if remaining == 0 {
                self.read = ReadState::Idle;
                return;
            }
            let v = self.read_u64(addr, beat_bytes);
            let last = remaining == 1;
            if self
                .port
                .try_respond(cycle, MmResp::data(v, beat_bytes, last))
                .is_ok()
            {
                self.beats_read += 1;
                self.last_read_end = Some(addr + beat_bytes as u64);
                self.read = if last {
                    ReadState::Idle
                } else {
                    ReadState::Streaming {
                        addr: addr + beat_bytes as u64,
                        beat_bytes,
                        remaining: remaining - 1,
                    }
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::DDR_BASE;
    use rvcap_axi::mm::link;
    use rvcap_sim::{Freq, Simulator};

    fn rig(cfg: DdrConfig) -> (Simulator, rvcap_axi::MasterPort, DdrHandle) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (m, s) = link("ddr", 8);
        let (ddr, handle) = Ddr::new("ddr", s, DDR_BASE, cfg);
        sim.register(Box::new(ddr));
        (sim, m, handle)
    }

    fn small_cfg() -> DdrConfig {
        DdrConfig {
            size: 1 << 20,
            ..DdrConfig::default()
        }
    }

    #[test]
    fn backdoor_and_bus_agree() {
        let (mut sim, m, h) = rig(small_cfg());
        h.write_bytes(DDR_BASE + 64, &[1, 2, 3, 4, 5, 6, 7, 8]);
        m.try_issue(0, MmReq::read(DDR_BASE + 64, 8)).unwrap();
        let mut got = None;
        sim.run_until(200, || {
            got = m.resp.force_pop();
            got.is_some()
        })
        .unwrap();
        assert_eq!(got.unwrap().data, 0x0807_0605_0403_0201);
    }

    #[test]
    fn write_then_read() {
        let (mut sim, m, h) = rig(small_cfg());
        m.try_issue(0, MmReq::write(DDR_BASE, 0xDEAD_BEEF, 4))
            .unwrap();
        sim.run_until(200, || m.resp.force_pop().is_some()).unwrap();
        assert_eq!(h.read_bytes(DDR_BASE, 4), vec![0xEF, 0xBE, 0xAD, 0xDE]);
    }

    #[test]
    fn burst_streams_one_beat_per_cycle() {
        let (mut sim, m, h) = rig(small_cfg());
        let data: Vec<u8> = (0..128).collect();
        h.write_bytes(DDR_BASE, &data);
        m.try_issue(0, MmReq::read_burst(DDR_BASE, 16, 8)).unwrap();
        let mut beats = Vec::new();
        let mut first_at = None;
        let mut last_at = None;
        for _ in 0..200 {
            sim.step();
            while let Some(r) = m.resp.force_pop() {
                if first_at.is_none() {
                    first_at = Some(sim.now());
                }
                last_at = Some(sim.now());
                beats.push(r);
            }
            if beats.len() == 16 {
                break;
            }
        }
        assert_eq!(beats.len(), 16);
        assert!(beats[15].last);
        // 16 beats delivered over ~15 cycles (1/cycle).
        let span = last_at.unwrap() - first_at.unwrap();
        assert!(span <= 17, "streaming span {span}");
        // First beat arrives after the configured latency.
        assert!(first_at.unwrap() >= small_cfg().read_latency);
    }

    #[test]
    fn reads_and_writes_proceed_concurrently() {
        let (mut sim, m, h) = rig(small_cfg());
        h.write_bytes(DDR_BASE, &vec![7u8; 256]);
        m.try_issue(0, MmReq::read_burst(DDR_BASE, 16, 8)).unwrap();
        sim.step();
        m.try_issue(1, MmReq::write(DDR_BASE + 1024, 1, 8)).unwrap();
        let mut read_beats = 0;
        let mut write_acked = false;
        for _ in 0..200 {
            sim.step();
            while let Some(r) = m.resp.force_pop() {
                if r.bytes == 0 {
                    write_acked = true;
                } else {
                    read_beats += 1;
                }
            }
            if read_beats == 16 && write_acked {
                break;
            }
        }
        assert_eq!(read_beats, 16);
        assert!(write_acked);
    }

    #[test]
    fn refresh_fires_periodically() {
        let cfg = small_cfg();
        let (mut sim, _m, _h) = rig(cfg);
        sim.step_n(cfg.refresh_interval * 5 + 10);
        // Can't reach the component; verified indirectly by the
        // sustained-throughput test below instead. This test pins the
        // configuration default.
        assert_eq!(cfg.refresh_interval, 780);
        assert_eq!(cfg.refresh_penalty, 4);
    }

    #[test]
    fn out_of_bounds_access_errors() {
        let (mut sim, m, _h) = rig(small_cfg());
        m.try_issue(0, MmReq::read(DDR_BASE + (1 << 20), 8))
            .unwrap();
        let mut got = None;
        sim.run_until(200, || {
            got = m.resp.force_pop();
            got.is_some()
        })
        .unwrap();
        assert!(got.unwrap().error);
    }

    #[test]
    fn out_of_bounds_read_error_survives_a_same_cycle_write_ack() {
        // A non-posted write issued `gap` cycles after an out-of-range
        // read: at gap 16 its ack lands in the cycle the read's error
        // is due, and the response channel takes one push per cycle.
        // Pre-fix the error was dropped and the master waited forever.
        for gap in 0..40u64 {
            for read in [
                MmReq::read(DDR_BASE + (1 << 20), 8),
                MmReq::read_burst(DDR_BASE + (1 << 20), 4, 8),
            ] {
                let (mut sim, m, _h) = rig(small_cfg());
                m.try_issue(0, read).unwrap();
                let (mut errors, mut acks) = (0, 0);
                let mut write_pending = true;
                for _ in 0..200 {
                    // The request channel takes one push per cycle, so
                    // a gap-0 write issues a cycle late.
                    if write_pending && sim.now() >= gap {
                        write_pending = m
                            .try_issue(sim.now(), MmReq::write(DDR_BASE, 1, 8))
                            .is_err();
                    }
                    sim.step();
                    while let Some(r) = m.resp.force_pop() {
                        if r.error {
                            errors += 1;
                        } else {
                            acks += 1;
                        }
                    }
                }
                assert_eq!((errors, acks), (1, 1), "gap {gap}, {read:?}");
            }
        }
    }

    #[test]
    fn sustained_burst_bandwidth_near_8_bytes_per_cycle() {
        let (mut sim, m, h) = rig(small_cfg());
        h.write_bytes(DDR_BASE, &vec![1u8; 64 * 1024]);
        let bursts = 256u64; // 256 × 16 × 8 = 32 KiB
        let mut issued = 0u64;
        let mut beats = 0u64;
        let start = sim.now();
        while beats < bursts * 16 {
            let now = sim.now();
            if issued < bursts
                && m.try_issue(now, MmReq::read_burst(DDR_BASE + issued * 128, 16, 8))
                    .is_ok()
            {
                issued += 1;
            }
            while m.resp.force_pop().is_some() {
                beats += 1;
            }
            sim.step();
            assert!(sim.now() - start < 100_000, "stalled");
        }
        let cycles = sim.now() - start;
        let bytes = bursts * 128;
        let bpc = bytes as f64 / cycles as f64;
        // ≥ 7.5 B/cycle: streaming with only refresh + initial latency
        // overhead.
        assert!(bpc > 7.5, "only {bpc:.2} B/cycle over {cycles} cycles");
    }
}
