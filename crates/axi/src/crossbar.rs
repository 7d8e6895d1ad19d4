//! N-master × M-slave AXI crossbar with address decode, round-robin
//! arbitration, pipelined latency, and in-order response routing.
//!
//! Matches the role of the 64-bit AXI-4 crossbars in the paper's SoC
//! (the main system crossbar of Fig. 1 and the additional crossbar
//! between the RV-CAP DMA and the DDR controller of Fig. 2).

use std::collections::VecDeque;

use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError, StateItem, StateValue};
use rvcap_sim::{Cycle, PagedBytes};

use crate::mm::{MasterPort, MmOp, MmReq, MmResp, SlavePort};

/// Encode one pipelined item for a checkpoint.
fn delayed_to_state<T: StateItem>(d: &Delayed<T>) -> StateValue {
    let mut b = StateBlob::new("axi.delayed", 1);
    b.put_u64("ready_at", d.ready_at);
    b.put("item", d.item.to_state());
    StateValue::Blob(Box::new(b))
}

/// Decode a pipeline saved by [`delayed_to_state`] into `out`.
fn delayed_from_state<T: StateItem>(
    values: &[StateValue],
    ctx: &str,
    out: &mut VecDeque<Delayed<T>>,
) -> Result<(), StateError> {
    out.clear();
    for v in values {
        let b = v.as_blob(ctx)?;
        b.expect("axi.delayed", 1)?;
        out.push_back(Delayed {
            ready_at: b.get_u64("ready_at")?,
            item: T::from_state(b.get("item")?, ctx)?,
        });
    }
    Ok(())
}

/// An address window owned by one slave port.
#[derive(Debug, Clone)]
pub struct SlaveRegion {
    /// Region name (diagnostics).
    pub name: String,
    /// First byte address of the window.
    pub base: u64,
    /// Window size in bytes.
    pub size: u64,
    /// Set by [`SlaveRegion::behind_lite_converter`].
    behind_lite_converter: bool,
}

impl SlaveRegion {
    /// Define a region.
    pub fn new(name: impl Into<String>, base: u64, size: u64) -> Self {
        assert!(size > 0, "slave region must be non-empty");
        let r = SlaveRegion {
            name: name.into(),
            base,
            size,
            behind_lite_converter: false,
        };
        assert!(
            r.base.checked_add(r.size - 1).is_some(),
            "region {} wraps the address space",
            r.name
        );
        r
    }

    /// Put the slave, an AXI4-Lite register file, behind the 64→32
    /// width converter and the AXI4→AXI4-Lite protocol converter: its
    /// lane adds [`Crossbar::LITE_LATENCY`] cycles on the request path
    /// and one more on the response path.
    pub fn behind_lite_converter(mut self) -> Self {
        self.behind_lite_converter = true;
        self
    }

    /// Does this window contain `addr`?
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr - self.base < self.size
    }

    /// Do two windows overlap?
    pub fn overlaps(&self, other: &SlaveRegion) -> bool {
        self.base < other.base + other.size && other.base < self.base + self.size
    }
}

/// In-flight item delayed by the crossbar pipeline.
#[derive(Debug)]
struct Delayed<T> {
    ready_at: Cycle,
    item: T,
}

/// Per-slave state.
struct SlaveLane {
    region: SlaveRegion,
    /// Crossbar's master port toward this slave.
    port: MasterPort,
    /// Cycles from accepting a request to offering it to the slave.
    req_latency: Cycle,
    /// Cycles from collecting a response to offering it to the master.
    resp_latency: Cycle,
    /// Which master gets each in-order response transaction.
    scoreboard: VecDeque<usize>,
    /// Requests pipelining through the crossbar toward this slave.
    req_pipe: VecDeque<Delayed<MmReq>>,
    /// Round-robin pointer over masters for this slave's arbiter.
    rr_next: usize,
}

/// Per-master state.
struct MasterLane {
    /// Crossbar's slave port toward this master.
    port: SlavePort,
    /// Responses pipelining back toward this master.
    resp_pipe: VecDeque<Delayed<MmResp>>,
}

/// The crossbar component.
///
/// * Address decode: the target slave is chosen by the request
///   address; a request that decodes to no region gets a DECERR
///   response (and counts as `unmapped` in the crossbar's
///   [`rvcap_sim::MmioAudit`]).
/// * Arbitration: per-slave round-robin among masters whose oldest
///   request targets that slave. One request accepted per slave per
///   cycle — head-of-line blocking across slaves is modelled, exactly
///   like a real shared-address-channel crossbar.
/// * Responses: slaves answer in order, so a per-slave scoreboard of
///   master indices routes each response transaction back; burst beats
///   stay attributed to their transaction until `last`.
/// * Latency: [`Crossbar::REQ_LATENCY`] cycles on the request path
///   and [`Crossbar::RESP_LATENCY`] on the response path (address
///   decode + register slices). A lane whose region is
///   [`SlaveRegion::behind_lite_converter`] adds the converter chain
///   to both: [`Crossbar::LITE_LATENCY`] on the request path and one
///   cycle more on the response path. Such a response waits out its
///   extra latency in the master's in-order response pipe, where a
///   separate converter would hold it instead; the two agree while the
///   master has no other response outstanding, which holds for the
///   SoC's only user of these lanes, the blocking CPU.
pub struct Crossbar {
    name: String,
    masters: Vec<MasterLane>,
    slaves: Vec<SlaveLane>,
    /// Requests that decoded to no slave region (the audit's
    /// `unmapped` count).
    decode_errors: u64,
    /// Last slave index a request decoded to — bus traffic is extremely
    /// local (fill loops, DMA streams), so checking the previous hit
    /// before the linear region scan wins almost always. Pure cache:
    /// never checkpointed, any stale value is corrected by the scan.
    decode_hint: std::cell::Cell<usize>,
    /// Scratch for `accept_requests`' per-cycle (master, target-slave)
    /// pending heads — persistent so the tick hot path never allocates.
    arb_scratch: Vec<(usize, usize)>,
    /// Bit `si` set ⟺ `slaves[si].scoreboard` is non-empty. The tick
    /// loops walk set bits in ascending order — identical lane order to
    /// a full sweep — so the (usual) idle lanes cost nothing, not even
    /// a cache-line touch. Rebuilt on restore.
    sb_mask: u32,
    /// Bit `si` set ⟺ `slaves[si].req_pipe` is non-empty.
    req_pipe_mask: u32,
}

impl Crossbar {
    /// Request-path latency (address decode + register slice).
    pub const REQ_LATENCY: Cycle = 2;
    /// Response-path latency.
    pub const RESP_LATENCY: Cycle = 2;
    /// Extra latency each way of the converter chain in front of an
    /// AXI4-Lite register file (§III-B ②, §III-C). The chain is deep:
    /// the 64→32 data-width converter, the AXI4→AXI4-Lite protocol
    /// converter (which must serialize the AW/W channels and wait out
    /// B), and the clock-boundary register slices on both sides. 14
    /// cycles each way is calibrated so a CPU store to the HWICAP
    /// keyhole costs what the paper measured (≈43 bus cycles of the
    /// ~48-cycle per-word cost behind the 8.23 MB/s figure). The
    /// response path pays one cycle more: the converter's response
    /// crosses back into the crossbar through a register stage of its
    /// own, and that cycle is part of the calibrated 8.23 MB/s.
    pub const LITE_LATENCY: Cycle = 14;

    /// Build a crossbar.
    ///
    /// `masters` are the slave-side ports of the master links (the
    /// crossbar is the slave of each master). `slaves` pairs each
    /// address region with the master-side port toward that slave.
    pub fn new(
        name: impl Into<String>,
        masters: Vec<SlavePort>,
        slaves: Vec<(SlaveRegion, MasterPort)>,
    ) -> Self {
        let name = name.into();
        assert!(!masters.is_empty(), "crossbar {name} needs masters");
        assert!(!slaves.is_empty(), "crossbar {name} needs slaves");
        assert!(
            slaves.len() <= 32,
            "crossbar {name}: at most 32 slave lanes (occupancy masks are u32)"
        );
        for (i, (a, _)) in slaves.iter().enumerate() {
            for (b, _) in slaves.iter().skip(i + 1) {
                assert!(
                    !a.overlaps(b),
                    "crossbar {name}: regions {} and {} overlap",
                    a.name,
                    b.name
                );
            }
        }
        Crossbar {
            name,
            masters: masters
                .into_iter()
                .map(|port| MasterLane {
                    port,
                    resp_pipe: VecDeque::new(),
                })
                .collect(),
            slaves: slaves
                .into_iter()
                .map(|(region, port)| {
                    let (req_latency, resp_latency) = if region.behind_lite_converter {
                        // One more on the way back for the converter's
                        // response register.
                        (
                            Self::REQ_LATENCY + Self::LITE_LATENCY,
                            Self::RESP_LATENCY + Self::LITE_LATENCY + 1,
                        )
                    } else {
                        (Self::REQ_LATENCY, Self::RESP_LATENCY)
                    };
                    SlaveLane {
                        region,
                        port,
                        req_latency,
                        resp_latency,
                        scoreboard: VecDeque::new(),
                        req_pipe: VecDeque::new(),
                        rr_next: 0,
                    }
                })
                .collect(),
            decode_errors: 0,
            decode_hint: std::cell::Cell::new(0),
            arb_scratch: Vec::new(),
            sb_mask: 0,
            req_pipe_mask: 0,
        }
    }

    /// Verify the occupancy masks against the lane queues (debug builds
    /// only — the masks are load-bearing for which lanes tick).
    #[cfg(debug_assertions)]
    fn debug_check_masks(&self) {
        for (si, lane) in self.slaves.iter().enumerate() {
            debug_assert_eq!(
                self.sb_mask & (1 << si) != 0,
                !lane.scoreboard.is_empty(),
                "{}: sb_mask out of sync for lane {}",
                self.name,
                lane.region.name
            );
            debug_assert_eq!(
                self.req_pipe_mask & (1 << si) != 0,
                !lane.req_pipe.is_empty(),
                "{}: req_pipe_mask out of sync for lane {}",
                self.name,
                lane.region.name
            );
        }
    }

    fn decode(&self, addr: u64) -> Option<usize> {
        let hint = self.decode_hint.get();
        if let Some(s) = self.slaves.get(hint) {
            if s.region.contains(addr) {
                return Some(hint);
            }
        }
        let found = self.slaves.iter().position(|s| s.region.contains(addr))?;
        self.decode_hint.set(found);
        Some(found)
    }

    /// Accept at most one new request per slave this cycle, honouring
    /// per-slave round-robin over masters.
    ///
    /// Hot path: iterates only masters with a queued head request (a
    /// borrow-free occupancy probe) and arbitrates only over the slaves
    /// those heads actually target, via the persistent scratch list —
    /// no per-tick allocation, no masters × slaves sweep.
    fn accept_requests(&mut self, cycle: Cycle) {
        self.arb_scratch.clear();
        for mi in 0..self.masters.len() {
            if self.masters[mi].port.req.is_empty() {
                continue;
            }
            let req = self.masters[mi].port.req.peek().expect("probed non-empty");
            match self.decode(req.addr) {
                Some(si) => self.arb_scratch.push((mi, si)),
                None => {
                    // Decode failure: consume the request and queue an
                    // immediate error response.
                    if self.masters[mi].port.req.try_pop(cycle).is_some() {
                        self.decode_errors += 1;
                        let ready_at = cycle + Self::RESP_LATENCY;
                        self.masters[mi].resp_pipe.push_back(Delayed {
                            ready_at,
                            item: MmResp::err(),
                        });
                    }
                }
            }
        }

        let n = self.masters.len();
        let scratch = std::mem::take(&mut self.arb_scratch);
        for (idx, &(mi, si)) in scratch.iter().enumerate() {
            // Each slave arbitrates once; a later entry for the same
            // slave was already weighed by the first one.
            if scratch[..idx].iter().any(|&(_, s)| s == si) {
                continue;
            }
            // Round-robin winner: the pending master closest (in RR
            // distance) to this slave's pointer — identical to scanning
            // masters in RR order and taking the first match.
            let start = self.slaves[si].rr_next;
            let mut win = mi;
            let mut win_dist = (mi + n - start) % n;
            for &(mj, sj) in &scratch[idx + 1..] {
                if sj == si {
                    let d = (mj + n - start) % n;
                    if d < win_dist {
                        win = mj;
                        win_dist = d;
                    }
                }
            }
            // The master lane pops at most one request per cycle via
            // the FIFO's own rate limit; a decode-error pop above may
            // already have consumed this master's budget.
            if let Some(req) = self.masters[win].port.req.try_pop(cycle) {
                let posted = matches!(req.op, MmOp::Write { posted: true, .. });
                let lane = &mut self.slaves[si];
                lane.req_pipe.push_back(Delayed {
                    ready_at: cycle + lane.req_latency,
                    item: req,
                });
                // Posted writes produce no response to route back.
                if !posted {
                    lane.scoreboard.push_back(win);
                    self.sb_mask |= 1 << si;
                }
                self.req_pipe_mask |= 1 << si;
                self.slaves[si].rr_next = (win + 1) % n;
            }
        }
        self.arb_scratch = scratch;
    }

    /// Move pipelined requests into slave ports (one per slave/cycle).
    fn deliver_requests(&mut self, cycle: Cycle) {
        let mut mask = self.req_pipe_mask;
        while mask != 0 {
            let si = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let lane = &mut self.slaves[si];
            let head = lane.req_pipe.front().expect("mask bit implies an entry");
            if head.ready_at <= cycle && lane.port.req.can_push(cycle) {
                let d = lane.req_pipe.pop_front().expect("head exists");
                lane.port
                    .req
                    .try_push(cycle, d.item)
                    .expect("can_push checked");
                if lane.req_pipe.is_empty() {
                    self.req_pipe_mask &= !(1 << si);
                }
            }
        }
    }

    /// Pull response beats from slaves into the per-master pipes.
    ///
    /// Walks only lanes with an outstanding transaction (`sb_mask`): no
    /// outstanding transaction ⟹ no legal response, so idle lanes skip
    /// even the port probe. An unsolicited beat on an idle lane — a
    /// slave bug — is left queued for the sanitizer / stall report
    /// (and tripped by `debug_check_masks` + the hint's invariant in
    /// debug builds) instead of panicking here.
    fn collect_responses(&mut self, cycle: Cycle) {
        let mut mask = self.sb_mask;
        while mask != 0 {
            let si = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let lane = &mut self.slaves[si];
            if let Some(resp) = lane.port.resp.try_pop(cycle) {
                let mi = *lane.scoreboard.front().unwrap_or_else(|| {
                    panic!("{}: response with empty scoreboard", lane.region.name)
                });
                if resp.last {
                    lane.scoreboard.pop_front();
                    if lane.scoreboard.is_empty() {
                        self.sb_mask &= !(1 << si);
                    }
                }
                self.masters[mi].resp_pipe.push_back(Delayed {
                    ready_at: cycle + lane.resp_latency,
                    item: resp,
                });
            }
        }
    }

    /// Move pipelined responses into master ports (one per master/cycle).
    fn deliver_responses(&mut self, cycle: Cycle) {
        for lane in &mut self.masters {
            if let Some(head) = lane.resp_pipe.front() {
                if head.ready_at <= cycle && lane.port.resp.can_push(cycle) {
                    let d = lane.resp_pipe.pop_front().expect("head exists");
                    lane.port
                        .resp
                        .try_push(cycle, d.item)
                        .expect("can_push checked");
                }
            }
        }
    }
}

impl Component for Crossbar {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        #[cfg(debug_assertions)]
        self.debug_check_masks();
        // Response-before-request ordering drains the system monotonically.
        self.collect_responses(ctx.cycle);
        self.deliver_responses(ctx.cycle);
        self.accept_requests(ctx.cycle);
        self.deliver_requests(ctx.cycle);
    }

    fn busy(&self) -> bool {
        self.sb_mask != 0
            || self.req_pipe_mask != 0
            || self.masters.iter().any(|m| !m.resp_pipe.is_empty())
    }

    fn mmio_audit(&self) -> Option<rvcap_sim::MmioAudit> {
        // The crossbar has no register file of its own; its decode
        // failures are address-space-level unmapped accesses.
        Some(rvcap_sim::MmioAudit {
            unmapped: self.decode_errors,
            ..rvcap_sim::MmioAudit::default()
        })
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        let mut at = Cycle::MAX;
        for m in &self.masters {
            // A queued request is arbitrated this cycle.
            if !m.port.req.is_empty() {
                return now;
            }
            // A pipelined response delivers at its ready cycle — and
            // must keep retrying every cycle once ready, because a
            // full downstream FIFO blocks the push until drained.
            if let Some(head) = m.resp_pipe.front() {
                if head.ready_at <= now {
                    return now;
                }
                at = at.min(head.ready_at);
            }
        }
        // Slave lanes, via the occupancy masks: a lane with neither an
        // outstanding transaction nor a pipelined request has nothing to
        // contribute (mirroring `collect_responses` / `deliver_requests`),
        // so the common many-idle-lanes case costs one mask test each.
        let mut mask = self.sb_mask;
        while mask != 0 {
            let si = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            // A slave response beat is collected this cycle.
            if !self.slaves[si].port.resp.is_empty() {
                return now;
            }
            // A non-empty scoreboard alone is pure waiting: the wake
            // comes from the slave's response FIFO becoming non-empty
            // (hint re-query, or the subscription in `wake_sources`).
        }
        let mut mask = self.req_pipe_mask;
        while mask != 0 {
            let si = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let head = self.slaves[si]
                .req_pipe
                .front()
                .expect("mask bit implies an entry");
            if head.ready_at <= now {
                return now;
            }
            at = at.min(head.ready_at);
        }
        at
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // Every lane that can deliver new work: master requests in,
        // slave responses back. Pipe-head deadlines are time-based and
        // covered by the post-tick hint.
        for m in &self.masters {
            m.port.req.subscribe_wake(waker.clone());
        }
        for s in &self.slaves {
            s.port.resp.subscribe_wake(waker.clone());
        }
    }

    fn save_state(&self) -> Option<StateBlob> {
        // Ownership: the crossbar is the consumer of each master lane's
        // request FIFO and each slave lane's response FIFO, so those
        // channels are saved here; the opposite directions belong to
        // the master devices and slave devices respectively.
        let mut b = StateBlob::new("axi.crossbar", 1);
        b.put_u64("decode_errors", self.decode_errors);
        b.put_list(
            "masters",
            self.masters
                .iter()
                .map(|m| {
                    let mut lane = StateBlob::new("axi.crossbar.master", 1);
                    lane.put("req", m.port.req.save_state());
                    lane.put_list(
                        "resp_pipe",
                        m.resp_pipe.iter().map(delayed_to_state).collect(),
                    );
                    StateValue::Blob(Box::new(lane))
                })
                .collect(),
        );
        b.put_list(
            "slaves",
            self.slaves
                .iter()
                .map(|s| {
                    let mut lane = StateBlob::new("axi.crossbar.slave", 1);
                    lane.put("resp", s.port.resp.save_state());
                    lane.put_list(
                        "scoreboard",
                        s.scoreboard.iter().map(|mi| mi.to_state()).collect(),
                    );
                    lane.put_list(
                        "req_pipe",
                        s.req_pipe.iter().map(delayed_to_state).collect(),
                    );
                    lane.put_u64("rr_next", s.rr_next as u64);
                    StateValue::Blob(Box::new(lane))
                })
                .collect(),
        );
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("axi.crossbar", 1)?;
        let masters = state.get_list("masters")?;
        let slaves = state.get_list("slaves")?;
        if masters.len() != self.masters.len() || slaves.len() != self.slaves.len() {
            return Err(state.structure_error(format!(
                "{}x{} lanes in state, this crossbar has {}x{}",
                masters.len(),
                slaves.len(),
                self.masters.len(),
                self.slaves.len()
            )));
        }
        for (lane, v) in self.masters.iter_mut().zip(masters) {
            let b = v.as_blob("axi.crossbar")?;
            b.expect("axi.crossbar.master", 1)?;
            lane.port.req.restore_state(b.get("req")?)?;
            delayed_from_state(
                b.get_list("resp_pipe")?,
                "axi.crossbar.master",
                &mut lane.resp_pipe,
            )?;
        }
        let n_masters = self.masters.len();
        for (lane, v) in self.slaves.iter_mut().zip(slaves) {
            let b = v.as_blob("axi.crossbar")?;
            b.expect("axi.crossbar.slave", 1)?;
            lane.port.resp.restore_state(b.get("resp")?)?;
            lane.scoreboard = b
                .get_list("scoreboard")?
                .iter()
                .map(|v| {
                    usize::from_state(v, "axi.crossbar.slave").and_then(|mi| {
                        if mi < n_masters {
                            Ok(mi)
                        } else {
                            Err(b.structure_error(format!(
                                "scoreboard master index {mi} out of range"
                            )))
                        }
                    })
                })
                .collect::<Result<_, _>>()?;
            delayed_from_state(
                b.get_list("req_pipe")?,
                "axi.crossbar.slave",
                &mut lane.req_pipe,
            )?;
            lane.rr_next = b.get_u64("rr_next")? as usize % n_masters;
        }
        self.decode_errors = state.get_u64("decode_errors")?;
        // The occupancy masks are derived state: rebuild, don't restore.
        self.sb_mask = 0;
        self.req_pipe_mask = 0;
        for (si, lane) in self.slaves.iter().enumerate() {
            if !lane.scoreboard.is_empty() {
                self.sb_mask |= 1 << si;
            }
            if !lane.req_pipe.is_empty() {
                self.req_pipe_mask |= 1 << si;
            }
        }
        Ok(())
    }
}

/// A simple RAM slave used by interconnect tests and small systems
/// (boot memory). Answers each request one cycle after accepting it
/// and streams burst beats back-to-back. The contents are a
/// copy-on-write [`PagedBytes`] store, shared page-wise with checkpoints.
pub struct RamSlave {
    name: String,
    port: SlavePort,
    base: u64,
    mem: PagedBytes,
    /// (ready_at, remaining beat responses)
    active: Option<(Cycle, VecDeque<MmResp>)>,
}

impl RamSlave {
    /// Create a RAM of `size` bytes at `base`, one-cycle service time.
    pub fn new(name: impl Into<String>, port: SlavePort, base: u64, size: usize) -> Self {
        RamSlave {
            name: name.into(),
            port,
            base,
            mem: PagedBytes::new(size),
            active: None,
        }
    }

    /// Direct (zero-time) memory access for initialization and test
    /// inspection — the simulation-level equivalent of a backdoor load.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        self.mem.write((addr - self.base) as usize, data);
    }

    /// Direct read, see [`RamSlave::write_bytes`].
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0; len];
        self.mem.read((addr - self.base) as usize, &mut buf);
        buf
    }

    fn serve(&mut self, req: MmReq) -> VecDeque<MmResp> {
        let mut out = VecDeque::new();
        match req.op {
            crate::mm::MmOp::Read { bytes } => {
                let off = (req.addr - self.base) as usize;
                let mut buf = [0u8; 8];
                self.mem.read(off, &mut buf[..bytes as usize]);
                out.push_back(MmResp::data(u64::from_le_bytes(buf), bytes, true));
            }
            crate::mm::MmOp::ReadBurst { beats, beat_bytes } => {
                for i in 0..beats {
                    let off = (req.addr - self.base) as usize + i as usize * beat_bytes as usize;
                    let mut buf = [0u8; 8];
                    self.mem.read(off, &mut buf[..beat_bytes as usize]);
                    out.push_back(MmResp::data(
                        u64::from_le_bytes(buf),
                        beat_bytes,
                        i + 1 == beats,
                    ));
                }
            }
            crate::mm::MmOp::Write { data, bytes, .. } => {
                let off = (req.addr - self.base) as usize;
                self.mem.write(off, &data.to_le_bytes()[..bytes as usize]);
                out.push_back(MmResp::write_ack());
            }
        }
        out
    }
}

impl Component for RamSlave {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        // Stream pending response beats, one per cycle.
        if let Some((ready_at, pending)) = &mut self.active {
            if *ready_at <= ctx.cycle {
                if let Some(resp) = pending.front().copied() {
                    if self.port.try_respond(ctx.cycle, resp).is_ok() {
                        pending.pop_front();
                    }
                }
            }
            if pending.is_empty() {
                self.active = None;
            }
        }
        // Accept a new request once idle.
        if self.active.is_none() {
            if let Some(req) = self.port.try_take(ctx.cycle) {
                let pending = self.serve(req);
                self.active = Some((ctx.cycle + 1, pending));
            }
        }
    }

    fn busy(&self) -> bool {
        self.active.is_some()
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        if let Some((ready, _)) = &self.active {
            // Streams one beat per cycle once the service delay has
            // elapsed (retrying while the response FIFO is full).
            (*ready).max(now)
        } else if self.port.req.is_empty() {
            Cycle::MAX
        } else {
            now
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        // An active burst self-reschedules via its ready-cycle hint.
        self.port.req.subscribe_wake(waker.clone());
    }

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("axi.ram", 2);
        b.put("req", self.port.req.save_state());
        b.put_paged("mem", self.mem.clone());
        match &self.active {
            Some((ready, pending)) => {
                b.put_opt_u64("active_ready", Some(*ready));
                b.put_list(
                    "active_pending",
                    pending.iter().map(|r| r.to_state()).collect(),
                );
            }
            None => {
                b.put_opt_u64("active_ready", None);
                b.put_list("active_pending", Vec::new());
            }
        }
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("axi.ram", 2)?;
        let mem = state.get_paged("mem")?;
        if mem.len() != self.mem.len() {
            return Err(state.structure_error(format!(
                "memory is {} bytes in state, this RAM has {}",
                mem.len(),
                self.mem.len()
            )));
        }
        self.port.req.restore_state(state.get("req")?)?;
        self.mem = mem.clone();
        self.active = match state.get_opt_u64("active_ready")? {
            Some(ready) => {
                let pending = state
                    .get_list("active_pending")?
                    .iter()
                    .map(|v| MmResp::from_state(v, "axi.ram"))
                    .collect::<Result<VecDeque<_>, _>>()?;
                Some((ready, pending))
            }
            None => None,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm::{link, MmReq};
    use rvcap_sim::{Freq, Simulator};

    fn xbar_system(n_masters: usize) -> (Simulator, Vec<MasterPort>) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let mut master_ports = Vec::new();
        let mut xbar_master_side = Vec::new();
        for i in 0..n_masters {
            let (m, s) = link(&format!("m{i}"), 4);
            master_ports.push(m);
            xbar_master_side.push(s);
        }
        let (ram_m, ram_s) = link("ram", 4);
        let (rom_m, rom_s) = link("rom", 4);
        let xbar = Crossbar::new(
            "xbar",
            xbar_master_side,
            vec![
                (SlaveRegion::new("ram", 0x8000_0000, 0x1000), ram_m),
                (SlaveRegion::new("rom", 0x0001_0000, 0x1000), rom_m),
            ],
        );
        let mut ram = RamSlave::new("ram", ram_s, 0x8000_0000, 0x1000);
        ram.write_bytes(0x8000_0000, &[0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4]);
        let mut rom = RamSlave::new("rom", rom_s, 0x0001_0000, 0x1000);
        rom.write_bytes(0x0001_0000, &[0x55; 16]);
        sim.register(Box::new(xbar));
        sim.register(Box::new(ram));
        sim.register(Box::new(rom));
        (sim, master_ports)
    }

    #[test]
    fn region_decode() {
        let r = SlaveRegion::new("x", 0x1000, 0x100);
        assert!(r.contains(0x1000));
        assert!(r.contains(0x10ff));
        assert!(!r.contains(0x1100));
        assert!(!r.contains(0xfff));
    }

    #[test]
    fn overlap_detection() {
        let a = SlaveRegion::new("a", 0x1000, 0x100);
        let b = SlaveRegion::new("b", 0x10f0, 0x100);
        let c = SlaveRegion::new("c", 0x1100, 0x100);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_regions_rejected() {
        let (_, s0) = link("m", 1);
        let (p0, _) = link("s0", 1);
        let (p1, _) = link("s1", 1);
        let _ = Crossbar::new(
            "bad",
            vec![s0],
            vec![
                (SlaveRegion::new("a", 0, 0x100), p0),
                (SlaveRegion::new("b", 0x80, 0x100), p1),
            ],
        );
    }

    #[test]
    fn single_read_round_trip() {
        let (mut sim, masters) = xbar_system(1);
        masters[0]
            .try_issue(sim.now(), MmReq::read(0x8000_0000, 4))
            .unwrap();
        let mut got = None;
        sim.run_until(100, || {
            got = masters[0].resp.force_pop();
            got.is_some()
        })
        .unwrap();
        let resp = got.unwrap();
        assert_eq!(resp.data & 0xffff_ffff, 0xefbe_adde);
        assert!(resp.last);
    }

    #[test]
    fn write_then_read_back() {
        let (mut sim, masters) = xbar_system(1);
        masters[0]
            .try_issue(sim.now(), MmReq::write(0x8000_0010, 0xCAFE, 2))
            .unwrap();
        sim.run_until(100, || masters[0].resp.force_pop().is_some())
            .unwrap();
        masters[0]
            .try_issue(sim.now(), MmReq::read(0x8000_0010, 2))
            .unwrap();
        let mut got = None;
        sim.run_until(100, || {
            got = masters[0].resp.force_pop();
            got.is_some()
        })
        .unwrap();
        assert_eq!(got.unwrap().data, 0xCAFE);
    }

    #[test]
    fn burst_read_streams_beats() {
        let (mut sim, masters) = xbar_system(1);
        masters[0]
            .try_issue(sim.now(), MmReq::read_burst(0x8000_0000, 4, 4))
            .unwrap();
        let mut beats = Vec::new();
        sim.run_until(200, || {
            if let Some(r) = masters[0].resp.force_pop() {
                beats.push(r);
            }
            beats.len() == 4
        })
        .unwrap();
        assert!(beats[3].last);
        assert!(beats[..3].iter().all(|b| !b.last));
        assert_eq!(beats[0].data as u32, 0xefbe_adde);
        assert_eq!(beats[1].data as u32, 0x0403_0201);
    }

    #[test]
    fn decode_error_yields_error_response() {
        let (mut sim, masters) = xbar_system(1);
        masters[0]
            .try_issue(sim.now(), MmReq::read(0xdead_0000, 4))
            .unwrap();
        let mut got = None;
        sim.run_until(100, || {
            got = masters[0].resp.force_pop();
            got.is_some()
        })
        .unwrap();
        assert!(got.unwrap().error);
    }

    #[test]
    fn two_masters_fair_share() {
        let (mut sim, masters) = xbar_system(2);
        // Both masters hammer the same RAM with single reads.
        let mut done = [0u32; 2];
        let mut issued = [0u32; 2];
        let total = 20;
        for _ in 0..5000 {
            let cycle = sim.now();
            for mi in 0..2 {
                if issued[mi] < total
                    && masters[mi]
                        .try_issue(cycle, MmReq::read(0x8000_0000 + 8 * mi as u64, 8))
                        .is_ok()
                {
                    issued[mi] += 1;
                }
                if masters[mi].resp.force_pop().is_some() {
                    done[mi] += 1;
                }
            }
            if done == [total; 2] {
                break;
            }
            sim.step();
        }
        // Fairness: both finished — and neither starved (they finish
        // within the same run window).
        assert_eq!(done, [total; 2]);
    }

    #[test]
    fn requests_to_different_slaves_proceed_in_parallel() {
        let (mut sim, masters) = xbar_system(2);
        masters[0]
            .try_issue(sim.now(), MmReq::read(0x8000_0000, 8))
            .unwrap();
        masters[1]
            .try_issue(sim.now(), MmReq::read(0x0001_0000, 8))
            .unwrap();
        let mut got = [false, false];
        let cycles = sim
            .run_until(100, || {
                for mi in 0..2 {
                    if masters[mi].resp.force_pop().is_some() {
                        got[mi] = true;
                    }
                }
                got[0] && got[1]
            })
            .unwrap();
        // Parallel service: both complete in roughly a single round
        // trip (req 2 + service 1 + resp 2 + port hops).
        assert!(cycles < 12, "took {cycles}");
    }

    #[test]
    fn mid_flight_checkpoint_restores_bit_identically() {
        // Launch traffic, snapshot while beats are in the pipes, fork
        // into a structurally identical system, and require both runs
        // to deliver the same responses and land in the same state.
        let (mut sim_a, masters_a) = xbar_system(2);
        masters_a[0]
            .try_issue(sim_a.now(), MmReq::read_burst(0x8000_0000, 4, 4))
            .unwrap();
        masters_a[1]
            .try_issue(sim_a.now(), MmReq::write(0x0001_0008, 0xAB, 1))
            .unwrap();
        sim_a.step_n(4);
        let snap = sim_a.checkpoint().unwrap();

        let (mut sim_b, masters_b) = xbar_system(2);
        sim_b.restore(&snap).unwrap();
        // The test harness owns the master-side response FIFOs (it is
        // their consumer), so the fork copies those explicitly — the
        // crossbar's blob covers only the channels the crossbar owns.
        for (a, b) in masters_a.iter().zip(&masters_b) {
            b.resp.restore_state(&a.resp.save_state()).unwrap();
        }

        let drain = |sim: &mut Simulator, masters: &[MasterPort]| {
            let mut out = [Vec::new(), Vec::new()];
            for _ in 0..60 {
                for (mi, lane) in out.iter_mut().enumerate() {
                    while let Some(r) = masters[mi].resp.force_pop() {
                        lane.push(r);
                    }
                }
                sim.step();
            }
            out
        };
        assert_eq!(drain(&mut sim_a, &masters_a), drain(&mut sim_b, &masters_b));
        let fin_a = sim_a.checkpoint().unwrap();
        let fin_b = sim_b.checkpoint().unwrap();
        assert!(
            fin_a.parity_eq(&fin_b),
            "diverged: {}",
            fin_a.parity_diff(&fin_b).unwrap()
        );
    }

    #[test]
    fn ram_checkpoint_shares_pages_and_restore_checks_the_size() {
        let mut ram = RamSlave::new("ram", link("ram", 2).1, 0x1000, 0x3000);
        ram.write_bytes(0x1FFE, &[1, 2, 3, 4]);
        let saved = ram.save_state().unwrap();
        assert_eq!(saved.get_paged("mem").unwrap().resident_pages(), 2);
        ram.write_bytes(0x1FFE, &[9; 4]);
        ram.restore_state(&saved).unwrap();
        assert_eq!(ram.read_bytes(0x1FFE, 4), vec![1, 2, 3, 4]);
        let mut other = RamSlave::new("ram", link("ram", 2).1, 0x1000, 0x2000);
        assert!(matches!(
            other.restore_state(&saved),
            Err(StateError::Structure { .. })
        ));
        assert!(matches!(
            other.restore_state(&StateBlob::new("axi.ram", 1)),
            Err(StateError::VersionMismatch { got: 1, .. })
        ));
    }

    /// One master and one lane behind the AXI4→AXI4-Lite converter,
    /// whose slave side the test drives by hand.
    fn lite_lane() -> (Simulator, MasterPort, SlavePort) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (cpu, xbar_cpu) = link("cpu", 2);
        let (xbar_regs, regs) = link("regs", 2);
        let region = SlaveRegion::new("regs", 0x4000_0000, 0x1000).behind_lite_converter();
        let xbar = Crossbar::new("xbar", vec![xbar_cpu], vec![(region, xbar_regs)]);
        sim.register(Box::new(xbar));
        (sim, cpu, regs)
    }

    /// Step until `arrived` holds after a cycle; that cycle.
    fn cycle_when(sim: &mut Simulator, mut arrived: impl FnMut() -> bool) -> Cycle {
        while sim.now() < 100 {
            let cycle = sim.now();
            sim.step();
            if arrived() {
                return cycle;
            }
        }
        panic!("nothing arrived within 100 cycles");
    }

    #[test]
    fn lite_lane_request_reaches_the_slave_16_cycles_after_acceptance() {
        let (mut sim, cpu, regs) = lite_lane();
        cpu.try_issue(0, MmReq::read(0x4000_0000, 4)).unwrap();
        let accepted = cycle_when(&mut sim, || cpu.req.is_empty());
        let delivered = cycle_when(&mut sim, || !regs.req.is_empty());
        assert_eq!(accepted, 0);
        // REQ_LATENCY + LITE_LATENCY.
        assert_eq!(delivered - accepted, 16);
    }

    #[test]
    fn lite_lane_response_reaches_the_master_17_cycles_after_the_slave_answers() {
        let (mut sim, cpu, regs) = lite_lane();
        cpu.try_issue(0, MmReq::read(0x4000_0000, 4)).unwrap();
        cycle_when(&mut sim, || !regs.req.is_empty());
        regs.req.force_pop().unwrap();
        let answered = sim.now();
        regs.try_respond(answered, MmResp::data(0x1234, 4, true))
            .unwrap();
        let delivered = cycle_when(&mut sim, || !cpu.resp.is_empty());
        // RESP_LATENCY + LITE_LATENCY + the converter's response
        // register.
        assert_eq!(delivered - answered, 17);
        assert_eq!(cpu.resp.force_pop().unwrap().data, 0x1234);
    }

    #[test]
    fn back_to_back_requests_through_a_lite_lane_both_complete() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (cpu, xbar_cpu) = link("cpu", 2);
        let (xbar_ram, ram_port) = link("ram", 2);
        let region = SlaveRegion::new("ram", 0x4000_0000, 0x100).behind_lite_converter();
        sim.register(Box::new(Crossbar::new(
            "xbar",
            vec![xbar_cpu],
            vec![(region, xbar_ram)],
        )));
        sim.register(Box::new(RamSlave::new("ram", ram_port, 0x4000_0000, 0x100)));
        // Two writes issued on consecutive cycles, then one read of both.
        cpu.try_issue(0, MmReq::write(0x4000_0000, 0x11, 1))
            .unwrap();
        sim.step();
        cpu.try_issue(1, MmReq::write(0x4000_0001, 0x22, 1))
            .unwrap();
        let mut resps = Vec::new();
        sim.run_until(100, || {
            resps.extend(cpu.resp.force_pop());
            resps.len() == 2
        })
        .unwrap();
        cpu.try_issue(sim.now(), MmReq::read(0x4000_0000, 2))
            .unwrap();
        sim.run_until(100, || {
            resps.extend(cpu.resp.force_pop());
            resps.len() == 3
        })
        .unwrap();
        assert!(resps.iter().all(|r| r.last && !r.error));
        assert_eq!(resps[2].data, 0x2211);
    }

    mod traffic_properties {
        use super::*;
        use proptest::prelude::*;

        /// Random interleaved traffic from two masters to two slaves:
        /// every master gets exactly its own responses, in order, with
        /// the data it wrote/read — the crossbar neither drops,
        /// duplicates, nor cross-routes.
        #[derive(Debug, Clone)]
        struct Op {
            write: bool,
            slave: bool, // false = ram, true = rom region
            offset: u16,
            value: u32,
        }

        fn arb_op() -> impl Strategy<Value = Op> {
            (any::<bool>(), any::<bool>(), 0u16..0x800, any::<u32>()).prop_map(
                |(write, slave, offset, value)| Op {
                    write,
                    slave,
                    offset: offset & !0x3,
                    value,
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn prop_no_loss_duplication_or_cross_routing(
                ops_a in proptest::collection::vec(arb_op(), 1..24),
                ops_b in proptest::collection::vec(arb_op(), 1..24),
            ) {
                let (mut sim, masters) = xbar_system(2);
                let plans = [ops_a, ops_b];
                let mut issued = [0usize, 0];
                let mut done = [0usize, 0];
                let mut responses: [Vec<MmResp>; 2] = [Vec::new(), Vec::new()];
                for _ in 0..20_000 {
                    let cycle = sim.now();
                    for mi in 0..2 {
                        if issued[mi] < plans[mi].len() {
                            let op = &plans[mi][issued[mi]];
                            let base = if op.slave { 0x0001_0000u64 } else { 0x8000_0000 };
                            let addr = base + op.offset as u64;
                            let req = if op.write {
                                MmReq::write(addr, op.value as u64, 4)
                            } else {
                                MmReq::read(addr, 4)
                            };
                            if masters[mi].try_issue(cycle, req).is_ok() {
                                issued[mi] += 1;
                            }
                        }
                        while let Some(r) = masters[mi].resp.force_pop() {
                            responses[mi].push(r);
                            done[mi] += 1;
                        }
                    }
                    if done[0] == plans[0].len() && done[1] == plans[1].len() {
                        break;
                    }
                    sim.step();
                }
                // Exactly one response per request, for both masters.
                prop_assert_eq!(done[0], plans[0].len());
                prop_assert_eq!(done[1], plans[1].len());
                for mi in 0..2 {
                    for (op, resp) in plans[mi].iter().zip(&responses[mi]) {
                        prop_assert!(!resp.error);
                        prop_assert!(resp.last);
                        // Write acks carry no data; reads carry 4 bytes.
                        prop_assert_eq!(resp.bytes, if op.write { 0 } else { 4 });
                    }
                }
            }
        }
    }
}
