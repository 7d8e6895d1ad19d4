//! The ICAP primitive: the internal configuration access port FSM.
//!
//! Consumes **one 32-bit configuration word per cycle** — at 100 MHz
//! this is the 400 MB/s ceiling every DPR controller in the paper's
//! Table II is measured against — parses the packet stream, and
//! commits whole frames into [`ConfigMem`]. The FSM is the only
//! validator of the [`crate::bitstream`] format: sync detection, packet
//! decoding, IDCODE check, CRC over everything after RCRC (excluding
//! the CRC packet itself), and range checking of frame writes.
//!
//! A failed check **aborts** the load: the FSM desynchronizes, the
//! partially-buffered frame is dropped, and the load is recorded with
//! `crc_ok == false` and the failed check as its [`IcapAbort`], so the
//! RP machinery never activates a module from it. Frames already
//! committed before the failure stay written — matching real hardware,
//! where an interrupted partial reconfiguration leaves the partition
//! in an undefined (and unusable) state.

use std::cell::RefCell;
use std::rc::Rc;

use rvcap_axi::AxisChannel;
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::state::{StateBlob, StateError, StateValue};
use rvcap_sim::Cycle;

use crate::bitstream::{cmd, decode_header, ConfigReg, Packet, SYNC_WORD};
use crate::config_mem::{ConfigMem, FRAME_WORDS};
use crate::crc::Crc32;

/// Why the ICAP aborted a load: the check that failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcapAbort {
    /// A word in packet-header position decoded to no packet.
    MalformedHeader,
    /// The bitstream's IDCODE is not this device's.
    IdcodeMismatch,
    /// The CRC word differs from the CRC computed over the load.
    CrcMismatch,
    /// A frame write addressed a frame past configuration memory.
    FarOutOfRange,
}

impl IcapAbort {
    const ALL: [IcapAbort; 4] = [
        IcapAbort::MalformedHeader,
        IcapAbort::IdcodeMismatch,
        IcapAbort::CrcMismatch,
        IcapAbort::FarOutOfRange,
    ];

    /// Stable name, as written into checkpoints.
    fn name(self) -> &'static str {
        match self {
            IcapAbort::MalformedHeader => "malformed_header",
            IcapAbort::IdcodeMismatch => "idcode_mismatch",
            IcapAbort::CrcMismatch => "crc_mismatch",
            IcapAbort::FarOutOfRange => "far_out_of_range",
        }
    }
}

/// One completed (or aborted) configuration load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadRecord {
    /// First frame address written.
    pub far_start: u32,
    /// Whole frames committed.
    pub frames: usize,
    /// CRC matched and no abort occurred.
    pub crc_ok: bool,
    /// The failed check, if the load was aborted.
    pub abort: Option<IcapAbort>,
    /// Cycle at which the load finished (DESYNC consumed or abort).
    pub finished_at: Cycle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Desynced,
    Synced,
    Type1Data { reg: ConfigReg, remaining: u32 },
    FdriData { remaining: u32 },
}

#[derive(Debug)]
struct Shared {
    records: Vec<LoadRecord>,
    words_consumed: u64,
    sync_count: u64,
    abort_count: u64,
    busy: bool,
    /// Fired whenever a load record is pushed (completed or aborted):
    /// the wake path for components watching `load_count`, e.g. the
    /// RM hosts.
    wakers: Vec<rvcap_sim::Waker>,
}

/// Shared introspection handle onto an [`Icap`] (drivers poll the RP
/// state through higher-level registers; tests and the RM host use
/// this directly).
#[derive(Debug, Clone)]
pub struct IcapHandle {
    shared: Rc<RefCell<Shared>>,
}

impl IcapHandle {
    /// The loads after the first `seen` since power-up, oldest first:
    /// what a watcher that has processed `seen` records has not seen
    /// yet (`records_since(0)` is the whole history).
    pub fn records_since(&self, seen: usize) -> Vec<LoadRecord> {
        self.shared.borrow().records[seen..].to_vec()
    }

    /// The most recent load, if any.
    pub fn last_load(&self) -> Option<LoadRecord> {
        self.shared.borrow().records.last().copied()
    }

    /// Number of completed loads.
    pub fn load_count(&self) -> usize {
        self.shared.borrow().records.len()
    }

    /// Total configuration words consumed.
    pub fn words_consumed(&self) -> u64 {
        self.shared.borrow().words_consumed
    }

    /// Sync words seen.
    pub fn sync_count(&self) -> u64 {
        self.shared.borrow().sync_count
    }

    /// Aborted loads (IDCODE/CRC/format/range failures).
    pub fn abort_count(&self) -> u64 {
        self.shared.borrow().abort_count
    }

    /// Is a load in progress?
    pub fn busy(&self) -> bool {
        self.shared.borrow().busy
    }

    /// Subscribe `waker` to load completion: it fires whenever a
    /// [`LoadRecord`] is pushed (successful or aborted). This is the
    /// [`rvcap_sim::Component::wake_sources`] hook for components
    /// whose activity hint watches [`IcapHandle::load_count`].
    pub fn subscribe_wake(&self, waker: rvcap_sim::Waker) {
        self.shared.borrow_mut().wakers.push(waker);
    }
}

/// The ICAP component.
pub struct Icap {
    name: String,
    input: AxisChannel,
    config_mem: ConfigMem,
    device_idcode: u32,
    state: State,
    crc: Crc32,
    far: u32,
    far_start: u32,
    frames_committed: usize,
    frame_buf: Vec<u32>,
    crc_ok: bool,
    shared: Rc<RefCell<Shared>>,
}

impl Icap {
    /// Create an ICAP feeding `config_mem`, reading words from `input`.
    pub fn new(
        name: impl Into<String>,
        input: AxisChannel,
        config_mem: ConfigMem,
        device_idcode: u32,
    ) -> (Self, IcapHandle) {
        let shared = Rc::new(RefCell::new(Shared {
            records: Vec::new(),
            words_consumed: 0,
            sync_count: 0,
            abort_count: 0,
            busy: false,
            wakers: Vec::new(),
        }));
        let handle = IcapHandle {
            shared: shared.clone(),
        };
        (
            Icap {
                name: name.into(),
                input,
                config_mem,
                device_idcode,
                state: State::Desynced,
                crc: Crc32::new(),
                far: 0,
                far_start: 0,
                frames_committed: 0,
                frame_buf: Vec::with_capacity(FRAME_WORDS),
                crc_ok: false,
                shared,
            },
            handle,
        )
    }

    fn finish(&mut self, cycle: Cycle, abort: Option<IcapAbort>) {
        let mut sh = self.shared.borrow_mut();
        sh.records.push(LoadRecord {
            far_start: self.far_start,
            frames: self.frames_committed,
            crc_ok: abort.is_none() && self.crc_ok,
            abort,
            finished_at: cycle,
        });
        if abort.is_some() {
            sh.abort_count += 1;
        }
        sh.busy = false;
        for w in &sh.wakers {
            w.wake();
        }
        drop(sh);
        self.state = State::Desynced;
        self.frame_buf.clear();
        self.frames_committed = 0;
        self.crc_ok = false;
    }

    fn consume_payload_word(&mut self, cycle: Cycle, word: u32) {
        self.frame_buf.push(word);
        if self.frame_buf.len() == FRAME_WORDS {
            if !self.config_mem.in_range(self.far, 1) {
                self.finish(cycle, Some(IcapAbort::FarOutOfRange));
                return;
            }
            let mut buf = [0u32; FRAME_WORDS];
            buf.copy_from_slice(&self.frame_buf);
            self.config_mem.write_frame(self.far, &buf);
            self.frame_buf.clear();
            self.far += 1;
            self.frames_committed += 1;
        }
    }

    fn process_word(&mut self, cycle: Cycle, word: u32) {
        match self.state {
            State::Desynced => {
                if word == SYNC_WORD {
                    self.state = State::Synced;
                    self.crc = Crc32::new();
                    self.far_start = 0;
                    self.frames_committed = 0;
                    self.crc_ok = false;
                    let mut sh = self.shared.borrow_mut();
                    sh.sync_count += 1;
                    sh.busy = true;
                }
                // Anything else pre-sync is ignored (dummy/pad words).
            }
            State::Synced => match decode_header(word) {
                Some(Packet::Noop) => self.crc.update_word(word),
                Some(Packet::Type1Write { reg, count }) => {
                    if reg != ConfigReg::Crc {
                        self.crc.update_word(word);
                    }
                    if count > 0 {
                        self.state = State::Type1Data {
                            reg,
                            remaining: count,
                        };
                    }
                }
                Some(Packet::Type2Write { count }) => {
                    self.crc.update_word(word);
                    if count > 0 {
                        self.state = State::FdriData { remaining: count };
                    }
                }
                None => self.finish(cycle, Some(IcapAbort::MalformedHeader)),
            },
            State::Type1Data { reg, remaining } => {
                if reg != ConfigReg::Crc {
                    self.crc.update_word(word);
                }
                let next_state = if remaining > 1 {
                    State::Type1Data {
                        reg,
                        remaining: remaining - 1,
                    }
                } else {
                    State::Synced
                };
                self.state = next_state;
                match reg {
                    ConfigReg::Cmd => match word {
                        cmd::RCRC => self.crc = Crc32::new(),
                        cmd::DESYNC => self.finish(cycle, None),
                        _ => {}
                    },
                    ConfigReg::Idcode => {
                        if word != self.device_idcode {
                            self.finish(cycle, Some(IcapAbort::IdcodeMismatch));
                        }
                    }
                    ConfigReg::Far => {
                        self.far = word;
                        self.far_start = word;
                    }
                    ConfigReg::Crc => {
                        let computed = self.crc.value();
                        if word == computed {
                            self.crc_ok = true;
                        } else {
                            self.finish(cycle, Some(IcapAbort::CrcMismatch));
                        }
                    }
                    ConfigReg::Fdri => self.consume_payload_word(cycle, word),
                }
            }
            State::FdriData { remaining } => {
                self.crc.update_word(word);
                self.state = if remaining > 1 {
                    State::FdriData {
                        remaining: remaining - 1,
                    }
                } else {
                    State::Synced
                };
                self.consume_payload_word(cycle, word);
            }
        }
    }
}

impl Component for Icap {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        // One 32-bit word per cycle — the ICAP's physical rate.
        if let Some(beat) = self.input.try_pop(ctx.cycle) {
            debug_assert!(beat.bytes == 4, "ICAP port is 32 bits wide");
            self.shared.borrow_mut().words_consumed += 1;
            self.process_word(ctx.cycle, beat.low_word());
        }
    }

    fn busy(&self) -> bool {
        self.state != State::Desynced || !self.input.is_empty()
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        // The FSM advances only when a word arrives; a synced-but-
        // starved ICAP tick is a pure no-op.
        if self.input.is_empty() {
            Cycle::MAX
        } else {
            now
        }
    }

    fn wake_sources(&self, waker: &rvcap_sim::Waker) {
        self.input.subscribe_wake(waker.clone());
    }

    fn save_state(&self) -> Option<StateBlob> {
        // The ICAP is the sole frame writer, so it owns the shared
        // configuration memory in a checkpoint.
        let mut b = StateBlob::new("fabric.icap", 1);
        b.put("input", self.input.save_state());
        b.put("config_mem", self.config_mem.save_state());
        match self.state {
            State::Desynced => b.put_str("fsm", "desynced"),
            State::Synced => b.put_str("fsm", "synced"),
            State::Type1Data { reg, remaining } => {
                b.put_str("fsm", "type1");
                b.put_u64("fsm_reg", reg as u64);
                b.put_u64("fsm_remaining", u64::from(remaining));
            }
            State::FdriData { remaining } => {
                b.put_str("fsm", "fdri");
                b.put_u64("fsm_remaining", u64::from(remaining));
            }
        }
        b.put_u64("crc", u64::from(self.crc.raw()));
        b.put_u64("far", u64::from(self.far));
        b.put_u64("far_start", u64::from(self.far_start));
        b.put_u64("frames_committed", self.frames_committed as u64);
        b.put_words("frame_buf", self.frame_buf.clone());
        b.put_bool("crc_ok", self.crc_ok);
        let sh = self.shared.borrow();
        b.put_u64("words_consumed", sh.words_consumed);
        b.put_u64("sync_count", sh.sync_count);
        b.put_u64("abort_count", sh.abort_count);
        b.put_bool("busy", sh.busy);
        b.put_list(
            "records",
            sh.records
                .iter()
                .map(|r| {
                    let mut rec = StateBlob::new("fabric.load_record", 2);
                    rec.put_u64("far_start", u64::from(r.far_start));
                    rec.put_u64("frames", r.frames as u64);
                    rec.put_bool("crc_ok", r.crc_ok);
                    rec.put_str("abort", r.abort.map_or("none", IcapAbort::name));
                    rec.put_u64("finished_at", r.finished_at);
                    StateValue::Blob(Box::new(rec))
                })
                .collect(),
        );
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("fabric.icap", 1)?;
        self.input.restore_state(state.get("input")?)?;
        self.config_mem.restore_state(state.get("config_mem")?)?;
        self.state = match state.get_str("fsm")? {
            "desynced" => State::Desynced,
            "synced" => State::Synced,
            "type1" => State::Type1Data {
                reg: ConfigReg::from_addr(state.get_u32("fsm_reg")?)
                    .ok_or_else(|| state.structure_error("unknown config register in FSM state"))?,
                remaining: state.get_u32("fsm_remaining")?,
            },
            "fdri" => State::FdriData {
                remaining: state.get_u32("fsm_remaining")?,
            },
            other => return Err(state.structure_error(format!("unknown FSM state {other}"))),
        };
        self.crc = Crc32::from_raw(state.get_u32("crc")?);
        self.far = state.get_u32("far")?;
        self.far_start = state.get_u32("far_start")?;
        self.frames_committed = state.get_u64("frames_committed")? as usize;
        self.frame_buf = state.get_words("frame_buf")?.to_vec();
        if self.frame_buf.len() >= FRAME_WORDS {
            return Err(state.structure_error("frame buffer holds a whole frame or more"));
        }
        self.crc_ok = state.get_bool("crc_ok")?;
        let mut records = Vec::new();
        for v in state.get_list("records")? {
            let rec = v.as_blob("fabric.icap")?;
            rec.expect("fabric.load_record", 2)?;
            let abort = match rec.get_str("abort")? {
                "none" => None,
                name => Some(
                    IcapAbort::ALL
                        .into_iter()
                        .find(|a| a.name() == name)
                        .ok_or_else(|| {
                            rec.structure_error(format!("unknown abort reason {name}"))
                        })?,
                ),
            };
            records.push(LoadRecord {
                far_start: rec.get_u32("far_start")?,
                frames: rec.get_u64("frames")? as usize,
                crc_ok: rec.get_bool("crc_ok")?,
                abort,
                finished_at: rec.get_u64("finished_at")?,
            });
        }
        let mut sh = self.shared.borrow_mut();
        sh.records = records;
        sh.words_consumed = state.get_u64("words_consumed")?;
        sh.sync_count = state.get_u64("sync_count")?;
        sh.abort_count = state.get_u64("abort_count")?;
        sh.busy = state.get_bool("busy")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::{Bitstream, BitstreamBuilder, KINTEX7_IDCODE};
    use crate::resources::Resources;
    use crate::rm::RmImage;
    use proptest::prelude::*;
    use rvcap_axi::stream::pack_bytes;
    use rvcap_sim::{Fifo, Freq, Simulator};

    struct Rig {
        sim: Simulator,
        input: AxisChannel,
        cm: ConfigMem,
        handle: IcapHandle,
    }

    fn rig() -> Rig {
        rig_with_frames(4096)
    }

    fn rig_with_frames(frames: usize) -> Rig {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let input: AxisChannel = Fifo::new("icap.in", 1 << 20);
        let cm = ConfigMem::new(frames);
        let (icap, handle) = Icap::new("icap", input.clone(), cm.clone(), KINTEX7_IDCODE);
        sim.register(Box::new(icap));
        Rig {
            sim,
            input,
            cm,
            handle,
        }
    }

    fn feed(rig: &mut Rig, bytes: &[u8]) {
        for beat in pack_bytes(bytes, 4) {
            rig.input.force_push(beat);
        }
    }

    /// Feed `bytes`, run until the ICAP has taken every word, then a
    /// few cycles more. Not `run_until_quiescent`: a corrupted header
    /// can leave the FSM synced and waiting, which `busy()` reports.
    fn feed_and_drain(rig: &mut Rig, bytes: &[u8]) {
        feed(rig, bytes);
        let input = rig.input.clone();
        rig.sim.run_until(100_000, || input.is_empty()).unwrap();
        rig.sim.step_n(4);
    }

    #[test]
    fn loads_a_valid_bitstream() {
        let mut r = rig();
        let img = RmImage::synthesize("m", 4, Resources::ZERO);
        let bs = BitstreamBuilder::kintex7().partial(100, &img.payload);
        feed(&mut r, &bs.to_bytes());
        r.sim.run_until_quiescent(100_000).unwrap();
        let rec = r.handle.last_load().unwrap();
        assert!(rec.crc_ok);
        assert_eq!(rec.abort, None);
        assert_eq!(rec.far_start, 100);
        assert_eq!(rec.frames, 4);
        assert_eq!(r.cm.range_hash(100, 4), Some(img.hash()));
        assert_eq!(r.handle.abort_count(), 0);
    }

    #[test]
    fn word_rate_is_one_per_cycle() {
        let mut r = rig();
        let img = RmImage::synthesize("m", 8, Resources::ZERO);
        let bs = BitstreamBuilder::kintex7().partial(0, &img.payload);
        let words = bs.words().len() as u64;
        feed(&mut r, &bs.to_bytes());
        let cycles = r.sim.run_until_quiescent(1_000_000).unwrap();
        // All queued: consumption is exactly 1 word/cycle (+1 drain).
        assert!(
            cycles >= words && cycles <= words + 2,
            "took {cycles} for {words} words"
        );
    }

    #[test]
    fn corrupted_payload_aborts_without_activation() {
        let mut r = rig();
        let img = RmImage::synthesize("m", 4, Resources::ZERO);
        let bs = BitstreamBuilder::kintex7().partial(100, &img.payload);
        let mut bytes = bs.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        feed(&mut r, &bytes);
        r.sim.run_until_quiescent(100_000).unwrap();
        let rec = r.handle.last_load().unwrap();
        assert!(!rec.crc_ok);
        assert_eq!(rec.abort, Some(IcapAbort::CrcMismatch));
        assert_eq!(r.handle.abort_count(), 1);
        // Frames were written (corrupt content) but the range hash no
        // longer matches the image — the RP will not activate it.
        assert_ne!(r.cm.range_hash(100, 4), Some(img.hash()));
    }

    #[test]
    fn wrong_idcode_aborts_before_any_frame_write() {
        let mut r = rig();
        let img = RmImage::synthesize("m", 2, Resources::ZERO);
        let bs = BitstreamBuilder::new(0x0BAD_0001).partial(0, &img.payload);
        feed(&mut r, &bs.to_bytes());
        r.sim.run_until_quiescent(100_000).unwrap();
        assert_eq!(r.handle.abort_count(), 1);
        assert_eq!(r.cm.total_writes(), 0);
        let rec = r.handle.last_load().unwrap();
        assert!(!rec.crc_ok);
        assert_eq!(rec.abort, Some(IcapAbort::IdcodeMismatch));
    }

    #[test]
    fn malformed_header_aborts() {
        let mut r = rig();
        let img = RmImage::synthesize("m", 2, Resources::ZERO);
        let bs = BitstreamBuilder::kintex7().partial(0, &img.payload);
        // The first header after the sync word: type 0 is no packet.
        let mut words = bs.words().to_vec();
        words[1] = 0;
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        feed(&mut r, &bytes);
        r.sim.run_until_quiescent(100_000).unwrap();
        assert_eq!(r.handle.abort_count(), 1);
        assert_eq!(r.cm.total_writes(), 0);
        let rec = r.handle.last_load().unwrap();
        assert!(!rec.crc_ok);
        assert_eq!(rec.abort, Some(IcapAbort::MalformedHeader));
    }

    #[test]
    fn far_out_of_range_aborts() {
        let mut r = rig();
        let img = RmImage::synthesize("m", 4, Resources::ZERO);
        // Device has 4096 frames; aim past the end.
        let bs = BitstreamBuilder::kintex7().partial(4095, &img.payload);
        feed(&mut r, &bs.to_bytes());
        r.sim.run_until_quiescent(100_000).unwrap();
        assert_eq!(r.handle.abort_count(), 1);
        assert_eq!(
            r.handle.last_load().unwrap().abort,
            Some(IcapAbort::FarOutOfRange)
        );
        // Exactly one frame fit before the range check tripped.
        assert_eq!(r.cm.total_writes(), 1);
    }

    #[test]
    fn abort_reason_survives_checkpoint_and_restore() {
        let mut r = rig();
        let img = RmImage::synthesize("m", 2, Resources::ZERO);
        let bs = BitstreamBuilder::new(0x0BAD_0001).partial(0, &img.payload);
        feed(&mut r, &bs.to_bytes());
        r.sim.run_until_quiescent(100_000).unwrap();
        let state = r.sim.checkpoint().unwrap();
        let mut fresh = rig();
        fresh.sim.restore(&state).unwrap();
        let recs = fresh.handle.records_since(0);
        assert_eq!(recs, r.handle.records_since(0));
        assert_eq!(recs[0].abort, Some(IcapAbort::IdcodeMismatch));
    }

    #[test]
    fn back_to_back_loads() {
        let mut r = rig();
        let a = RmImage::synthesize("a", 2, Resources::ZERO);
        let b = RmImage::synthesize("b", 2, Resources::ZERO);
        let builder = BitstreamBuilder::kintex7();
        feed(&mut r, &builder.partial(10, &a.payload).to_bytes());
        feed(&mut r, &builder.partial(10, &b.payload).to_bytes());
        r.sim.run_until_quiescent(100_000).unwrap();
        let recs = r.handle.records_since(0);
        assert_eq!(recs.len(), 2);
        assert!(recs.iter().all(|x| x.crc_ok));
        // Second load overwrote the first.
        assert_eq!(r.cm.range_hash(10, 2), Some(b.hash()));
        assert_eq!(r.handle.sync_count(), 2);
        // A watcher that has seen the first load gets only the second.
        assert_eq!(r.handle.records_since(1), recs[1..]);
        assert!(r.handle.records_since(2).is_empty());
    }

    #[test]
    fn garbage_before_sync_is_ignored() {
        let mut r = rig();
        let img = RmImage::synthesize("m", 1, Resources::ZERO);
        let mut bytes = vec![0xFF; 16]; // dummy pad words
        bytes.extend_from_slice(
            &BitstreamBuilder::kintex7()
                .partial(5, &img.payload)
                .to_bytes(),
        );
        feed(&mut r, &bytes);
        r.sim.run_until_quiescent(100_000).unwrap();
        assert!(r.handle.last_load().unwrap().crc_ok);
        assert_eq!(r.cm.range_hash(5, 1), Some(img.hash()));
    }

    #[test]
    fn missing_sync_records_nothing() {
        let mut r = rig();
        let img = RmImage::synthesize("m", 1, Resources::ZERO);
        let mut bytes = BitstreamBuilder::kintex7()
            .partial(0, &img.payload)
            .to_bytes();
        bytes[0] ^= 0xFF;
        feed_and_drain(&mut r, &bytes);
        assert_eq!(r.handle.sync_count(), 0);
        assert_eq!(r.handle.load_count(), 0);
        assert_eq!(r.cm.total_writes(), 0);
    }

    #[test]
    fn truncated_before_crc_records_no_good_load() {
        let mut r = rig();
        let img = RmImage::synthesize("m", 1, Resources::ZERO);
        let bytes = BitstreamBuilder::kintex7()
            .partial(0, &img.payload)
            .to_bytes();
        // Cut the CRC and DESYNC packets: the last four words.
        feed_and_drain(&mut r, &bytes[..bytes.len() - 16]);
        assert!(r.handle.records_since(0).iter().all(|rec| !rec.crc_ok));
    }

    /// Every single-bit flip of every byte of a one-frame stream. The
    /// ICAP either records no `crc_ok` load, or the `crc_ok` load wrote
    /// exactly the image at its FAR: the flips the CRC cannot see hit
    /// no frame data (a reserved bit of a type-1 header, a CMD count
    /// that swallows the IDCODE packet, the DESYNC packet after the
    /// CRC check). 17 of the 3,616 flips are such harmless loads.
    #[test]
    fn every_single_bit_flip_is_rejected_or_harmless() {
        const FAR: u32 = 7;
        let img = RmImage::synthesize("m", 1, Resources::ZERO);
        let bytes = BitstreamBuilder::kintex7()
            .partial(FAR, &img.payload)
            .to_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                let mut r = rig();
                feed_and_drain(&mut r, &bad);
                for rec in r.handle.records_since(0).iter().filter(|rec| rec.crc_ok) {
                    let at = format!("byte {pos} bit {bit}");
                    assert_eq!((rec.far_start, rec.frames), (FAR, 1), "{at}");
                    assert_eq!(r.cm.range_hash(FAR, 1), Some(img.hash()), "{at}");
                    assert_eq!(r.cm.total_writes(), 1, "{at}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_round_trip_any_geometry(frames in 1usize..8, far in 0u32..10_000, seed in any::<u32>()) {
            let payload: Vec<u32> = (0..frames * FRAME_WORDS)
                .map(|i| (i as u32).wrapping_mul(2654435761).wrapping_add(seed))
                .collect();
            let img = RmImage::new("m", payload, Resources::ZERO);
            let bs = BitstreamBuilder::kintex7().partial(far, &img.payload);
            prop_assert_eq!(bs.len_bytes(), Bitstream::size_for_frames(frames));
            let mut r = rig_with_frames(10_000 + 7);
            feed_and_drain(&mut r, &bs.to_bytes());
            let recs = r.handle.records_since(0);
            prop_assert_eq!(recs.len(), 1);
            prop_assert!(recs[0].crc_ok);
            prop_assert_eq!((recs[0].far_start, recs[0].frames), (far, frames));
            prop_assert_eq!(r.cm.range_hash(far, frames), Some(img.hash()));
        }
    }
}
