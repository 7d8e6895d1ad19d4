//! The bus sanitizer: simulation-wide protocol invariant checking.
//!
//! End-point tests pin *outcomes* (cycle counts, transferred payloads);
//! nothing there checks the protocol invariants *while* traffic flows —
//! which is exactly where edge-case bugs hide (a FIFO reset that leaks
//! its handshake marks, a zero-length DMA command, a response beat with
//! no matching request). The sanitizer is a passive recording layer
//! threaded through every [`Fifo`] the system builder cares to watch:
//!
//! * **Channel rules** — at most one push and one pop per endpoint per
//!   cycle *even across `force_*` calls made from inside a component
//!   tick* (host drivers and test fixtures outside the clocked world
//!   are exempt from the rate rule, as documented on
//!   [`Fifo::force_push`]); occupancy never exceeds capacity.
//! * **Stream framing** — TKEEP is a dense prefix: a beat carries
//!   1..=8 bytes, and once a channel has carried a beat of width `W`,
//!   a *narrower* beat without TLAST is a sparse-keep violation. TLAST
//!   seals a packet; the next push is a packet restart and must be a
//!   well-formed head under the same width rule.
//! * **Memory-mapped links** — burst length never exceeds the link's
//!   advertised maximum, a zero-beat command is rejected, every
//!   response beat pairs with an outstanding request (no response
//!   before request), and within a burst the TLAST beat lands exactly
//!   on the final expected beat (monotone beat ordering).
//! * **Decoupling** — a channel gated by a decouple [`Signal`] must
//!   stay silent (no pushes) while the gate is high.
//! * **Watchdog** — every event stamps the channel's last-progress
//!   cycle; when a run stalls, the kernel folds per-channel "stuck
//!   since cycle N" evidence into the [`crate::StallReport`].
//!
//! The sanitizer never refuses or alters traffic — it only records.
//! Cycle counts are therefore bit-identical with monitoring on or off,
//! which the cycle-parity integration tests pin.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::fifo::Fifo;
use crate::signal::Signal;
use crate::state::{StateBlob, StateError, StateValue};
use crate::time::Cycle;

/// How many individual [`ProtocolViolation`] records are retained
/// (counts keep accumulating past the cap; the records are evidence,
/// not statistics).
const MAX_RECORDED: usize = 64;

/// What a monitored element looks like to the sanitizer.
///
/// Element types describe themselves via [`Payload`]; channels of
/// types with no protocol content use [`PayloadMeta::Opaque`] and get
/// only the rate/capacity/watchdog rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadMeta {
    /// No protocol content.
    Opaque,
    /// An AXI-Stream beat: valid byte count (dense-prefix TKEEP) and
    /// TLAST.
    Stream {
        /// Valid bytes in the beat (1..=8 when well-formed).
        bytes: u8,
        /// TLAST: final beat of a packet.
        last: bool,
    },
    /// A memory-mapped request.
    MmRequest {
        /// Transaction length in beats (1 for single-beat operations).
        beats: u16,
        /// Posted write: no response beat will follow.
        posted: bool,
    },
    /// A memory-mapped response beat.
    MmResponse {
        /// Final beat of the transaction.
        last: bool,
        /// Error response (terminates the transaction).
        error: bool,
    },
}

/// Implemented by element types that can describe themselves to the
/// sanitizer. `rvcap-axi` implements it for its beat and transaction
/// types; plain data channels fall back to [`PayloadMeta::Opaque`].
pub trait Payload {
    /// The element's protocol-relevant shape.
    fn meta(&self) -> PayloadMeta;
}

macro_rules! opaque_payload {
    ($($t:ty),*) => {
        $(impl Payload for $t {
            fn meta(&self) -> PayloadMeta {
                PayloadMeta::Opaque
            }
        })*
    };
}
opaque_payload!(u8, u16, u32, u64, usize);

/// The class of a recorded violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// More than one push on a channel in one cycle from ticked code.
    MultiPush,
    /// More than one pop on a channel in one cycle from ticked code.
    MultiPop,
    /// TKEEP not a dense prefix: a zero/overwide byte count, or a
    /// short beat without TLAST on a channel that carries wider beats.
    SparseKeep,
    /// Channel occupancy exceeded its declared capacity.
    CapacityExceeded,
    /// A push on a channel whose decouple gate was high.
    DecoupledTraffic,
    /// A burst longer than the link's advertised maximum.
    BurstTooLong,
    /// A zero-beat memory-mapped command.
    ZeroLength,
    /// A response beat with no outstanding request on the link.
    UnsolicitedResponse,
    /// TLAST did not land on the final expected beat of a burst.
    BeatOrdering,
}

impl ViolationKind {
    /// Every kind, for iteration in reports and tests.
    pub const ALL: [ViolationKind; 9] = [
        ViolationKind::MultiPush,
        ViolationKind::MultiPop,
        ViolationKind::SparseKeep,
        ViolationKind::CapacityExceeded,
        ViolationKind::DecoupledTraffic,
        ViolationKind::BurstTooLong,
        ViolationKind::ZeroLength,
        ViolationKind::UnsolicitedResponse,
        ViolationKind::BeatOrdering,
    ];

    /// Short name for reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            ViolationKind::MultiPush => "multi-push",
            ViolationKind::MultiPop => "multi-pop",
            ViolationKind::SparseKeep => "sparse-keep",
            ViolationKind::CapacityExceeded => "capacity-exceeded",
            ViolationKind::DecoupledTraffic => "decoupled-traffic",
            ViolationKind::BurstTooLong => "burst-too-long",
            ViolationKind::ZeroLength => "zero-length",
            ViolationKind::UnsolicitedResponse => "unsolicited-response",
            ViolationKind::BeatOrdering => "beat-ordering",
        }
    }

    fn index(&self) -> usize {
        Self::ALL.iter().position(|k| k == self).unwrap()
    }
}

/// One recorded protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// Cycle at which the violating event was observed.
    pub cycle: Cycle,
    /// Name of the channel it was observed on.
    pub channel: String,
    /// Violation class.
    pub kind: ViolationKind,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}] {} on {}: {}",
            self.cycle,
            self.kind.as_str(),
            self.channel,
            self.detail
        )
    }
}

/// Watchdog evidence: a non-empty channel that has seen no push, pop,
/// or clear for a long time. Folded into [`crate::StallReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckChannel {
    /// Channel name.
    pub name: String,
    /// Cycle of the channel's last event.
    pub since: Cycle,
    /// Elements parked on the channel.
    pub occupancy: usize,
}

/// Identifies a memory-mapped link (request + response channel pair)
/// registered with [`Sanitizer::mm_link`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkId(usize);

/// The protocol role of a watched channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// Rate/capacity/watchdog rules only.
    Opaque,
    /// AXI-Stream framing rules apply.
    Stream,
    /// The request side of a memory-mapped link.
    MmReq {
        /// The link this channel belongs to.
        link: LinkId,
    },
    /// The response side of a memory-mapped link.
    MmResp {
        /// The link this channel belongs to.
        link: LinkId,
    },
}

#[derive(Debug)]
struct ChannelState {
    name: String,
    capacity: usize,
    kind: ChannelKind,
    /// Decouple gate: pushes while high are violations.
    gate: Option<Signal<bool>>,
    /// Mirrored queue length (updated on every event).
    occupancy: usize,
    /// Widest beat seen (stream channels; 0 = none yet).
    width: u8,
    /// Cycle the per-cycle op counters refer to.
    mark: Option<Cycle>,
    pushes_this_cycle: u32,
    pops_this_cycle: u32,
    /// Cycle of the last push/pop/clear.
    last_progress: Cycle,
}

#[derive(Debug)]
struct LinkState {
    /// Advertised maximum burst length in beats.
    max_burst: u16,
    /// Expected response beats per outstanding transaction, in issue
    /// order (in-order links; the crossbar scoreboard preserves this
    /// per master).
    outstanding: VecDeque<u32>,
}

#[derive(Debug, Default)]
struct SanitizerState {
    now: Cycle,
    /// True while the kernel is inside a component tick loop — the
    /// window in which the one-op-per-cycle rate rule applies.
    in_tick: bool,
    channels: Vec<ChannelState>,
    links: Vec<LinkState>,
    recorded: Vec<ProtocolViolation>,
    counts: [u64; ViolationKind::ALL.len()],
    total: u64,
}

impl SanitizerState {
    fn record(&mut self, channel: usize, kind: ViolationKind, detail: String) {
        self.counts[kind.index()] += 1;
        self.total += 1;
        if self.recorded.len() < MAX_RECORDED {
            self.recorded.push(ProtocolViolation {
                cycle: self.now,
                channel: self.channels[channel].name.clone(),
                kind,
                detail,
            });
        }
    }

    /// Per-cycle op accounting; returns the op count for this cycle.
    fn bump_rate(ch: &mut ChannelState, now: Cycle, push: bool) -> u32 {
        if ch.mark != Some(now) {
            ch.mark = Some(now);
            ch.pushes_this_cycle = 0;
            ch.pops_this_cycle = 0;
        }
        let ctr = if push {
            &mut ch.pushes_this_cycle
        } else {
            &mut ch.pops_this_cycle
        };
        *ctr += 1;
        *ctr
    }

    fn on_push(&mut self, channel: usize, meta: PayloadMeta, occupancy: usize) {
        let now = self.now;
        let in_tick = self.in_tick;
        let mut pending: Vec<(ViolationKind, String)> = Vec::new();
        let kind = {
            let ch = &mut self.channels[channel];
            ch.occupancy = occupancy;
            ch.last_progress = now;
            if occupancy > ch.capacity {
                pending.push((
                    ViolationKind::CapacityExceeded,
                    format!("{} queued on a {}-deep channel", occupancy, ch.capacity),
                ));
            }
            if in_tick {
                let n = Self::bump_rate(ch, now, true);
                if n > 1 {
                    pending.push((
                        ViolationKind::MultiPush,
                        format!("{n} pushes from ticked code in one cycle"),
                    ));
                }
            }
            if let Some(gate) = &ch.gate {
                if gate.get() {
                    pending.push((
                        ViolationKind::DecoupledTraffic,
                        "push while the decouple gate is high".into(),
                    ));
                }
            }
            if let PayloadMeta::Stream { bytes, last } = meta {
                if bytes == 0 || bytes > 8 {
                    pending.push((
                        ViolationKind::SparseKeep,
                        format!("beat carries {bytes} bytes"),
                    ));
                } else {
                    if !last && bytes < ch.width {
                        pending.push((
                            ViolationKind::SparseKeep,
                            format!(
                                "short ({bytes} B) beat without TLAST on a {}-byte channel",
                                ch.width
                            ),
                        ));
                    }
                    ch.width = ch.width.max(bytes);
                }
            }
            ch.kind
        };
        match (kind, meta) {
            (ChannelKind::MmReq { link }, PayloadMeta::MmRequest { beats, posted }) => {
                let l = &mut self.links[link.0];
                if beats == 0 {
                    pending.push((
                        ViolationKind::ZeroLength,
                        "zero-beat memory-mapped command".into(),
                    ));
                } else if beats > l.max_burst {
                    pending.push((
                        ViolationKind::BurstTooLong,
                        format!("{beats}-beat burst on a link advertising {}", l.max_burst),
                    ));
                }
                if !posted {
                    l.outstanding.push_back(u32::from(beats.max(1)));
                }
            }
            (ChannelKind::MmResp { link }, PayloadMeta::MmResponse { last, error }) => {
                let l = &mut self.links[link.0];
                match l.outstanding.front_mut() {
                    None => pending.push((
                        ViolationKind::UnsolicitedResponse,
                        "response beat with no outstanding request".into(),
                    )),
                    Some(remaining) => {
                        *remaining -= 1;
                        let exhausted = *remaining == 0;
                        if error {
                            // An error response terminates the
                            // transaction wherever it lands.
                            l.outstanding.pop_front();
                        } else if exhausted != last {
                            pending.push((
                                ViolationKind::BeatOrdering,
                                if last {
                                    format!("TLAST with {remaining} beats still expected")
                                } else {
                                    "final expected beat without TLAST".into()
                                },
                            ));
                            // Resynchronize on the transaction boundary
                            // the producer signalled.
                            l.outstanding.pop_front();
                        } else if exhausted {
                            l.outstanding.pop_front();
                        }
                    }
                }
            }
            _ => {}
        }
        for (kind, detail) in pending {
            self.record(channel, kind, detail);
        }
    }

    fn on_pop(&mut self, channel: usize, occupancy: usize) {
        let now = self.now;
        let in_tick = self.in_tick;
        let mut multi = None;
        {
            let ch = &mut self.channels[channel];
            ch.occupancy = occupancy;
            ch.last_progress = now;
            if in_tick {
                let n = Self::bump_rate(ch, now, false);
                if n > 1 {
                    multi = Some(n);
                }
            }
        }
        if let Some(n) = multi {
            self.record(
                channel,
                ViolationKind::MultiPop,
                format!("{n} pops from ticked code in one cycle"),
            );
        }
    }

    fn on_clear(&mut self, channel: usize) {
        let ch = &mut self.channels[channel];
        ch.occupancy = 0;
        ch.last_progress = self.now;
        // A reset also resets the framing state: the next beat starts
        // a fresh packet on a fresh channel width.
        ch.width = 0;
    }
}

/// Hook installed on a [`Fifo`] by [`Sanitizer::watch`]; forwards
/// every push/pop/clear to the shared sanitizer state.
pub struct ChannelMonitor<T> {
    state: Rc<RefCell<SanitizerState>>,
    channel: usize,
    extract: fn(&T) -> PayloadMeta,
}

impl<T> Clone for ChannelMonitor<T> {
    fn clone(&self) -> Self {
        ChannelMonitor {
            state: self.state.clone(),
            channel: self.channel,
            extract: self.extract,
        }
    }
}

impl<T> fmt::Debug for ChannelMonitor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelMonitor")
            .field("channel", &self.channel)
            .finish_non_exhaustive()
    }
}

impl<T> ChannelMonitor<T> {
    pub(crate) fn meta_of(&self, item: &T) -> PayloadMeta {
        (self.extract)(item)
    }

    pub(crate) fn record_push(&self, meta: PayloadMeta, occupancy: usize) {
        self.state
            .borrow_mut()
            .on_push(self.channel, meta, occupancy);
    }

    pub(crate) fn record_pop(&self, occupancy: usize) {
        self.state.borrow_mut().on_pop(self.channel, occupancy);
    }

    pub(crate) fn record_clear(&self) {
        self.state.borrow_mut().on_clear(self.channel);
    }
}

/// The sanitizer: a cloneable handle over the shared checking state.
///
/// Create one, [`watch`](Sanitizer::watch) the channels of interest,
/// hand a clone to [`crate::Simulator::attach_sanitizer`], and read
/// the verdict with [`violation_count`](Sanitizer::violation_count) /
/// [`violations`](Sanitizer::violations) after the run.
#[derive(Debug, Clone, Default)]
pub struct Sanitizer {
    state: Rc<RefCell<SanitizerState>>,
}

impl Sanitizer {
    /// A sanitizer with no watched channels.
    pub fn new() -> Self {
        Sanitizer::default()
    }

    /// Register a memory-mapped link advertising `max_burst` beats per
    /// transaction; watch its two channels with [`ChannelKind::MmReq`]
    /// / [`ChannelKind::MmResp`] carrying the returned id.
    pub fn mm_link(&self, max_burst: u16) -> LinkId {
        let mut st = self.state.borrow_mut();
        st.links.push(LinkState {
            max_burst,
            outstanding: VecDeque::new(),
        });
        LinkId(st.links.len() - 1)
    }

    /// Watch a channel under the given protocol role.
    pub fn watch<T: Payload>(&self, fifo: &Fifo<T>, kind: ChannelKind) {
        self.watch_inner(fifo, kind, None);
    }

    /// Watch a stream channel gated by a decouple signal: any push
    /// while `gate` is high is a [`ViolationKind::DecoupledTraffic`].
    pub fn watch_gated<T: Payload>(&self, fifo: &Fifo<T>, gate: Signal<bool>) {
        self.watch_inner(fifo, ChannelKind::Stream, Some(gate));
    }

    fn watch_inner<T: Payload>(
        &self,
        fifo: &Fifo<T>,
        kind: ChannelKind,
        gate: Option<Signal<bool>>,
    ) {
        fn extract<T: Payload>(item: &T) -> PayloadMeta {
            item.meta()
        }
        let channel = {
            let mut st = self.state.borrow_mut();
            if let ChannelKind::MmReq { link } | ChannelKind::MmResp { link } = kind {
                assert!(link.0 < st.links.len(), "unregistered link id");
            }
            let registered_at = st.now;
            st.channels.push(ChannelState {
                name: fifo.name(),
                capacity: fifo.capacity(),
                kind,
                gate,
                occupancy: fifo.len(),
                width: 0,
                mark: None,
                pushes_this_cycle: 0,
                pops_this_cycle: 0,
                last_progress: registered_at,
            });
            st.channels.len() - 1
        };
        fifo.attach_monitor(ChannelMonitor {
            state: self.state.clone(),
            channel,
            extract: extract::<T>,
        });
    }

    /// Number of channels being watched.
    pub fn watched_channels(&self) -> usize {
        self.state.borrow().channels.len()
    }

    /// Kernel hook: a component tick loop for `now` is starting.
    pub fn begin_cycle(&self, now: Cycle) {
        let mut st = self.state.borrow_mut();
        st.now = now;
        st.in_tick = true;
    }

    /// Kernel hook: the tick loop finished; the clock is now past it.
    pub fn end_cycle(&self) {
        let mut st = self.state.borrow_mut();
        st.in_tick = false;
        st.now += 1;
    }

    /// Kernel hook: the clock jumped (idle fast-forward).
    pub fn set_now(&self, now: Cycle) {
        self.state.borrow_mut().now = now;
    }

    /// Total violations observed (all kinds, unbounded count).
    pub fn violation_count(&self) -> u64 {
        self.state.borrow().total
    }

    /// Violations of one kind.
    pub fn count_of(&self, kind: ViolationKind) -> u64 {
        self.state.borrow().counts[kind.index()]
    }

    /// The retained violation records (first [`MAX_RECORDED`]).
    pub fn violations(&self) -> Vec<ProtocolViolation> {
        self.state.borrow().recorded.clone()
    }

    /// Capture the sanitizer's full observation state — per-channel
    /// rate/framing/progress tracking, per-link outstanding
    /// transactions, and the violation verdict — for
    /// [`crate::Simulator::checkpoint`].
    ///
    /// Channels and links are saved positionally: watch order is
    /// deterministic (fixed by the system builder), so a structurally
    /// identical system watches the same channels in the same order.
    /// Channel names are saved anyway and verified on restore.
    pub fn save_state(&self) -> StateBlob {
        let st = self.state.borrow();
        let mut blob = StateBlob::new("sanitizer", 1);
        blob.put_u64("now", st.now);
        blob.put_bool("in_tick", st.in_tick);
        blob.put_u64("total", st.total);
        blob.put_list(
            "counts",
            st.counts.iter().map(|c| StateValue::U64(*c)).collect(),
        );
        blob.put_list(
            "channels",
            st.channels
                .iter()
                .map(|ch| {
                    let mut c = StateBlob::new("sanitizer.channel", 1);
                    c.put_str("name", ch.name.clone());
                    c.put_u64("occupancy", ch.occupancy as u64);
                    c.put_u64("width", u64::from(ch.width));
                    c.put_opt_u64("mark", ch.mark);
                    c.put_u64("pushes", u64::from(ch.pushes_this_cycle));
                    c.put_u64("pops", u64::from(ch.pops_this_cycle));
                    c.put_u64("last_progress", ch.last_progress);
                    StateValue::Blob(Box::new(c))
                })
                .collect(),
        );
        blob.put_list(
            "links",
            st.links
                .iter()
                .map(|l| {
                    StateValue::List(
                        l.outstanding
                            .iter()
                            .map(|b| StateValue::U64(u64::from(*b)))
                            .collect(),
                    )
                })
                .collect(),
        );
        blob.put_list(
            "recorded",
            st.recorded
                .iter()
                .map(|v| {
                    let mut r = StateBlob::new("sanitizer.violation", 1);
                    r.put_u64("cycle", v.cycle);
                    r.put_str("channel", v.channel.clone());
                    r.put_u64("kind", v.kind.index() as u64);
                    r.put_str("detail", v.detail.clone());
                    StateValue::Blob(Box::new(r))
                })
                .collect(),
        );
        blob
    }

    /// Overwrite the observation state from a [`Sanitizer::save_state`]
    /// blob. The watched-channel and link topology must match (same
    /// count, same names in the same order) — topology is wiring, not
    /// state, and a mismatch means the blob belongs to a different
    /// system.
    pub fn restore_state(&self, blob: &StateBlob) -> Result<(), StateError> {
        blob.expect("sanitizer", 1)?;
        let channels = blob.get_list("channels")?;
        let links = blob.get_list("links")?;
        let counts = blob.get_list("counts")?;
        let recorded = blob.get_list("recorded")?;
        let mut st = self.state.borrow_mut();
        if channels.len() != st.channels.len() {
            return Err(blob.structure_error(format!(
                "blob watches {} channels, this sanitizer watches {}",
                channels.len(),
                st.channels.len()
            )));
        }
        if links.len() != st.links.len() {
            return Err(blob.structure_error(format!(
                "blob has {} mm links, this sanitizer has {}",
                links.len(),
                st.links.len()
            )));
        }
        if counts.len() != ViolationKind::ALL.len() {
            return Err(blob.structure_error(format!(
                "blob has {} violation counters, expected {}",
                counts.len(),
                ViolationKind::ALL.len()
            )));
        }
        // Validate everything before mutating anything: restore is
        // all-or-nothing per blob.
        let mut new_channels = Vec::with_capacity(channels.len());
        for (v, ch) in channels.iter().zip(&st.channels) {
            let c = match v {
                StateValue::Blob(b) => b,
                other => {
                    return Err(blob.structure_error(format!(
                        "channel entry is {}, expected blob",
                        other.kind()
                    )))
                }
            };
            c.expect("sanitizer.channel", 1)?;
            let name = c.get_str("name")?;
            if name != ch.name {
                return Err(blob.structure_error(format!(
                    "channel order mismatch: blob has {name}, sanitizer watches {}",
                    ch.name
                )));
            }
            new_channels.push((
                c.get_u64("occupancy")? as usize,
                u8::try_from(c.get_u64("width")?)
                    .map_err(|_| c.structure_error("width does not fit u8"))?,
                c.get_opt_u64("mark")?,
                c.get_u32("pushes")?,
                c.get_u32("pops")?,
                c.get_u64("last_progress")?,
            ));
        }
        let mut new_links = Vec::with_capacity(links.len());
        for v in links {
            let outstanding = match v {
                StateValue::List(items) => items
                    .iter()
                    .map(|i| match i {
                        StateValue::U64(b) => u32::try_from(*b).map_err(|_| {
                            blob.structure_error("outstanding beat count does not fit u32")
                        }),
                        other => Err(blob.structure_error(format!(
                            "outstanding entry is {}, expected u64",
                            other.kind()
                        ))),
                    })
                    .collect::<Result<VecDeque<u32>, _>>()?,
                other => {
                    return Err(blob
                        .structure_error(format!("link entry is {}, expected list", other.kind())))
                }
            };
            new_links.push(outstanding);
        }
        let mut new_counts = [0u64; ViolationKind::ALL.len()];
        for (slot, v) in new_counts.iter_mut().zip(counts) {
            *slot = match v {
                StateValue::U64(c) => *c,
                other => {
                    return Err(blob
                        .structure_error(format!("count entry is {}, expected u64", other.kind())))
                }
            };
        }
        let mut new_recorded = Vec::with_capacity(recorded.len());
        for v in recorded {
            let r = match v {
                StateValue::Blob(b) => b,
                other => {
                    return Err(blob.structure_error(format!(
                        "violation entry is {}, expected blob",
                        other.kind()
                    )))
                }
            };
            r.expect("sanitizer.violation", 1)?;
            let kind_idx = r.get_u64("kind")? as usize;
            let kind = *ViolationKind::ALL
                .get(kind_idx)
                .ok_or_else(|| r.structure_error(format!("unknown violation kind {kind_idx}")))?;
            new_recorded.push(ProtocolViolation {
                cycle: r.get_u64("cycle")?,
                channel: r.get_str("channel")?.to_string(),
                kind,
                detail: r.get_str("detail")?.to_string(),
            });
        }
        st.now = blob.get_u64("now")?;
        st.in_tick = blob.get_bool("in_tick")?;
        st.total = blob.get_u64("total")?;
        st.counts = new_counts;
        st.recorded = new_recorded;
        for (ch, (occupancy, width, mark, pushes, pops, last_progress)) in
            st.channels.iter_mut().zip(new_channels)
        {
            ch.occupancy = occupancy;
            ch.width = width;
            ch.mark = mark;
            ch.pushes_this_cycle = pushes;
            ch.pops_this_cycle = pops;
            ch.last_progress = last_progress;
        }
        for (l, outstanding) in st.links.iter_mut().zip(new_links) {
            l.outstanding = outstanding;
        }
        Ok(())
    }

    /// Watchdog sweep: non-empty channels with no event for at least
    /// `threshold` cycles as of `now`.
    pub fn stuck_channels(&self, now: Cycle, threshold: Cycle) -> Vec<StuckChannel> {
        self.state
            .borrow()
            .channels
            .iter()
            .filter(|c| c.occupancy > 0 && now.saturating_sub(c.last_progress) >= threshold)
            .map(|c| StuckChannel {
                name: c.name.clone(),
                since: c.last_progress,
                occupancy: c.occupancy,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_meta(bytes: u8, last: bool) -> PayloadMeta {
        PayloadMeta::Stream { bytes, last }
    }

    /// A test element carrying explicit metadata.
    #[derive(Clone, Copy)]
    struct Beat(u8, bool);
    impl Payload for Beat {
        fn meta(&self) -> PayloadMeta {
            stream_meta(self.0, self.1)
        }
    }

    #[derive(Clone, Copy)]
    struct Req(u16, bool);
    impl Payload for Req {
        fn meta(&self) -> PayloadMeta {
            PayloadMeta::MmRequest {
                beats: self.0,
                posted: self.1,
            }
        }
    }

    #[derive(Clone, Copy)]
    struct Resp(bool, bool);
    impl Payload for Resp {
        fn meta(&self) -> PayloadMeta {
            PayloadMeta::MmResponse {
                last: self.0,
                error: self.1,
            }
        }
    }

    #[test]
    fn legal_stream_traffic_is_clean() {
        let san = Sanitizer::new();
        let f: Fifo<Beat> = Fifo::new("s", 8);
        san.watch(&f, ChannelKind::Stream);
        for c in 0..6u64 {
            san.begin_cycle(c);
            f.force_push(Beat(8, c == 2)); // packet of 3, then restart
            if c >= 1 {
                f.force_pop();
            }
            san.end_cycle();
        }
        // Final short beat closes the second packet.
        san.begin_cycle(6);
        f.force_push(Beat(3, true));
        san.end_cycle();
        assert_eq!(san.violation_count(), 0, "{:?}", san.violations());
    }

    #[test]
    fn double_push_from_ticked_code_is_caught() {
        let san = Sanitizer::new();
        let f: Fifo<u32> = Fifo::new("c", 8);
        san.watch(&f, ChannelKind::Opaque);
        san.begin_cycle(5);
        f.try_push(5, 1).unwrap();
        f.force_push(2); // bypasses the FIFO's own rate limit
        san.end_cycle();
        assert_eq!(san.count_of(ViolationKind::MultiPush), 1);
        let v = &san.violations()[0];
        assert_eq!(v.cycle, 5);
        assert_eq!(v.channel, "c");
    }

    #[test]
    fn double_pop_from_ticked_code_is_caught() {
        let san = Sanitizer::new();
        let f: Fifo<u32> = Fifo::new("c", 8);
        f.force_push(1);
        f.force_push(2);
        san.watch(&f, ChannelKind::Opaque);
        san.begin_cycle(0);
        assert!(f.try_pop(0).is_some());
        assert!(f.force_pop().is_some());
        san.end_cycle();
        assert_eq!(san.count_of(ViolationKind::MultiPop), 1);
    }

    #[test]
    fn host_context_force_ops_are_rate_exempt() {
        let san = Sanitizer::new();
        let f: Fifo<u32> = Fifo::new("c", 8);
        san.watch(&f, ChannelKind::Opaque);
        // No begin_cycle: this is the host driver between steps.
        f.force_push(1);
        f.force_push(2);
        assert!(f.force_pop().is_some());
        assert!(f.force_pop().is_some());
        assert_eq!(san.violation_count(), 0);
    }

    #[test]
    fn short_mid_packet_beat_is_sparse_keep() {
        let san = Sanitizer::new();
        let f: Fifo<Beat> = Fifo::new("s", 8);
        san.watch(&f, ChannelKind::Stream);
        f.force_push(Beat(8, false));
        f.force_push(Beat(4, false)); // narrow without TLAST
        f.force_push(Beat(4, true)); // narrow tail is fine
        assert_eq!(san.count_of(ViolationKind::SparseKeep), 1);
    }

    #[test]
    fn restart_after_tlast_must_be_well_formed() {
        let san = Sanitizer::new();
        let f: Fifo<Beat> = Fifo::new("s", 8);
        san.watch(&f, ChannelKind::Stream);
        f.force_push(Beat(8, false));
        f.force_push(Beat(8, true)); // seals the packet
        f.force_push(Beat(2, false)); // restart head: short without TLAST
        assert_eq!(san.count_of(ViolationKind::SparseKeep), 1);
    }

    #[test]
    fn zero_or_overwide_keep_is_sparse_keep() {
        let san = Sanitizer::new();
        let f: Fifo<Beat> = Fifo::new("s", 8);
        san.watch(&f, ChannelKind::Stream);
        f.force_push(Beat(0, true));
        f.force_push(Beat(9, true));
        assert_eq!(san.count_of(ViolationKind::SparseKeep), 2);
    }

    #[test]
    fn gated_channel_must_stay_silent() {
        let san = Sanitizer::new();
        let gate = Signal::new(false);
        let f: Fifo<Beat> = Fifo::new("rm.in", 8);
        san.watch_gated(&f, gate.clone());
        f.force_push(Beat(8, false)); // coupled: fine
        gate.set(true);
        f.force_push(Beat(8, false)); // decoupled: violation
        assert!(f.force_pop().is_some()); // draining is fine
        gate.set(false);
        f.force_push(Beat(8, true));
        assert_eq!(san.count_of(ViolationKind::DecoupledTraffic), 1);
        assert_eq!(san.violation_count(), 1);
    }

    #[test]
    fn mm_link_checks_burst_length_and_pairing() {
        let san = Sanitizer::new();
        let req: Fifo<Req> = Fifo::new("l.req", 4);
        let resp: Fifo<Resp> = Fifo::new("l.resp", 64);
        let link = san.mm_link(16);
        san.watch(&req, ChannelKind::MmReq { link });
        san.watch(&resp, ChannelKind::MmResp { link });

        resp.force_push(Resp(true, false)); // nothing outstanding
        assert_eq!(san.count_of(ViolationKind::UnsolicitedResponse), 1);

        req.force_push(Req(17, false)); // burst over the advertised max
        assert_eq!(san.count_of(ViolationKind::BurstTooLong), 1);
        for _ in 0..16 {
            resp.force_push(Resp(false, false));
        }
        resp.force_push(Resp(true, false));
        // The 17-beat burst itself pairs correctly.
        assert_eq!(san.count_of(ViolationKind::BeatOrdering), 0);

        req.force_push(Req(0, false)); // zero-beat command
        assert_eq!(san.count_of(ViolationKind::ZeroLength), 1);
        resp.force_push(Resp(true, false)); // its single response is fine

        req.force_push(Req(4, false));
        resp.force_push(Resp(false, false));
        resp.force_push(Resp(true, false)); // early TLAST
        assert_eq!(san.count_of(ViolationKind::BeatOrdering), 1);
    }

    #[test]
    fn posted_writes_expect_no_response() {
        let san = Sanitizer::new();
        let req: Fifo<Req> = Fifo::new("l.req", 4);
        let resp: Fifo<Resp> = Fifo::new("l.resp", 8);
        let link = san.mm_link(16);
        san.watch(&req, ChannelKind::MmReq { link });
        san.watch(&resp, ChannelKind::MmResp { link });
        req.force_push(Req(1, true));
        assert!(req.force_pop().is_some());
        resp.force_push(Resp(true, false)); // nothing owed: unsolicited
        assert_eq!(san.count_of(ViolationKind::UnsolicitedResponse), 1);
    }

    #[test]
    fn error_response_terminates_the_transaction() {
        let san = Sanitizer::new();
        let req: Fifo<Req> = Fifo::new("l.req", 4);
        let resp: Fifo<Resp> = Fifo::new("l.resp", 64);
        let link = san.mm_link(16);
        san.watch(&req, ChannelKind::MmReq { link });
        san.watch(&resp, ChannelKind::MmResp { link });
        req.force_push(Req(8, false));
        resp.force_push(Resp(true, true)); // error kills the burst
        req.force_push(Req(1, false));
        resp.force_push(Resp(true, false)); // pairs with the new request
        assert_eq!(san.violation_count(), 0, "{:?}", san.violations());
    }

    #[test]
    fn watchdog_reports_stuck_channels() {
        let san = Sanitizer::new();
        let f: Fifo<u32> = Fifo::new("parked", 8);
        san.watch(&f, ChannelKind::Opaque);
        san.begin_cycle(10);
        f.try_push(10, 1).unwrap();
        san.end_cycle();
        assert!(san.stuck_channels(20, 100).is_empty(), "not stuck yet");
        let stuck = san.stuck_channels(500, 100);
        assert_eq!(stuck.len(), 1);
        assert_eq!(stuck[0].name, "parked");
        assert_eq!(stuck[0].since, 10);
        assert_eq!(stuck[0].occupancy, 1);
        // Draining un-sticks it.
        assert!(f.force_pop().is_some());
        assert!(san.stuck_channels(5000, 100).is_empty());
    }

    #[test]
    fn clear_resets_framing_and_occupancy() {
        let san = Sanitizer::new();
        let f: Fifo<Beat> = Fifo::new("s", 8);
        san.watch(&f, ChannelKind::Stream);
        f.force_push(Beat(8, false));
        f.clear();
        assert!(
            san.stuck_channels(u64::MAX, 1).is_empty(),
            "cleared = empty"
        );
        // Post-reset the channel may carry a narrower stream.
        f.force_push(Beat(4, false));
        f.force_push(Beat(4, true));
        assert_eq!(san.violation_count(), 0, "{:?}", san.violations());
    }

    #[test]
    fn save_restore_round_trips_verdict_and_link_state() {
        let build = || {
            let san = Sanitizer::new();
            let req: Fifo<Req> = Fifo::new("l.req", 4);
            let resp: Fifo<Resp> = Fifo::new("l.resp", 64);
            let link = san.mm_link(16);
            san.watch(&req, ChannelKind::MmReq { link });
            san.watch(&resp, ChannelKind::MmResp { link });
            (san, req, resp)
        };
        let (san, req, resp) = build();
        san.begin_cycle(7);
        assert!(req.try_push(7, Req(4, false)).is_ok());
        assert!(resp.try_push(7, Resp(true, false)).is_ok()); // early TLAST
        san.end_cycle();
        assert_eq!(san.count_of(ViolationKind::BeatOrdering), 1);
        let saved = san.save_state();

        let (fresh, _req2, resp2) = build();
        fresh.restore_state(&saved).unwrap();
        assert_eq!(fresh.violation_count(), 1);
        assert_eq!(fresh.count_of(ViolationKind::BeatOrdering), 1);
        assert_eq!(fresh.violations(), san.violations());
        // The restored sanitizer must save an identical blob.
        assert_eq!(fresh.save_state(), saved);
        // A response with nothing outstanding (the early TLAST
        // resynchronized the link) is unsolicited on both.
        resp2.force_push(Resp(true, false));
        resp.force_push(Resp(true, false));
        assert_eq!(
            fresh.count_of(ViolationKind::UnsolicitedResponse),
            san.count_of(ViolationKind::UnsolicitedResponse),
        );
    }

    #[test]
    fn restore_rejects_topology_mismatch() {
        let san = Sanitizer::new();
        let f: Fifo<u32> = Fifo::new("a", 4);
        san.watch(&f, ChannelKind::Opaque);
        let saved = san.save_state();

        let other = Sanitizer::new();
        let g: Fifo<u32> = Fifo::new("b", 4);
        other.watch(&g, ChannelKind::Opaque);
        assert!(other.restore_state(&saved).is_err(), "channel name differs");

        let empty = Sanitizer::new();
        assert!(
            empty.restore_state(&saved).is_err(),
            "channel count differs"
        );
    }

    #[test]
    fn record_cap_does_not_stop_counting() {
        let san = Sanitizer::new();
        let f: Fifo<Beat> = Fifo::new("s", 200);
        san.watch(&f, ChannelKind::Stream);
        for _ in 0..100 {
            f.force_push(Beat(0, true));
        }
        assert_eq!(san.violation_count(), 100);
        assert_eq!(san.violations().len(), MAX_RECORDED);
    }
}
