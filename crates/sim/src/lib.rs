//! # rvcap-sim — deterministic cycle-stepped simulation kernel
//!
//! The RV-CAP reproduction models an FPGA system-on-chip at *cycle
//! granularity*: every AXI beat, every ICAP word, every DDR refresh
//! stall is an event on a 100 MHz clock. This crate provides the small,
//! dependency-free kernel all hardware models are built on:
//!
//! * [`time`] — cycle counts, clock frequencies, and exact
//!   cycle↔wall-time conversions (the paper reports µs and MB/s; we
//!   compute both from cycle counts, never the other way round).
//! * [`fifo`] — shared, bounded, rate-limited FIFOs implementing the
//!   valid/ready handshake semantics of on-chip streams: at most one
//!   push and one pop per simulated cycle per endpoint.
//! * [`signal`] — single-driver level signals (decouple lines, stream
//!   switch selects, interrupt wires).
//! * [`component`] — the [`component::Component`] trait every
//!   ticked hardware block implements.
//! * [`kernel`] — the [`kernel::Simulator`]: owns the
//!   components, advances the clock, and enforces a deterministic tick
//!   order.
//! * [`sanitizer`] — the bus sanitizer: a passive invariant-checking
//!   layer hooked into watched FIFOs (stream framing, MM transaction
//!   pairing, decouple gating, rate rules, stuck-channel watchdog).
//! * [`paged`] — [`paged::PagedBytes`], the sparse copy-on-write byte
//!   store behind every bulk memory, so a checkpoint shares pages with
//!   the live memory instead of copying it.
//! * [`state`] — typed, versioned checkpoint state: the
//!   [`state::StateBlob`] every component externalizes its mutable
//!   state into, and the whole-simulator [`state::SimState`] produced
//!   by [`kernel::Simulator::checkpoint`].
//! * [`replay`] — divergence bisection between two runs forked from a
//!   shared checkpoint ([`replay::bisect_divergence`]).
//! * [`vcd`] — value-change-dump recording: real waveforms (GTKWave-
//!   compatible) from any signal or FIFO in the system.
//! * [`stats`] — the kernel's work accounting ([`stats::KernelStats`])
//!   and per-device MMIO audits ([`stats::MmioAudit`], merged with the
//!   sanitizer's count by [`kernel::Simulator::mmio_audit`]).
//!
//! ## Determinism
//!
//! The simulation is single-threaded and components are ticked in
//! registration order, so a given system produces bit-identical cycle
//! counts on every run. This is load-bearing: the benchmark harness
//! compares measured cycle counts against the paper's published
//! numbers, and the test suite pins them within tolerances.
//!
//! ## Why cycle-stepped rather than event-queued
//!
//! The systems simulated here are small (tens of components), so a
//! flat loop over components per cycle is trivially deterministic and
//! has no queue-maintenance overhead. The classic weakness of the
//! approach — burning host time ticking idle components through long
//! waits (a DDR round trip, a DMA start latency, the CPU polling a
//! status register) — is addressed without giving up the flat
//! schedule: components *declare* their next activity cycle via
//! [`component::Component::next_activity`] and wire the inputs that
//! feed it to a [`wake::Waker`] ([`component::Component::wake_sources`]),
//! and the default active-set scheduler
//! ([`kernel::Scheduler::ActiveSet`]) keeps them asleep in a deadline
//! heap until that cycle or until new input actually arrives. Each
//! cycle only *due* components are touched and the clock jumps over
//! windows where nothing is due. This recovers
//! the main benefit of an event queue (work proportional to activity,
//! not to simulated time or component count) while keeping cycle
//! counts bit-identical to the naive schedule — the hints and wake
//! subscriptions are an optimization contract, never a behavioral
//! one, and can be switched off
//! ([`kernel::Simulator::set_scheduler`]) to cross-check.
//! Per-component accounting ([`stats::KernelStats`]) reports how many
//! ticks were executed versus skipped.

pub mod component;
pub mod fifo;
pub mod kernel;
pub mod paged;
pub mod replay;
pub mod sanitizer;
pub mod signal;
pub mod state;
pub mod stats;
pub mod time;
pub mod vcd;
pub mod wake;

pub use component::Component;
pub use fifo::Fifo;
pub use kernel::{Scheduler, Simulator, StallReport};
pub use paged::{PagedBytes, PAGE_SIZE};
pub use replay::{bisect_divergence, DivergenceReport};
pub use sanitizer::{
    ChannelKind, LinkId, Payload, PayloadMeta, ProtocolViolation, Sanitizer, StuckChannel,
    ViolationKind,
};
pub use signal::Signal;
pub use state::{
    ComponentState, KernelCounters, SimState, StateBlob, StateError, StateItem, StateValue,
};
pub use stats::{ComponentStats, KernelStats, MmioAudit};
pub use time::{Cycle, Freq};
pub use vcd::{VcdHandle, VcdRecorder};
pub use wake::Waker;
