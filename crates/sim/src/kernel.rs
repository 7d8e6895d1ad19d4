//! The simulation kernel: owns components, advances the clock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::component::{Component, TickCtx};
use crate::sanitizer::{Sanitizer, StuckChannel};
use crate::state::{ComponentState, KernelCounters, SimState, StateError};
use crate::stats::{ComponentStats, KernelStats, MmioAudit};
use crate::time::{Cycle, Freq};
use crate::wake::{BitSet, WakeHub};

/// Identifies a registered component within a [`Simulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComponentId(usize);

/// Diagnostic report for a simulation that hit its cycle limit.
///
/// Returned as the `Err` of [`Simulator::run_until`] and
/// [`Simulator::run_until_quiescent`] instead of panicking: a stalled
/// simulation is a *model* or *driver* bug the caller may want to
/// report (fault-injection tests exercise exactly this), and the
/// report carries everything needed to debug it — where the clock
/// stopped, who still claimed work, and the violation counts and
/// stuck-channel evidence recorded up to the stall.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// Cycle at which the run gave up.
    pub cycle: Cycle,
    /// Cycle at which the run started.
    pub start: Cycle,
    /// The limit that was exhausted.
    pub limit: Cycle,
    /// Names of components still reporting [`Component::busy`].
    pub busy: Vec<String>,
    /// Register-policy violations recorded by register-mapped devices
    /// at the time of the stall — a wrong-register access is a common
    /// way to hang a driver poll loop. Sanitizer violations are counted
    /// separately in `protocol_violations`, never here.
    pub mmio_violations: u64,
    /// Bus/stream protocol violations recorded by the attached
    /// sanitizer (zero when no sanitizer is attached).
    pub protocol_violations: u64,
    /// Watchdog evidence from the sanitizer: non-empty channels that
    /// saw no traffic for at least half the exhausted limit — the
    /// usual shape of a deadlocked handshake or a livelocked retry
    /// loop. Empty when no sanitizer is attached.
    pub stuck_channels: Vec<StuckChannel>,
}

impl std::fmt::Display for StallReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation stalled at cycle {} ({} cycles elapsed, limit {})",
            self.cycle,
            self.cycle - self.start,
            self.limit
        )?;
        if self.busy.is_empty() {
            write!(f, "; no component reports busy")?;
        } else {
            write!(f, "; busy: {}", self.busy.join(", "))?;
        }
        if self.mmio_violations > 0 {
            write!(f, "; {} MMIO violations recorded", self.mmio_violations)?;
        }
        if self.protocol_violations > 0 {
            write!(
                f,
                "; {} protocol violations recorded",
                self.protocol_violations
            )?;
        }
        for s in &self.stuck_channels {
            write!(
                f,
                "; channel {} stuck since cycle {} ({} queued)",
                s.name, s.since, s.occupancy
            )?;
        }
        Ok(())
    }
}

impl std::error::Error for StallReport {}

// Dense-window rule of [`Scheduler::ActiveSet`] (DESIGN.md §2.2; cost
// model in §2.3). A window costs about one no-op tick per registered
// component per cycle; a stepped active-set cycle costs per-tick
// bookkeeping (due-bitset sweep, wake drains, hint queries, carry bits)
// for each of its due components. Once a quarter of the system ticks
// every cycle, the plain index sweep is the cheaper of the two. The
// constants were chosen on the repository benchmark (2-vCPU Xeon VM,
// 10 alternating parent/change pairs of 25 s, medians):
// `rvcap_reconfig` went from 11.41 to 12.42 Mcyc/s and
// `adaptive_filter` from 7.24 to 8.35, winning every pair, while
// `hwicap_reconfig` and `sd_stage` never open a window and held
// (132.2 vs 132.4, 24.16 vs 24.12). The streak keeps short bursts on
// one- and two-component rigs out of windows.

/// Consecutive dense stepped cycles, with no clock jump between them,
/// that open a window.
const DENSE_STREAK: u32 = 16;
/// Cycles one window runs through the naive sweep.
const DENSE_WINDOW: Cycle = 256;
/// A stepped cycle is dense when at least `1 / DENSE_SHARE` of the
/// registered components ticked.
const DENSE_SHARE: usize = 4;

/// The execution schedule the kernel uses to decide which components
/// to tick each cycle. Both produce bit-identical simulations — same
/// cycle counts, same observable component state, same sanitizer
/// observations — they only trade host time differently.
/// [`Scheduler::ActiveSet`] executes exactly the ticks the hints do
/// not rule out, while [`Scheduler::Naive`] executes every tick
/// including the no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// Tick every component every cycle; never query hints, never jump
    /// the clock. The reference schedule the active set is compared
    /// against.
    Naive,
    /// The default: a wake-queue scheduler that only touches *due*
    /// components — self-scheduled via a min-heap of hint deadlines, or
    /// externally woken through [`crate::Fifo`]/[`crate::Signal`]
    /// subscriptions (see [`Component::wake_sources`]). A stepped
    /// cycle's work is proportional to the number of active
    /// components, not to the number registered. When a quarter or
    /// more of the system stays busy for a sustained stretch, the
    /// schedule runs *dense windows* instead: a fixed run of cycles
    /// through the naive sweep, which is cheaper than the per-tick
    /// bookkeeping there (see [`Simulator`]).
    ActiveSet,
}

/// The cycle-stepped simulator.
///
/// Components are ticked once per cycle **in registration order**.
/// That order is part of a system's wiring contract: registering a
/// producer before its consumer gives same-cycle forwarding through a
/// FIFO (combinational pass-through of a skid buffer), registering it
/// after gives one cycle of latency (a pipeline register). The SoC
/// builders in `rvcap-core` register components in dataflow order and
/// document where they rely on it.
///
/// # Scheduling
///
/// Ticking every component on every cycle is simple and deterministic
/// but wastes host time whenever the system sits in a long wait (a DDR
/// round trip, a DMA start latency, a timer poll loop). The kernel
/// offers two schedules (see [`Scheduler`]); the default,
/// [`Scheduler::ActiveSet`], keeps a per-cycle *due set*:
///
/// - Components whose [`Component::next_activity`] hint named a future
///   cycle sleep in a min-heap keyed by that cycle (ties broken by
///   registration index, preserving the ordering contract) and are
///   re-examined exactly when it arrives.
/// - Components whose hint is `Cycle::MAX` sleep until one of their
///   subscribed inputs fires their waker. Wakes landing mid-cycle from
///   an earlier-registered component join the *same* cycle (same-cycle
///   forwarding); wakes from a later one are deferred to the next cycle
///   (pipeline latency) — exactly the visibility ticking everything
///   gives.
/// - Components whose post-tick hint is `now` or `now + 1` are carried
///   into the next cycle's due set without touching the heap; their
///   pre-tick query there decides whether they tick.
/// - When nothing is due, the clock jumps straight to the earliest
///   deadline.
/// - After 16 consecutive stepped cycles with no jump between them,
///   each ticking at least a quarter of the registered components, a
///   *dense window* opens: the next 256 cycles run the naive sweep,
///   with no hint queries and no heap, bitset or wake bookkeeping. The
///   window's last cycle cold-starts the scheduler, so the next
///   stepped cycle re-queries every hint; one more dense cycle there
///   re-opens the window, a jump or a sparse cycle resets the streak.
///
/// A due component's hint is queried immediately before its tick slot
/// and, if it ticks, once after the tick. All of this preserves the exact
/// cycle-by-cycle behavior of the naive schedule — cycle counts are
/// bit-identical across schedulers ([`Simulator::set_scheduler`]),
/// which the `determinism` and `cycle_parity` integration tests pin.
/// Windows are sound for the same reason the naive schedule is: a tick
/// the hints rule out is a no-op.
///
/// [`Simulator::step`] never jumps: external drivers (the CPU model
/// mutates FIFOs between steps) rely on observing every cycle
/// boundary, so single-step mode only gates individual ticks (or runs
/// the naive sweep inside an open window).
pub struct Simulator {
    freq: Freq,
    cycle: Cycle,
    components: Vec<Box<dyn Component>>,
    scheduler: Scheduler,
    /// Per-component executed-tick counts (parallel to `components`).
    /// Skipped-cycle counts are not tracked eagerly: a component has
    /// been skipped for every cycle since registration it was not
    /// ticked, so `kernel_stats` derives them.
    ticks: Vec<u64>,
    /// Cycle at which each component was registered.
    registered_at: Vec<Cycle>,
    /// Pending external wakes (shared with `Waker`s via `Rc`).
    hub: WakeHub,
    /// Self-scheduled deadlines: `(cycle, index)` min-heap with lazy
    /// deletion — an entry is live iff its key equals
    /// `scheduled[index]`.
    heap: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// Earliest live heap deadline per component (`Cycle::MAX` when
    /// none).
    scheduled: Vec<Cycle>,
    /// Reusable per-cycle due set.
    due: BitSet,
    /// Components whose post-tick hint said "again next cycle".
    /// A streaming component re-arms every cycle while it drains;
    /// carrying it in a bitset instead of the heap keeps the dense
    /// phases free of per-cycle heap traffic.
    carry: BitSet,
    jumps: u64,
    jumped_cycles: Cycle,
    /// End (exclusive) of the open dense window: cycles below it run
    /// the naive sweep. Checkpointed, because it decides which ticks
    /// execute.
    dense_until: Cycle,
    /// Consecutive dense stepped cycles with no jump between them,
    /// saturating at [`DENSE_STREAK`]. Checkpointed like `dense_until`.
    dense_streak: u32,
    /// Cycles executed inside dense windows (measurement counter).
    dense_cycles: u64,
    /// Opt-in per-component host-time attribution (see
    /// [`Simulator::set_profiling`]). When off, tick paths pay one
    /// predictable branch and no clock reads.
    profiling: bool,
    /// Accumulated host nanoseconds inside each component's `tick`
    /// calls (parallel to `components`; only written while `profiling`
    /// is set).
    host_ns: Vec<u64>,
    sanitizer: Option<Sanitizer>,
}

impl Simulator {
    /// Create a simulator with a clock frequency.
    pub fn new(freq: Freq) -> Self {
        Simulator {
            freq,
            cycle: 0,
            components: Vec::new(),
            scheduler: Scheduler::ActiveSet,
            ticks: Vec::new(),
            registered_at: Vec::new(),
            hub: WakeHub::new(),
            heap: BinaryHeap::new(),
            scheduled: Vec::new(),
            due: BitSet::default(),
            carry: BitSet::default(),
            jumps: 0,
            jumped_cycles: 0,
            dense_until: 0,
            dense_streak: 0,
            dense_cycles: 0,
            profiling: false,
            host_ns: Vec::new(),
            sanitizer: None,
        }
    }

    /// The clock frequency.
    pub fn freq(&self) -> Freq {
        self.freq
    }

    /// The current cycle (number of completed ticks).
    pub fn now(&self) -> Cycle {
        self.cycle
    }

    /// Register a component; it participates in the schedule from the
    /// next cycle on. Its [`Component::wake_sources`] is called here,
    /// exactly once, with its [`crate::Waker`].
    pub fn register(&mut self, component: Box<dyn Component>) -> ComponentId {
        let idx = self.components.len();
        // The wake hub and the two scheduler sets widen here together
        // and nowhere else, so the per-cycle bit operations and drains
        // never resize, and no set is empty while a component is
        // registered (DESIGN.md §2.3).
        let waker = self.hub.waker(idx);
        self.due.grow_to(idx);
        self.carry.grow_to(idx);
        component.wake_sources(&waker);
        self.components.push(component);
        self.ticks.push(0);
        self.host_ns.push(0);
        self.registered_at.push(self.cycle);
        self.scheduled.push(Cycle::MAX);
        // Every component starts pending so its first hint query
        // happens on the next stepped cycle.
        self.hub.wake(idx);
        ComponentId(idx)
    }

    /// Number of registered components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Select the execution schedule (default [`Scheduler::ActiveSet`]).
    ///
    /// Cycle counts are identical across schedulers; switching only
    /// trades host time for a simpler execution schedule (useful to
    /// cross-check the hints and wake wiring, and what the determinism
    /// tests and the host-perf harness do). Safe mid-run: scheduler
    /// state is rebuilt from fresh hint queries on the next cycle, and
    /// an open dense window closes with its streak.
    pub fn set_scheduler(&mut self, scheduler: Scheduler) {
        if self.scheduler == scheduler {
            return;
        }
        self.scheduler = scheduler;
        self.dense_until = 0;
        self.dense_streak = 0;
        self.cold_start();
    }

    /// The active execution schedule.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// Drop the active-set deadlines and mark all components pending
    /// for a fresh hint query on the next stepped cycle. The wake-all
    /// subsumes stale wakes already in the hub and carried streamers
    /// alike, and the due set is empty here (every sweep drains it), so
    /// neither needs clearing; clearing the heap bounds its size.
    ///
    /// Behavior-identical to a warm scheduler, because hints are pure
    /// functions of component state. The dense-window state is not a
    /// cache (it decides which ticks execute), so it survives; callers
    /// that mean to drop it say so.
    fn cold_start(&mut self) {
        self.heap.clear();
        for s in &mut self.scheduled {
            *s = Cycle::MAX;
        }
        for i in 0..self.components.len() {
            self.hub.wake(i);
        }
    }

    /// Enable or disable per-component host-time profiling (disabled
    /// by default). While enabled, every `tick` call is bracketed with
    /// monotonic-clock reads and the elapsed host time is attributed
    /// to the component; [`Simulator::kernel_stats`] surfaces the
    /// totals and [`crate::KernelStats::render_tick_costs`] renders
    /// them. The clock reads cost real time (tens of nanoseconds per
    /// tick), so profiled runs attribute *shares* faithfully but are
    /// not wall-clock comparable to unprofiled runs; when disabled, the
    /// tick paths pay one predictable branch and nothing else.
    /// Simulated behavior is identical either way.
    pub fn set_profiling(&mut self, enabled: bool) {
        self.profiling = enabled;
    }

    /// Attach a bus sanitizer (see [`crate::sanitizer`]). The kernel
    /// brackets every tick loop with the sanitizer's cycle hooks so it
    /// can distinguish ticked-component traffic (subject to the
    /// one-op-per-cycle rate rule) from host-driver traffic, and folds
    /// its verdict into [`Simulator::mmio_audit`] and [`StallReport`].
    pub fn attach_sanitizer(&mut self, sanitizer: Sanitizer) {
        sanitizer.set_now(self.cycle);
        self.sanitizer = Some(sanitizer);
    }

    /// The attached sanitizer, if any.
    pub fn sanitizer(&self) -> Option<&Sanitizer> {
        self.sanitizer.as_ref()
    }

    /// Capture a whole-simulator checkpoint: every component's state
    /// blob plus the kernel's cycle, tick accounting, policy counters,
    /// dense-window state, and the sanitizer's observation state.
    ///
    /// **Strict completeness**: a component whose
    /// [`Component::save_state`] returns `None` is a hard error — a
    /// checkpoint silently missing one component's state would restore
    /// into a subtly wrong system. Scheduler caches (heap, due set,
    /// carry set, pending wakes) are deliberately *not* captured:
    /// they are re-derivable from component hints, and
    /// [`Simulator::restore`] rebuilds them with fresh queries, exactly
    /// like [`Simulator::set_scheduler`] does mid-run. The dense
    /// window's end and streak are captured: they are not derivable
    /// from hints, and they decide which ticks execute.
    pub fn checkpoint(&self) -> Result<SimState, StateError> {
        let mut components = Vec::with_capacity(self.components.len());
        for (i, c) in self.components.iter().enumerate() {
            let blob = c.save_state().ok_or_else(|| StateError::Unsupported {
                component: c.name().to_string(),
            })?;
            components.push(ComponentState {
                name: c.name().to_string(),
                registered_at: self.registered_at[i],
                ticks: self.ticks[i],
                blob,
            });
        }
        Ok(SimState {
            cycle: self.cycle,
            components,
            sanitizer: self.sanitizer.as_ref().map(|s| s.save_state()),
            counters: KernelCounters {
                jumps: self.jumps,
                jumped_cycles: self.jumped_cycles,
                dense_cycles: self.dense_cycles,
                dense_until: self.dense_until,
                dense_streak: self.dense_streak,
            },
        })
    }

    /// Restore a checkpoint previously captured — by this simulator or
    /// by a structurally identical one built by the same construction
    /// code (the warm-boot fork path).
    ///
    /// The component roster must match the checkpoint exactly (same
    /// count, same names, same order) and every component must restore
    /// successfully; any failure returns the error with the simulator
    /// in an unspecified half-restored state — callers treat that as
    /// fatal. Afterwards the scheduler is cold: all deadlines are
    /// dropped and every component is marked pending for a fresh hint
    /// query, which is behavior-identical to a warm scheduler because
    /// hints are pure functions of the component state just restored.
    /// The dense window's end and streak are restored on top, so an
    /// active-set run continues its window exactly like the
    /// uninterrupted run; a [`Scheduler::Naive`] simulator has no
    /// window and ignores them. (Jump *policy counters* may
    /// subsequently evolve differently than in an uninterrupted run —
    /// that is why [`KernelCounters`] are excluded from replay parity.)
    pub fn restore(&mut self, state: &SimState) -> Result<(), StateError> {
        let structure = |detail: String| StateError::Structure {
            tag: "simulator".into(),
            detail,
        };
        if state.components.len() != self.components.len() {
            return Err(structure(format!(
                "checkpoint has {} components, simulator has {}",
                state.components.len(),
                self.components.len()
            )));
        }
        for (cs, c) in state.components.iter().zip(&self.components) {
            if cs.name != c.name() {
                return Err(structure(format!(
                    "component roster mismatch: checkpoint has {}, simulator has {}",
                    cs.name,
                    c.name()
                )));
            }
        }
        match (&self.sanitizer, &state.sanitizer) {
            (Some(_), None) => {
                return Err(structure(
                    "simulator has a sanitizer attached, checkpoint has none".into(),
                ))
            }
            (None, Some(_)) => {
                return Err(structure(
                    "checkpoint carries sanitizer state, simulator has none attached".into(),
                ))
            }
            _ => {}
        }
        for (cs, c) in state.components.iter().zip(self.components.iter_mut()) {
            c.restore_state(&cs.blob)?;
        }
        if let (Some(s), Some(blob)) = (&self.sanitizer, &state.sanitizer) {
            s.restore_state(blob)?;
            s.set_now(state.cycle);
        }
        self.cycle = state.cycle;
        for (i, cs) in state.components.iter().enumerate() {
            self.ticks[i] = cs.ticks;
            self.registered_at[i] = cs.registered_at;
        }
        // Host-time attribution is a host-side measurement, not
        // simulated state: it is not checkpointed, and restarts at the
        // restore point.
        for ns in &mut self.host_ns {
            *ns = 0;
        }
        self.jumps = state.counters.jumps;
        self.jumped_cycles = state.counters.jumped_cycles;
        self.dense_cycles = state.counters.dense_cycles;
        // Cold-start the scheduler, exactly like a mid-run switch.
        self.cold_start();
        (self.dense_until, self.dense_streak) = match self.scheduler {
            Scheduler::ActiveSet => (state.counters.dense_until, state.counters.dense_streak),
            Scheduler::Naive => (0, 0),
        };
        Ok(())
    }

    /// Zero the kernel's measurement counters — executed ticks, jump
    /// and dense-window accounting — and rebase skipped-cycle
    /// accounting at the current cycle, so a subsequent
    /// [`Simulator::kernel_stats`] describes only the phase from this
    /// call onward (steady-state numbers unpolluted by boot ticks).
    /// Component-owned counters (MMIO audits, FIFO lifetime totals)
    /// are component state, not kernel measurement, and are untouched.
    /// The dense-window end and streak are scheduler state and stay.
    pub fn reset_stats(&mut self) {
        for t in &mut self.ticks {
            *t = 0;
        }
        for ns in &mut self.host_ns {
            *ns = 0;
        }
        for r in &mut self.registered_at {
            *r = self.cycle;
        }
        self.jumps = 0;
        self.jumped_cycles = 0;
        self.dense_cycles = 0;
    }

    /// Advance the simulation by one cycle.
    ///
    /// Never jumps the clock (external drivers mutate FIFO state
    /// between calls), but does skip ticking components that are not
    /// due — except inside an open dense window, which ticks all.
    pub fn step(&mut self) {
        match self.scheduler {
            Scheduler::Naive => self.step_naive(),
            Scheduler::ActiveSet if self.cycle < self.dense_until => self.step_dense(),
            Scheduler::ActiveSet => self.step_active(),
        }
    }

    /// One cycle of the reference schedule: tick everything.
    fn step_naive(&mut self) {
        let now = self.cycle;
        let mut ctx = TickCtx { cycle: now };
        if let Some(s) = &self.sanitizer {
            s.begin_cycle(now);
        }
        if self.profiling {
            for ((c, ticks), ns) in self
                .components
                .iter_mut()
                .zip(&mut self.ticks)
                .zip(&mut self.host_ns)
            {
                let t0 = std::time::Instant::now();
                c.tick(&mut ctx);
                *ns += t0.elapsed().as_nanos() as u64;
                *ticks += 1;
            }
        } else {
            for (c, ticks) in self.components.iter_mut().zip(&mut self.ticks) {
                c.tick(&mut ctx);
                *ticks += 1;
            }
        }
        self.cycle += 1;
        if let Some(s) = &self.sanitizer {
            s.end_cycle();
        }
    }

    /// One cycle inside an open dense window: the naive sweep. The
    /// window's last cycle cold-starts the active set, so the next
    /// stepped cycle re-queries every hint and decides on the next
    /// window with the streak left as it was.
    ///
    /// Kept out of line so `advance`, which every MMIO round trip
    /// calls, stays small.
    #[inline(never)]
    fn step_dense(&mut self) {
        self.step_naive();
        self.dense_cycles += 1;
        if self.cycle == self.dense_until {
            self.cold_start();
        }
    }

    /// Advance by up to `window` cycles (at least one), jumping over
    /// all-idle stretches under [`Scheduler::ActiveSet`]. Returns the
    /// number of cycles advanced.
    ///
    /// A jump is sound because every component declared its next
    /// activity to be at or after `now + delta`: no tick in the
    /// skipped range would have changed any state, so the system
    /// arrives at the target cycle in exactly the state the naive
    /// schedule would produce. The delta is clamped to the caller's
    /// window so limit-hit cycles land on exactly the same boundary as
    /// the naive schedule.
    fn advance(&mut self, window: Cycle) -> Cycle {
        debug_assert!(window > 0);
        match self.scheduler {
            Scheduler::Naive => {
                self.step_naive();
                1
            }
            // One cycle per call, so run-loop predicates still see
            // every cycle the window changes state in.
            Scheduler::ActiveSet if self.cycle < self.dense_until => {
                self.step_dense();
                1
            }
            Scheduler::ActiveSet => self.advance_active(window),
        }
    }

    /// Active-set advance: jump when nothing is pending and every
    /// deadline is in the future; otherwise run one stepped cycle.
    ///
    /// Kept out of line, like `step_dense`, so `advance` stays small.
    #[inline(never)]
    fn advance_active(&mut self, window: Cycle) -> Cycle {
        let now = self.cycle;
        if self.hub.is_empty() && self.carry.is_empty() && !self.components.is_empty() {
            let next_due = self.heap_next_live();
            if next_due > now {
                let delta = (next_due - now).min(window);
                self.cycle += delta;
                self.jumps += 1;
                self.jumped_cycles += delta;
                self.dense_streak = 0;
                if let Some(s) = &self.sanitizer {
                    s.set_now(self.cycle);
                }
                if delta < window {
                    // The jump landed on the earliest deadline with
                    // window to spare: run the due cycle in the same
                    // call. Callers' run-loop predicates only read
                    // component-produced state (the documented
                    // `run_until` contract), which a pure jump cannot
                    // change — so no observation point is lost by not
                    // returning in between.
                    self.step_active();
                    return delta + 1;
                }
                return delta;
            }
        }
        self.step_active();
        1
    }

    /// Earliest live heap deadline, discarding stale entries on the
    /// way. `Cycle::MAX` when nothing is scheduled.
    fn heap_next_live(&mut self) -> Cycle {
        while let Some(&Reverse((at, idx))) = self.heap.peek() {
            if self.scheduled[idx as usize] == at {
                return at;
            }
            self.heap.pop();
        }
        Cycle::MAX
    }

    /// Push a live deadline for `idx`, keeping `scheduled` the minimum
    /// live key. `Cycle::MAX` means "sleep until a wake" and is never
    /// enqueued.
    fn schedule(&mut self, idx: usize, at: Cycle) {
        if at != Cycle::MAX && at < self.scheduled[idx] {
            self.scheduled[idx] = at;
            self.heap.push(Reverse((at, idx as u32)));
        }
    }

    /// One stepped cycle of the active-set schedule. Counts its ticks
    /// toward the dense-window streak and opens a window once the
    /// streak is full.
    fn step_active(&mut self) {
        let now = self.cycle;
        if let Some(s) = &self.sanitizer {
            s.begin_cycle(now);
        }
        // Build the due set: carried-over streamers, pending wakes, and
        // deadlines that have arrived.
        // The sweep below fully drains `due`, so the swap hands the
        // carry bits over and leaves `carry` empty for this cycle's
        // refills.
        debug_assert!(self.due.is_empty());
        std::mem::swap(&mut self.due, &mut self.carry);
        self.hub.drain_all_into(&mut self.due);
        while let Some(&Reverse((at, idx))) = self.heap.peek() {
            if at > now {
                break;
            }
            self.heap.pop();
            let idx = idx as usize;
            if self.scheduled[idx] == at {
                self.scheduled[idx] = Cycle::MAX;
                self.due.set(idx);
            }
        }

        // Ordered sweep over the due set: ascending index is
        // registration order, so forwarding behaves exactly like
        // ticking everything.
        let mut i = 0;
        let mut ticked = 0;
        while let Some(idx) = self.due.next_at_or_after(i) {
            self.due.clear(idx);
            i = idx + 1;
            let c = &mut self.components[idx];
            // Query the hint exactly once, immediately before this
            // component's tick slot: an earlier component may have
            // pushed work to it during this very cycle.
            let at = c.next_activity(now);
            if at > now {
                // Not due after all: sleep until the declared cycle or
                // a wake.
                self.schedule(idx, at);
                continue;
            }
            let mut ctx = TickCtx { cycle: now };
            if self.profiling {
                let t0 = std::time::Instant::now();
                c.tick(&mut ctx);
                self.host_ns[idx] += t0.elapsed().as_nanos() as u64;
            } else {
                c.tick(&mut ctx);
            }
            self.ticks[idx] += 1;
            ticked += 1;
            // Reschedule from the post-tick hint. `now` or `now + 1`
            // means "again next cycle" — the carry bitset, not the
            // heap, so a streaming drain costs no heap traffic — while
            // MAX means "sleep until a wake arrives".
            match c.next_activity(now) {
                at if at > now + 1 => self.schedule(idx, at),
                _ => self.carry.set(idx),
            }
            // A push during this tick wakes its subscribers: later
            // components join this very cycle (same-cycle forwarding),
            // earlier ones wait for the next (pipeline latency) — the
            // same visibility the naive schedule gives.
            self.hub.drain_above_into(idx, &mut self.due);
        }
        self.cycle = now + 1;
        if let Some(s) = &self.sanitizer {
            s.end_cycle();
        }
        if ticked * DENSE_SHARE >= self.components.len() && ticked > 0 {
            self.dense_streak = (self.dense_streak + 1).min(DENSE_STREAK);
            if self.dense_streak == DENSE_STREAK {
                self.dense_until = self.cycle + DENSE_WINDOW;
            }
        } else {
            self.dense_streak = 0;
        }
    }

    /// Advance by `n` cycles.
    pub fn step_n(&mut self, n: Cycle) {
        let mut remaining = n;
        while remaining > 0 {
            remaining -= self.advance(remaining);
        }
    }

    /// Step until `predicate` returns true, checking *after* each
    /// cycle. Returns the number of cycles stepped, or a
    /// [`StallReport`] after `limit` cycles — an un-met predicate is a
    /// deadlock or a wiring bug, and a bounded run with a diagnostic
    /// beats an infinite loop.
    ///
    /// Under [`Scheduler::ActiveSet`] the predicate is not evaluated at
    /// cycles inside an all-idle clock jump. That is behavior-
    /// preserving for predicates that read component-produced state
    /// (FIFOs, signals, handles): no component changes state during
    /// the jump, so the predicate's value is constant across it. Dense
    /// windows advance one cycle per check, like the naive schedule.
    pub fn run_until(
        &mut self,
        limit: Cycle,
        mut predicate: impl FnMut() -> bool,
    ) -> Result<Cycle, StallReport> {
        let start = self.cycle;
        while !predicate() {
            let elapsed = self.cycle - start;
            if elapsed >= limit {
                return Err(self.stall_report(start, limit));
            }
            self.advance(limit - elapsed);
        }
        Ok(self.cycle - start)
    }

    /// Step until every registered component reports `!busy()`, with
    /// the same `limit` safety net. Returns cycles stepped, or a
    /// [`StallReport`] naming the components that never drained.
    pub fn run_until_quiescent(&mut self, limit: Cycle) -> Result<Cycle, StallReport> {
        let start = self.cycle;
        loop {
            if !self.components.iter().any(|c| c.busy()) {
                return Ok(self.cycle - start);
            }
            let elapsed = self.cycle - start;
            if elapsed >= limit {
                return Err(self.stall_report(start, limit));
            }
            self.advance(limit - elapsed);
        }
    }

    /// Build the diagnostic for a limit-exhausted run.
    fn stall_report(&self, start: Cycle, limit: Cycle) -> StallReport {
        let (protocol_violations, stuck_channels) = match &self.sanitizer {
            // "Stuck" = no event for at least half the exhausted
            // limit: long enough to rule out ordinary backpressure,
            // short enough that the culprit of the stall qualifies.
            Some(s) => (
                s.violation_count(),
                s.stuck_channels(self.cycle, (limit / 2).max(1)),
            ),
            None => (0, Vec::new()),
        };
        StallReport {
            cycle: self.cycle,
            start,
            limit,
            busy: self
                .components
                .iter()
                .filter(|c| c.busy())
                .map(|c| c.name().to_string())
                .collect(),
            mmio_violations: self.register_audit().violations(),
            protocol_violations,
            stuck_channels,
        }
    }

    /// Merged MMIO audit across every registered component, with the
    /// attached sanitizer's protocol-violation count folded into
    /// [`MmioAudit::protocol`] — one `violations() == 0` assertion
    /// covers register policy and bus protocol alike.
    pub fn mmio_audit(&self) -> MmioAudit {
        let mut total = self.register_audit();
        if let Some(s) = &self.sanitizer {
            total.protocol += s.violation_count();
        }
        total
    }

    /// The register-mapped devices' audits merged, without the
    /// sanitizer's count.
    fn register_audit(&self) -> MmioAudit {
        let mut total = MmioAudit::default();
        for a in self.components.iter().filter_map(|c| c.mmio_audit()) {
            total.merge(&a);
        }
        total
    }

    /// Snapshot of the kernel's activity accounting: total cycles,
    /// jump and dense-window counts, and per-component
    /// executed/skipped tick counts.
    ///
    /// Skipped-cycle counts are derived here rather than accumulated
    /// in the hot loop: a component was skipped on every cycle since
    /// its registration that did not execute one of its ticks, whether
    /// the kernel gated the tick individually, jumped the clock over
    /// it, or never looked at the sleeping component at all.
    pub fn kernel_stats(&self) -> KernelStats {
        KernelStats {
            cycles: self.cycle,
            fast_forward: self.scheduler == Scheduler::ActiveSet,
            jumps: self.jumps,
            jumped_cycles: self.jumped_cycles,
            dense_cycles: self.dense_cycles,
            components: self
                .components
                .iter()
                .enumerate()
                .zip(self.ticks.iter().zip(&self.registered_at))
                .map(|((idx, c), (&ticks, &registered))| ComponentStats {
                    name: c.name().to_string(),
                    ticks_executed: ticks,
                    cycles_skipped: (self.cycle - registered) - ticks,
                    host_ns: self.host_ns[idx],
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::TickCtx;
    use crate::fifo::Fifo;
    use crate::state::StateBlob;

    /// Emits `count` items, one per cycle.
    struct Producer {
        out: Fifo<u64>,
        remaining: u64,
    }
    impl Component for Producer {
        fn name(&self) -> &str {
            "producer"
        }
        fn tick(&mut self, ctx: &mut TickCtx) {
            if self.remaining > 0 && self.out.try_push(ctx.cycle, self.remaining).is_ok() {
                self.remaining -= 1;
            }
        }
        fn busy(&self) -> bool {
            self.remaining > 0
        }
        fn next_activity(&self, now: Cycle) -> Cycle {
            // No inputs: the hint depends on own state only.
            if self.remaining > 0 {
                now
            } else {
                Cycle::MAX
            }
        }
        fn save_state(&self) -> Option<StateBlob> {
            // The out channel is saved by its consumer.
            let mut b = StateBlob::new("test.producer", 1);
            b.put_u64("remaining", self.remaining);
            Some(b)
        }
        fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
            state.expect("test.producer", 1)?;
            self.remaining = state.get_u64("remaining")?;
            Ok(())
        }
    }

    /// Consumes items, one per cycle.
    struct Consumer {
        input: Fifo<u64>,
        seen: std::rc::Rc<std::cell::Cell<u64>>,
    }
    impl Component for Consumer {
        fn name(&self) -> &str {
            "consumer"
        }
        fn tick(&mut self, ctx: &mut TickCtx) {
            if self.input.try_pop(ctx.cycle).is_some() {
                self.seen.set(self.seen.get() + 1);
            }
        }
        fn busy(&self) -> bool {
            !self.input.is_empty()
        }
        fn next_activity(&self, now: Cycle) -> Cycle {
            if self.input.is_empty() {
                Cycle::MAX
            } else {
                now
            }
        }
        fn wake_sources(&self, waker: &crate::Waker) {
            self.input.subscribe_wake(waker.clone());
        }
        fn save_state(&self) -> Option<StateBlob> {
            let mut b = StateBlob::new("test.consumer", 1);
            b.put("input", self.input.save_state());
            b.put_u64("seen", self.seen.get());
            Some(b)
        }
        fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
            state.expect("test.consumer", 1)?;
            self.input.restore_state(state.get("input")?)?;
            self.seen.set(state.get_u64("seen")?);
            Ok(())
        }
    }

    /// Wakes itself every `period` cycles and counts the wakes.
    struct Timer {
        period: Cycle,
        fired: u64,
        /// Cycle of the last fire: keeps the hint true after the tick.
        last_fire: Option<Cycle>,
    }
    impl Timer {
        fn new(period: Cycle) -> Self {
            Timer {
                period,
                fired: 0,
                last_fire: None,
            }
        }
    }
    impl Component for Timer {
        fn name(&self) -> &str {
            "timer"
        }
        fn tick(&mut self, ctx: &mut TickCtx) {
            if ctx.cycle.is_multiple_of(self.period) {
                self.fired += 1;
                self.last_fire = Some(ctx.cycle);
            }
        }
        fn next_activity(&self, now: Cycle) -> Cycle {
            // Once `now` has fired, the next fire is a period later.
            let from = if self.last_fire == Some(now) {
                now + 1
            } else {
                now
            };
            from.next_multiple_of(self.period)
        }
        fn save_state(&self) -> Option<StateBlob> {
            let mut b = StateBlob::new("test.timer", 1);
            b.put_u64("fired", self.fired);
            b.put_opt_u64("last_fire", self.last_fire);
            Some(b)
        }
        fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
            state.expect("test.timer", 1)?;
            self.fired = state.get_u64("fired")?;
            self.last_fire = state.get_opt_u64("last_fire")?;
            Ok(())
        }
    }

    fn pipeline(n: u64) -> (Simulator, std::rc::Rc<std::cell::Cell<u64>>) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let chan = Fifo::new("p2c", 2);
        let seen = std::rc::Rc::new(std::cell::Cell::new(0));
        sim.register(Box::new(Producer {
            out: chan.clone(),
            remaining: n,
        }));
        sim.register(Box::new(Consumer {
            input: chan,
            seen: seen.clone(),
        }));
        (sim, seen)
    }

    #[test]
    fn one_item_per_cycle_steady_state() {
        let (mut sim, seen) = pipeline(100);
        let cycles = sim.run_until_quiescent(10_000).unwrap();
        assert_eq!(seen.get(), 100);
        // Producer-before-consumer gives same-cycle forwarding, so the
        // whole transfer takes ~n cycles (+1 drain).
        assert!(cycles <= 102, "took {cycles} cycles");
    }

    #[test]
    fn run_until_counts_cycles() {
        let (mut sim, seen) = pipeline(10);
        let took = sim.run_until(1000, || seen.get() >= 5).unwrap();
        assert!((5..=7).contains(&took), "took {took}");
        assert_eq!(sim.now(), took);
    }

    #[test]
    fn run_until_reports_stall_at_limit() {
        let (mut sim, _) = pipeline(0);
        let err = sim.run_until(10, || false).unwrap_err();
        assert_eq!(err.cycle, 10);
        assert_eq!(err.start, 0);
        assert_eq!(err.limit, 10);
        assert_eq!(sim.now(), 10, "clock stops exactly at the limit");
        let msg = err.to_string();
        assert!(msg.contains("stalled at cycle 10"), "got: {msg}");
    }

    #[test]
    fn stall_report_names_busy_components() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        // A producer into a FIFO nobody drains: fills up and stays busy.
        let chan = Fifo::new("p2c", 2);
        sim.register(Box::new(Producer {
            out: chan.clone(),
            remaining: 50,
        }));
        let err = sim.run_until_quiescent(20).unwrap_err();
        assert_eq!(err.busy, vec!["producer".to_string()]);
        assert!(err.to_string().contains("busy: producer"));
    }

    #[test]
    fn quiescent_with_no_components_is_immediate() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        assert_eq!(sim.run_until_quiescent(10).unwrap(), 0);
    }

    #[test]
    fn step_n_advances_clock() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        sim.step_n(17);
        assert_eq!(sim.now(), 17);
    }

    #[test]
    fn timer_fires_identically_with_and_without_fast_forward() {
        let run = |ff: bool| {
            let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
            sim.set_scheduler(if ff {
                Scheduler::ActiveSet
            } else {
                Scheduler::Naive
            });
            sim.register(Box::new(Timer::new(64)));
            sim.step_n(1000);
            let stats = sim.kernel_stats();
            (sim.now(), stats.components[0].ticks_executed)
        };
        let (now_ff, ticks_ff) = run(true);
        let (now_naive, ticks_naive) = run(false);
        assert_eq!(now_ff, now_naive);
        assert_eq!(now_ff, 1000);
        // The timer does observable work only on multiples of 64; the
        // fast-forwarded run executes exactly those ticks, the naive
        // run all 1000.
        assert_eq!(ticks_ff, 16, "cycle 0, 64, ..., 960");
        assert_eq!(ticks_naive, 1000);
    }

    #[test]
    fn fast_forward_skips_idle_gap_but_cycle_counts_match() {
        let run = |ff: bool| {
            let (mut sim, seen) = pipeline(10);
            sim.set_scheduler(if ff {
                Scheduler::ActiveSet
            } else {
                Scheduler::Naive
            });
            // Drain the pipeline, then sit idle until a far deadline.
            let took = sim.run_until(100_000, || seen.get() >= 10).unwrap();
            sim.step_n(50_000);
            (took, sim.now(), sim.kernel_stats())
        };
        let (took_ff, now_ff, stats_ff) = run(true);
        let (took_naive, now_naive, stats_naive) = run(false);
        assert_eq!(took_ff, took_naive);
        assert_eq!(now_ff, now_naive);
        // The idle 50k-cycle tail is jumped in one go.
        assert!(stats_ff.jumped_cycles >= 50_000, "stats: {stats_ff:?}");
        assert_eq!(stats_naive.jumped_cycles, 0);
        for c in &stats_naive.components {
            assert_eq!(c.cycles_skipped, 0);
        }
    }

    #[test]
    fn step_never_jumps_even_when_all_idle() {
        let (mut sim, _) = pipeline(0);
        sim.step();
        assert_eq!(sim.now(), 1, "single-step advances exactly one cycle");
        // ...but it does gate the idle components' ticks.
        let stats = sim.kernel_stats();
        assert_eq!(stats.components[0].ticks_executed, 0);
        assert_eq!(stats.components[0].cycles_skipped, 1);
    }

    #[test]
    fn hintless_component_disables_jumps() {
        struct NoHint;
        impl Component for NoHint {
            fn name(&self) -> &str {
                "nohint"
            }
            fn tick(&mut self, _ctx: &mut TickCtx) {}
        }
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        sim.register(Box::new(NoHint));
        sim.step_n(100);
        let stats = sim.kernel_stats();
        assert_eq!(stats.jumps, 0);
        assert_eq!(stats.components[0].ticks_executed, 100);
    }

    #[test]
    fn jump_is_clamped_to_the_run_limit() {
        let (mut sim, _) = pipeline(0);
        // Everything idle forever: the jump must stop at the limit
        // boundary, exactly where the naive schedule stops.
        let err = sim.run_until(12_345, || false).unwrap_err();
        assert_eq!(err.cycle, 12_345);
        assert_eq!(sim.now(), 12_345);
    }

    /// A buggy producer that force-pushes two items per tick,
    /// bypassing the FIFO's own rate limit.
    struct DoublePusher {
        out: Fifo<u64>,
        remaining: u64,
    }
    impl Component for DoublePusher {
        fn name(&self) -> &str {
            "doubler"
        }
        fn tick(&mut self, _ctx: &mut TickCtx) {
            if self.remaining > 0 {
                self.out.force_push(1);
                self.out.force_push(2);
                self.remaining -= 1;
            }
        }
    }

    /// A simulator whose one `DoublePusher` makes three multi-push
    /// violations on a sanitized channel during its first three ticks.
    fn double_pusher_rig() -> (Simulator, Fifo<u64>, crate::sanitizer::Sanitizer) {
        use crate::sanitizer::{ChannelKind, Sanitizer};

        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let chan: Fifo<u64> = Fifo::new("hot", 16);
        let san = Sanitizer::new();
        san.watch(&chan, ChannelKind::Opaque);
        sim.register(Box::new(DoublePusher {
            out: chan.clone(),
            remaining: 3,
        }));
        sim.attach_sanitizer(san.clone());
        (sim, chan, san)
    }

    #[test]
    fn sanitizer_catches_force_push_misuse_from_ticked_code() {
        use crate::sanitizer::ViolationKind;

        let (mut sim, chan, san) = double_pusher_rig();
        sim.step_n(5);
        assert_eq!(san.count_of(ViolationKind::MultiPush), 3);
        assert_eq!(sim.mmio_audit().protocol, 3);
        assert_eq!(sim.mmio_audit().violations(), 3);
        // Host-context pushes between steps stay exempt.
        chan.force_push(7);
        chan.force_push(8);
        assert_eq!(san.violation_count(), 3);
    }

    #[test]
    fn stall_report_counts_each_violation_once() {
        let (mut sim, _chan, _san) = double_pusher_rig();
        let err = sim.run_until(20, || false).unwrap_err();
        assert_eq!(err.protocol_violations, 3);
        assert_eq!(err.mmio_violations, 0, "no register-policy violation");
        let msg = err.to_string();
        assert!(msg.contains("3 protocol violations"), "got: {msg}");
        assert!(!msg.contains("MMIO violations"), "got: {msg}");
    }

    #[test]
    fn stall_report_carries_stuck_channel_evidence() {
        use crate::sanitizer::{ChannelKind, Sanitizer};

        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let chan = Fifo::new("p2c", 2);
        let san = Sanitizer::new();
        san.watch(&chan, ChannelKind::Opaque);
        // A producer into a FIFO nobody drains: fills, then the queued
        // elements sit untouched for the rest of the run.
        sim.register(Box::new(Producer {
            out: chan,
            remaining: 50,
        }));
        sim.attach_sanitizer(san);
        let err = sim.run_until_quiescent(1000).unwrap_err();
        assert_eq!(err.protocol_violations, 0, "backpressure is legal");
        assert_eq!(err.stuck_channels.len(), 1);
        assert_eq!(err.stuck_channels[0].name, "p2c");
        assert_eq!(err.stuck_channels[0].occupancy, 2);
        let msg = err.to_string();
        assert!(msg.contains("channel p2c stuck since cycle"), "got: {msg}");
    }

    #[test]
    fn kernel_stats_track_utilization() {
        let (mut sim, _) = pipeline(10);
        sim.run_until_quiescent(1000).unwrap();
        sim.step_n(989 - sim.now().min(989));
        let stats = sim.kernel_stats();
        for c in &stats.components {
            assert_eq!(c.ticks_executed + c.cycles_skipped, stats.cycles);
        }
        let rendered = stats.render();
        assert!(rendered.contains("producer"));
        assert!(rendered.contains("consumer"));
    }

    #[test]
    fn profiling_attributes_host_time_without_changing_behavior() {
        for scheduler in [Scheduler::Naive, Scheduler::ActiveSet] {
            let run = |profile: bool| {
                let (mut sim, seen) = pipeline(50);
                sim.set_scheduler(scheduler);
                sim.set_profiling(profile);
                sim.run_until_quiescent(10_000).unwrap();
                (sim.now(), seen.get(), sim.kernel_stats())
            };
            let (now_p, seen_p, stats_p) = run(true);
            let (now_u, seen_u, stats_u) = run(false);
            assert_eq!(now_p, now_u, "{scheduler:?}: cycle counts identical");
            assert_eq!(seen_p, seen_u);
            assert_eq!(stats_u.total_host_ns(), 0, "disabled mode records nothing");
            assert!(
                stats_p.total_host_ns() > 0,
                "{scheduler:?}: ticked components accumulate host time"
            );
            for (p, u) in stats_p.components.iter().zip(&stats_u.components) {
                assert_eq!(p.ticks_executed, u.ticks_executed, "{}", p.name);
                if p.ticks_executed > 0 {
                    assert!(p.host_ns > 0, "{}: ticked but unattributed", p.name);
                }
            }
            let table = stats_p.render_tick_costs();
            assert!(table.contains("producer"), "{scheduler:?}:\n{table}");
            assert!(table.contains("consumer"), "{scheduler:?}:\n{table}");
        }
    }

    #[test]
    fn profiling_resets_with_stats() {
        let (mut sim, _) = pipeline(20);
        sim.set_profiling(true);
        sim.run_until_quiescent(10_000).unwrap();
        assert!(sim.kernel_stats().total_host_ns() > 0);
        sim.reset_stats();
        assert_eq!(
            sim.kernel_stats().total_host_ns(),
            0,
            "reset zeroes attribution"
        );
    }

    #[test]
    fn checkpoint_restore_continue_matches_straight_run() {
        // Straight run: 30 cycles in, checkpoint, then run to the end.
        let (mut straight, seen_s) = pipeline(100);
        straight.step_n(30);
        let mid = straight.checkpoint().unwrap();
        assert_eq!(mid.cycle, 30);
        straight.run_until_quiescent(10_000).unwrap();
        let end_straight = straight.checkpoint().unwrap();

        // Replay: fresh structurally identical rig, restore mid-stream,
        // run the identical remainder.
        let (mut replay, seen_r) = pipeline(100);
        replay.restore(&mid).unwrap();
        assert_eq!(replay.now(), 30);
        replay.run_until_quiescent(10_000).unwrap();
        let end_replay = replay.checkpoint().unwrap();

        assert_eq!(end_straight.parity_diff(&end_replay), None);
        assert_eq!(seen_s.get(), 100);
        assert_eq!(seen_r.get(), 100);
        assert_eq!(straight.now(), replay.now());
    }

    #[test]
    fn restore_works_across_scheduler_modes() {
        // Checkpoint under the naive schedule, restore into an
        // active-set rig: end state must be parity-identical.
        let (mut a, _) = pipeline(50);
        a.set_scheduler(Scheduler::Naive);
        a.step_n(20);
        let mid = a.checkpoint().unwrap();
        a.run_until_quiescent(10_000).unwrap();

        let (mut b, _) = pipeline(50);
        b.set_scheduler(Scheduler::ActiveSet);
        b.restore(&mid).unwrap();
        b.run_until_quiescent(10_000).unwrap();

        assert_eq!(
            a.checkpoint()
                .unwrap()
                .parity_diff(&b.checkpoint().unwrap()),
            None
        );
    }

    fn tick_counts(sim: &Simulator) -> Vec<u64> {
        sim.kernel_stats()
            .components
            .iter()
            .map(|c| c.ticks_executed)
            .collect()
    }

    /// A restore leaves nothing of the warm scheduler's state behind:
    /// mid-stream, it matches the same checkpoint restored into a fresh
    /// rig.
    #[test]
    fn restore_mid_stream_matches_a_fresh_rig() {
        let (mut drained, _) = pipeline(100);
        drained.run_until_quiescent(10_000).unwrap();
        let drained_checkpoint = drained.checkpoint().unwrap();

        // Reference: the drained checkpoint restored into a fresh rig.
        let (mut fresh, _) = pipeline(100);
        fresh.restore(&drained_checkpoint).unwrap();
        fresh.step_n(10);

        // Same checkpoint restored mid-stream, while the producer is
        // carried "due again" by its last post-tick hint. The restored
        // producer is idle: nothing of the warm scheduler's state may
        // tick it again.
        let (mut warm, _) = pipeline(100);
        warm.step_n(30);
        warm.restore(&drained_checkpoint).unwrap();
        warm.step_n(10);

        assert_eq!(tick_counts(&warm), tick_counts(&fresh));
        assert_eq!(
            warm.checkpoint()
                .unwrap()
                .parity_diff(&fresh.checkpoint().unwrap()),
            None
        );
    }

    /// A round trip active set → naive → active set matches a run that
    /// never held active-set state.
    #[test]
    fn scheduler_round_trip_matches_a_fresh_run() {
        // Active set for 30 cycles (the producer ends them carried),
        // naive until drained, then back to the active set.
        let run = |first: Scheduler| {
            let (mut sim, _) = pipeline(100);
            sim.set_scheduler(first);
            sim.step_n(30);
            sim.set_scheduler(Scheduler::Naive);
            sim.run_until_quiescent(10_000).unwrap();
            sim.set_scheduler(Scheduler::ActiveSet);
            sim.reset_stats();
            sim.step_n(10);
            tick_counts(&sim)
        };
        assert_eq!(run(Scheduler::ActiveSet), run(Scheduler::Naive));
        assert_eq!(
            run(Scheduler::ActiveSet),
            [0, 0],
            "drained rig ticks nothing"
        );
    }

    /// Four parallel producer→consumer pipes of `n` items each plus one
    /// idle timer: 8 of 9 components tick every cycle while the items
    /// last, and only a dense window ticks the timer in between its
    /// deadlines — so the timer's tick count pins where windows ran.
    fn pipes(n: u64) -> (Simulator, Vec<std::rc::Rc<std::cell::Cell<u64>>>) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let mut seen = Vec::new();
        for p in 0..4 {
            let chan = Fifo::new(format!("p2c{p}"), 2);
            let s = std::rc::Rc::new(std::cell::Cell::new(0));
            sim.register(Box::new(Producer {
                out: chan.clone(),
                remaining: n,
            }));
            sim.register(Box::new(Consumer {
                input: chan,
                seen: s.clone(),
            }));
            seen.push(s);
        }
        sim.register(Box::new(Timer::new(1 << 40)));
        (sim, seen)
    }

    /// Cycle inside the first window of a [`pipes`] run.
    const MID_WINDOW: Cycle = 100;

    #[test]
    fn dense_window_opens_on_parallel_pipes() {
        let run = |scheduler| {
            let (mut sim, seen) = pipes(1000);
            sim.set_scheduler(scheduler);
            sim.run_until_quiescent(10_000).unwrap();
            let seen: Vec<u64> = seen.iter().map(|s| s.get()).collect();
            (sim.now(), seen, sim.kernel_stats())
        };
        let (now, seen, stats) = run(Scheduler::ActiveSet);
        let (now_naive, seen_naive, stats_naive) = run(Scheduler::Naive);
        assert_eq!((now, &seen), (now_naive, &seen_naive));
        assert_eq!(seen, [1000; 4]);
        assert_eq!(stats_naive.dense_cycles, 0);
        // The first DENSE_STREAK cycles build the streak; after that
        // every full window is followed by one stepped cycle that
        // re-opens it.
        let rest = now - DENSE_STREAK as Cycle;
        assert_eq!(stats.dense_cycles, rest - rest / (DENSE_WINDOW + 1));
        // Windows tick the idle timer; stepped cycles do not.
        let timer = stats.components.last().unwrap();
        assert_eq!(timer.ticks_executed, 1 + stats.dense_cycles);
        assert!(stats
            .render()
            .contains(&format!("{} dense-window cycles", stats.dense_cycles)));
        let mut reset = pipes(100).0;
        reset.run_until_quiescent(10_000).unwrap();
        assert!(reset.kernel_stats().dense_cycles > 0);
        reset.reset_stats();
        assert_eq!(reset.kernel_stats().dense_cycles, 0);
    }

    #[test]
    fn checkpoint_inside_dense_window_replays_bit_identical() {
        let (mut straight, _) = pipes(1000);
        straight.step_n(MID_WINDOW);
        let mid = straight.checkpoint().unwrap();
        assert!(
            mid.counters.dense_until > mid.cycle,
            "checkpoint must land inside a window: {:?}",
            mid.counters
        );
        straight.run_until_quiescent(10_000).unwrap();

        let (mut replay, _) = pipes(1000);
        replay.restore(&mid).unwrap();
        replay.run_until_quiescent(10_000).unwrap();

        assert_eq!(
            straight
                .checkpoint()
                .unwrap()
                .parity_diff(&replay.checkpoint().unwrap()),
            None
        );
        assert_eq!(
            straight.kernel_stats().dense_cycles,
            replay.kernel_stats().dense_cycles
        );
    }

    #[test]
    fn scheduler_switch_mid_window_stays_parity_clean() {
        // Straight: switch to naive inside a window and back later.
        let (mut straight, _) = pipes(1000);
        straight.step_n(MID_WINDOW);
        assert!(straight.checkpoint().unwrap().counters.dense_until > MID_WINDOW);
        straight.set_scheduler(Scheduler::Naive);
        let switched = straight.checkpoint().unwrap().counters;
        assert_eq!((switched.dense_until, switched.dense_streak), (0, 0));
        straight.step_n(50);
        straight.set_scheduler(Scheduler::ActiveSet);
        straight.run_until_quiescent(10_000).unwrap();

        // The same switches as fresh rigs restored from checkpoints.
        let (mut a, _) = pipes(1000);
        a.step_n(MID_WINDOW);
        let (mut b, _) = pipes(1000);
        b.set_scheduler(Scheduler::Naive);
        b.restore(&a.checkpoint().unwrap()).unwrap();
        b.step_n(50);
        let (mut c, _) = pipes(1000);
        c.restore(&b.checkpoint().unwrap()).unwrap();
        c.run_until_quiescent(10_000).unwrap();

        assert_eq!(
            straight
                .checkpoint()
                .unwrap()
                .parity_diff(&c.checkpoint().unwrap()),
            None
        );
    }

    #[test]
    fn windowed_checkpoint_restores_into_naive() {
        let (mut a, _) = pipes(1000);
        a.step_n(MID_WINDOW);
        let mid = a.checkpoint().unwrap();
        assert!(mid.counters.dense_until > mid.cycle);
        a.set_scheduler(Scheduler::Naive);
        a.run_until_quiescent(10_000).unwrap();

        let (mut b, _) = pipes(1000);
        b.set_scheduler(Scheduler::Naive);
        b.restore(&mid).unwrap();
        let restored = b.checkpoint().unwrap().counters;
        assert_eq!(
            (restored.dense_until, restored.dense_streak),
            (0, 0),
            "a naive simulator carries no window"
        );
        assert_eq!(restored.dense_cycles, mid.counters.dense_cycles);
        b.run_until_quiescent(10_000).unwrap();

        assert_eq!(
            a.checkpoint()
                .unwrap()
                .parity_diff(&b.checkpoint().unwrap()),
            None
        );
    }

    #[test]
    fn checkpoint_is_strict_about_completeness() {
        struct Opaque;
        impl Component for Opaque {
            fn name(&self) -> &str {
                "opaque"
            }
            fn tick(&mut self, _ctx: &mut TickCtx) {}
        }
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        sim.register(Box::new(Opaque));
        assert_eq!(
            sim.checkpoint().unwrap_err(),
            StateError::Unsupported {
                component: "opaque".into()
            }
        );
    }

    #[test]
    fn restore_rejects_roster_mismatch() {
        let (sim, _) = pipeline(10);
        let state = sim.checkpoint().unwrap();

        let mut other = Simulator::new(Freq::FABRIC_100MHZ);
        other.register(Box::new(Timer::new(8)));
        assert!(other.restore(&state).is_err(), "component count differs");

        let mut two = Simulator::new(Freq::FABRIC_100MHZ);
        two.register(Box::new(Timer::new(8)));
        two.register(Box::new(Timer::new(9)));
        assert!(two.restore(&state).is_err(), "component names differ");
    }

    #[test]
    fn reset_stats_rebases_the_measurement_phase() {
        let (mut sim, _) = pipeline(5);
        sim.run_until_quiescent(1000).unwrap();
        sim.step_n(200);
        sim.reset_stats();
        sim.step_n(300);
        let stats = sim.kernel_stats();
        // Only the post-reset phase is accounted: the pipeline is idle
        // there, so every tick was skipped and none executed.
        for c in &stats.components {
            assert_eq!(c.ticks_executed, 0, "{}", c.name);
            assert_eq!(c.cycles_skipped, 300, "{}", c.name);
        }
    }

    #[test]
    fn scheduler_sets_are_sized_at_registration() {
        // Timers are never carried (their post-tick hint is a period
        // ahead), so nothing but registration can widen `carry` here.
        let timers = || {
            let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
            for i in 0..70 {
                sim.register(Box::new(Timer::new(16 + i)));
            }
            sim
        };
        // Widths in words of the two scheduler sets.
        let set_widths = |sim: &Simulator| [&sim.due, &sim.carry].map(|s| s.width());
        let mut sim = timers();
        sim.step_n(1000);
        assert_eq!(set_widths(&sim), [2; 2]);

        // A cold start — restore or a scheduler switch — keeps them.
        let mut restored = timers();
        restored.restore(&sim.checkpoint().unwrap()).unwrap();
        restored.step_n(1000);
        assert_eq!(set_widths(&restored), [2; 2]);
        sim.set_scheduler(Scheduler::Naive);
        sim.step_n(10);
        sim.set_scheduler(Scheduler::ActiveSet);
        sim.step_n(1000);
        assert_eq!(set_widths(&sim), [2; 2]);
    }
}
