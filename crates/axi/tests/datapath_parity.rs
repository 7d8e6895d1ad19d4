//! Scheduler parity over the real stream datapath.
//!
//! A DMA-shaped source feeds a `StreamIsolator` (its decouple gate
//! toggled on a random schedule), a 64→32 `Narrower`, a 32→64
//! `Widener`, and a sink with a random run/stall backpressure pattern
//! — the DMA→ICAP chain's scheduling shape with every disturbance the
//! active-set scheduler's hint skips, wake wiring and carried
//! streamers must survive: backpressure, TLAST framing, and decouple
//! flips. Each
//! configuration runs under both kernel schedules; the active set may
//! only trade host time, so the sink's `(cycle, beat)` log, the
//! mid-flight channel snapshot, the lifetime FIFO totals and
//! leftovers, and the sanitizer verdicts (including the gated-channel
//! decouple rule) must be identical to the naive reference, and the
//! active set may only skip ticks the naive schedule runs as no-ops.
//!
//! The gapless source keeps most of the chain ticking every cycle, so
//! the active set runs dense windows of the naive sweep through much of
//! each stream; `disturbances_hit_dense_windows` replays the property's
//! own cases and checks that decouple flips and sink stalls land inside
//! them.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rvcap_axi::sanitizer::{watch_stream, watch_stream_gated};
use rvcap_axi::{AxisBeat, AxisChannel, Narrower, StreamIsolator, Widener};
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::sanitizer::Sanitizer;
use rvcap_sim::{Cycle, Fifo, Freq, Scheduler, Signal, Simulator, Waker};

/// Gapless DMA-shaped source: one prepared beat per cycle.
struct BeatSource {
    out: AxisChannel,
    beats: Vec<AxisBeat>,
    next: usize,
}

impl Component for BeatSource {
    fn name(&self) -> &str {
        "source"
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        if self.next < self.beats.len()
            && self.out.try_push(ctx.cycle, self.beats[self.next]).is_ok()
        {
            self.next += 1;
        }
    }

    fn busy(&self) -> bool {
        self.next < self.beats.len()
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        if self.next < self.beats.len() {
            now
        } else {
            Cycle::MAX
        }
    }
}

/// Flips the decouple signal at each scheduled cycle; its pending
/// deadline sits in the kernel's wake heap.
struct Toggler {
    decouple: Signal<bool>,
    at: Vec<Cycle>,
    next: usize,
}

impl Component for Toggler {
    fn name(&self) -> &str {
        "toggler"
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        if self.next < self.at.len() && ctx.cycle >= self.at[self.next] {
            self.decouple.set(!self.decouple.get());
            self.next += 1;
        }
    }

    fn busy(&self) -> bool {
        self.next < self.at.len()
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        match self.at.get(self.next) {
            Some(&at) => at.max(now),
            None => Cycle::MAX,
        }
    }
}

/// Pops beats in runs of `pattern[i].0` cycles separated by
/// `pattern[i].1` stall cycles (cyclic), logging `(cycle, beat)`.
struct BpSink {
    input: AxisChannel,
    log: Rc<RefCell<Vec<(Cycle, AxisBeat)>>>,
    pattern: Vec<(u32, u32)>,
    pi: usize,
    run_left: u32,
    resume_at: Cycle,
}

impl Component for BpSink {
    fn name(&self) -> &str {
        "sink"
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        if ctx.cycle < self.resume_at {
            return;
        }
        if let Some(beat) = self.input.try_pop(ctx.cycle) {
            self.log.borrow_mut().push((ctx.cycle, beat));
            self.run_left -= 1;
            if self.run_left == 0 {
                let stall = self.pattern[self.pi].1;
                self.pi = (self.pi + 1) % self.pattern.len();
                self.run_left = self.pattern[self.pi].0;
                self.resume_at = ctx.cycle + 1 + stall as Cycle;
            }
        }
    }

    fn busy(&self) -> bool {
        !self.input.is_empty()
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        if self.input.is_empty() {
            Cycle::MAX
        } else {
            self.resume_at.max(now)
        }
    }

    fn wake_sources(&self, waker: &Waker) {
        self.input.subscribe_wake(waker.clone());
    }
}

/// Captures `(occupancy, head)` of every channel at one exact cycle —
/// a mid-flight FIFO-content observation that must not depend on which
/// surrounding ticks the kernel skipped.
type Snapshot = Vec<(usize, Option<AxisBeat>)>;

struct Probe {
    channels: Vec<AxisChannel>,
    at: Cycle,
    snap: Rc<RefCell<Option<Snapshot>>>,
}

impl Component for Probe {
    fn name(&self) -> &str {
        "probe"
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        if ctx.cycle == self.at && self.snap.borrow().is_none() {
            let snap = self.channels.iter().map(|c| (c.len(), c.peek())).collect();
            *self.snap.borrow_mut() = Some(snap);
        }
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        if self.snap.borrow().is_some() || now > self.at {
            Cycle::MAX
        } else {
            self.at
        }
    }
}

/// One randomized datapath configuration.
#[derive(Debug, Clone)]
struct Config {
    /// TLAST flag per source beat (the count of beats is the length).
    lasts: Vec<bool>,
    /// 64-bit beats force-pushed into the first channel before cycle 0.
    preload: usize,
    /// Decouple flip cycles (sorted, deduped, even count so the path
    /// ends coupled and the stream can finish).
    toggles: Vec<Cycle>,
    /// Sink `(run, stall)` backpressure pattern.
    pattern: Vec<(u32, u32)>,
    /// Capacities of the isolator/narrower/widener output channels.
    caps: (usize, usize, usize),
    /// Cycle at which the probe snapshots every channel.
    snap: Cycle,
}

fn config_strategy() -> impl Strategy<Value = Config> {
    (
        proptest::collection::vec(any::<bool>(), 8..600),
        0usize..48,
        proptest::collection::vec(20u64..2500, 0..6),
        proptest::collection::vec((1u32..16, 0u32..5), 1..4),
        (2usize..8, 2usize..8, 2usize..8),
        1u64..2000,
    )
        .prop_map(|(mut lasts, preload, mut toggles, pattern, caps, snap)| {
            // The stream must end a packet.
            *lasts.last_mut().expect("non-empty") = true;
            toggles.sort_unstable();
            toggles.dedup();
            // An odd flip count would leave the path decoupled forever.
            if toggles.len() % 2 == 1 {
                toggles.pop();
            }
            Config {
                lasts,
                preload,
                toggles,
                pattern,
                caps,
                snap,
            }
        })
}

/// Everything one run observes; the cross-scheduler comparison key.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    final_cycle: Cycle,
    log: Vec<(Cycle, AxisBeat)>,
    violations: u64,
    snapshot: Option<Snapshot>,
    /// Lifetime `(total_pushed, total_popped)` per channel.
    totals: Vec<(u64, u64)>,
    /// Occupancy per channel after the stream drained.
    leftovers: Vec<usize>,
}

/// `(ticks_executed, cycles_skipped)` per component, registration
/// order.
type TickCounts = Vec<(u64, u64)>;

/// A built datapath rig and the handles its observations read.
struct Rig {
    sim: Simulator,
    sanitizer: Sanitizer,
    channels: [AxisChannel; 4],
    log: Rc<RefCell<Vec<(Cycle, AxisBeat)>>>,
    snap: Rc<RefCell<Option<Snapshot>>>,
    /// Beats the sink must log before the stream is done.
    expected: usize,
}

fn build(cfg: &Config, scheduler: Scheduler) -> Rig {
    let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
    sim.set_scheduler(scheduler);
    let sanitizer = Sanitizer::new();
    sim.attach_sanitizer(sanitizer.clone());

    let ch0: AxisChannel = Fifo::new("ch0.dma", 64);
    let ch1: AxisChannel = Fifo::new("ch1.iso", cfg.caps.0);
    let ch2: AxisChannel = Fifo::new("ch2.narrow", cfg.caps.1);
    let ch3: AxisChannel = Fifo::new("ch3.wide", cfg.caps.2);
    for i in 0..cfg.preload {
        ch0.force_push(AxisBeat::wide(0x5000_0000 + i as u64, i % 7 == 6));
    }

    let decouple = Signal::new(false);
    // Watch after the preload so the initial occupancy is the watch
    // baseline; ch1 additionally carries the decouple-gate rule.
    watch_stream(&sanitizer, &ch0);
    watch_stream_gated(&sanitizer, &ch1, decouple.clone());
    watch_stream(&sanitizer, &ch2);
    watch_stream(&sanitizer, &ch3);

    let beats: Vec<AxisBeat> = cfg
        .lasts
        .iter()
        .enumerate()
        .map(|(i, &last)| AxisBeat::wide(0x6000_0000 + i as u64, last))
        .collect();
    let expected = cfg.preload + beats.len();

    sim.register(Box::new(BeatSource {
        out: ch0.clone(),
        beats,
        next: 0,
    }));
    sim.register(Box::new(Toggler {
        decouple: decouple.clone(),
        at: cfg.toggles.clone(),
        next: 0,
    }));
    sim.register(Box::new(StreamIsolator::new(
        "iso",
        ch0.clone(),
        ch1.clone(),
        decouple.clone(),
    )));
    sim.register(Box::new(Narrower::new("narrow", ch1.clone(), ch2.clone())));
    sim.register(Box::new(Widener::new("widen", ch2.clone(), ch3.clone())));
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.register(Box::new(BpSink {
        input: ch3.clone(),
        log: log.clone(),
        pattern: cfg.pattern.clone(),
        pi: 0,
        run_left: cfg.pattern[0].0,
        resume_at: 0,
    }));
    let snap = Rc::new(RefCell::new(None));
    sim.register(Box::new(Probe {
        channels: vec![ch0.clone(), ch1.clone(), ch2.clone(), ch3.clone()],
        at: cfg.snap,
        snap: snap.clone(),
    }));
    Rig {
        sim,
        sanitizer,
        channels: [ch0, ch1, ch2, ch3],
        log,
        snap,
        expected,
    }
}

/// Simulated-cycle bound for one stream to drain.
const HORIZON: Cycle = 50_000;

fn run(cfg: &Config, scheduler: Scheduler) -> (Observed, TickCounts) {
    let Rig {
        mut sim,
        sanitizer,
        channels,
        log,
        snap,
        expected,
    } = build(cfg, scheduler);
    sim.run_until(HORIZON, || log.borrow().len() == expected)
        .expect("the re-coupled stream always drains");

    let stats = sim.kernel_stats();
    let snapshot = snap.borrow().clone();
    let log = log.borrow().clone();
    (
        Observed {
            final_cycle: sim.now(),
            log,
            violations: sanitizer.violation_count(),
            snapshot,
            totals: channels
                .iter()
                .map(|c| (c.total_pushed(), c.total_popped()))
                .collect(),
            leftovers: channels.iter().map(|c| c.len()).collect(),
        },
        stats
            .components
            .iter()
            .map(|c| (c.ticks_executed, c.cycles_skipped))
            .collect(),
    )
}

proptest! {
    #[test]
    fn active_set_matches_naive_across_the_datapath(cfg in config_strategy()) {
        let (naive, naive_ticks) = run(&cfg, Scheduler::Naive);
        let (active, active_ticks) = run(&cfg, Scheduler::ActiveSet);

        prop_assert_eq!(&naive, &active);
        prop_assert_eq!(naive.violations, 0, "clean datapaths must stay clean");
        prop_assert_eq!(&naive.leftovers, &vec![0; 4], "stream fully drained");

        // TLAST framing survives end to end: the sink sees exactly the
        // source packet boundaries (preload included).
        let tlasts = naive.log.iter().filter(|(_, b)| b.last).count();
        let expected_tlasts = cfg.lasts.iter().filter(|&&l| l).count()
            + (0..cfg.preload).filter(|i| i % 7 == 6).count();
        prop_assert_eq!(tlasts, expected_tlasts);

        // Tick accounting: naive additionally runs every no-op, so only
        // the per-component totals line up.
        for (i, (&(nt, ns), &(ht, hs))) in
            naive_ticks.iter().zip(&active_ticks).enumerate()
        {
            prop_assert_eq!(nt + ns, ht + hs, "component {} total cycles diverged", i);
            prop_assert!(ht <= nt, "component {} executed extra ticks", i);
        }
    }
}

/// Share of the property's cases, in percent, that must flip the
/// decouple gate inside a dense window.
const MIN_FLIP_PCT: u32 = 30;
/// Share that must stall the sink on queued beats inside one.
const MIN_STALL_PCT: u32 = 40;

/// The property above only covers dense windows if its disturbances
/// land inside them. Replay its exact case sequence (same seed, same
/// draws) under the active set one cycle at a time, note which cycles
/// ran inside a window, and require a stated share of the cases to
/// flip the decouple gate, and to stall the sink on queued beats,
/// inside one.
#[test]
fn disturbances_hit_dense_windows() {
    let mut rng = TestRng::from_name("active_set_matches_naive_across_the_datapath");
    let strategy = config_strategy();
    let cases = ProptestConfig::default().cases;
    let (mut flips, mut stalls) = (0, 0);
    for _ in 0..cases {
        let cfg = strategy.generate(&mut rng);
        let mut rig = build(&cfg, Scheduler::ActiveSet);
        let mut windowed = Vec::new();
        let mut stalled = false;
        while rig.log.borrow().len() < rig.expected {
            let cycle = rig.sim.now();
            assert!(cycle < HORIZON, "stream did not drain");
            let dense = rig.sim.kernel_stats().dense_cycles;
            let logged = rig.log.borrow().len();
            let queued = !rig.channels[3].is_empty();
            rig.sim.step_n(1);
            if rig.sim.kernel_stats().dense_cycles > dense {
                windowed.push(cycle);
                stalled |= queued && rig.log.borrow().len() == logged;
            }
        }
        flips += cfg
            .toggles
            .iter()
            .any(|t| windowed.binary_search(t).is_ok()) as u32;
        stalls += stalled as u32;
    }
    assert!(
        flips * 100 >= cases * MIN_FLIP_PCT,
        "only {flips} of {cases} cases flipped decouple inside a dense window"
    );
    assert!(
        stalls * 100 >= cases * MIN_STALL_PCT,
        "only {stalls} of {cases} cases stalled the sink inside a dense window"
    );
}
