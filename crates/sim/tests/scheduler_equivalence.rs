//! Observational equivalence of the kernel schedulers.
//!
//! Randomized producer → stage… → consumer FIFO graphs run under both
//! schedules (naive and active-set). The schedulers may only trade
//! host time: the final cycle, every sink's `(cycle, value)` log, and
//! the sanitizer's violation count must be identical, and the
//! active-set schedule may only skip ticks the naive one executes as
//! no-ops (per-component `ticks_executed + cycles_skipped` totals
//! agree, and the active set never executes more).
//!
//! The graphs exercise the scheduler edges that caused bugs during
//! bring-up: same-cycle producer-before-consumer forwarding, full-FIFO
//! producer spin (pops fire no wakes), post-tick deadline reschedule,
//! firm-promise hint skips, and always-due components (the default
//! hint, nothing subscribed) mixed into a wired graph. A random FIFO
//! preload starts the first hop backlogged, so streaming stretches
//! begin mid-burst. Chains run long
//! enough (up to ~200 values, gapless and unpaced ones included) that
//! the active set's dense windows open, close and re-open mid-run;
//! `generated_rigs_open_dense_windows` replays the property's own cases
//! and checks that they do.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::sanitizer::{ChannelKind, Sanitizer};
use rvcap_sim::{Cycle, Fifo, Freq, Scheduler, Simulator, Waker};

/// Pushes `count` increasing values into `out`, waiting `gap` cycles
/// between successful pushes. A full FIFO holds the value with a `now`
/// hint and retries every cycle — the documented producer idiom (pops
/// fire no wakes).
struct Source {
    name: String,
    out: Fifo<u64>,
    gap: Cycle,
    remaining: u64,
    next_val: u64,
    next_push: Cycle,
}

impl Component for Source {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if self.remaining == 0 || ctx.cycle < self.next_push {
            return;
        }
        if self.out.try_push(ctx.cycle, self.next_val).is_ok() {
            self.next_val += 1;
            self.remaining -= 1;
            self.next_push = ctx.cycle + 1 + self.gap;
        }
    }

    fn busy(&self) -> bool {
        self.remaining > 0
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        // Pure time-based deadlines; no external input feeds the hint.
        if self.remaining == 0 {
            Cycle::MAX
        } else {
            self.next_push.max(now)
        }
    }
}

/// Pops one value, holds it `latency` cycles, pushes a transformed
/// copy downstream. With `always_due` set it keeps the trait-default
/// hint (`now`, every cycle) and subscribes nothing — semantically
/// identical, but it ticks every cycle and keeps the clock from
/// jumping.
struct Stage {
    name: String,
    input: Fifo<u64>,
    output: Fifo<u64>,
    latency: Cycle,
    holding: Option<(Cycle, u64)>,
    always_due: bool,
}

impl Component for Stage {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if let Some((ready, v)) = self.holding {
            if ctx.cycle >= ready && self.output.try_push(ctx.cycle, v).is_ok() {
                self.holding = None;
            }
        }
        if self.holding.is_none() {
            if let Some(v) = self.input.try_pop(ctx.cycle) {
                self.holding = Some((ctx.cycle + self.latency, v.wrapping_mul(3) ^ 1));
            }
        }
    }

    fn busy(&self) -> bool {
        self.holding.is_some() || !self.input.is_empty()
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        if self.always_due {
            return now;
        }
        match self.holding {
            // Holding: nothing happens before the value is ready (the
            // input stays queued); once ready, spin until the push
            // lands.
            Some((ready, _)) => ready.max(now),
            None if self.input.is_empty() => Cycle::MAX,
            None => now,
        }
    }

    fn wake_sources(&self, waker: &Waker) {
        if !self.always_due {
            self.input.subscribe_wake(waker.clone());
        }
    }
}

/// Pops at most one value every `period` cycles, logging
/// `(cycle, value)` — the observation the equivalence check compares.
struct Sink {
    name: String,
    input: Fifo<u64>,
    period: Cycle,
    next_pop: Cycle,
    log: Rc<RefCell<Vec<(Cycle, u64)>>>,
}

impl Component for Sink {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if ctx.cycle >= self.next_pop {
            if let Some(v) = self.input.try_pop(ctx.cycle) {
                self.log.borrow_mut().push((ctx.cycle, v));
                self.next_pop = ctx.cycle + self.period;
            }
        }
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        if now < self.next_pop {
            self.next_pop
        } else if self.input.is_empty() {
            Cycle::MAX
        } else {
            now
        }
    }

    fn wake_sources(&self, waker: &Waker) {
        self.input.subscribe_wake(waker.clone());
    }
}

/// One randomized pipeline: source pacing, per-stage latency and
/// always-due flag, sink pacing, the (uniform) FIFO capacity, and how many
/// values sit in the first hop before cycle 0 (clamped to the
/// capacity).
#[derive(Debug, Clone)]
struct ChainParams {
    gap: Cycle,
    count: u64,
    period: Cycle,
    cap: usize,
    preload: usize,
    stages: Vec<(Cycle, bool)>,
}

fn chain_strategy() -> impl Strategy<Value = ChainParams> {
    (
        0u64..6,
        1u64..200,
        1u64..6,
        1usize..16,
        0usize..16,
        proptest::collection::vec((0u64..5, any::<bool>()), 0..4),
    )
        .prop_map(|(gap, count, period, cap, preload, stages)| ChainParams {
            gap,
            count,
            period,
            cap,
            preload: preload.min(cap),
            stages,
        })
}

/// Everything one run observes; the cross-scheduler comparison key.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    final_cycle: Cycle,
    logs: Vec<Vec<(Cycle, u64)>>,
    violations: u64,
}

/// `(ticks_executed, cycles_skipped)` per component, registration
/// order.
type TickCounts = Vec<(u64, u64)>;

/// Run `chains` to completion: what it observed, its tick accounting,
/// and the cycles it spent in dense windows.
fn run(chains: &[ChainParams], scheduler: Scheduler) -> (Observed, TickCounts, Cycle) {
    const HORIZON: Cycle = 20_000;
    let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
    sim.set_scheduler(scheduler);
    let sanitizer = Sanitizer::new();
    sim.attach_sanitizer(sanitizer.clone());

    let mut logs = Vec::new();
    for (ci, p) in chains.iter().enumerate() {
        // n_stages + 1 hops, registered producer-before-consumer.
        let mut fifos: Vec<Fifo<u64>> = (0..=p.stages.len())
            .map(|fi| Fifo::new(format!("c{ci}.f{fi}"), p.cap))
            .collect();
        // Pre-cycle-0 backlog in the first hop (the sanitizer watch
        // below picks up the occupancy as the initial state).
        for i in 0..p.preload {
            fifos[0].force_push(500_000 + ci as u64 * 1000 + i as u64);
        }
        for f in &fifos {
            sanitizer.watch(f, ChannelKind::Opaque);
        }
        sim.register(Box::new(Source {
            name: format!("c{ci}.src"),
            out: fifos[0].clone(),
            gap: p.gap,
            remaining: p.count,
            next_val: 1 + ci as u64 * 1000,
            next_push: 0,
        }));
        for (si, &(latency, always_due)) in p.stages.iter().enumerate() {
            sim.register(Box::new(Stage {
                name: format!("c{ci}.stage{si}"),
                input: fifos[si].clone(),
                output: fifos[si + 1].clone(),
                latency,
                holding: None,
                always_due,
            }));
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.register(Box::new(Sink {
            name: format!("c{ci}.sink"),
            input: fifos.pop().expect("last hop"),
            period: p.period,
            next_pop: 0,
            log: log.clone(),
        }));
        logs.push(log);
    }

    let expected: usize = chains.iter().map(|p| p.count as usize + p.preload).sum();
    let done = || logs.iter().map(|l| l.borrow().len()).sum::<usize>() == expected;
    sim.run_until(HORIZON, done)
        .expect("graph is acyclic and sinks always drain");

    let stats = sim.kernel_stats();
    (
        Observed {
            final_cycle: sim.now(),
            logs: logs.iter().map(|l| l.borrow().clone()).collect(),
            violations: sanitizer.violation_count(),
        },
        stats
            .components
            .iter()
            .map(|c| (c.ticks_executed, c.cycles_skipped))
            .collect(),
        stats.dense_cycles,
    )
}

fn rigs_strategy() -> impl Strategy<Value = Vec<ChainParams>> {
    proptest::collection::vec(chain_strategy(), 1..3)
}

proptest! {
    #[test]
    fn schedulers_are_observationally_identical(chains in rigs_strategy()) {
        let (naive, naive_ticks, naive_dense) = run(&chains, Scheduler::Naive);
        let (active, active_ticks, _) = run(&chains, Scheduler::ActiveSet);

        prop_assert_eq!(&naive, &active);
        prop_assert_eq!(naive.violations, 0, "clean graphs must stay clean");
        prop_assert_eq!(naive_dense, 0, "the naive schedule has no windows");

        // Executed-tick accounting: the active set skips exactly the
        // hint-ruled-out ticks, naive executes everything, so only the
        // totals line up.
        for (i, (&(nt, ns), &(ht, hs))) in
            naive_ticks.iter().zip(&active_ticks).enumerate()
        {
            prop_assert_eq!(
                nt + ns,
                ht + hs,
                "component {} total cycles diverged", i
            );
            prop_assert!(ht <= nt, "component {} executed extra ticks", i);
        }
    }
}

/// Share of generated rigs that must open a dense window, in percent.
const MIN_WINDOWED_PCT: u32 = 25;

/// The property above only covers dense windows if its cases open
/// them: replay its exact case sequence (same seed, same draws) under
/// the active set and require a stated share to spend cycles in one.
#[test]
fn generated_rigs_open_dense_windows() {
    let mut rng = TestRng::from_name("schedulers_are_observationally_identical");
    let cases = ProptestConfig::default().cases;
    let strategy = rigs_strategy();
    let opened = (0..cases)
        .filter(|_| run(&strategy.generate(&mut rng), Scheduler::ActiveSet).2 > 0)
        .count() as u32;
    assert!(
        opened * 100 >= cases * MIN_WINDOWED_PCT,
        "only {opened} of {cases} generated rigs opened a dense window \
         (want at least {MIN_WINDOWED_PCT}%)"
    );
}
