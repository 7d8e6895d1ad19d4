//! Property test for replay parity: for **random pipeline rigs** and a
//! **random checkpoint cycle**, `checkpoint → restore into a fresh rig
//! → continue` is bit-identical to the uninterrupted run under every
//! scheduler (naive and active-set).
//!
//! The components mirror the randomized graphs of
//! `scheduler_equivalence.rs` — paced sources, latency stages (wired
//! or always due), paced sinks — but additionally implement the full
//! save/restore contract, following the ownership convention: each
//! FIFO is saved by its unique consumer. Chains run long enough that
//! the active set's dense windows open, so some random checkpoints land
//! inside one and the restored run must continue the window exactly;
//! `checkpoints_land_inside_dense_windows` replays the property's own
//! cases and checks that some do.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::sanitizer::{ChannelKind, Sanitizer};
use rvcap_sim::state::{SimState, StateBlob, StateError, StateValue};
use rvcap_sim::{Cycle, Fifo, Freq, Scheduler, Simulator, Waker};

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
        if self.remaining == 0 {
            Cycle::MAX
        } else {
            self.next_push.max(now)
        }
    }

    fn save_state(&self) -> Option<StateBlob> {
        // `out` is saved by its consumer.
        let mut b = StateBlob::new("prop.source", 1);
        b.put_u64("gap", self.gap);
        b.put_u64("remaining", self.remaining);
        b.put_u64("next_val", self.next_val);
        b.put_u64("next_push", self.next_push);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("prop.source", 1)?;
        if state.get_u64("gap")? != self.gap {
            return Err(state.structure_error("gap config mismatch"));
        }
        self.remaining = state.get_u64("remaining")?;
        self.next_val = state.get_u64("next_val")?;
        self.next_push = state.get_u64("next_push")?;
        Ok(())
    }
}

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

    fn save_state(&self) -> Option<StateBlob> {
        // Consumer of `input`; `output` is saved downstream.
        let mut b = StateBlob::new("prop.stage", 1);
        b.put("input", self.input.save_state());
        b.put_u64("latency", self.latency);
        b.put_bool("always_due", self.always_due);
        let (ready, val) = match self.holding {
            Some((r, v)) => (Some(r), v),
            None => (None, 0),
        };
        b.put_opt_u64("holding_ready", ready);
        b.put_u64("holding_val", val);
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("prop.stage", 1)?;
        if state.get_u64("latency")? != self.latency
            || state.get_bool("always_due")? != self.always_due
        {
            return Err(state.structure_error("stage config mismatch"));
        }
        self.input.restore_state(state.get("input")?)?;
        let val = state.get_u64("holding_val")?;
        self.holding = state.get_opt_u64("holding_ready")?.map(|r| (r, val));
        Ok(())
    }
}

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

    fn save_state(&self) -> Option<StateBlob> {
        let mut b = StateBlob::new("prop.sink", 1);
        b.put("input", self.input.save_state());
        b.put_u64("period", self.period);
        b.put_u64("next_pop", self.next_pop);
        let log = self.log.borrow();
        b.put_list(
            "log_cycles",
            log.iter().map(|&(c, _)| StateValue::U64(c)).collect(),
        );
        b.put_list(
            "log_values",
            log.iter().map(|&(_, v)| StateValue::U64(v)).collect(),
        );
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("prop.sink", 1)?;
        if state.get_u64("period")? != self.period {
            return Err(state.structure_error("period config mismatch"));
        }
        self.input.restore_state(state.get("input")?)?;
        self.next_pop = state.get_u64("next_pop")?;
        let cycles = state.get_list("log_cycles")?;
        let values = state.get_list("log_values")?;
        if cycles.len() != values.len() {
            return Err(state.structure_error("log list length mismatch"));
        }
        let mut log = Vec::with_capacity(cycles.len());
        for (c, v) in cycles.iter().zip(values) {
            match (c, v) {
                (StateValue::U64(c), StateValue::U64(v)) => log.push((*c, *v)),
                _ => return Err(state.structure_error("log entry has wrong kind")),
            }
        }
        *self.log.borrow_mut() = log;
        Ok(())
    }
}

/// One randomized pipeline (see `scheduler_equivalence.rs`).
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

const SCHEDULERS: [Scheduler; 2] = [Scheduler::Naive, Scheduler::ActiveSet];

/// Build a fresh rig for `chains` under `scheduler` — identical
/// structure every call, which is the precondition for restore.
fn build(chains: &[ChainParams], scheduler: Scheduler) -> Simulator {
    let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
    sim.set_scheduler(scheduler);
    let sanitizer = Sanitizer::new();
    sim.attach_sanitizer(sanitizer.clone());
    for (ci, p) in chains.iter().enumerate() {
        let fifos: Vec<Fifo<u64>> = (0..=p.stages.len())
            .map(|fi| Fifo::new(format!("c{ci}.f{fi}"), p.cap))
            .collect();
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
        sim.register(Box::new(Sink {
            name: format!("c{ci}.sink"),
            input: fifos.last().expect("last hop").clone(),
            period: p.period,
            next_pop: 0,
            log: Rc::new(RefCell::new(Vec::new())),
        }));
    }
    sim
}

/// Run horizon: long enough that most random rigs fully drain, short
/// enough that the naive schedule stays cheap across proptest cases.
const TOTAL: Cycle = 2_000;

fn straight(chains: &[ChainParams], scheduler: Scheduler) -> SimState {
    let mut sim = build(chains, scheduler);
    sim.step_n(TOTAL);
    sim.checkpoint().expect("straight checkpoint")
}

/// The rig's checkpoint at cycle `cp`.
fn checkpoint_at(chains: &[ChainParams], scheduler: Scheduler, cp: Cycle) -> SimState {
    let mut a = build(chains, scheduler);
    a.step_n(cp);
    a.checkpoint().expect("mid-run checkpoint")
}

fn forked(chains: &[ChainParams], scheduler: Scheduler, cp: Cycle) -> SimState {
    let base = checkpoint_at(chains, scheduler, cp);
    let mut b = build(chains, scheduler);
    b.restore(&base).expect("restore into fresh rig");
    b.step_n(TOTAL - cp);
    b.checkpoint().expect("forked checkpoint")
}

fn rigs_strategy() -> impl Strategy<Value = Vec<ChainParams>> {
    proptest::collection::vec(chain_strategy(), 1..3)
}

/// Checkpoint cycles, half of them in the first quarter of the run,
/// where the streams (and so the dense windows) are.
fn checkpoint_strategy() -> impl Strategy<Value = Cycle> {
    prop_oneof![0..TOTAL / 4, 0..TOTAL]
}

proptest! {
    /// For a random rig and a random checkpoint cycle, the forked run
    /// ends parity-equal to the straight run under both schedulers.
    #[test]
    fn checkpoint_restore_run_equals_straight_run(
        chains in rigs_strategy(),
        cp in checkpoint_strategy(),
    ) {
        for scheduler in SCHEDULERS {
            let s = straight(&chains, scheduler);
            let f = forked(&chains, scheduler, cp);
            prop_assert_eq!(
                s.parity_diff(&f),
                None,
                "replay parity under {:?} with checkpoint at {}",
                scheduler,
                cp
            );
        }
    }
}

/// Cases of the property above whose active-set checkpoint must land
/// inside an open dense window.
const MIN_IN_WINDOW: u32 = 6;

/// Replay the property's exact case sequence (same seed, same draws)
/// and count the active-set checkpoints taken inside an open dense
/// window: the restores that must continue a window mid-way.
#[test]
fn checkpoints_land_inside_dense_windows() {
    let mut rng = TestRng::from_name("checkpoint_restore_run_equals_straight_run");
    let (rigs, cps) = (rigs_strategy(), checkpoint_strategy());
    let cases = ProptestConfig::default().cases;
    let inside = (0..cases)
        .filter(|_| {
            let chains = rigs.generate(&mut rng);
            let cp = cps.generate(&mut rng);
            let base = checkpoint_at(&chains, Scheduler::ActiveSet, cp);
            base.counters.dense_until > base.cycle
        })
        .count() as u32;
    assert!(
        inside >= MIN_IN_WINDOW,
        "only {inside} of {cases} checkpoints landed inside a dense window \
         (want at least {MIN_IN_WINDOW})"
    );
}
