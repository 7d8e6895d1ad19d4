//! Property tests for idle fast-forward: whatever activity pattern a
//! set of components declares, the kernel must execute a tick on every
//! declared-activity cycle — skipping and clock jumps may only ever
//! remove ticks the components themselves guaranteed to be no-ops —
//! and the result must be bit-identical to the naive schedule.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use proptest::prelude::*;
use rvcap_sim::component::{Component, TickCtx};
use rvcap_sim::{Cycle, Freq, Scheduler, Simulator};

/// A component driven by a precomputed schedule of active cycles. The
/// tick records every scheduled cycle it actually executes on;
/// `next_activity` points at the next scheduled cycle not yet executed
/// (or idles at `Cycle::MAX` once the schedule is exhausted). With
/// `hinted` off it keeps the default hint, always due, which must
/// disable jumps but change nothing else.
struct Scripted {
    name: String,
    schedule: BTreeSet<Cycle>,
    executed: Rc<RefCell<Vec<Cycle>>>,
    hinted: bool,
}

impl Scripted {
    fn new(i: usize, cycles: &[Cycle], hinted: bool) -> (Self, Rc<RefCell<Vec<Cycle>>>) {
        let executed = Rc::new(RefCell::new(Vec::new()));
        (
            Scripted {
                name: format!("scripted{i}"),
                schedule: cycles.iter().copied().collect(),
                executed: executed.clone(),
                hinted,
            },
            executed,
        )
    }
}

impl Component for Scripted {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx<'_>) {
        if self.schedule.contains(&ctx.cycle) {
            self.executed.borrow_mut().push(ctx.cycle);
        }
    }

    fn next_activity(&self, now: Cycle) -> Cycle {
        if !self.hinted {
            return now;
        }
        // The last executed cycle keeps the hint true after the tick.
        let from = match self.executed.borrow().last() {
            Some(&last) if last == now => now + 1,
            _ => now,
        };
        self.schedule
            .range(from..)
            .next()
            .copied()
            .unwrap_or(Cycle::MAX)
    }
}

/// Run `horizon` cycles over the given schedules; returns what each
/// component observed plus the final cycle counter.
fn run(
    schedules: &[Vec<Cycle>],
    hintless_mask: u64,
    scheduler: Scheduler,
    horizon: Cycle,
) -> (Vec<Vec<Cycle>>, Cycle) {
    let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
    sim.set_scheduler(scheduler);
    let mut logs = Vec::new();
    for (i, cycles) in schedules.iter().enumerate() {
        let hinted = hintless_mask & (1 << i) == 0;
        let (c, log) = Scripted::new(i, cycles, hinted);
        sim.register(Box::new(c));
        logs.push(log);
    }
    sim.step_n(horizon);
    (logs.iter().map(|l| l.borrow().clone()).collect(), sim.now())
}

proptest! {
    #[test]
    fn no_declared_activity_cycle_is_skipped(
        schedules in proptest::collection::vec(
            proptest::collection::vec(0u64..400, 0..24),
            1..6,
        ),
        hintless_mask in 0u64..64,
    ) {
        const HORIZON: Cycle = 400;
        let (ff_logs, ff_end) = run(&schedules, hintless_mask, Scheduler::ActiveSet, HORIZON);
        let (naive_logs, naive_end) = run(&schedules, hintless_mask, Scheduler::Naive, HORIZON);

        prop_assert_eq!(ff_end, naive_end, "cycle counter diverged");
        for (i, (got, sched)) in ff_logs.iter().zip(&schedules).enumerate() {
            // Every scheduled cycle inside the horizon executed,
            // exactly once, in order.
            let mut want: Vec<Cycle> = sched
                .iter()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            want.retain(|&c| c < HORIZON);
            prop_assert_eq!(got, &want, "component {} missed a cycle", i);
        }
        prop_assert_eq!(&ff_logs, &naive_logs);
    }
}
