//! The component trait ticked by the simulation kernel.

use crate::state::{StateBlob, StateError};
use crate::time::Cycle;
use crate::trace::Tracer;
use crate::wake::Waker;

/// Context handed to every component on every tick.
///
/// Carries the current cycle and a shared tracer. Kept deliberately
/// small — components communicate through the [`crate::Fifo`]s and
/// [`crate::Signal`]s they were wired with at construction time, not
/// through the context.
pub struct TickCtx<'a> {
    /// The cycle being simulated (starts at 0).
    pub cycle: Cycle,
    /// Shared trace sink.
    pub tracer: &'a Tracer,
}

impl<'a> TickCtx<'a> {
    /// Record a debug-level trace event attributed to `who`.
    pub fn trace(&self, who: &str, msg: impl FnOnce() -> String) {
        self.tracer.debug(self.cycle, who, msg);
    }
}

/// A clocked hardware block.
///
/// The simulator ticks components in registration order, at most once
/// per cycle each. Under the default schedule it skips every tick the
/// component's [`Component::next_activity`] hint rules out, so `tick`
/// must be **quiescent-safe**: a tick while the component has no work
/// must not change observable state, because the reference schedule
/// ([`crate::Scheduler::Naive`]) runs those ticks and the two schedules
/// must agree cycle for cycle.
///
/// # The scheduling contract
///
/// A component's hint and its wake subscriptions together obey one
/// rule:
///
/// - **Subscribe every input that feeds the hint.** Any channel or
///   signal whose state [`Component::next_activity`] reads gets the
///   component's waker in [`Component::wake_sources`], and the hint
///   may sleep on a channel only while it is empty (see
///   [`crate::Fifo::subscribe_wake`]). Time-based deadlines (a DDR
///   refresh, a busy-until counter) need no subscription: the hint
///   names them.
/// - **Keep the hint true after your own tick.** The kernel queries the
///   hint right before a tick slot and again right after the tick, and
///   sleeps the component on the post-tick answer. A post-tick hint of
///   `now` is a firm promise of work next cycle, so the hint must
///   follow the component's state, not just the cycle number: a timer
///   that fired at `now` must not still answer `now` once it has.
pub trait Component {
    /// Stable instance name for traces and diagnostics.
    fn name(&self) -> &str;

    /// Advance one clock cycle.
    fn tick(&mut self, ctx: &mut TickCtx<'_>);

    /// True when the component has in-flight work.
    ///
    /// Used by [`crate::Simulator::run_until_quiescent`] to detect that
    /// a whole system has drained. The default claims "always idle";
    /// components with internal state machines should override it.
    fn busy(&self) -> bool {
        false
    }

    /// The earliest cycle at or after `now` at which this component may
    /// do observable work.
    ///
    /// - `now` (the default) means "tick me this cycle". A component
    ///   that keeps the default ticks every cycle and keeps the clock
    ///   from jumping while registered.
    /// - A future cycle `c` **guarantees** that ticking at any cycle in
    ///   `now..c` is a no-op (no state change, no FIFO/Signal traffic):
    ///   the kernel sleeps the component until `c` or a wake, whichever
    ///   comes first, and jumps the clock across windows where every
    ///   component sleeps.
    /// - `Cycle::MAX` means "sleep until a wake": only a subscribed
    ///   input (see [`Component::wake_sources`]) can make the component
    ///   runnable again.
    ///
    /// An over-eager hint (claiming idleness while a tick would have
    /// done work) breaks the bit-identical cycle counts of the two
    /// schedules; an over-conservative one only costs host time.
    fn next_activity(&self, now: Cycle) -> Cycle {
        now
    }

    /// Subscribe the component's wake sources: called once by the
    /// kernel at registration time with this component's [`Waker`].
    ///
    /// Subscribe the waker to every external input whose state feeds
    /// [`Component::next_activity`] ([`crate::Fifo::subscribe_wake`],
    /// [`crate::Signal::subscribe_wake`], or a handle-specific notify).
    /// The default subscribes nothing, which is exact for a component
    /// whose hint reads only its own state.
    fn wake_sources(&self, _waker: &Waker) {}

    /// MMIO access audit for register-mapped devices.
    ///
    /// Components that decode bus traffic through a typed register map
    /// report their per-access counters here; the kernel folds them
    /// into [`crate::KernelStats`] and stall diagnostics. The default
    /// (`None`) marks components with no register interface.
    fn mmio_audit(&self) -> Option<crate::stats::MmioAudit> {
        None
    }

    /// Externalize every piece of mutable state as a tagged, versioned
    /// [`StateBlob`] — the checkpoint half of checkpoint/restore.
    ///
    /// Ownership convention for shared plumbing: each [`crate::Fifo`]
    /// is saved by its unique *consumer*, each [`crate::Signal`] level
    /// by its unique *driver*, so a whole-system checkpoint covers
    /// every channel exactly once. Wiring (wakers, monitors, the
    /// channel handles themselves) is **not** state — restore happens
    /// into a structurally identical system built by the same
    /// construction code.
    ///
    /// The default returns `None`, meaning "not checkpointable".
    /// [`crate::Simulator::checkpoint`] treats that as a hard error:
    /// a checkpoint missing one component's state would restore into a
    /// subtly wrong system, which is worse than no checkpoint at all.
    fn save_state(&self) -> Option<StateBlob> {
        None
    }

    /// Overwrite this component's mutable state from a blob previously
    /// produced by [`Component::save_state`] on a structurally
    /// identical instance.
    ///
    /// Implementations must first verify tag and version
    /// ([`StateBlob::expect`]) and must restore *completely* — every
    /// field `save_state` writes — or fail with a [`StateError`]
    /// without claiming success. The kernel turns any error into a
    /// panic at the restore site: a half-restored simulator is not a
    /// recoverable condition.
    fn restore_state(&mut self, _state: &StateBlob) -> Result<(), StateError> {
        Err(StateError::Unsupported {
            component: self.name().into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    struct Countdown {
        name: String,
        remaining: u32,
    }

    impl Component for Countdown {
        fn name(&self) -> &str {
            &self.name
        }
        fn tick(&mut self, _ctx: &mut TickCtx<'_>) {
            self.remaining = self.remaining.saturating_sub(1);
        }
        fn busy(&self) -> bool {
            self.remaining > 0
        }
    }

    #[test]
    fn default_busy_is_false() {
        struct Idle;
        impl Component for Idle {
            fn name(&self) -> &str {
                "idle"
            }
            fn tick(&mut self, _ctx: &mut TickCtx<'_>) {}
        }
        assert!(!Idle.busy());
    }

    #[test]
    fn tick_ctx_traces_through() {
        let tracer = Tracer::new(crate::trace::TraceLevel::Debug, 16);
        let mut ctx = TickCtx {
            cycle: 3,
            tracer: &tracer,
        };
        let mut c = Countdown {
            name: "cd".into(),
            remaining: 2,
        };
        assert!(c.busy());
        ctx.trace("cd", || "ticking".into());
        c.tick(&mut ctx);
        c.tick(&mut ctx);
        assert!(!c.busy());
        assert_eq!(tracer.events().len(), 1);
    }
}
