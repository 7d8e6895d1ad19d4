//! The component trait ticked by the simulation kernel.

use crate::state::{StateBlob, StateError};
use crate::time::Cycle;
use crate::trace::Tracer;
use crate::wake::{WakePolicy, Waker};

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
/// The simulator calls [`Component::tick`] exactly once per cycle, in
/// registration order. Components must be **quiescent-safe**: calling
/// `tick` while the component has no work must be cheap and must not
/// change observable state, because the kernel has no sensitivity
/// lists — everything ticks every cycle.
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

    /// The earliest future cycle at which this component may do
    /// observable work, given the current cycle `now`.
    ///
    /// This is the idle fast-forward hint. The contract:
    ///
    /// - `Some(c)` with `c > now` **guarantees** that ticking this
    ///   component at any cycle in `now..c` is a no-op (no state
    ///   change, no FIFO/Signal traffic). The kernel may skip those
    ///   ticks, and may jump the clock across a window where *every*
    ///   component declares a future cycle.
    /// - `Some(c)` with `c <= now` means "I have work this cycle".
    /// - `Some(Cycle::MAX)` means "idle until external input arrives"
    ///   (a new request pushed into one of my FIFOs re-activates me —
    ///   and also changes what this method returns, which is why the
    ///   kernel re-queries the hint every cycle rather than caching
    ///   it).
    /// - `None` is the conservative default: no hint, tick me every
    ///   cycle. A component returning `None` never has ticks skipped
    ///   and disables whole-system jumps while registered.
    ///
    /// Correctness rule of thumb: return `now` whenever in doubt. An
    /// over-eager hint (claiming idleness while a tick would have done
    /// work) breaks the bit-identical-cycle-count guarantee of the
    /// fast-forward mode; an over-conservative one only costs host
    /// time.
    fn next_activity(&self, _now: Cycle) -> Option<Cycle> {
        None
    }

    /// Subscribe the component's wake sources and declare its
    /// [`WakePolicy`]. Called once by the kernel at registration time
    /// with this component's [`Waker`].
    ///
    /// A component returning [`WakePolicy::Wired`] promises that every
    /// external input whose state feeds its [`Component::next_activity`]
    /// hint has the waker subscribed
    /// ([`crate::Fifo::subscribe_wake`] /
    /// [`crate::Signal::subscribe_wake`] / a handle-specific notify).
    /// The active-set scheduler then sleeps the component until its
    /// declared hint cycle or a wake — whichever comes first — instead
    /// of re-querying the hint every cycle. Time-based deadlines (a DDR
    /// refresh, a busy-until timer) need no subscription: they are
    /// covered by the post-tick hint the kernel reschedules from.
    ///
    /// The default, [`WakePolicy::Poll`], makes no promise: the kernel
    /// re-queries the hint every stepped cycle, exactly like the
    /// pre-active-set kernel. Always correct, merely slower.
    fn wake_sources(&self, _waker: &Waker) -> WakePolicy {
        WakePolicy::Poll
    }

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
