//! Shared, bounded, rate-limited FIFOs — the simulation's stand-in for
//! valid/ready handshaked on-chip channels.
//!
//! Every point-to-point data path in the modelled SoC (AXI-Stream
//! links, the DMA's read data path, the ICAP write port, the HWICAP
//! write FIFO) is a bounded FIFO that moves **at most one element per
//! simulated cycle per endpoint**, exactly like a 1-beat-per-cycle
//! hardware stream. Backpressure falls out naturally: a full FIFO
//! refuses pushes (producer sees `ready == 0`), an empty FIFO refuses
//! pops (consumer sees `valid == 0`).
//!
//! FIFOs are shared between the producing and consuming component via
//! cheap clones (`Rc` internally — the simulator is single-threaded by
//! design, see the crate docs).
//!
//! # Hot-path layout
//!
//! The handshake-visible state — queue length, capacity, and the
//! one-op-per-cycle rate marks — lives in [`Cell`]s *outside* the
//! `RefCell` that guards the queue itself. Occupancy probes
//! (`len`/`is_empty`/`is_full`/`vacancy`), handshake checks
//! (`can_push`/`can_pop`) and *refused* transfers are therefore plain
//! loads with no borrow-flag traffic. This matters: fan-in blocks like
//! the crossbar probe every lane every tick, and `next_activity` hints
//! all over the workspace are built from these probes. Only an op that
//! actually moves an element takes the `RefCell` borrow.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::sanitizer::ChannelMonitor;
use crate::state::{StateBlob, StateError, StateItem, StateValue};
use crate::time::Cycle;
use crate::wake::Waker;

#[derive(Debug)]
struct Shared<T> {
    /// Mirror of `inner.queue.len()`, maintained by every mutating op
    /// so probes never touch the `RefCell`.
    len: Cell<usize>,
    /// Immutable after construction.
    capacity: usize,
    /// Cycle of the most recent push, used to enforce the one-beat-per-
    /// cycle rule on the producer side.
    last_push: Cell<Option<Cycle>>,
    /// Cycle of the most recent pop, for the consumer side.
    last_pop: Cell<Option<Cycle>>,
    inner: RefCell<Inner<T>>,
}

#[derive(Debug)]
struct Inner<T> {
    name: String,
    queue: VecDeque<T>,
    /// Lifetime counters for statistics / assertions.
    total_pushed: u64,
    total_popped: u64,
    /// Elements dropped by [`Fifo::clear`] — keeps
    /// `total_pushed - total_popped - total_cleared == len` exact.
    total_cleared: u64,
    /// Optional sanitizer hook; fires on every push/pop/clear.
    monitor: Option<ChannelMonitor<T>>,
    /// Consumer wakers fired on every push that makes the channel
    /// non-empty (see [`Fifo::subscribe_wake`]). Pops fire nothing: a
    /// producer blocked on a full channel keeps itself scheduled via
    /// its own `next_activity` hint, so it never needs a pop-side wake.
    wakers: Vec<Waker>,
}

impl<T> Inner<T> {
    #[inline]
    fn fire_wakers(&self) {
        for w in &self.wakers {
            w.wake();
        }
    }
}

/// A bounded single-producer single-consumer channel with hardware
/// stream semantics (one push and one pop per cycle).
///
/// `Fifo` is a handle: clones refer to the same underlying queue.
/// The convention throughout the workspace is that exactly one
/// component pushes and one pops, mirroring a point-to-point stream,
/// but this is not enforced — fan-in/fan-out blocks (crossbars,
/// switches) legitimately own several handles.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    shared: Rc<Shared<T>>,
}

impl<T> Fifo<T> {
    /// Create a FIFO with the given element capacity.
    ///
    /// `capacity` must be at least 1: a zero-capacity stream can never
    /// transfer anything and always indicates a wiring bug.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity >= 1, "FIFO capacity must be >= 1");
        Fifo {
            shared: Rc::new(Shared {
                len: Cell::new(0),
                capacity,
                last_push: Cell::new(None),
                last_pop: Cell::new(None),
                inner: RefCell::new(Inner {
                    name: name.into(),
                    queue: VecDeque::with_capacity(capacity),
                    total_pushed: 0,
                    total_popped: 0,
                    total_cleared: 0,
                    monitor: None,
                    wakers: Vec::new(),
                }),
            }),
        }
    }

    /// The channel name (used in traces and panics).
    pub fn name(&self) -> String {
        self.shared.inner.borrow().name.clone()
    }

    /// Elements currently queued.
    #[inline]
    pub fn len(&self) -> usize {
        self.shared.len.get()
    }

    /// True if no elements are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.shared.len.get() == 0
    }

    /// True if the queue is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.shared.len.get() >= self.shared.capacity
    }

    /// Remaining space (the "vacancy" register of a hardware FIFO —
    /// the HWICAP driver polls exactly this).
    #[inline]
    pub fn vacancy(&self) -> usize {
        self.shared.capacity - self.shared.len.get()
    }

    /// Total capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Would a `push` at `cycle` succeed? (The producer's view of
    /// `ready && !already_pushed_this_cycle`.)
    #[inline]
    pub fn can_push(&self, cycle: Cycle) -> bool {
        self.shared.len.get() < self.shared.capacity && self.shared.last_push.get() != Some(cycle)
    }

    /// Would a `pop` at `cycle` succeed? (The consumer's view of
    /// `valid && !already_popped_this_cycle`.)
    #[inline]
    pub fn can_pop(&self, cycle: Cycle) -> bool {
        self.shared.len.get() != 0 && self.shared.last_pop.get() != Some(cycle)
    }

    /// Try to transfer one element into the FIFO at `cycle`.
    ///
    /// Returns the element back if the FIFO is full or an element was
    /// already pushed this cycle (so the caller can retry next cycle —
    /// this is the `valid && !ready` stall case).
    #[inline]
    pub fn try_push(&self, cycle: Cycle, item: T) -> Result<(), T> {
        if !self.can_push(cycle) {
            return Err(item);
        }
        self.push_accepted(cycle, item);
        Ok(())
    }

    /// Slow half of an accepted push: takes the borrow, moves the
    /// element, updates mirrors, observes, wakes. The sanitizer hook is
    /// one predictable `monitor.is_some()` branch — un-watched channels
    /// (every timed hostbench run) skip the meta capture entirely.
    fn push_accepted(&self, cycle: Cycle, item: T) {
        let mut inner = self.shared.inner.borrow_mut();
        if let Some(monitor) = inner.monitor.take() {
            let meta = monitor.meta_of(&item);
            inner.queue.push_back(item);
            let occupancy = inner.queue.len();
            monitor.record_push(meta, occupancy);
            inner.monitor = Some(monitor);
        } else {
            inner.queue.push_back(item);
        }
        let occupancy = inner.queue.len();
        self.shared.len.set(occupancy);
        self.shared.last_push.set(Some(cycle));
        inner.total_pushed += 1;
        // Wake consumers only on the empty→non-empty transition: every
        // hint in the workspace is monotone in occupancy (due whenever
        // the channel is non-empty, or gated by state with its own
        // subscription), so a push onto a non-empty queue cannot change
        // a hint the kernel hasn't already acted on.
        if occupancy == 1 {
            inner.fire_wakers();
        }
    }

    /// Try to take one element out of the FIFO at `cycle`.
    #[inline]
    pub fn try_pop(&self, cycle: Cycle) -> Option<T> {
        if !self.can_pop(cycle) {
            return None;
        }
        Some(self.pop_accepted(cycle))
    }

    /// Slow half of an accepted pop (see [`Fifo::push_accepted`]).
    fn pop_accepted(&self, cycle: Cycle) -> T {
        let mut inner = self.shared.inner.borrow_mut();
        let item = inner.queue.pop_front().expect("can_pop checked non-empty");
        self.shared.len.set(inner.queue.len());
        self.shared.last_pop.set(Some(cycle));
        inner.total_popped += 1;
        if let Some(monitor) = &inner.monitor {
            monitor.record_pop(inner.queue.len());
        }
        item
    }

    /// Push without rate limiting — used only by *initialization* code
    /// (e.g. preloading a DDR model) and test fixtures, never by ticked
    /// components.
    pub fn force_push(&self, item: T) {
        let mut inner = self.shared.inner.borrow_mut();
        assert!(
            inner.queue.len() < self.shared.capacity,
            "force_push on full FIFO {}",
            inner.name
        );
        let meta = inner.monitor.as_ref().map(|m| m.meta_of(&item));
        inner.queue.push_back(item);
        let occupancy = inner.queue.len();
        self.shared.len.set(occupancy);
        inner.total_pushed += 1;
        if let (Some(monitor), Some(meta)) = (&inner.monitor, meta) {
            monitor.record_push(meta, occupancy);
        }
        if occupancy == 1 {
            inner.fire_wakers();
        }
    }

    /// Pop without rate limiting — for *observers outside the clocked
    /// world*: test fixtures and the CPU co-routine driver host, which
    /// advance the simulator themselves and therefore cannot collide
    /// with a ticked consumer on the same channel.
    pub fn force_pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut inner = self.shared.inner.borrow_mut();
        let item = inner.queue.pop_front();
        self.shared.len.set(inner.queue.len());
        if item.is_some() {
            inner.total_popped += 1;
            if let Some(monitor) = &inner.monitor {
                monitor.record_pop(inner.queue.len());
            }
        }
        item
    }

    /// Drop all queued elements (a hardware FIFO reset).
    ///
    /// A reset empties the datapath *and* its handshake state: the
    /// per-cycle rate-limit marks are forgotten, so the first transfer
    /// after the reset succeeds even within the same cycle. Dropped
    /// elements are accounted in [`Fifo::total_cleared`] so lifetime
    /// occupancy math stays exact.
    pub fn clear(&self) {
        let mut inner = self.shared.inner.borrow_mut();
        let dropped = inner.queue.len() as u64;
        inner.queue.clear();
        self.shared.len.set(0);
        self.shared.last_push.set(None);
        self.shared.last_pop.set(None);
        inner.total_cleared += dropped;
        if let Some(monitor) = &inner.monitor {
            monitor.record_clear();
        }
    }

    /// Lifetime count of successful pushes.
    pub fn total_pushed(&self) -> u64 {
        self.shared.inner.borrow().total_pushed
    }

    /// Lifetime count of successful pops.
    pub fn total_popped(&self) -> u64 {
        self.shared.inner.borrow().total_popped
    }

    /// Lifetime count of elements dropped by [`Fifo::clear`].
    pub fn total_cleared(&self) -> u64 {
        self.shared.inner.borrow().total_cleared
    }

    /// Install a sanitizer hook (see [`crate::sanitizer::Sanitizer`]).
    pub(crate) fn attach_monitor(&self, monitor: ChannelMonitor<T>) {
        self.shared.inner.borrow_mut().monitor = Some(monitor);
    }

    /// Subscribe a consumer [`Waker`]: it fires on every push that
    /// makes the channel non-empty (rate-limited or forced),
    /// from ticked code and host drivers alike. Components call this
    /// from [`crate::Component::wake_sources`] for each channel whose
    /// arrival can change their [`crate::Component::next_activity`]
    /// hint.
    ///
    /// Firing only on the empty→non-empty transition is the wake
    /// contract's flip side: a hint may report "sleep" only while the
    /// channel is empty (or while gated by state with its own
    /// subscription), never while data is already queued — i.e. hints
    /// must be monotone in occupancy. Every component in the workspace
    /// satisfies this, and the scheduler-equivalence suites enforce it.
    pub fn subscribe_wake(&self, waker: Waker) {
        self.shared.inner.borrow_mut().wakers.push(waker);
    }
}

impl<T: StateItem> Fifo<T> {
    /// Capture the FIFO's mutable state — queue contents, per-cycle
    /// rate-limit marks, lifetime counters — as a nested blob for the
    /// owning component's [`crate::Component::save_state`].
    ///
    /// By the workspace ownership convention, the FIFO's unique
    /// *consumer* saves it, so every channel appears in exactly one
    /// component's checkpoint. The monitor and waker wiring is not
    /// state: restore targets a structurally identical FIFO wired by
    /// the same construction code.
    pub fn save_state(&self) -> StateValue {
        let inner = self.shared.inner.borrow();
        let mut blob = StateBlob::new("fifo", 1);
        blob.put_str("name", inner.name.clone());
        blob.put_list("queue", inner.queue.iter().map(|e| e.to_state()).collect());
        blob.put_opt_u64("last_push", self.shared.last_push.get());
        blob.put_opt_u64("last_pop", self.shared.last_pop.get());
        blob.put_u64("pushed", inner.total_pushed);
        blob.put_u64("popped", inner.total_popped);
        blob.put_u64("cleared", inner.total_cleared);
        StateValue::Blob(Box::new(blob))
    }

    /// Overwrite the FIFO's mutable state from a [`Fifo::save_state`]
    /// value taken from a structurally identical channel (same name,
    /// same capacity — both are verified).
    ///
    /// Deliberately bypasses the sanitizer monitor and the wakers:
    /// restoring occupancy is not traffic, and the sanitizer's own
    /// observation state is restored separately by the kernel.
    pub fn restore_state(&self, v: &StateValue) -> Result<(), StateError> {
        let blob = match v {
            StateValue::Blob(b) => b,
            other => {
                return Err(StateError::Structure {
                    tag: "fifo".into(),
                    detail: format!("expected a fifo blob, found {}", other.kind()),
                })
            }
        };
        blob.expect("fifo", 1)?;
        let name = blob.get_str("name")?;
        let queue_vals = blob.get_list("queue")?;
        let mut inner = self.shared.inner.borrow_mut();
        if name != inner.name {
            return Err(blob.structure_error(format!(
                "blob is for channel {name}, restoring into {}",
                inner.name
            )));
        }
        if queue_vals.len() > self.shared.capacity {
            return Err(blob.structure_error(format!(
                "{} queued elements exceed capacity {} of {}",
                queue_vals.len(),
                self.shared.capacity,
                inner.name
            )));
        }
        let mut queue = VecDeque::with_capacity(self.shared.capacity);
        for v in queue_vals {
            queue.push_back(T::from_state(v, name)?);
        }
        self.shared.len.set(queue.len());
        inner.queue = queue;
        self.shared.last_push.set(blob.get_opt_u64("last_push")?);
        self.shared.last_pop.set(blob.get_opt_u64("last_pop")?);
        inner.total_pushed = blob.get_u64("pushed")?;
        inner.total_popped = blob.get_u64("popped")?;
        inner.total_cleared = blob.get_u64("cleared")?;
        Ok(())
    }
}

impl<T: Clone> Fifo<T> {
    /// Peek at the head element without consuming it.
    #[inline]
    pub fn peek(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        self.shared.inner.borrow().queue.front().cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_round_trip() {
        let f: Fifo<u32> = Fifo::new("t", 4);
        assert!(f.is_empty());
        f.try_push(0, 11).unwrap();
        assert_eq!(f.len(), 1);
        assert_eq!(f.try_pop(1), Some(11));
        assert!(f.is_empty());
    }

    #[test]
    fn one_push_per_cycle() {
        let f: Fifo<u32> = Fifo::new("t", 4);
        f.try_push(5, 1).unwrap();
        // Second push in the same cycle is refused...
        assert_eq!(f.try_push(5, 2), Err(2));
        // ...but succeeds the next cycle.
        f.try_push(6, 2).unwrap();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn one_pop_per_cycle() {
        let f: Fifo<u32> = Fifo::new("t", 4);
        f.force_push(1);
        f.force_push(2);
        assert_eq!(f.try_pop(9), Some(1));
        assert_eq!(f.try_pop(9), None);
        assert_eq!(f.try_pop(10), Some(2));
    }

    #[test]
    fn push_and_pop_same_cycle_are_independent() {
        // A stream register can accept and emit in the same cycle.
        let f: Fifo<u32> = Fifo::new("t", 2);
        f.force_push(7);
        f.try_push(3, 8).unwrap();
        assert_eq!(f.try_pop(3), Some(7));
    }

    #[test]
    fn capacity_backpressure() {
        let f: Fifo<u32> = Fifo::new("t", 2);
        f.try_push(0, 1).unwrap();
        f.try_push(1, 2).unwrap();
        assert!(f.is_full());
        assert_eq!(f.vacancy(), 0);
        assert_eq!(f.try_push(2, 3), Err(3));
        // Draining restores vacancy.
        f.try_pop(3);
        assert_eq!(f.vacancy(), 1);
        assert!(f.can_push(4));
    }

    #[test]
    fn counters_track_lifetime_traffic() {
        let f: Fifo<u32> = Fifo::new("t", 8);
        for c in 0..5 {
            f.try_push(c, c as u32).unwrap();
        }
        for c in 5..8 {
            f.try_pop(c);
        }
        assert_eq!(f.total_pushed(), 5);
        assert_eq!(f.total_popped(), 3);
    }

    #[test]
    fn clear_resets_rate_marks_and_accounts_dropped_elements() {
        let f: Fifo<u32> = Fifo::new("t", 4);
        f.try_push(7, 1).unwrap();
        f.try_push(8, 2).unwrap();
        assert_eq!(f.try_pop(8), Some(1));
        f.clear();
        // The reset forgets the rate-limit marks: a transfer in the
        // *same cycle* as the reset must succeed (pre-fix, the stale
        // `last_push == Some(8)` refused it).
        f.try_push(8, 3).unwrap();
        assert_eq!(f.try_pop(8), Some(3));
        // And the dropped element is accounted, keeping lifetime
        // occupancy math exact (pre-fix, pushed-popped drifted from
        // the real queue length after every reset).
        assert_eq!(f.total_cleared(), 1);
        assert_eq!(
            f.total_pushed() - f.total_popped() - f.total_cleared(),
            f.len() as u64
        );
    }

    #[test]
    fn shared_handles_see_same_queue() {
        let a: Fifo<u32> = Fifo::new("t", 2);
        let b = a.clone();
        a.try_push(0, 42).unwrap();
        assert_eq!(b.try_pop(0), Some(42));
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn zero_capacity_rejected() {
        let _ = Fifo::<u8>::new("bad", 0);
    }

    #[test]
    fn probes_do_not_take_the_queue_borrow() {
        // Occupancy and handshake probes must stay legal while the
        // queue's RefCell is held — components probe channels from
        // within monitor callbacks and nested helpers, and the
        // crossbar's idle-lane scan relies on probes being borrow-free.
        let f: Fifo<u32> = Fifo::new("t", 4);
        f.force_push(1);
        let _guard = f.shared.inner.borrow_mut();
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
        assert!(!f.is_full());
        assert_eq!(f.vacancy(), 3);
        assert!(f.can_push(0));
        assert!(f.can_pop(0));
    }

    #[test]
    fn save_restore_round_trips_queue_marks_and_counters() {
        let f: Fifo<u32> = Fifo::new("t", 4);
        f.try_push(0, 1).unwrap();
        f.try_push(1, 2).unwrap();
        f.try_push(2, 3).unwrap();
        assert_eq!(f.try_pop(2), Some(1));
        let saved = f.save_state();

        let g: Fifo<u32> = Fifo::new("t", 4);
        g.restore_state(&saved).unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.total_pushed(), 3);
        assert_eq!(g.total_popped(), 1);
        // Rate-limit marks are state: a pop at the saved last_pop
        // cycle must still be refused after restore.
        assert_eq!(g.try_pop(2), None);
        assert_eq!(g.try_pop(3), Some(2));
        assert_eq!(g.try_pop(4), Some(3));
    }

    #[test]
    fn restored_fifo_saves_an_identical_blob() {
        let f: Fifo<u32> = Fifo::new("t", 4);
        f.try_push(0, 7).unwrap();
        assert_eq!(f.try_pop(0), Some(7));
        f.try_push(1, 8).unwrap();
        let saved = f.save_state();
        let g: Fifo<u32> = Fifo::new("t", 4);
        g.restore_state(&saved).unwrap();
        assert_eq!(g.save_state(), saved);
    }

    #[test]
    fn restore_rejects_wrong_channel_and_overflow() {
        let f: Fifo<u32> = Fifo::new("a", 4);
        let saved = f.save_state();
        let other: Fifo<u32> = Fifo::new("b", 4);
        assert!(other.restore_state(&saved).is_err(), "name mismatch");

        let big: Fifo<u32> = Fifo::new("a", 8);
        for c in 0..6 {
            big.try_push(c, c as u32).unwrap();
        }
        let small: Fifo<u32> = Fifo::new("a", 4);
        assert!(
            small.restore_state(&big.save_state()).is_err(),
            "queue exceeds capacity"
        );
    }
}
