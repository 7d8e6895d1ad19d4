//! Wake plumbing for the active-set scheduler.
//!
//! The kernel's active-set mode (see [`crate::Simulator`]) only ticks
//! components that are *due*: self-scheduled via their
//! [`crate::Component::next_activity`] hint, or externally woken
//! because new input arrived. This module carries the "externally
//! woken" half:
//!
//! * The simulator owns one pending-wake bitset over component
//!   indices, the wake hub.
//! * A [`Waker`] is a cheap handle to one component's bit. The kernel
//!   hands each component its waker at registration time
//!   ([`crate::Component::wake_sources`]); the component subscribes it
//!   to every input channel whose state feeds its hint
//!   ([`crate::Fifo::subscribe_wake`], [`crate::Signal::subscribe_wake`]).
//!   That is the wake half of the one scheduling rule (see
//!   [`crate::Component`]): with every such input subscribed, the
//!   kernel may sleep the component between hints and trust the hub
//!   to wake it.
//!
//! Wakes are level-cheap: firing a waker sets one bit in the hub (no
//! allocation, idempotent within a cycle). The kernel drains the hub at
//! each cycle start and again after every tick so a producer pushing
//! mid-cycle still activates a later-registered consumer *that* cycle,
//! preserving the producer-before-consumer ordering contract.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

#[derive(Debug, Default)]
struct HubShared {
    /// Pending-wake bitset over component indices, widened only at
    /// registration ([`WakeHub::waker`]). The emptiness flag lives
    /// outside the `RefCell` so the kernel's after-every-tick drain
    /// call is a plain load when nothing is pending.
    pending: RefCell<BitSet>,
    /// Fast emptiness check (cleared only by full drains).
    any: Cell<bool>,
}

/// The simulator-owned pending-wake set. Cloning shares the set.
#[derive(Debug, Clone, Default)]
pub(crate) struct WakeHub {
    inner: Rc<HubShared>,
}

impl WakeHub {
    /// An empty hub.
    pub(crate) fn new() -> Self {
        WakeHub::default()
    }

    /// Register component `index`: widen the pending set to cover it
    /// and hand out its waker. The kernel widens its own scheduler sets
    /// in the same step, so every drain sees equal widths.
    pub(crate) fn waker(&self, index: usize) -> Waker {
        self.inner.pending.borrow_mut().grow_to(index);
        Waker {
            hub: self.clone(),
            index,
        }
    }

    /// Mark component `index` pending.
    #[inline]
    pub(crate) fn wake(&self, index: usize) {
        self.inner.pending.borrow_mut().set(index);
        self.inner.any.set(true);
    }

    /// True when no wakes are pending.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        !self.inner.any.get()
    }

    /// Move every pending wake into `due` (bit-or) and clear the hub.
    #[inline]
    pub(crate) fn drain_all_into(&self, due: &mut BitSet) {
        if !self.inner.any.get() {
            return;
        }
        let mut pending = self.inner.pending.borrow_mut();
        debug_assert_eq!(due.words.len(), pending.words.len());
        for (d, w) in due.words.iter_mut().zip(&mut pending.words) {
            *d |= *w;
            *w = 0;
        }
        self.inner.any.set(false);
    }

    /// Move pending wakes for indices **strictly greater than**
    /// `threshold` into `due`, leaving lower indices pending (they get
    /// their re-query at the next cycle start — a wake aimed at an
    /// already-passed tick slot is a next-cycle wake, exactly like the
    /// one-cycle pipeline latency of the naive schedule).
    #[inline]
    pub(crate) fn drain_above_into(&self, threshold: usize, due: &mut BitSet) {
        if !self.inner.any.get() {
            return;
        }
        self.drain_above_slow(threshold, due);
    }

    fn drain_above_slow(&self, threshold: usize, due: &mut BitSet) {
        let mut pending = self.inner.pending.borrow_mut();
        debug_assert_eq!(due.words.len(), pending.words.len());
        let (word, bit) = (threshold / 64, threshold % 64);
        let mut below = false;
        for (i, (d, w)) in due.words.iter_mut().zip(&mut pending.words).enumerate() {
            if i < word {
                below |= *w != 0;
                continue;
            }
            let take = if i == word {
                // Keep bits 0..=threshold pending.
                *w & !(u64::MAX >> (63 - bit) as u32)
            } else {
                *w
            };
            *d |= take;
            *w &= !take;
            below |= *w != 0;
        }
        self.inner.any.set(below);
    }
}

/// Handle that marks one component pending in its simulator's wake
/// hub. Stored inside [`crate::Fifo`]s and
/// [`crate::Signal`]s via their `subscribe_wake` methods.
#[derive(Debug, Clone)]
pub struct Waker {
    hub: WakeHub,
    index: usize,
}

impl Waker {
    /// Mark the owning component pending. Idempotent and allocation-
    /// free; safe to call from any context (ticked code or host).
    #[inline]
    pub fn wake(&self) {
        self.hub.wake(self.index);
    }
}

/// A reusable bitset over component indices (the kernel's per-cycle
/// due set). Not a general-purpose container — just enough for the
/// scheduler's zero-allocation inner loop, at a width fixed at
/// registration ([`BitSet::grow_to`]).
#[derive(Debug, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// Widen to cover `index`. Registration only.
    pub(crate) fn grow_to(&mut self, index: usize) {
        let need = (index / 64 + 1).max(self.words.len());
        self.words.resize(need, 0);
    }

    #[inline]
    pub(crate) fn set(&mut self, index: usize) {
        self.words[index / 64] |= 1 << (index % 64);
    }

    pub(crate) fn clear(&mut self, index: usize) {
        self.words[index / 64] &= !(1 << (index % 64));
    }

    /// Smallest set index `>= from`, if any.
    pub(crate) fn next_at_or_after(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        if word >= self.words.len() {
            return None;
        }
        let mut bits = self.words[word] & (u64::MAX << (from % 64) as u32);
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            if word >= self.words.len() {
                return None;
            }
            bits = self.words[word];
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of set bits.
    #[cfg(test)]
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Width in 64-bit words.
    #[cfg(test)]
    pub(crate) fn width(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_sets_pending_and_drains() {
        let hub = WakeHub::new();
        let w = hub.waker(70);
        assert!(hub.is_empty());
        w.wake();
        w.wake(); // idempotent
        assert!(!hub.is_empty());
        let mut due = BitSet::default();
        due.grow_to(70);
        hub.drain_all_into(&mut due);
        assert!(hub.is_empty());
        assert_eq!(due.next_at_or_after(0), Some(70));
        assert_eq!(due.count(), 1);
    }

    #[test]
    fn drain_above_splits_on_the_threshold() {
        let hub = WakeHub::new();
        for i in [3usize, 64, 65, 130] {
            hub.waker(i).wake();
        }
        let mut due = BitSet::default();
        due.grow_to(130);
        // Threshold 64: 3 and 64 stay pending, 65 and 130 become due.
        hub.drain_above_into(64, &mut due);
        assert_eq!(due.next_at_or_after(0), Some(65));
        assert_eq!(due.next_at_or_after(66), Some(130));
        assert_eq!(due.count(), 2);
        assert!(!hub.is_empty());
        let mut rest = BitSet::default();
        rest.grow_to(130);
        hub.drain_all_into(&mut rest);
        assert_eq!(rest.next_at_or_after(0), Some(3));
        assert_eq!(rest.next_at_or_after(4), Some(64));
        assert_eq!(rest.count(), 2);
        assert!(hub.is_empty());
    }

    #[test]
    fn drain_above_clears_any_flag_only_when_nothing_remains() {
        let hub = WakeHub::new();
        hub.waker(10).wake();
        let mut due = BitSet::default();
        due.grow_to(10);
        hub.drain_above_into(5, &mut due);
        assert!(hub.is_empty(), "10 > 5 was fully drained");
        assert_eq!(due.next_at_or_after(0), Some(10));
    }

    #[test]
    fn bitset_iterates_ascending() {
        let mut b = BitSet::default();
        b.grow_to(200);
        for i in [0usize, 1, 63, 64, 127, 200] {
            b.set(i);
        }
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(i) = b.next_at_or_after(from) {
            seen.push(i);
            b.clear(i);
            from = i + 1;
        }
        assert_eq!(seen, vec![0, 1, 63, 64, 127, 200]);
        assert!(b.is_empty());
    }
}
