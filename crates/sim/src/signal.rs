//! Level signals: shared single-word state observable by any component.
//!
//! Used for the control wires of the modelled system — PR decouple
//! lines, the AXI-Stream switch select, interrupt request lines from
//! the DMA to the PLIC — anywhere hardware would run a plain wire
//! rather than a handshaked channel.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::wake::Waker;

/// A shared level signal carrying a `Copy` value (most signals are
/// `bool`; the stream-switch select is a small integer).
///
/// Unlike [`crate::Fifo`], signals have no handshake and no rate limit:
/// reading a wire is free and the last write wins, exactly like a
/// registered level signal sampled each cycle.
#[derive(Debug, Clone)]
pub struct Signal<T: Copy> {
    value: Rc<Cell<T>>,
    /// Wakers fired on every [`Signal::set`] (see
    /// [`Signal::subscribe_wake`]). Kept behind its own `Rc` so clones
    /// share subscriptions; empty for the vast majority of signals.
    wakers: Rc<RefCell<Vec<Waker>>>,
}

impl<T: Copy> Signal<T> {
    /// Create a signal initialized to `value`.
    pub fn new(value: T) -> Self {
        Signal {
            value: Rc::new(Cell::new(value)),
            wakers: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Sample the current level.
    pub fn get(&self) -> T {
        self.value.get()
    }

    /// Drive a new level.
    pub fn set(&self, value: T) {
        self.value.set(value);
        let wakers = self.wakers.borrow();
        for w in wakers.iter() {
            w.wake();
        }
    }

    /// Subscribe a [`Waker`]: it fires on every [`Signal::set`]
    /// (whether or not the level actually changed — drivers re-assert
    /// levels, and a spurious wake only costs one hint re-query).
    /// Components call this from [`crate::Component::wake_sources`] for
    /// each wire whose level feeds their
    /// [`crate::Component::next_activity`] hint.
    pub fn subscribe_wake(&self, waker: Waker) {
        self.wakers.borrow_mut().push(waker);
    }
}

impl<T: Copy + Default> Default for Signal<T> {
    fn default() -> Self {
        Signal::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_level_semantics() {
        let s = Signal::new(false);
        let reader = s.clone();
        assert!(!reader.get());
        s.set(true);
        assert!(reader.get());
        s.set(true); // idempotent
        assert!(reader.get());
    }

    #[test]
    fn default_is_type_default() {
        let s: Signal<u8> = Signal::default();
        assert_eq!(s.get(), 0);
    }
}
