//! VCD (value-change dump) recording — waveforms from the simulation.
//!
//! A [`VcdRecorder`] is a component that samples a set of probes every
//! cycle and renders a standard VCD file readable by GTKWave & co.
//! Probes are closures, so anything observable can be traced: decouple
//! [`crate::Signal`]s, FIFO occupancies, ICAP word counters. The
//! examples use it to show the reconfiguration pipeline filling and
//! draining.
//!
//! Register the recorder **last** so it samples end-of-cycle state.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::component::{Component, TickCtx};
use crate::fifo::Fifo;
use crate::signal::Signal;
use crate::state::{StateBlob, StateError, StateValue};

/// One traced quantity.
struct Probe {
    name: String,
    width: u8,
    id: String,
    sample: Box<dyn Fn() -> u64>,
    last: Option<u64>,
}

/// Shared access to the rendered dump.
#[derive(Clone)]
pub struct VcdHandle {
    body: Rc<RefCell<String>>,
    header: Rc<RefCell<String>>,
}

impl VcdHandle {
    /// The complete VCD file contents.
    pub fn render(&self) -> String {
        format!("{}{}", self.header.borrow(), self.body.borrow())
    }
}

/// The recorder component.
pub struct VcdRecorder {
    name: String,
    probes: Vec<Probe>,
    handle: VcdHandle,
    started: bool,
}

/// Identifier codes: printable ASCII starting at `!`.
fn id_code(index: usize) -> String {
    let mut n = index;
    let mut s = String::new();
    loop {
        s.push((b'!' + (n % 94) as u8) as char);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    s
}

impl VcdRecorder {
    /// An empty recorder (add probes, then register with the simulator).
    pub fn new(name: impl Into<String>) -> Self {
        VcdRecorder {
            name: name.into(),
            probes: Vec::new(),
            handle: VcdHandle {
                body: Rc::new(RefCell::new(String::new())),
                header: Rc::new(RefCell::new(String::new())),
            },
            started: false,
        }
    }

    /// Handle to retrieve the dump after (or during) the run.
    pub fn handle(&self) -> VcdHandle {
        self.handle.clone()
    }

    /// Trace an arbitrary value of `width` bits.
    pub fn probe(
        &mut self,
        name: impl Into<String>,
        width: u8,
        sample: impl Fn() -> u64 + 'static,
    ) {
        assert!((1..=64).contains(&width));
        let index = self.probes.len();
        self.probes.push(Probe {
            name: name.into(),
            width,
            id: id_code(index),
            sample: Box::new(sample),
            last: None,
        });
    }

    /// Trace a boolean signal.
    pub fn probe_signal(&mut self, name: impl Into<String>, signal: Signal<bool>) {
        self.probe(name, 1, move || signal.get() as u64);
    }

    /// Trace a FIFO's occupancy.
    pub fn probe_fifo_len<T: 'static>(&mut self, name: impl Into<String>, fifo: Fifo<T>) {
        self.probe(name, 16, move || fifo.len() as u64);
    }

    fn emit_header(&mut self) {
        let mut h = self.handle.header.borrow_mut();
        h.push_str("$date rvcap-sim $end\n$version rvcap-sim vcd $end\n");
        h.push_str("$timescale 10ns $end\n$scope module soc $end\n");
        for p in &self.probes {
            let _ = writeln!(h, "$var wire {} {} {} $end", p.width, p.id, p.name);
        }
        h.push_str("$upscope $end\n$enddefinitions $end\n");
    }

    fn format_value(width: u8, value: u64, id: &str) -> String {
        if width == 1 {
            format!("{}{}\n", value & 1, id)
        } else {
            format!("b{:b} {}\n", value, id)
        }
    }
}

impl Component for VcdRecorder {
    fn name(&self) -> &str {
        &self.name
    }

    fn tick(&mut self, ctx: &mut TickCtx) {
        if !self.started {
            self.emit_header();
            self.started = true;
        }
        let mut changes = String::new();
        for p in &mut self.probes {
            let v = (p.sample)();
            if p.last != Some(v) {
                changes.push_str(&Self::format_value(p.width, v, &p.id));
                p.last = Some(v);
            }
        }
        if !changes.is_empty() {
            let mut body = self.handle.body.borrow_mut();
            let _ = writeln!(body, "#{}", ctx.cycle);
            body.push_str(&changes);
        }
    }

    fn save_state(&self) -> Option<StateBlob> {
        // Probe closures are structural (rebuilt by the rig); the
        // checkpoint carries the rendered text and each probe's last
        // sampled value so change detection resumes seamlessly.
        let mut b = StateBlob::new("sim.vcd", 1);
        b.put_bool("started", self.started);
        b.put_str("header", self.handle.header.borrow().clone());
        b.put_str("body", self.handle.body.borrow().clone());
        b.put_list(
            "last",
            self.probes
                .iter()
                .map(|p| match p.last {
                    Some(v) => StateValue::OptU64(Some(v)),
                    None => StateValue::OptU64(None),
                })
                .collect(),
        );
        Some(b)
    }

    fn restore_state(&mut self, state: &StateBlob) -> Result<(), StateError> {
        state.expect("sim.vcd", 1)?;
        let last = state.get_list("last")?;
        if last.len() != self.probes.len() {
            return Err(state.structure_error(format!(
                "probe count mismatch: instance {}, state {}",
                self.probes.len(),
                last.len()
            )));
        }
        self.started = state.get_bool("started")?;
        *self.handle.header.borrow_mut() = state.get_str("header")?.to_string();
        *self.handle.body.borrow_mut() = state.get_str("body")?.to_string();
        for (p, v) in self.probes.iter_mut().zip(last) {
            p.last = match v {
                StateValue::OptU64(o) => *o,
                other => {
                    return Err(state
                        .structure_error(format!("probe last-value has wrong kind: {other:?}")))
                }
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Freq;
    use crate::Simulator;

    #[test]
    fn id_codes_are_unique_and_printable() {
        let ids: Vec<String> = (0..300).map(id_code).collect();
        let set: std::collections::HashSet<&String> = ids.iter().collect();
        assert_eq!(set.len(), 300);
        assert!(ids
            .iter()
            .all(|s| s.bytes().all(|b| (b'!'..=b'~').contains(&b))));
        assert_eq!(ids[0], "!");
    }

    #[test]
    fn records_signal_changes_only() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let line = Signal::new(false);
        let mut rec = VcdRecorder::new("vcd");
        rec.probe_signal("decouple", line.clone());
        let handle = rec.handle();
        sim.register(Box::new(rec));
        sim.step_n(3);
        line.set(true);
        sim.step_n(3);
        line.set(false);
        sim.step_n(2);
        let dump = handle.render();
        assert!(dump.contains("$var wire 1 ! decouple $end"));
        assert!(dump.contains("$enddefinitions"));
        // Initial value at #0, rise at #3, fall at #6 — three change
        // records, not eight.
        assert_eq!(
            dump.matches("\n0!").count() + dump.matches("\n1!").count(),
            3
        );
        assert!(dump.contains("#3\n1!"));
        assert!(dump.contains("#6\n0!"));
    }

    #[test]
    fn multibit_values_use_binary_format() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let fifo: Fifo<u32> = Fifo::new("f", 8);
        let mut rec = VcdRecorder::new("vcd");
        rec.probe_fifo_len("depth", fifo.clone());
        let handle = rec.handle();
        sim.register(Box::new(rec));
        sim.step();
        fifo.force_push(1);
        fifo.force_push(2);
        fifo.force_push(3);
        sim.step();
        let dump = handle.render();
        assert!(dump.contains("b0 !"));
        assert!(dump.contains("b11 !"), "occupancy 3 = b11:\n{dump}");
    }

    #[test]
    fn quiet_cycles_emit_nothing() {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let line = Signal::new(true);
        let mut rec = VcdRecorder::new("vcd");
        rec.probe_signal("s", line);
        let handle = rec.handle();
        sim.register(Box::new(rec));
        sim.step_n(100);
        let dump = handle.render();
        // One timestamp (#0 with the initial sample), none after.
        assert_eq!(dump.matches('#').count(), 1);
    }
}
