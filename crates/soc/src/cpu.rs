//! The CPU driver host: co-routine execution of driver code against
//! the simulated SoC.
//!
//! The paper's drivers are C functions running bare-metal on Ariane.
//! Here they are Rust functions (in `rvcap-core::drivers`) that take a
//! [`SocCore`] and perform MMIO through it. Each access:
//!
//! 1. charges the pipeline's issue cost (store-buffer drain — Ariane
//!    must not reorder or speculate non-cacheable accesses),
//! 2. pushes the request onto the CPU's AXI master port and **advances
//!    the whole simulation** until the response returns,
//! 3. charges the retire cost.
//!
//! The simulated cycles consumed are therefore exactly the cycles the
//! core would stall — the quantity behind the paper's HWICAP
//! measurements. Pure computation between accesses is charged with
//! [`SocCore::compute`] (the driver constants are documented where
//! they are used).
//!
//! [`InterpreterBus`] bridges the `rvcap-rv64` interpreter to the same
//! port for instruction-accurate runs (the loop-unrolling study): the
//! interpreter's non-bus cycles are forwarded through
//! [`rvcap_rv64::Bus::advance`] so peripherals stay in lockstep.

use rvcap_axi::mm::{MasterPort, MmReq, MmResp};
use rvcap_sim::state::{SimState, StateBlob, StateError};
use rvcap_sim::{Cycle, Simulator, StallReport};

use crate::ddr::DdrHandle;

/// Pipeline cost of a non-cacheable access outside the bus itself:
/// cycles to drain and issue before the request hits the bus.
const ISSUE_CYCLES: Cycle = 4;
/// Cycles to retire a non-cacheable access after its response.
const RETIRE_CYCLES: Cycle = 2;

/// A bus error surfaced to driver code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusError {
    /// Faulting address.
    pub addr: u64,
}

impl std::fmt::Display for BusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bus error at {:#x}", self.addr)
    }
}

impl std::error::Error for BusError {}

/// The simulation container + CPU master port: what driver code runs
/// against.
pub struct SocCore {
    /// The simulator owning every registered component.
    pub sim: Simulator,
    port: MasterPort,
    mmio_reads: u64,
    mmio_writes: u64,
}

/// Safety net: no single MMIO transaction may take this long.
const TRANSACTION_LIMIT: Cycle = 1_000_000;

impl SocCore {
    /// Wrap a simulator and the CPU's master port.
    pub fn new(sim: Simulator, port: MasterPort) -> Self {
        SocCore {
            sim,
            port,
            mmio_reads: 0,
            mmio_writes: 0,
        }
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.sim.now()
    }

    /// MMIO reads performed.
    pub fn mmio_reads(&self) -> u64 {
        self.mmio_reads
    }

    /// MMIO writes performed.
    pub fn mmio_writes(&self) -> u64 {
        self.mmio_writes
    }

    /// CPU-local computation: advances the clock without bus traffic.
    pub fn compute(&mut self, cycles: Cycle) {
        self.sim.step_n(cycles);
    }

    /// Advance until `pred` is true (polling loops, IRQ waits).
    /// Returns cycles waited, or the kernel's [`StallReport`] after
    /// `limit` cycles.
    pub fn wait_until(
        &mut self,
        limit: Cycle,
        pred: impl FnMut() -> bool,
    ) -> Result<Cycle, StallReport> {
        self.sim.run_until(limit, pred)
    }

    fn transact(&mut self, req: MmReq) -> Result<MmResp, BusError> {
        let addr = req.addr;
        self.sim.step_n(ISSUE_CYCLES);
        // Enqueue (retrying while the port is full).
        let mut req = req;
        loop {
            match self.port.try_issue(self.sim.now(), req) {
                Ok(()) => break,
                Err(r) => {
                    req = r;
                    self.sim.step();
                }
            }
        }
        // Block until the response arrives. Driving this wait through
        // `run_until` (rather than a step-at-a-time loop) lets the
        // kernel fast-forward across the idle portion of the round
        // trip — MMIO-heavy drivers like HWICAP spend most of their
        // simulated time exactly here. A transaction that never
        // completes is a wiring bug, so it stays fatal, but with the
        // kernel's full stall diagnostic.
        let resp_fifo = self.port.resp.clone();
        if let Err(report) = self
            .sim
            .run_until(TRANSACTION_LIMIT, || !resp_fifo.is_empty())
        {
            panic!("MMIO to {addr:#x} never completed: {report}");
        }
        let resp = resp_fifo.force_pop().expect("response checked non-empty");
        self.sim.step_n(RETIRE_CYCLES);
        if resp.error {
            return Err(BusError { addr });
        }
        Ok(resp)
    }

    /// Blocking MMIO read (panics on bus error — driver code treats
    /// that as fatal, like an unhandled access fault).
    pub fn mmio_read(&mut self, addr: u64, bytes: u8) -> u64 {
        self.try_mmio_read(addr, bytes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Blocking MMIO read returning bus errors.
    pub fn try_mmio_read(&mut self, addr: u64, bytes: u8) -> Result<u64, BusError> {
        self.mmio_reads += 1;
        self.transact(MmReq::read(addr, bytes)).map(|r| r.data)
    }

    /// Blocking MMIO write (panics on bus error).
    pub fn mmio_write(&mut self, addr: u64, value: u64, bytes: u8) {
        self.try_mmio_write(addr, value, bytes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Blocking MMIO write returning bus errors.
    pub fn try_mmio_write(&mut self, addr: u64, value: u64, bytes: u8) -> Result<(), BusError> {
        self.mmio_writes += 1;
        self.transact(MmReq::write(addr, value, bytes)).map(|_| ())
    }

    /// 32-bit register read (the natural width for control registers).
    pub fn read_reg(&mut self, addr: u64) -> u32 {
        self.mmio_read(addr, 4) as u32
    }

    /// 32-bit register write.
    pub fn write_reg(&mut self, addr: u64, value: u32) {
        self.mmio_write(addr, value as u64, 4);
    }

    /// Checkpoint the whole SoC: the simulator's [`SimState`] plus the
    /// host-side CPU state the simulator cannot see — the CPU master
    /// port's response FIFO (the CPU is its unique consumer; the
    /// request FIFO is saved by the crossbar that consumes it) and the
    /// MMIO operation counters.
    pub fn checkpoint(&self) -> Result<SocState, StateError> {
        let mut cpu = StateBlob::new("soc.cpu", 2);
        cpu.put("port_resp", self.port.resp.save_state());
        cpu.put_u64("mmio_reads", self.mmio_reads);
        cpu.put_u64("mmio_writes", self.mmio_writes);
        Ok(SocState {
            sim: self.sim.checkpoint()?,
            cpu,
        })
    }

    /// Restore a checkpoint captured by [`SocCore::checkpoint`] — from
    /// this core or a structurally identical one built by the same
    /// construction code (the warm-boot fork path). Driver coroutines
    /// live on the host stack and cannot be captured: restore only at
    /// driver quiescence (no MMIO transaction in flight in host code).
    pub fn restore(&mut self, state: &SocState) -> Result<(), StateError> {
        state.cpu.expect("soc.cpu", 2)?;
        self.sim.restore(&state.sim)?;
        self.port.resp.restore_state(state.cpu.get("port_resp")?)?;
        self.mmio_reads = state.cpu.get_u64("mmio_reads")?;
        self.mmio_writes = state.cpu.get_u64("mmio_writes")?;
        Ok(())
    }
}

/// A whole-SoC checkpoint: the simulator state plus the host-side CPU
/// state ([`SocCore::checkpoint`]).
#[derive(Debug, Clone)]
pub struct SocState {
    /// Every registered component, the cycle, tick accounting, and the
    /// sanitizer observation state.
    pub sim: SimState,
    /// CPU master-port response FIFO and MMIO counters.
    pub cpu: StateBlob,
}

impl SocState {
    /// The first replay-parity difference between two SoC checkpoints,
    /// or `None` when equivalent. Extends [`SimState::parity_diff`]
    /// with the CPU-side state.
    pub fn parity_diff(&self, other: &SocState) -> Option<String> {
        if let Some(d) = self.sim.parity_diff(&other.sim) {
            return Some(d);
        }
        if self.cpu != other.cpu {
            return Some("cpu: host-side state differs".into());
        }
        None
    }

    /// True when [`SocState::parity_diff`] finds nothing.
    pub fn parity_eq(&self, other: &SocState) -> bool {
        self.parity_diff(other).is_none()
    }
}

/// Bridges the RV64 interpreter to a [`SocCore`]: accesses inside DDR
/// hit the data cache (backdoor DDR, 1 cycle); every other access —
/// peripherals, the boot ROM, unmapped addresses — runs the full
/// simulated bus round trip, so the crossbar decodes it (an unmapped
/// address is a fatal bus error, as in [`SocCore::mmio_read`]);
/// non-bus instruction cycles advance the simulation in lockstep.
pub struct InterpreterBus<'a> {
    core: &'a mut SocCore,
    ddr: DdrHandle,
    irq: Option<(crate::plic::PlicHandle, u32)>,
}

impl<'a> InterpreterBus<'a> {
    /// Bridge `core`, using `ddr` as the cacheable backing store.
    pub fn new(core: &'a mut SocCore, ddr: DdrHandle) -> Self {
        InterpreterBus {
            core,
            ddr,
            irq: None,
        }
    }

    /// Wire the machine external interrupt line to a PLIC source:
    /// `wfi` and trap delivery in the interpreter then follow the
    /// simulated interrupt controller.
    pub fn with_irq(mut self, plic: crate::plic::PlicHandle, source: u32) -> Self {
        self.irq = Some((plic, source));
        self
    }
}

impl rvcap_rv64::Bus for InterpreterBus<'_> {
    fn load(&mut self, addr: u64, bytes: u8) -> (u64, u64) {
        if self.ddr.contains(addr, bytes.into()) {
            let raw = self.ddr.read_bytes(addr, bytes as usize);
            let mut buf = [0u8; 8];
            buf[..bytes as usize].copy_from_slice(&raw);
            // D$ hit.
            (u64::from_le_bytes(buf), 1)
        } else {
            let t0 = self.core.now();
            let v = self.core.mmio_read(addr, bytes);
            (v, self.core.now() - t0)
        }
    }

    fn store(&mut self, addr: u64, bytes: u8, value: u64) -> u64 {
        if self.ddr.contains(addr, bytes.into()) {
            self.ddr
                .write_bytes(addr, &value.to_le_bytes()[..bytes as usize]);
            1
        } else {
            let t0 = self.core.now();
            self.core.mmio_write(addr, value, bytes);
            self.core.now() - t0
        }
    }

    fn advance(&mut self, cycles: u64) {
        self.core.compute(cycles);
    }

    fn irq_pending(&mut self) -> bool {
        self.irq
            .as_ref()
            .is_some_and(|(plic, src)| plic.is_pending(*src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clint::Clint;
    use crate::ddr::{Ddr, DdrConfig};
    use crate::map::*;
    use rvcap_axi::crossbar::{Crossbar, RamSlave, SlaveRegion};
    use rvcap_axi::mm::link;
    use rvcap_rv64::Bus;
    use rvcap_sim::Freq;

    /// A minimal SoC: CPU → crossbar → {boot ROM, CLINT, DDR}.
    fn mini_soc() -> (SocCore, crate::clint::ClintHandle, DdrHandle) {
        let mut sim = Simulator::new(Freq::FABRIC_100MHZ);
        let (cpu_m, cpu_s) = link("cpu", 1);
        let (boot_m, boot_s) = link("boot", 2);
        let (clint_m, clint_s) = link("clint", 2);
        let (ddr_m, ddr_s) = link("ddr", 8);
        let xbar = Crossbar::new(
            "xbar",
            vec![cpu_s],
            vec![
                (
                    SlaveRegion::new("boot", BOOT_ROM_BASE, BOOT_ROM_SIZE),
                    boot_m,
                ),
                (SlaveRegion::new("clint", CLINT_BASE, CLINT_SIZE), clint_m),
                (SlaveRegion::new("ddr", DDR_BASE, 1 << 20), ddr_m),
            ],
        );
        let boot = RamSlave::new("boot", boot_s, BOOT_ROM_BASE, BOOT_ROM_SIZE as usize);
        let (clint, clint_h) = Clint::paper(clint_s, CLINT_BASE);
        let (ddr, ddr_h) = Ddr::new(
            "ddr",
            ddr_s,
            DDR_BASE,
            DdrConfig {
                size: 1 << 20,
                ..DdrConfig::default()
            },
        );
        sim.register(Box::new(xbar));
        sim.register(Box::new(boot));
        sim.register(Box::new(clint));
        sim.register(Box::new(ddr));
        (SocCore::new(sim, cpu_m), clint_h, ddr_h)
    }

    #[test]
    fn interpreter_reaches_the_boot_rom_over_the_bus() {
        let (mut core, _c, ddr) = mini_soc();
        let program = rvcap_rv64::assemble(
            "
            li a0, 0x10000        # BOOT_ROM_BASE
            li a1, 0x5a5a
            sd a1, 8(a0)
            ld a2, 8(a0)
            ecall
            ",
            0x1_0000,
        )
        .unwrap();
        let mut cpu = rvcap_rv64::Cpu::new(program, 0x1_0000);
        let res = cpu.run(&mut InterpreterBus::new(&mut core, ddr.clone()), 1000);
        assert_eq!(res.exit, rvcap_rv64::RunExit::Halted);
        assert_eq!(cpu.reg(rvcap_rv64::Reg::a(2)), 0x5a5a);
        // Both accesses were bus round trips, not D$ hits on DDR.
        assert_eq!((core.mmio_writes(), core.mmio_reads()), (1, 1));
        assert_eq!(ddr.read_bytes(DDR_BASE, 16), vec![0; 16]);
    }

    #[test]
    #[should_panic(expected = "bus error at 0x84000000")]
    fn interpreter_load_past_ddr_is_a_bus_error() {
        let (mut core, _c, ddr) = mini_soc();
        InterpreterBus::new(&mut core, ddr).load(0x8400_0000, 4);
    }

    #[test]
    fn mmio_round_trip_takes_realistic_cycles() {
        let (mut core, _c, ddr) = mini_soc();
        ddr.write_bytes(DDR_BASE, &0x1234_5678u32.to_le_bytes());
        let t0 = core.now();
        let v = core.mmio_read(DDR_BASE, 4);
        let took = core.now() - t0;
        assert_eq!(v, 0x1234_5678);
        // issue(4) + xbar(2+2) + ddr latency(22) + retire(2) + hops.
        assert!((30..=50).contains(&took), "round trip {took} cycles");
    }

    #[test]
    fn clint_time_measurement_pattern() {
        // The paper's measurement idiom: read mtime, do work, read
        // mtime.
        let (mut core, _h, _d) = mini_soc();
        let t0 = core.mmio_read(CLINT_BASE + CLINT_MTIME, 8);
        core.compute(2000); // 20 µs of "work"
        let t1 = core.mmio_read(CLINT_BASE + CLINT_MTIME, 8);
        let ticks = t1 - t0;
        // 2000 cycles = 100 ticks, plus the read round trips.
        assert!((100..=105).contains(&ticks), "ticks {ticks}");
    }

    #[test]
    fn bus_error_surfaces() {
        let (mut core, _c, _d) = mini_soc();
        let err = core.try_mmio_read(0xDEAD_0000, 4).unwrap_err();
        assert_eq!(err.addr, 0xDEAD_0000);
    }

    #[test]
    fn counters_track_ops() {
        let (mut core, _c, _d) = mini_soc();
        core.mmio_write(DDR_BASE, 1, 8);
        core.mmio_read(DDR_BASE, 8);
        core.read_reg(DDR_BASE);
        assert_eq!(core.mmio_writes(), 1);
        assert_eq!(core.mmio_reads(), 2);
    }

    #[test]
    fn interpreter_runs_against_the_soc() {
        let (mut core, clint_h, ddr) = mini_soc();
        // A program that stores a counter into DDR (cacheable) and
        // reads mtime (non-cacheable, full round trip).
        let program = rvcap_rv64::assemble(
            "
            li a0, 0x40000000
            slli a0, a0, 1        # DDR_BASE
            li a1, 777
            sd a1, 0(a0)
            li a2, 0x02000000     # CLINT
            lui a3, 0xC          # 0xC000
            addi a3, a3, -8      # 0xBFF8
            add a2, a2, a3
            ld a4, 0(a2)          # mtime over the bus
            ecall
            ",
            0x1_0000,
        )
        .unwrap();
        let mut cpu = rvcap_rv64::Cpu::new(program, 0x1_0000);
        let mut bus = InterpreterBus::new(&mut core, ddr.clone());
        let res = cpu.run(&mut bus, 1000);
        assert_eq!(res.exit, rvcap_rv64::RunExit::Halted);
        assert_eq!(
            u64::from_le_bytes(ddr.read_bytes(DDR_BASE, 8).try_into().unwrap()),
            777
        );
        // The mtime load went over the simulated bus: sim advanced in
        // lockstep with the CPU (within a couple of cycles).
        assert!(cpu.reg(rvcap_rv64::Reg::a(4)) <= clint_h.mtime());
        let drift = core.now() as i64 - cpu.cycles as i64;
        assert!(drift.abs() < 5, "sim/CPU clock drift {drift}");
    }
}
