//! The RV64IM interpreter and its in-order timing model.
//!
//! Timing approximates a single-issue, in-order application core of
//! the CVA6 class at the granularity the driver study needs:
//!
//! * 1 cycle base cost per instruction (issue-limited);
//! * taken branches and jumps pay a front-end redirect penalty
//!   (CVA6 resolves branches late; mispredicts cost ~5 cycles — the
//!   driver loops here are data-dependent `bne`s the predictor cannot
//!   learn past their exit);
//! * `mul` is pipelined-ish (2 cycles), `div` iterative (~20);
//! * cacheable memory hits in the data cache (1 extra cycle);
//! * **non-cacheable accesses block the pipeline** for the full bus
//!   round trip, reported by the [`Bus`] per access. Ariane "is not
//!   allowed to start speculative memory access to the non-cacheable
//!   memory address area" (§IV-B) — so these never overlap with
//!   anything.

use crate::insn::{decode, AluOp, BranchCond, CsrOp, Insn, MulOp, Reg, Width};

/// Memory/MMIO attached to the CPU.
///
/// `load`/`store` return the number of *extra* cycles (beyond the
/// 1-cycle base) the access stalls the pipeline. For DRAM-backed
/// program memory that's the cache-hit cost; for non-cacheable MMIO
/// the implementation is expected to run the bus simulation to
/// completion and report the real round-trip time.
pub trait Bus {
    /// Read `bytes` (1/2/4/8) at `addr`; returns (zero-extended value,
    /// extra stall cycles).
    fn load(&mut self, addr: u64, bytes: u8) -> (u64, u64);
    /// Write the low `bytes` of `value` to `addr`; returns extra stall
    /// cycles.
    fn store(&mut self, addr: u64, bytes: u8, value: u64) -> u64;
    /// The CPU spent `cycles` executing without touching the bus
    /// (issue, ALU, branch penalties). Implementations cosimulating
    /// against an external clock advance it here so peripherals (FIFO
    /// drains, timers) keep pace with the core; self-contained memories
    /// ignore it.
    fn advance(&mut self, cycles: u64) {
        let _ = cycles;
    }

    /// Level of the external (machine) interrupt line into the core.
    /// Cosimulation buses sample their PLIC here; self-contained
    /// memories never interrupt.
    fn irq_pending(&mut self) -> bool {
        false
    }
}

/// A flat little-endian memory for self-contained programs and tests.
pub struct LinearMemory {
    base: u64,
    bytes: Vec<u8>,
}

impl LinearMemory {
    /// `size` bytes starting at `base`.
    pub fn new(base: u64, size: usize) -> Self {
        LinearMemory {
            base,
            bytes: vec![0; size],
        }
    }

    /// Copy `data` to `addr`.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let off = (addr - self.base) as usize;
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }

    /// Read a slice.
    pub fn read_bytes(&self, addr: u64, len: usize) -> &[u8] {
        let off = (addr - self.base) as usize;
        &self.bytes[off..off + len]
    }
}

impl Bus for LinearMemory {
    fn load(&mut self, addr: u64, bytes: u8) -> (u64, u64) {
        let off = (addr - self.base) as usize;
        let mut buf = [0u8; 8];
        buf[..bytes as usize].copy_from_slice(&self.bytes[off..off + bytes as usize]);
        (u64::from_le_bytes(buf), 1)
    }

    fn store(&mut self, addr: u64, bytes: u8, value: u64) -> u64 {
        let off = (addr - self.base) as usize;
        self.bytes[off..off + bytes as usize]
            .copy_from_slice(&value.to_le_bytes()[..bytes as usize]);
        1
    }
}

// Pipeline timing, CVA6-flavoured.
/// Redirect penalty for taken branches (mispredicted exits).
const BRANCH_TAKEN_CYCLES: u64 = 5;
/// Redirect penalty for jal/jalr.
const JUMP_CYCLES: u64 = 2;
/// Extra cycles for mul.
const MUL_CYCLES: u64 = 2;
/// Extra cycles for div/rem.
const DIV_CYCLES: u64 = 20;

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// ECALL or EBREAK executed.
    Halted,
    /// Instruction budget exhausted.
    OutOfFuel,
    /// PC left the program, or an undecodable word was fetched.
    Fault {
        /// PC of the offending fetch.
        pc: u64,
    },
}

/// Result of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Cycles consumed (timing model).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Stop reason.
    pub exit: RunExit,
}

/// Machine-mode CSR file (the M-mode subset bare-metal drivers use).
#[derive(Debug, Clone, Copy, Default)]
pub struct Csrs {
    /// mstatus (MIE bit 3, MPIE bit 7).
    pub mstatus: u64,
    /// mie (MEIE bit 11).
    pub mie: u64,
    /// mtvec: trap vector (direct mode).
    pub mtvec: u64,
    /// mepc: trap return address.
    pub mepc: u64,
    /// mcause: trap cause.
    pub mcause: u64,
    /// mscratch.
    pub mscratch: u64,
}

/// mstatus.MIE.
pub const MSTATUS_MIE: u64 = 1 << 3;
/// mstatus.MPIE.
pub const MSTATUS_MPIE: u64 = 1 << 7;
/// mie.MEIE / mip.MEIP (machine external interrupt).
pub const MIE_MEIE: u64 = 1 << 11;
/// mcause value for a machine external interrupt.
pub const MCAUSE_M_EXTERNAL: u64 = (1 << 63) | 11;

/// The interpreter.
pub struct Cpu {
    /// Architectural registers; x0 reads as zero.
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: u64,
    /// Cycle counter (feeds `rdcycle`).
    pub cycles: u64,
    /// Machine-mode CSRs.
    pub csrs: Csrs,
    /// Interrupts taken.
    pub interrupts_taken: u64,
    program_base: u64,
    program: Vec<u32>,
}

impl Cpu {
    /// Load `program` (instruction words) at `base` and reset.
    pub fn new(program: Vec<u32>, base: u64) -> Self {
        Cpu {
            regs: [0; 32],
            pc: base,
            cycles: 0,
            csrs: Csrs::default(),
            interrupts_taken: 0,
            program_base: base,
            program,
        }
    }

    /// Read a register (x0 is always zero).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.0 == 0 {
            0
        } else {
            self.regs[r.0 as usize]
        }
    }

    /// Write a register (x0 writes are dropped).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }

    /// Fetch and decode the instruction at `pc`. `None` covers both
    /// fetch faults (PC outside the program / misaligned) and
    /// undecodable words — the caller reports the same
    /// `RunExit::Fault` for either.
    #[inline]
    fn fetch_decoded(&self) -> Option<Insn> {
        if self.pc < self.program_base || !(self.pc - self.program_base).is_multiple_of(4) {
            return None;
        }
        let idx = ((self.pc - self.program_base) / 4) as usize;
        decode(self.program.get(idx).copied()?)
    }

    fn csr_read(&self, csr: u16) -> u64 {
        match csr {
            0x300 => self.csrs.mstatus,
            0x304 => self.csrs.mie,
            0x305 => self.csrs.mtvec,
            0x340 => self.csrs.mscratch,
            0x341 => self.csrs.mepc,
            0x342 => self.csrs.mcause,
            0xC00 => self.cycles,
            _ => 0,
        }
    }

    fn csr_write(&mut self, csr: u16, value: u64) {
        match csr {
            0x300 => self.csrs.mstatus = value,
            0x304 => self.csrs.mie = value,
            0x305 => self.csrs.mtvec = value,
            0x340 => self.csrs.mscratch = value,
            0x341 => self.csrs.mepc = value,
            0x342 => self.csrs.mcause = value,
            _ => {}
        }
    }

    /// Take a machine external interrupt: save state, jump to mtvec.
    fn take_interrupt(&mut self) {
        self.csrs.mepc = self.pc;
        self.csrs.mcause = MCAUSE_M_EXTERNAL;
        // MPIE ← MIE, MIE ← 0.
        if self.csrs.mstatus & MSTATUS_MIE != 0 {
            self.csrs.mstatus |= MSTATUS_MPIE;
        } else {
            self.csrs.mstatus &= !MSTATUS_MPIE;
        }
        self.csrs.mstatus &= !MSTATUS_MIE;
        self.pc = self.csrs.mtvec & !3;
        self.interrupts_taken += 1;
        // Redirect cost: like a mispredicted branch plus CSR writes.
        self.cycles += BRANCH_TAKEN_CYCLES + 2;
    }

    fn interrupts_enabled(&self) -> bool {
        self.csrs.mstatus & MSTATUS_MIE != 0 && self.csrs.mie & MIE_MEIE != 0
    }

    /// Run until halt/fault or `fuel` instructions.
    pub fn run(&mut self, bus: &mut dyn Bus, fuel: u64) -> RunResult {
        let mut instructions = 0u64;
        let start_cycles = self.cycles;
        while instructions < fuel {
            // Machine external interrupt delivery.
            if self.interrupts_enabled() && bus.irq_pending() {
                self.take_interrupt();
            }
            let Some(insn) = self.fetch_decoded() else {
                return RunResult {
                    cycles: self.cycles - start_cycles,
                    instructions,
                    exit: RunExit::Fault { pc: self.pc },
                };
            };
            instructions += 1;
            let cycles_before = self.cycles;
            let mut bus_cycles = 0u64;
            self.cycles += 1; // base issue cost
            let mut next_pc = self.pc.wrapping_add(4);
            match insn {
                Insn::Lui { rd, imm } => self.set_reg(rd, imm as i64 as u64),
                Insn::Auipc { rd, imm } => {
                    self.set_reg(rd, self.pc.wrapping_add(imm as i64 as u64))
                }
                Insn::Jal { rd, imm } => {
                    self.set_reg(rd, next_pc);
                    next_pc = self.pc.wrapping_add(imm as i64 as u64);
                    self.cycles += JUMP_CYCLES;
                }
                Insn::Jalr { rd, rs1, imm } => {
                    let t = self.reg(rs1).wrapping_add(imm as i64 as u64) & !1;
                    self.set_reg(rd, next_pc);
                    next_pc = t;
                    self.cycles += JUMP_CYCLES;
                }
                Insn::Branch {
                    cond,
                    rs1,
                    rs2,
                    imm,
                } => {
                    let a = self.reg(rs1);
                    let b = self.reg(rs2);
                    let taken = match cond {
                        BranchCond::Eq => a == b,
                        BranchCond::Ne => a != b,
                        BranchCond::Lt => (a as i64) < (b as i64),
                        BranchCond::Ge => (a as i64) >= (b as i64),
                        BranchCond::Ltu => a < b,
                        BranchCond::Geu => a >= b,
                    };
                    if taken {
                        next_pc = self.pc.wrapping_add(imm as i64 as u64);
                        self.cycles += BRANCH_TAKEN_CYCLES;
                    }
                }
                Insn::Load {
                    rd,
                    rs1,
                    imm,
                    width,
                    unsigned,
                } => {
                    let addr = self.reg(rs1).wrapping_add(imm as i64 as u64);
                    let (raw, extra) = bus.load(addr, width.bytes());
                    self.cycles += extra;
                    bus_cycles = extra;
                    let v = if unsigned {
                        raw
                    } else {
                        match width {
                            Width::B => raw as u8 as i8 as i64 as u64,
                            Width::H => raw as u16 as i16 as i64 as u64,
                            Width::W => raw as u32 as i32 as i64 as u64,
                            Width::D => raw,
                        }
                    };
                    self.set_reg(rd, v);
                }
                Insn::Store {
                    rs1,
                    rs2,
                    imm,
                    width,
                } => {
                    let addr = self.reg(rs1).wrapping_add(imm as i64 as u64);
                    let extra = bus.store(addr, width.bytes(), self.reg(rs2));
                    self.cycles += extra;
                    bus_cycles = extra;
                }
                Insn::AluImm {
                    op,
                    rd,
                    rs1,
                    imm,
                    word,
                } => {
                    let v = alu(op, self.reg(rs1), imm as i64 as u64, word);
                    self.set_reg(rd, v);
                }
                Insn::AluReg {
                    op,
                    rd,
                    rs1,
                    rs2,
                    word,
                } => {
                    let v = alu(op, self.reg(rs1), self.reg(rs2), word);
                    self.set_reg(rd, v);
                }
                Insn::MulDiv {
                    op,
                    rd,
                    rs1,
                    rs2,
                    word,
                } => {
                    let a = self.reg(rs1);
                    let b = self.reg(rs2);
                    let v = muldiv(op, a, b, word);
                    self.cycles += match op {
                        MulOp::Mul | MulOp::Mulhu => MUL_CYCLES,
                        _ => DIV_CYCLES,
                    };
                    self.set_reg(rd, v);
                }
                Insn::RdCycle { rd } => {
                    let c = self.cycles;
                    self.set_reg(rd, c);
                }
                Insn::Csr { op, rd, rs1, csr } => {
                    let old = self.csr_read(csr);
                    let src = self.reg(rs1);
                    let new = match op {
                        CsrOp::Rw => Some(src),
                        // RS/RC with x0 are reads (no write side effect).
                        CsrOp::Rs => (rs1.0 != 0).then_some(old | src),
                        CsrOp::Rc => (rs1.0 != 0).then_some(old & !src),
                    };
                    if let Some(v) = new {
                        self.csr_write(csr, v);
                    }
                    self.set_reg(rd, old);
                    self.cycles += 1; // CSR port serialization
                }
                Insn::Mret => {
                    // MIE ← MPIE, return to mepc.
                    if self.csrs.mstatus & MSTATUS_MPIE != 0 {
                        self.csrs.mstatus |= MSTATUS_MIE;
                    } else {
                        self.csrs.mstatus &= !MSTATUS_MIE;
                    }
                    self.csrs.mstatus |= MSTATUS_MPIE;
                    next_pc = self.csrs.mepc;
                    self.cycles += JUMP_CYCLES + 2;
                }
                Insn::Wfi => {
                    // Stall (advancing the outside world) until an
                    // interrupt is pending; WFI wakes regardless of
                    // mstatus.MIE per the spec.
                    let mut guard = 0u64;
                    while self.csrs.mie & MIE_MEIE != 0 && !bus.irq_pending() {
                        self.cycles += 1;
                        bus_cycles += 1;
                        bus.advance(1);
                        guard += 1;
                        assert!(guard < 100_000_000, "WFI never woke");
                    }
                }
                // The program is a separate instruction store that no
                // store reaches, so both fences are 1-cycle no-ops.
                Insn::Fence | Insn::FenceI => {}
                Insn::Ecall | Insn::Ebreak => {
                    return RunResult {
                        cycles: self.cycles - start_cycles,
                        instructions,
                        exit: RunExit::Halted,
                    };
                }
            }
            bus.advance(self.cycles - cycles_before - bus_cycles);
            self.pc = next_pc;
        }
        RunResult {
            cycles: self.cycles - start_cycles,
            instructions,
            exit: RunExit::OutOfFuel,
        }
    }
}

fn alu(op: AluOp, a: u64, b: u64, word: bool) -> u64 {
    let v = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Sltu => (a < b) as u64,
        AluOp::Xor => a ^ b,
        AluOp::Or => a | b,
        AluOp::And => a & b,
        AluOp::Sll => {
            if word {
                ((a as u32) << (b & 0x1F)) as u64
            } else {
                a << (b & 0x3F)
            }
        }
        AluOp::Srl => {
            if word {
                ((a as u32) >> (b & 0x1F)) as u64
            } else {
                a >> (b & 0x3F)
            }
        }
        AluOp::Sra => {
            if word {
                (((a as u32) as i32) >> (b & 0x1F)) as u64
            } else {
                ((a as i64) >> (b & 0x3F)) as u64
            }
        }
    };
    if word {
        v as u32 as i32 as i64 as u64
    } else {
        v
    }
}

fn muldiv(op: MulOp, a: u64, b: u64, word: bool) -> u64 {
    if word {
        let a = a as u32;
        let b = b as u32;
        let v = match op {
            MulOp::Mul => (a as i32).wrapping_mul(b as i32) as u32,
            MulOp::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
            MulOp::Div => {
                if b == 0 {
                    u32::MAX
                } else {
                    (a as i32).wrapping_div(b as i32) as u32
                }
            }
            MulOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
            MulOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i32).wrapping_rem(b as i32) as u32
                }
            }
            MulOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        };
        v as i32 as i64 as u64
    } else {
        match op {
            MulOp::Mul => a.wrapping_mul(b),
            MulOp::Mulhu => ((a as u128 * b as u128) >> 64) as u64,
            MulOp::Div => {
                if b == 0 {
                    u64::MAX
                } else {
                    (a as i64).wrapping_div(b as i64) as u64
                }
            }
            MulOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            MulOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i64).wrapping_rem(b as i64) as u64
                }
            }
            MulOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> (Cpu, RunResult) {
        let words = assemble(src, 0x1000).unwrap();
        let mut cpu = Cpu::new(words, 0x1000);
        let mut mem = LinearMemory::new(0x8000_0000, 4096);
        let res = cpu.run(&mut mem, 1_000_000);
        (cpu, res)
    }

    #[test]
    fn arithmetic_program() {
        let (cpu, res) = run("
            li a0, 21
            li a1, 2
            mul a2, a0, a1
            addi a2, a2, -2
            ecall
        ");
        assert_eq!(res.exit, RunExit::Halted);
        assert_eq!(cpu.reg(Reg::a(2)), 40);
    }

    #[test]
    fn loop_sums_correctly() {
        let (cpu, _) = run("
            li a0, 0      # sum
            li t0, 1      # i
            li t1, 101
            loop:
            add a0, a0, t0
            addi t0, t0, 1
            bne t0, t1, loop
            ecall
        ");
        assert_eq!(cpu.reg(Reg::a(0)), 5050);
    }

    #[test]
    fn memory_round_trip_via_bus() {
        let (cpu, _) = run("
            li a0, 0x40000000
            slli a0, a0, 1       # 0x80000000
            li a1, -7
            sd a1, 16(a0)
            ld a2, 16(a0)
            lw a3, 16(a0)        # sign-extended low word
            lwu a4, 16(a0)       # zero-extended
            ecall
        ");
        assert_eq!(cpu.reg(Reg::a(2)), (-7i64) as u64);
        assert_eq!(cpu.reg(Reg::a(3)), (-7i64) as u64);
        assert_eq!(cpu.reg(Reg::a(4)), 0xFFFF_FFF9);
    }

    #[test]
    fn signed_unsigned_branches() {
        let (cpu, _) = run("
            li a0, -1
            li a1, 1
            li a2, 0
            blt a0, a1, signed_ok
            ecall
            signed_ok:
            addi a2, a2, 1
            bltu a1, a0, unsigned_ok   # -1 unsigned is huge
            ecall
            unsigned_ok:
            addi a2, a2, 1
            ecall
        ");
        assert_eq!(cpu.reg(Reg::a(2)), 2);
    }

    #[test]
    fn division_by_zero_riscv_semantics() {
        let (cpu, _) = run("
            li a0, 42
            li a1, 0
            divu a2, a0, a1
            remu a3, a0, a1
            ecall
        ");
        assert_eq!(cpu.reg(Reg::a(2)), u64::MAX);
        assert_eq!(cpu.reg(Reg::a(3)), 42);
    }

    #[test]
    fn word_ops_sign_extend() {
        let (cpu, _) = run("
            li a0, 0x7fffffff
            addiw a1, a0, 1      # overflows to -2^31, sign-extended
            ecall
        ");
        assert_eq!(cpu.reg(Reg::a(1)), 0xFFFF_FFFF_8000_0000);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let (cpu, _) = run("
            li t0, 5
            add zero, t0, t0
            mv a0, zero
            ecall
        ");
        assert_eq!(cpu.reg(Reg::a(0)), 0);
    }

    #[test]
    fn taken_branches_cost_more_than_fallthrough() {
        // Same instruction count; one loops (taken bne), one straight.
        let (_, looped) = run("
            li t0, 0
            li t1, 64
            l: addi t0, t0, 1
            bne t0, t1, l
            ecall
        ");
        let (_, straight) = run("
            li t0, 0
            li t1, 64
            l: addi t0, t0, 1
            beq t0, t1, done
            addi t0, t0, 1
            done:
            ecall
        ");
        let loop_cpi = looped.cycles as f64 / looped.instructions as f64;
        let straight_cpi = straight.cycles as f64 / straight.instructions as f64;
        assert!(
            loop_cpi > straight_cpi + 1.0,
            "loop CPI {loop_cpi} vs {straight_cpi}"
        );
    }

    #[test]
    fn rdcycle_is_monotonic() {
        let (cpu, _) = run("
            rdcycle a0
            nop
            nop
            rdcycle a1
            ecall
        ");
        assert!(cpu.reg(Reg::a(1)) > cpu.reg(Reg::a(0)));
    }

    #[test]
    fn fault_on_undecodable() {
        let mut cpu = Cpu::new(vec![0xFFFF_FFFF], 0);
        let mut mem = LinearMemory::new(0x8000_0000, 64);
        let res = cpu.run(&mut mem, 10);
        assert_eq!(res.exit, RunExit::Fault { pc: 0 });
    }

    #[test]
    fn fuel_limit_stops_infinite_loop() {
        let words = assemble("l: j l", 0).unwrap();
        let mut cpu = Cpu::new(words, 0);
        let mut mem = LinearMemory::new(0x8000_0000, 64);
        let res = cpu.run(&mut mem, 1000);
        assert_eq!(res.exit, RunExit::OutOfFuel);
        assert_eq!(res.instructions, 1000);
    }

    /// A bus that charges a fixed MMIO cost — sanity-checks the
    /// blocking-store accounting that the unroll study relies on.
    struct MmioBus {
        stores: u64,
        cost: u64,
    }
    impl Bus for MmioBus {
        fn load(&mut self, _a: u64, _b: u8) -> (u64, u64) {
            (0, self.cost)
        }
        fn store(&mut self, _a: u64, _b: u8, _v: u64) -> u64 {
            self.stores += 1;
            self.cost
        }
    }

    #[test]
    fn noncacheable_store_cost_dominates() {
        let words = assemble(
            "
            li t0, 0
            li t1, 100
            l: sw t0, 0(a0)
            addi t0, t0, 1
            bne t0, t1, l
            ecall
        ",
            0,
        )
        .unwrap();
        let mut cpu = Cpu::new(words, 0);
        let mut bus = MmioBus {
            stores: 0,
            cost: 40,
        };
        let res = cpu.run(&mut bus, 10_000);
        assert_eq!(bus.stores, 100);
        // 100 iterations × (3 insns + 40 stall + 5 branch) ≈ 4800.
        assert!(
            res.cycles > 4500 && res.cycles < 5200,
            "cycles {}",
            res.cycles
        );
    }

    #[test]
    fn fence_i_is_a_one_cycle_no_op() {
        let run_loop = |fence: &str| {
            run(&format!(
                "
                li a0, 0
                li t0, 1
                li t1, 50
                loop:
                add a0, a0, t0
                addi t0, t0, 1
                {fence}
                bne t0, t1, loop
                ecall
            "
            ))
        };
        let (cpu, res) = run_loop("fence.i");
        assert_eq!(cpu.reg(Reg::a(0)), 1225);
        // 3 + 49 × 4 + 1 instructions, one cycle each, plus 48 taken
        // back-edges at the redirect penalty.
        assert_eq!(
            res,
            RunResult {
                cycles: 200 + 48 * BRANCH_TAKEN_CYCLES,
                instructions: 200,
                exit: RunExit::Halted,
            }
        );
        assert_eq!(run_loop("nop").1, res);
    }

    #[test]
    fn store_into_code_region_reaches_the_bus_not_the_program() {
        // A store whose address lands inside the code region goes to
        // the *bus* (program memory here is a separate instruction
        // store), so execution still fetches the original program.
        let words = assemble(
            "
            li t0, 0x1000
            sw t0, 0(t0)        # store lands inside [0x1000, end)
            addi a0, a0, 7      # still fetches the original program
            ecall
        ",
            0x1000,
        )
        .unwrap();
        let mut cpu = Cpu::new(words, 0x1000);
        let mut mem = LinearMemory::new(0, 0x2000);
        assert_eq!(cpu.run(&mut mem, 100).exit, RunExit::Halted);
        assert_eq!(cpu.reg(Reg::a(0)), 7);
        assert_eq!(mem.read_bytes(0x1000, 4), 0x1000u32.to_le_bytes());
    }

    /// Random RV64IM programs — wild loads and stores, stores landing
    /// in the code region, both fences — halt, fault or run out of
    /// fuel without a panic, within their fuel.
    mod random_programs {
        use super::*;
        use crate::insn::encode;
        use proptest::prelude::*;

        /// Accepts any address with deterministic values and stall
        /// costs, so wild load/store addresses never panic.
        struct AnyBus;
        impl Bus for AnyBus {
            fn load(&mut self, addr: u64, bytes: u8) -> (u64, u64) {
                let mask = if bytes >= 8 {
                    u64::MAX
                } else {
                    (1u64 << (bytes * 8)) - 1
                };
                (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask, addr % 7)
            }
            fn store(&mut self, addr: u64, _bytes: u8, _value: u64) -> u64 {
                addr % 5
            }
        }

        fn arb_reg() -> impl Strategy<Value = Reg> {
            (0u8..32).prop_map(Reg)
        }

        /// Uniform pick from a static slice.
        fn pick<T: Copy + 'static>(xs: &'static [T]) -> impl Strategy<Value = T> {
            (0usize..xs.len()).prop_map(move |i| xs[i])
        }

        fn arb_insn() -> impl Strategy<Value = Insn> {
            let alu_imm_op = pick(&[
                AluOp::Add,
                AluOp::Xor,
                AluOp::Or,
                AluOp::And,
                AluOp::Sll,
                AluOp::Srl,
                AluOp::Sra,
            ]);
            let alu_reg_op = pick(&[AluOp::Add, AluOp::Sub, AluOp::Sll, AluOp::Srl, AluOp::Sra]);
            let mul_op = pick(&[MulOp::Mul, MulOp::Div, MulOp::Divu, MulOp::Rem, MulOp::Remu]);
            let cond = pick(&[
                BranchCond::Eq,
                BranchCond::Ne,
                BranchCond::Lt,
                BranchCond::Ge,
                BranchCond::Ltu,
                BranchCond::Geu,
            ]);
            let width = pick(&[Width::B, Width::H, Width::W, Width::D]);
            prop_oneof![
                (
                    alu_imm_op,
                    arb_reg(),
                    arb_reg(),
                    -2048i32..2048,
                    any::<bool>()
                )
                    .prop_map(|(op, rd, rs1, imm, word)| Insn::AluImm {
                        op,
                        rd,
                        rs1,
                        imm,
                        word
                    }),
                (alu_reg_op, arb_reg(), arb_reg(), arb_reg(), any::<bool>()).prop_map(
                    |(op, rd, rs1, rs2, word)| Insn::AluReg {
                        op,
                        rd,
                        rs1,
                        rs2,
                        word
                    }
                ),
                (mul_op, arb_reg(), arb_reg(), arb_reg(), any::<bool>()).prop_map(
                    |(op, rd, rs1, rs2, word)| Insn::MulDiv {
                        op,
                        rd,
                        rs1,
                        rs2,
                        word
                    }
                ),
                // Forward-only control flow so every program terminates.
                (cond, arb_reg(), arb_reg(), 1i32..8).prop_map(|(cond, rs1, rs2, k)| {
                    Insn::Branch {
                        cond,
                        rs1,
                        rs2,
                        imm: k * 4,
                    }
                }),
                (arb_reg(), 1i32..8).prop_map(|(rd, k)| Insn::Jal { rd, imm: k * 4 }),
                // x0-based addressing: with the program at base 0 these
                // land inside (and past) the code region.
                (
                    pick(&[Width::B, Width::H, Width::W, Width::D]),
                    arb_reg(),
                    0i32..512
                )
                    .prop_map(|(width, rd, imm)| Insn::Load {
                        rd,
                        rs1: Reg::ZERO,
                        imm,
                        width,
                        unsigned: false,
                    }),
                (width, arb_reg(), 0i32..512).prop_map(|(width, rs2, imm)| Insn::Store {
                    rs1: Reg::ZERO,
                    rs2,
                    imm,
                    width,
                }),
                Just(Insn::FenceI),
                Just(Insn::Fence),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]
            #[test]
            fn prop_random_programs_terminate(
                insns in proptest::collection::vec(arb_insn(), 1..40)
            ) {
                let mut words: Vec<u32> = insns.iter().map(|i| encode(*i)).collect();
                words.push(encode(Insn::Ecall));
                let len = words.len() as u64;
                let mut cpu = Cpu::new(words, 0);
                let r = cpu.run(&mut AnyBus, 500);
                // Control flow only goes forward, so no word retires
                // twice and the program ends before its fuel does.
                prop_assert!(r.exit != RunExit::OutOfFuel, "{:?}", r);
                prop_assert!(r.instructions <= len, "{:?}", r);
                prop_assert!(r.cycles >= r.instructions, "{:?}", r);
            }
        }
    }

    /// Differential property tests: the interpreter's arithmetic must
    /// match native Rust semantics for the same operations.
    mod differential {
        use super::*;
        use crate::asm::assemble;
        use proptest::prelude::*;

        /// Run a 2-input register program and return a0.
        fn run2(body: &str, a: u64, b: u64) -> u64 {
            // Load 64-bit constants from memory (li only covers 32-bit).
            let src = format!(
                "
                li   t0, 0x40000000
                slli t0, t0, 1
                ld   a1, 0(t0)
                ld   a2, 8(t0)
                {body}
                ecall
                "
            );
            let words = assemble(&src, 0).unwrap();
            let mut cpu = Cpu::new(words, 0);
            let mut mem = LinearMemory::new(0x8000_0000, 64);
            mem.write_bytes(0x8000_0000, &a.to_le_bytes());
            mem.write_bytes(0x8000_0008, &b.to_le_bytes());
            let res = cpu.run(&mut mem, 10_000);
            assert_eq!(res.exit, RunExit::Halted);
            cpu.reg(Reg::a(0))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn prop_add_sub_mul(a in any::<u64>(), b in any::<u64>()) {
                prop_assert_eq!(run2("add a0, a1, a2", a, b), a.wrapping_add(b));
                prop_assert_eq!(run2("sub a0, a1, a2", a, b), a.wrapping_sub(b));
                prop_assert_eq!(run2("mul a0, a1, a2", a, b), a.wrapping_mul(b));
            }

            #[test]
            fn prop_logic(a in any::<u64>(), b in any::<u64>()) {
                prop_assert_eq!(run2("xor a0, a1, a2", a, b), a ^ b);
                prop_assert_eq!(run2("or a0, a1, a2", a, b), a | b);
                prop_assert_eq!(run2("and a0, a1, a2", a, b), a & b);
            }

            #[test]
            fn prop_shifts(a in any::<u64>(), sh in 0u64..64) {
                prop_assert_eq!(run2("sll a0, a1, a2", a, sh), a << sh);
                prop_assert_eq!(run2("srl a0, a1, a2", a, sh), a >> sh);
                prop_assert_eq!(run2("sra a0, a1, a2", a, sh), ((a as i64) >> sh) as u64);
            }

            #[test]
            fn prop_compare(a in any::<u64>(), b in any::<u64>()) {
                prop_assert_eq!(run2("slt a0, a1, a2", a, b), ((a as i64) < (b as i64)) as u64);
                prop_assert_eq!(run2("sltu a0, a1, a2", a, b), (a < b) as u64);
            }

            #[test]
            fn prop_divrem(a in any::<u64>(), b in any::<u64>()) {
                let expect_div = a.checked_div(b).unwrap_or(u64::MAX);
                let expect_rem = if b == 0 { a } else { a % b };
                prop_assert_eq!(run2("divu a0, a1, a2", a, b), expect_div);
                prop_assert_eq!(run2("remu a0, a1, a2", a, b), expect_rem);
            }

            #[test]
            fn prop_word_ops_sign_extend(a in any::<u64>(), b in any::<u64>()) {
                let expect = (a as u32).wrapping_add(b as u32) as i32 as i64 as u64;
                prop_assert_eq!(run2("addw a0, a1, a2", a, b), expect);
                let expect = (a as u32).wrapping_mul(b as u32) as i32 as i64 as u64;
                prop_assert_eq!(run2("mulw a0, a1, a2", a, b), expect);
            }

            #[test]
            fn prop_memory_round_trip(v in any::<u64>(), off in 0u64..6) {
                let got = run2(
                    &format!("sd a1, {}(t0)\nld a0, {}(t0)", 16 + off * 8, 16 + off * 8),
                    v,
                    0,
                );
                prop_assert_eq!(got, v);
            }
        }
    }
}
