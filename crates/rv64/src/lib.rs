//! # rvcap-rv64 — RV64IM assembler, interpreter, and timing model
//!
//! The paper's most software-sensitive result is the HWICAP driver
//! study (§IV-B): the Ariane core may not issue speculative accesses
//! into non-cacheable space, so every store to the HWICAP write-FIFO
//! keyhole register blocks the pipeline, and the loop's conditional
//! branch blocks it again — which is why unrolling the FIFO-fill loop
//! 16× takes the controller from 4.16 MB/s to 8.23 MB/s.
//!
//! To reproduce that at instruction granularity rather than by fiat,
//! this crate implements:
//!
//! * [`insn`] — encode/decode for the RV64I + M subset the drivers
//!   use (real 32-bit RISC-V encodings);
//! * [`asm`] — a two-pass assembler with labels and the common
//!   pseudo-instructions, so the benchmark can *generate* the fill
//!   loop at any unroll factor, exactly like the C compiler the paper
//!   used;
//! * [`cpu`] — an interpreter with an in-order single-issue timing
//!   model: 1 instruction/cycle base, taken-branch and jump redirect
//!   penalties, multi-cycle mul/div, and **blocking non-cacheable
//!   MMIO** whose cost is supplied by the [`cpu::Bus`] — in the full
//!   system that cost is the simulated AXI round trip.
//!
//! The interpreter also implements the M-mode subset the bare-metal
//! interrupt-driven driver needs: the `mstatus`, `mie`, `mtvec`,
//! `mepc`, `mcause` and `mscratch` CSRs, `mret`, `wfi` and trap entry
//! on a machine external interrupt (`tests/bare_metal_irq.rs`). It is
//! not a full CVA6: no MMU, no exceptions or other trap causes, no
//! compressed instructions — none of which the bare-metal drivers in
//! this reproduction use.

pub mod asm;
pub mod cpu;
pub mod insn;

pub use asm::{assemble, AsmError};
pub use cpu::{Bus, Cpu, LinearMemory, RunExit, RunResult};
pub use insn::{decode, encode, Insn, Reg};
