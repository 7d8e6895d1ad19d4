//! # rvcap-soc — the RISC-V SoC substrate
//!
//! The pieces of the paper's Fig. 1 that are not the RV-CAP
//! contribution itself: the Ariane-class CPU's bus behaviour, DDR
//! memory with a realistic controller, the CLINT (whose 5 MHz timer
//! takes every measurement in the paper), the PLIC (which receives the
//! DMA's completion interrupt in non-blocking mode), the SPI master
//! wired to the SD card, and a UART for the drivers' terminal
//! messages.
//!
//! ## The CPU model
//!
//! Drivers in this reproduction are ordinary Rust functions — ports of
//! the paper's C listings — executed *co-routine style* against the
//! simulation: every MMIO access goes through [`cpu::SocCore`], which
//! advances the simulated clock until the bus transaction completes
//! and charges the pipeline cost of a non-speculative access. Ariane
//! "is not allowed to start speculative memory access to the
//! non-cacheable memory address area" (§IV-B), so this blocking model
//! is the architecturally correct one for driver I/O — and it is the
//! effect behind the paper's HWICAP throughput numbers.
//!
//! For instruction-level fidelity (the loop-unrolling study), the
//! `rvcap-rv64` interpreter can be bridged to the same bus via
//! [`cpu::InterpreterBus`].

pub mod clint;
pub mod cpu;
pub mod ddr;
pub mod map;
pub mod plic;
pub mod spi;
pub mod uart;

pub use clint::{Clint, ClintHandle};
pub use cpu::{InterpreterBus, SocCore};
pub use ddr::{Ddr, DdrConfig, DdrHandle};
pub use plic::{Plic, PlicHandle};
pub use spi::{Spi, SpiHandle};
pub use uart::{Uart, UartHandle};
