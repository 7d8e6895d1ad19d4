//! Software drivers and APIs (§III): ports of the paper's C listings.
//!
//! The drivers are ordinary Rust functions executing co-routine style
//! against the simulated SoC (see `rvcap_soc::cpu`): every MMIO access
//! advances the simulation and charges the real bus round trip; pure
//! software work between accesses is charged explicitly with
//! documented cycle constants. The result is that every number the
//! paper measures with the CLINT timer — T_d, T_r, HWICAP throughput —
//! is *measured the same way here*, by driver code reading `mtime`
//! around the operation.
//!
//! * [`timer`] — the CLINT stopwatch utilities ("a set of software
//!   timer modules … to measure the reconfiguration time", §III-A).
//! * [`storage`] — SD-over-SPI block driver, FAT32 mount through MMIO,
//!   and `init_RModules` (stage a partial bitstream SD → DDR).
//! * [`rvcap`] — Listing 1: the RV-CAP reconfiguration API
//!   (`decouple_accel`, `select_ICAP`, `reconfigure_RP`, DMA ops) and
//!   the acceleration-mode API.
//! * [`hwicap`] — Listing 2: the modified AXI_HWICAP driver with the
//!   unrollable FIFO-fill loop, plus configuration readback/verify.
//! * [`scrubber`] — extension: SEU detect-and-repair built from the
//!   readback and reconfiguration primitives.
//! * [`regs`] — typed register access: every driver MMIO access
//!   resolves offset, width and direction through the same
//!   `register_map!` declarations the devices decode with.

pub mod hwicap;
pub mod regs;
pub mod rvcap;
pub mod scrubber;
pub mod storage;
pub mod timer;

pub use hwicap::HwIcapDriver;
pub use rvcap::{DmaMode, ReconfigTiming, RvCapDriver};
pub use scrubber::{ScrubOutcome, Scrubber};
pub use storage::init_rmodules;
pub use timer::Stopwatch;

/// The paper's `reconfig_module` descriptor: "a unique input
/// containing the bitstream name, the functionality of the RM, the
/// start address corresponding to the start address where the
/// bitstream is stored in the DDR, and the bitstream size" (§III-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigModule {
    /// Bitstream file name on the SD card ("SOBEL.PBI").
    pub name: String,
    /// RM functionality id (index into the module library).
    pub rm_number: u32,
    /// DDR address the bitstream was staged to.
    pub start_address: u64,
    /// Partial bitstream size in bytes.
    pub pbit_size: u32,
}

/// Write a string to the UART, one byte per MMIO store (the "terminal
/// message" of Listing 2).
pub fn uart_print(core: &mut rvcap_soc::SocCore, msg: &str) {
    let uart = crate::registry::UART;
    for b in msg.bytes() {
        uart.write_n(core, rvcap_soc::map::UART_TX, b as u64, 1);
    }
}
