//! # rvcap-core — the RV-CAP dynamic partial reconfiguration controller
//!
//! The paper's contribution (§III): a high-throughput DPR controller
//! for FPGA-based RISC-V SoCs, plus the software drivers that manage
//! the reconfiguration process from the RISC-V core, plus the
//! AXI_HWICAP baseline it is compared against.
//!
//! * [`dma`] — the Xilinx-AXI-DMA-style engine that moves partial
//!   bitstreams (reconfiguration mode) or application data
//!   (acceleration mode) between DDR and the stream fabric (Fig. 2 ①).
//! * [`rp_ctrl`] — the RP control interface: coupling/decoupling and
//!   module status (Fig. 2 ③).
//! * [`switch_ctrl`] — the register window steering the AXI-Stream
//!   switch between reconfiguration and acceleration mode (Fig. 2 ④).
//! * [`decompressor`] — extension: in-fabric RLE decompression of the
//!   bitstream stream (the RT-ICAP technique on the RV-CAP datapath).
//! * [`hwicap`] — the Xilinx AXI_HWICAP baseline (§III-C) with its
//!   1024-word write FIFO, keyhole register, and CR/SR/WFV interface.
//! * [`system`] — the SoC builder assembling Fig. 1 + Fig. 2 into a
//!   runnable simulation. The AXIS2ICAP block (Fig. 2 ⑤) is
//!   `rvcap-axi`'s 64→32 stream narrower, registered as `axis2icap`.
//! * [`drivers`] — ports of the paper's Listing 1 (RV-CAP) and
//!   Listing 2 (HWICAP) driver APIs, the SD→DDR staging path
//!   (`init_RModules`), and the CLINT timing utilities.
//! * [`registry`] — every MMIO window and its typed register map in
//!   one table; renders the generated `REGISTERS.md`.
//! * [`resources`] — calibrated per-module resource costs (Table I).
//! * [`scheduler`] — extension: a module-aware job scheduler over the
//!   driver API (reconfigure only when the next job needs it).

pub mod decompressor;
pub mod dma;
pub mod drivers;
pub mod hwicap;
pub mod registry;
pub mod resources;
pub mod rp_ctrl;
pub mod scheduler;
pub mod switch_ctrl;
pub mod system;

pub use dma::{XilinxDma, DMA_BURST_BEATS};
pub use hwicap::AxiHwicap;
pub use system::{RvCapSoc, SocBuilder, SocHandles};
