//! # rvcap-axi — beat-level AXI4 / AXI4-Lite / AXI-Stream models
//!
//! The RV-CAP SoC (paper Fig. 1/Fig. 2) is a bus-based design: a 64-bit
//! AXI-4 crossbar connects the Ariane core to its peripherals, an
//! additional crossbar gives the RV-CAP DMA a path to DDR, AXI-Stream
//! links carry bitstream and accelerator data, and a zoo of adapters —
//! data-width converters, protocol converters, stream switches, PR
//! decouplers (isolators) — glues the pieces together. This crate
//! models those blocks at *beat* granularity on top of the `rvcap-sim`
//! kernel:
//!
//! * [`stream`] — AXI-Stream beats ([`AxisBeat`]) and channels.
//! * [`mm`] — memory-mapped transactions ([`MmReq`]/[`MmResp`]) and
//!   the master/slave port pairs they travel on.
//! * [`crossbar`] — an N-master × M-slave address-decoded crossbar
//!   with round-robin arbitration and in-order response routing. The
//!   64→32 width and AXI4 → AXI4-Lite protocol converters in front of
//!   the AXI-Lite slaves (DMA register file, AXI_HWICAP) are latency on
//!   those slaves' lanes ([`SlaveRegion::behind_lite_converter`]), not
//!   blocks of their own.
//! * [`width`] — AXI-Stream data width converters (64↔32 bit), the
//!   block the paper inserts between the 64-bit SoC bus and the 32-bit
//!   ICAP/HWICAP world.
//! * [`switch`] — the AXI-Stream switch selecting *reconfiguration
//!   mode* (DMA → ICAP) vs *acceleration mode* (DMA → RM).
//! * [`isolator`] — PR decoupling: a stream isolator holds the beats
//!   crossing the static/reconfigurable boundary while a partial
//!   bitstream loads.
//! * [`sanitizer`] — payload descriptions and wiring helpers teaching
//!   `rvcap-sim`'s bus sanitizer the AXI vocabulary (stream framing,
//!   transaction pairing, decouple gating).
//! * [`regmap`] — typed register maps: each device declares its
//!   registers once ([`register_map!`]), and the declaration drives
//!   the device-side decode ([`regmap::RegisterFile`]), the driver-side
//!   offset constants, the audit counters, and the generated memory
//!   map documentation.
//!
//! ## Timing model
//!
//! Every block forwards at most one beat (or one transaction) per cycle
//! and adds a fixed pipeline latency. The CPU's MMIO round-trip cost —
//! the quantity that limits the AXI_HWICAP baseline to 8.23 MB/s in the
//! paper — is the sum of the latencies along the request and response
//! paths (for an AXI-Lite register file, one crossbar lane that
//! includes the converter chain), plus the CPU's own non-speculative
//! issue/retire cost modelled in `rvcap-soc`.

pub mod crossbar;
pub mod isolator;
pub mod mm;
pub mod regmap;
pub mod sanitizer;
pub mod stream;
pub mod switch;
pub mod width;

pub use crossbar::{Crossbar, SlaveRegion};
pub use isolator::StreamIsolator;
pub use mm::{MasterPort, MmOp, MmReq, MmResp, SlavePort};
pub use regmap::{Access, Decoded, RegDef, RegisterFile, RegisterMap};
pub use sanitizer::{watch_mm_link, watch_stream, watch_stream_gated};
pub use stream::{AxisBeat, AxisChannel};
pub use switch::StreamSwitch;
pub use width::{Narrower, Widener};
