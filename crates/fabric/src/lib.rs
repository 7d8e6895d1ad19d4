//! # rvcap-fabric — the simulated FPGA fabric
//!
//! Everything the RV-CAP controller reconfigures lives here: a
//! 7-series-style configuration architecture with frame-addressed
//! configuration memory, a packetized bitstream format, the ICAP
//! configuration port FSM, reconfigurable partitions (RP) hosting
//! reconfigurable modules (RM), a compositional resource-accounting
//! model, and a floorplan for the Fig. 4 rendering.
//!
//! ## Fidelity
//!
//! The model keeps the properties the paper's results depend on and
//! simplifies the rest:
//!
//! * **Frames of 101 × 32-bit words** — the 7-series configuration
//!   quantum. Partial bitstream size is a function of frame count, so
//!   reconfiguration time scales with RP size exactly as in Fig. 3.
//! * **One 32-bit word per cycle into the ICAP at 100 MHz** — the
//!   400 MB/s ceiling every controller in Table II is measured against.
//! * **Packetized bitstreams** (sync word, type-1/type-2 packets, FAR,
//!   CRC, DESYNC) — so drivers ship real, parseable artifacts and a
//!   corrupted bitstream is *detected*, not silently accepted.
//! * **Resource accounting** (LUT/FF/BRAM/DSP) is compositional: module
//!   costs are calibrated constants (synthesis results cannot emerge
//!   from a simulation), but totals, RP fit checks and utilization
//!   percentages are computed, which is what Tables I and III report.
//!
//! The exact 7-series frame *payload encoding* is not reproduced —
//! frame words are opaque — because no result in the paper depends on
//! the meaning of configuration bits, only on their count and on
//! whether they arrived intact (CRC).

pub mod bitstream;
pub mod compress;
pub mod config_mem;
pub mod crc;
pub mod floorplan;
pub mod host;
pub mod icap;
pub mod resources;
pub mod rm;
pub mod rp;

pub use bitstream::{Bitstream, BitstreamBuilder};
pub use config_mem::{ConfigMem, FRAME_WORDS};
pub use host::RmHost;
pub use icap::{Icap, IcapAbort, IcapHandle, LoadRecord};
pub use resources::{ResourceReport, Resources};
pub use rm::{RmBehavior, RmImage, RmLibrary};
pub use rp::{Rp, RpGeometry};
