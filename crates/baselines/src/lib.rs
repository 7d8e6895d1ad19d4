//! # rvcap-baselines — state-of-the-art DPR controllers (Table II)
//!
//! Executable models of the eight prior controllers the paper compares
//! against. Each row of Table II is *run*, not quoted: the controller
//! model feeds the same simulated ICAP primitive (one 32-bit word per
//! cycle at 100 MHz) through its characteristic datapath, and the
//! reported throughput is measured from the resulting cycle count.
//!
//! What is calibrated vs what emerges:
//!
//! * Resource utilization figures are published synthesis results —
//!   constants here, as in `rvcap-core::resources`.
//! * Each controller's *datapath shape* (DMA-driven stream, CPU-driven
//!   keyhole, hard configuration port, compressed stream) is
//!   implemented; the one free parameter per controller (per-word
//!   stall or per-transfer overhead) is calibrated so the measured
//!   throughput lands on the published figure at the paper's reference
//!   bitstream. The *ordering and clustering* of Table II — DMA
//!   controllers ≈ 380–400 MB/s, PCAP at 128, CPU-keyhole controllers
//!   at 8–15 — then emerges from the shared ICAP rig.
//! * The two RISC-V rows (RV-CAP, AXI_HWICAP with RV64GC) are **not**
//!   modelled here: the bench harness measures them on the full
//!   `rvcap-core` system.
//!
//! The RT-ICAP model compresses its stream with
//! [`rvcap_fabric::compress`], the word-level RLE codec the RV-CAP
//! compressed loader and the compression ablation bench share.

pub mod controller;
pub mod profile;
pub mod table2;

pub use controller::{measure_throughput, ControllerModel, ControllerSpec};
pub use profile::MasterProfile;
pub use table2::{table2_rows, Table2Row};
