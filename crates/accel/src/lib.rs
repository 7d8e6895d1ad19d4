//! # rvcap-accel — the paper's image-processing reconfigurable modules
//!
//! §IV-D's case study: "three basic image processing filters are used
//! as reconfigurable hardware modules … Sobel, Median, and Gaussian
//! filters processing an image size of 512×512 pixels a 8-bit … The
//! three filters are generated and synthesized separately as three RMs
//! that are hosted by a single RP."
//!
//! * [`image`] — 8-bit grayscale images, test patterns, (de)serialization.
//! * [`golden`] — reference software implementations; the functional
//!   ground truth every hardware run is checked against.
//! * [`rm`] — streaming hardware models: 3×3 window operators behind
//!   a 64-bit AXI-Stream interface (8 pixels/beat) that buffer the
//!   received frame prefix, implementing
//!   [`rvcap_fabric::rm::RmBehavior`]. Their output is bit-identical
//!   to the golden code.
//! * [`driver`] — the acceleration-mode flow: program the RV-CAP DMA
//!   S2MM + MM2S pair to stream an image through the loaded RM and
//!   back to DDR, measuring the paper's compute time `T_c`.
//! * [`library`] — one-call construction of the paper's RM library
//!   (images sized for the paper RP, Table III resource costs,
//!   behaviours attached).

pub mod driver;
pub mod golden;
pub mod image;
pub mod library;
pub mod rm;

pub use driver::run_accelerator;
pub use image::Image;
pub use library::{paper_filter_library, FilterKind};
