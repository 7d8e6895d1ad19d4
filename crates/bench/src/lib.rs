//! # rvcap-bench — experiment harness shared code
//!
//! Rig builders and measurements for the paper's experiments, used by
//! the table/figure harness binaries, the `hostbench` host-performance
//! harness and the integration tests.

pub mod hostbench;
pub mod paper_soc;
pub mod report;
pub mod runner;
pub mod tables;
