//! CLINT timing utilities.
//!
//! "A set of software timer modules is created to access the local
//! interrupt controller (CLINT) of the SoC core and use it as a
//! real-time counter to measure the reconfiguration time" (§III-A).
//! Measurements are therefore quantized to the 5 MHz timer — 4 µs
//! resolution — exactly like the paper's.

use rvcap_soc::map::CLINT_MTIME;
use rvcap_soc::SocCore;

use crate::registry;

/// Fabric cycles per CLINT tick (100 MHz / 5 MHz).
pub const CYCLES_PER_TICK: u64 = 20;

/// Read `mtime` over the bus (costs a real MMIO round trip, as in the
/// paper's measurements; the 8-byte width comes from the CLINT map).
pub fn read_mtime(core: &mut SocCore) -> u64 {
    registry::CLINT.read(core, CLINT_MTIME)
}

/// A software stopwatch over the CLINT timer.
pub struct Stopwatch {
    start_ticks: u64,
}

impl Stopwatch {
    /// Start: reads `mtime`.
    pub fn start(core: &mut SocCore) -> Self {
        Stopwatch {
            start_ticks: read_mtime(core),
        }
    }

    /// Elapsed timer ticks since start (reads `mtime` again).
    pub fn elapsed_ticks(&self, core: &mut SocCore) -> u64 {
        read_mtime(core) - self.start_ticks
    }

    /// Elapsed microseconds (tick-quantized, like the paper's tables).
    pub fn elapsed_us(&self, core: &mut SocCore) -> f64 {
        self.elapsed_ticks(core) as f64 * CYCLES_PER_TICK as f64 / 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SocBuilder;

    #[test]
    fn stopwatch_measures_compute() {
        let mut soc = SocBuilder::new().build();
        let sw = Stopwatch::start(&mut soc.core);
        soc.core.compute(2000); // 20 µs
        let us = sw.elapsed_us(&mut soc.core);
        // Quantization + the mtime read round trips put us within a
        // tick or two.
        assert!((us - 20.0).abs() <= 8.0, "measured {us} µs");
    }

    #[test]
    fn ticks_are_5mhz() {
        let mut soc = SocBuilder::new().build();
        let t0 = read_mtime(&mut soc.core);
        soc.core.compute(200);
        let t1 = read_mtime(&mut soc.core);
        let d = t1 - t0;
        assert!((10..=13).contains(&d), "delta {d} ticks");
    }
}
