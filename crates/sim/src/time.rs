//! Cycle counts, clock frequencies, and time conversions.
//!
//! The paper reports all timings with a 5 MHz CLINT timer on a 100 MHz
//! SoC clock, and all throughputs in MB/s (decimal megabytes, matching
//! the convention of the DPR-controller literature it compares against).
//! Everything in this crate is *measured* in cycles; the helpers here
//! convert a cycle count into the units of the paper's tables exactly
//! once, at reporting time.

/// A simulated clock cycle count.
///
/// All simulated hardware in this workspace is fully synchronous to a
/// single clock (the paper's design choice: "operates with a single
/// clock source in a fully synchronized design", §III-B), so a bare
/// `u64` cycle counter is the entire notion of time.
pub type Cycle = u64;

/// A clock frequency in hertz.
///
/// Stored as integer hertz: every frequency in the paper (100 MHz
/// fabric, 5 MHz CLINT timer) is an exact integer, so no floating point
/// creeps into time bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq(pub u64);

impl Freq {
    /// The SoC fabric clock used throughout the paper: 100 MHz, chosen
    /// because it is the ICAP maximum on 7-series devices (§III-B).
    pub const FABRIC_100MHZ: Freq = Freq(100_000_000);

    /// The CLINT real-time counter frequency used for all measurements
    /// in the paper (§IV-B): 5 MHz, i.e. one timer tick per 20 fabric
    /// cycles.
    pub const CLINT_5MHZ: Freq = Freq(5_000_000);

    /// Construct a frequency from megahertz.
    pub const fn mhz(mhz: u64) -> Freq {
        Freq(mhz * 1_000_000)
    }

    /// Frequency in hertz.
    pub const fn hz(self) -> u64 {
        self.0
    }

    /// Frequency in megahertz (integer; panics in debug if not exact).
    pub const fn as_mhz(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Convert a cycle count at this frequency into nanoseconds
    /// (exact for the frequencies used here: 100 MHz = 10 ns/cycle).
    pub fn cycles_to_ns(self, cycles: Cycle) -> f64 {
        cycles as f64 * 1e9 / self.0 as f64
    }

    /// Convert a cycle count at this frequency into microseconds.
    pub fn cycles_to_us(self, cycles: Cycle) -> f64 {
        cycles as f64 * 1e6 / self.0 as f64
    }

    /// Convert a cycle count at this frequency into milliseconds.
    pub fn cycles_to_ms(self, cycles: Cycle) -> f64 {
        cycles as f64 * 1e3 / self.0 as f64
    }

    /// Convert a duration in microseconds to (rounded-up) cycles.
    pub fn us_to_cycles(self, us: f64) -> Cycle {
        (us * self.0 as f64 / 1e6).ceil() as Cycle
    }

    /// Throughput in MB/s (decimal, as used by the paper and the
    /// DPR-controller literature) for `bytes` moved in `cycles`.
    ///
    /// Returns 0.0 for a zero-cycle interval rather than dividing by
    /// zero; no real transfer completes in zero cycles.
    pub fn throughput_mbs(self, bytes: u64, cycles: Cycle) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        let seconds = cycles as f64 / self.0 as f64;
        bytes as f64 / 1e6 / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_clock_is_10ns_per_cycle() {
        assert_eq!(Freq::FABRIC_100MHZ.cycles_to_ns(1), 10.0);
        assert_eq!(Freq::FABRIC_100MHZ.cycles_to_us(100), 1.0);
        assert_eq!(Freq::FABRIC_100MHZ.cycles_to_ms(100_000), 1.0);
    }

    #[test]
    fn mhz_constructor_matches_constants() {
        assert_eq!(Freq::mhz(100), Freq::FABRIC_100MHZ);
        assert_eq!(Freq::mhz(5), Freq::CLINT_5MHZ);
        assert_eq!(Freq::mhz(100).as_mhz(), 100);
    }

    #[test]
    fn icap_ceiling_is_400_mbs() {
        // 4 bytes per cycle at 100 MHz — the theoretical ICAP maximum
        // the paper cites (§IV-C).
        let cycles = 1_000_000;
        let bytes = 4 * cycles;
        let mbs = Freq::FABRIC_100MHZ.throughput_mbs(bytes, cycles);
        assert!((mbs - 400.0).abs() < 1e-9, "got {mbs}");
    }

    #[test]
    fn throughput_of_paper_bitstream() {
        // 650 892 bytes in 1651 µs (paper Table IV T_r) is ~394 MB/s.
        let cycles = Freq::FABRIC_100MHZ.us_to_cycles(1651.0);
        let mbs = Freq::FABRIC_100MHZ.throughput_mbs(650_892, cycles);
        assert!((mbs - 394.2).abs() < 0.5, "got {mbs}");
    }

    #[test]
    fn zero_cycles_is_zero_throughput() {
        assert_eq!(Freq::FABRIC_100MHZ.throughput_mbs(1000, 0), 0.0);
    }

    #[test]
    fn us_to_cycles_round_trips() {
        let f = Freq::FABRIC_100MHZ;
        assert_eq!(f.us_to_cycles(18.0), 1800);
        assert_eq!(f.us_to_cycles(1651.0), 165_100);
    }
}
