//! Cycle bookkeeping and clock-frequency conversion.
//!
//! Every result in the paper's Table I is reported in *cycles* at a
//! 50 MHz system clock; [`Frequency`] converts between the two so the
//! benches can print both.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A count of clock cycles (also used as an absolute timestamp).
///
/// ```
/// use ouessant_sim::Cycle;
///
/// let a = Cycle::new(100);
/// let b = a + Cycle::new(50);
/// assert_eq!(b.count(), 150);
/// assert_eq!((b - a).count(), 50);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
    /// Cycle zero.
    pub const ZERO: Cycle = Cycle(0);

    /// Wraps a raw cycle count.
    #[must_use]
    pub fn new(count: u64) -> Self {
        Self(count)
    }

    /// The raw cycle count.
    #[must_use]
    pub fn count(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycle {
    type Output = Cycle;

    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self` (cycle counts cannot be
    /// negative); use [`Cycle::saturating_sub`] when underflow is
    /// expected.
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl Sum for Cycle {
    fn sum<I: Iterator<Item = Cycle>>(iter: I) -> Cycle {
        Cycle(iter.map(|c| c.0).sum())
    }
}

impl From<u64> for Cycle {
    fn from(v: u64) -> Self {
        Cycle(v)
    }
}

impl From<Cycle> for u64 {
    fn from(c: Cycle) -> u64 {
        c.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cy", self.0)
    }
}

/// A clock frequency, used to convert cycle counts into wall time.
///
/// ```
/// use ouessant_sim::{Cycle, Frequency};
///
/// let clk = Frequency::mhz(50); // the paper's system clock
/// let t = clk.duration_of(Cycle::new(7000)); // DFT offload under Linux
/// assert_eq!(t.as_micros(), 140);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Frequency {
    hz: u64,
}

impl Frequency {
    /// The 50 MHz system clock used for every configuration in the
    /// paper's evaluation.
    pub const PAPER_SYSTEM_CLOCK: Frequency = Frequency { hz: 50_000_000 };

    /// A frequency in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz == 0`.
    #[must_use]
    pub fn hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        Self { hz }
    }

    /// A frequency in megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `mhz == 0`.
    #[must_use]
    pub fn mhz(mhz: u64) -> Self {
        Self::hz(mhz * 1_000_000)
    }

    /// The frequency in hertz.
    #[must_use]
    pub fn as_hz(self) -> u64 {
        self.hz
    }

    /// Wall-clock duration of `cycles` at this frequency (saturating at
    /// `u64::MAX` nanoseconds).
    #[must_use]
    pub fn duration_of(self, cycles: Cycle) -> std::time::Duration {
        let nanos = (u128::from(cycles.count()) * 1_000_000_000) / u128::from(self.hz);
        std::time::Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

impl Default for Frequency {
    fn default() -> Self {
        Self::PAPER_SYSTEM_CLOCK
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.hz / 1_000_000)
        } else if self.hz >= 1_000_000 {
            write!(f, "{:.1} MHz", self.hz as f64 / 1.0e6)
        } else {
            write!(f, "{} Hz", self.hz)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle::new(10);
        let b = Cycle::new(3);
        assert_eq!((a + b).count(), 13);
        assert_eq!((a - b).count(), 7);
        let mut c = a;
        c += b;
        assert_eq!(c.count(), 13);
    }

    #[test]
    fn cycle_saturating_sub() {
        assert_eq!(Cycle::new(3).saturating_sub(Cycle::new(10)), Cycle::ZERO);
    }

    #[test]
    fn cycle_sum() {
        let total: Cycle = [1u64, 2, 3].into_iter().map(Cycle::new).sum();
        assert_eq!(total.count(), 6);
    }

    #[test]
    fn paper_clock_is_50mhz() {
        assert_eq!(Frequency::PAPER_SYSTEM_CLOCK.as_hz(), 50_000_000);
        assert_eq!(Frequency::default(), Frequency::mhz(50));
    }

    #[test]
    fn duration_conversion() {
        let clk = Frequency::mhz(50);
        let c = Cycle::new(600_000); // the paper's software DFT
        assert_eq!(clk.duration_of(c).as_millis(), 12);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Cycle::new(42).to_string(), "42 cy");
        assert_eq!(Frequency::mhz(50).to_string(), "50 MHz");
        assert_eq!(Frequency::hz(1234).to_string(), "1234 Hz");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_frequency_panics() {
        let _ = Frequency::hz(0);
    }
}
