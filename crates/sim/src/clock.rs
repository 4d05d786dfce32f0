//! Cycle bookkeeping and clock-frequency conversion.
//!
//! Every result in the paper's Table I is reported in *cycles* at a
//! 50 MHz system clock; [`Frequency`] converts between the two so the
//! reports can give both. A span of cycles is a [`Cycle`], a point on
//! the bus clock an [`Instant`].

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of clock cycles: the time between two [`Instant`]s, or the
/// ticks a component leaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(u64);

impl Cycle {
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
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cy", self.0)
    }
}

/// An absolute cycle of the bus clock: the cycle count since reset.
///
/// Two instants differ by a [`Cycle`] span, and a span moves an
/// instant:
///
/// ```
/// use ouessant_sim::{Cycle, Instant};
///
/// let issued = Instant::new(100);
/// let completed = issued + Cycle::new(18);
/// assert_eq!(completed - issued, Cycle::new(18));
/// ```
///
/// Adding two instants means nothing, so it does not compile:
///
/// ```compile_fail
/// use ouessant_sim::Instant;
///
/// let _ = Instant::new(100) + Instant::new(18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// The instant `cycle` cycles after reset.
    #[must_use]
    pub const fn new(cycle: u64) -> Self {
        Self(cycle)
    }

    /// The cycles since reset.
    #[must_use]
    pub const fn count(self) -> u64 {
        self.0
    }
}

impl Add<Cycle> for Instant {
    type Output = Instant;

    fn add(self, rhs: Cycle) -> Instant {
        Instant(self.0 + rhs.0)
    }
}

impl AddAssign<Cycle> for Instant {
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Instant {
    type Output = Cycle;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: Instant) -> Cycle {
        Cycle(self.0 - rhs.0)
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
    fn instants_differ_by_spans() {
        let mut t = Instant::new(10);
        t += Cycle::new(3);
        assert_eq!(t, Instant::new(13));
        assert_eq!(t - Instant::new(10), Cycle::new(3));
        assert_eq!(Instant::default() + Cycle::new(7), Instant::new(7));
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
