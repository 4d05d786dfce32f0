//! Static timing estimation.
//!
//! The paper's implementations closed timing at 50 MHz: "System clock
//! frequency has been set to 50 MHz for all configurations, and no
//! timing errors were left according to Xilinx tools."
//!
//! The model assigns each OCP pipeline segment a logic depth in LUT
//! levels; with an Artix-7 LUT+route delay of ≈0.9 ns per level plus
//! clocking overhead, the maximum depth determines the achievable
//! frequency.

use std::fmt;

use ouessant_sim::Frequency;

use crate::estimate::OcpParams;

/// Delay per LUT level including average routing, in nanoseconds
/// (Artix-7 -1 speed grade, a conservative figure).
pub const NS_PER_LEVEL: f64 = 0.9;

/// Fixed clocking overhead (clock-to-out + setup), in nanoseconds.
pub const CLOCK_OVERHEAD_NS: f64 = 1.3;

/// A per-path timing summary.
#[derive(Debug, Clone)]
pub struct TimingReport {
    paths: Vec<(String, u32)>,
}

impl TimingReport {
    /// The critical path's name and depth in LUT levels.
    #[must_use]
    pub fn critical_path(&self) -> (&str, u32) {
        let (name, depth) = self
            .paths
            .iter()
            .max_by_key(|(_, d)| *d)
            .expect("report always has paths");
        (name, *depth)
    }

    /// The maximum clock frequency implied by the critical path.
    #[must_use]
    // The period is at least `CLOCK_OVERHEAD_NS`, so the quotient is
    // finite, positive and far below `u64::MAX`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn fmax(&self) -> Frequency {
        let (_, depth) = self.critical_path();
        let period_ns = f64::from(depth) * NS_PER_LEVEL + CLOCK_OVERHEAD_NS;
        Frequency::hz((1.0e9 / period_ns) as u64)
    }

    /// Whether the design closes timing at `clock`.
    #[must_use]
    pub fn meets(&self, clock: Frequency) -> bool {
        self.fmax().as_hz() >= clock.as_hz()
    }
}

impl fmt::Display for TimingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, depth) = self.critical_path();
        write!(
            f,
            "critical path `{name}` at {depth} levels, fmax {}",
            self.fmax()
        )
    }
}

/// Estimates the OCP's timing paths.
///
/// The translation adder (bank base + offset, 32 bits with carry
/// lookahead in CARRY4 blocks) and the controller's decode+dispatch
/// logic are the two deep paths; FIFO flag logic is shallow.
#[must_use]
pub fn estimate_fmax(p: &OcpParams) -> TimingReport {
    let bank_mux_levels = (32 - (p.num_banks.max(2) - 1).leading_zeros()).div_ceil(2);
    let paths = vec![
        // 32-bit adder ≈ 8 CARRY4 levels ≈ 4 LUT-equivalent levels,
        // behind the bank mux.
        ("interface.xlate".to_string(), 4 + bank_mux_levels),
        ("controller.decode".to_string(), 5),
        ("controller.next_state".to_string(), 4),
        (
            "fifo.flags".to_string(),
            (32 - (p.fifo_depth_words.max(2) - 1).leading_zeros()).div_ceil(3),
        ),
        ("interface.master_fsm".to_string(), 4),
    ];
    TimingReport { paths }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ocp_meets_50mhz() {
        // "no timing errors were left" at 50 MHz.
        let report = estimate_fmax(&OcpParams::default());
        assert!(
            report.meets(Frequency::mhz(50)),
            "fmax {} must exceed 50 MHz",
            report.fmax()
        );
    }

    #[test]
    fn fmax_is_finite_and_plausible() {
        let report = estimate_fmax(&OcpParams::default());
        let mhz = report.fmax().as_hz() / 1_000_000;
        assert!(
            (60..400).contains(&mhz),
            "fmax {mhz} MHz should be a plausible Artix-7 figure"
        );
    }

    #[test]
    fn deeper_fifos_slow_the_flags() {
        let shallow = estimate_fmax(&OcpParams {
            fifo_depth_words: 16,
            ..OcpParams::default()
        });
        let deep = estimate_fmax(&OcpParams {
            fifo_depth_words: 8192,
            ..OcpParams::default()
        });
        let flag_depth = |r: &TimingReport| {
            r.paths
                .iter()
                .find(|(n, _)| n == "fifo.flags")
                .map(|(_, d)| *d)
                .unwrap()
        };
        assert!(flag_depth(&deep) >= flag_depth(&shallow));
    }

    #[test]
    fn critical_path_is_reported() {
        let report = estimate_fmax(&OcpParams::default());
        let (name, depth) = report.critical_path();
        assert!(!name.is_empty());
        assert!(depth > 0);
        assert!(report.to_string().contains("critical path"));
    }
}
