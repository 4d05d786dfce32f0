//! The Leon3-class CPU cost model.
//!
//! The paper's SW column is "a time-optimized software version … run for
//! comparison" on the Leon3, a single-issue in-order SPARCv8 soft-core
//! synthesized at 50 MHz, *without* an FPU (floating point is emulated
//! in software, which is what makes the DFT baseline cost 600·10³
//! cycles).
//!
//! The model executes kernels natively and charges cycles per dynamic
//! operation. Per-op costs live in [`CpuCosts`]; the defaults
//! ([`CpuCosts::leon3`]) are calibrated from the Leon3 integer pipeline
//! (single-cycle ALU, 4–5-cycle hardware multiply, 2-cycle loads on
//! cache hit) and typical SPARC soft-float library timings for the
//! double-precision helpers (`__adddf3`, `__muldf3`).

use std::fmt;
use std::ops::{Add, AddAssign};

/// Dynamic operation counts of one kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounts {
    /// Integer ALU operations (add, sub, shift, logic).
    pub alu: u64,
    /// Integer multiplications.
    pub mul: u64,
    /// Memory loads.
    pub load: u64,
    /// Memory stores.
    pub store: u64,
    /// Branches (taken or not; the model charges a flat cost).
    pub branch: u64,
    /// Call/return pairs.
    pub call: u64,
    /// Soft-float double-precision additions/subtractions.
    pub fadd: u64,
    /// Soft-float double-precision multiplications.
    pub fmul: u64,
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            alu: self.alu + rhs.alu,
            mul: self.mul + rhs.mul,
            load: self.load + rhs.load,
            store: self.store + rhs.store,
            branch: self.branch + rhs.branch,
            call: self.call + rhs.call,
            fadd: self.fadd + rhs.fadd,
            fmul: self.fmul + rhs.fmul,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

/// Per-operation cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuCosts {
    /// Cycles per integer ALU op.
    pub alu: u64,
    /// Cycles per integer multiply.
    pub mul: u64,
    /// Cycles per load (cache hit).
    pub load: u64,
    /// Cycles per store.
    pub store: u64,
    /// Cycles per branch.
    pub branch: u64,
    /// Cycles per call/return pair.
    pub call: u64,
    /// Cycles per soft-float double add (`__adddf3`).
    pub fadd: u64,
    /// Cycles per soft-float double multiply (`__muldf3`).
    pub fmul: u64,
}

impl CpuCosts {
    /// The Leon3 calibration used throughout the reproduction.
    #[must_use]
    pub fn leon3() -> Self {
        Self {
            alu: 1,
            mul: 5,
            load: 2,
            store: 2,
            branch: 2,
            call: 4,
            fadd: 45,
            fmul: 60,
        }
    }

    /// Total cycles of `counts` under these costs.
    #[must_use]
    pub fn cycles_of(&self, counts: OpCounts) -> u64 {
        counts.alu * self.alu
            + counts.mul * self.mul
            + counts.load * self.load
            + counts.store * self.store
            + counts.branch * self.branch
            + counts.call * self.call
            + counts.fadd * self.fadd
            + counts.fmul * self.fmul
    }
}

impl Default for CpuCosts {
    fn default() -> Self {
        Self::leon3()
    }
}

/// An operation accumulator threaded through instrumented kernels.
///
/// # Examples
///
/// ```
/// use ouessant_soc::cpu::{CostModel, CpuCosts};
///
/// let mut cpu = CostModel::new(CpuCosts::leon3());
/// cpu.load(2);  // two loads
/// cpu.mul(1);   // one integer multiply
/// cpu.alu(1);   // one add
/// assert_eq!(cpu.cycles(), 2 * 2 + 5 + 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    costs: CpuCosts,
    counts: OpCounts,
}

impl CostModel {
    /// A model with the given per-op costs and zeroed counters.
    #[must_use]
    pub fn new(costs: CpuCosts) -> Self {
        Self {
            costs,
            counts: OpCounts::default(),
        }
    }

    /// The Leon3 calibration.
    #[must_use]
    pub fn leon3() -> Self {
        Self::new(CpuCosts::leon3())
    }

    /// Charges `n` integer ALU operations.
    pub fn alu(&mut self, n: u64) {
        self.counts.alu += n;
    }

    /// Charges `n` integer multiplies.
    pub fn mul(&mut self, n: u64) {
        self.counts.mul += n;
    }

    /// Charges `n` loads.
    pub fn load(&mut self, n: u64) {
        self.counts.load += n;
    }

    /// Charges `n` stores.
    pub fn store(&mut self, n: u64) {
        self.counts.store += n;
    }

    /// Charges `n` branches.
    pub fn branch(&mut self, n: u64) {
        self.counts.branch += n;
    }

    /// Charges `n` call/return pairs.
    pub fn call(&mut self, n: u64) {
        self.counts.call += n;
    }

    /// Charges `n` soft-float additions.
    pub fn fadd(&mut self, n: u64) {
        self.counts.fadd += n;
    }

    /// Charges `n` soft-float multiplications.
    pub fn fmul(&mut self, n: u64) {
        self.counts.fmul += n;
    }

    /// Total cycles accumulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.costs.cycles_of(self.counts)
    }

    /// Zeroes the counters, keeping the costs.
    pub fn reset(&mut self) {
        self.counts = OpCounts::default();
    }
}

impl fmt::Display for OpCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alu {} mul {} ld {} st {} br {} call {} fadd {} fmul {}",
            self.alu, self.mul, self.load, self.store, self.branch, self.call, self.fadd, self.fmul
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leon3_costs_sanity() {
        let c = CpuCosts::leon3();
        assert_eq!(c.alu, 1);
        assert!(c.mul > c.alu, "Leon3 multiply is multi-cycle");
        assert!(c.fmul > c.mul * 5, "soft-float dwarfs hardware multiply");
    }

    #[test]
    fn cycles_accumulate_linearly() {
        let mut cpu = CostModel::leon3();
        cpu.alu(10);
        cpu.mul(2);
        cpu.load(3);
        cpu.store(1);
        cpu.branch(4);
        cpu.call(1);
        let expected = 10 + 2 * 5 + 3 * 2 + 2 + 4 * 2 + 4;
        assert_eq!(cpu.cycles(), expected);
    }

    #[test]
    fn soft_float_counted_separately() {
        let mut cpu = CostModel::leon3();
        cpu.fadd(2);
        cpu.fmul(1);
        assert_eq!(cpu.cycles(), 2 * 45 + 60);
        assert_eq!(cpu.counts.fadd, 2);
    }

    #[test]
    fn reset_keeps_costs() {
        let costs = CpuCosts {
            mul: 1,
            ..CpuCosts::leon3()
        };
        let mut cpu = CostModel::new(costs);
        cpu.alu(100);
        cpu.reset();
        assert_eq!(cpu.cycles(), 0);
        assert_eq!(cpu.costs, costs);
    }

    #[test]
    fn op_counts_add() {
        let a = OpCounts {
            alu: 1,
            mul: 2,
            ..OpCounts::default()
        };
        let b = OpCounts {
            alu: 10,
            fadd: 5,
            ..OpCounts::default()
        };
        let s = a + b;
        assert_eq!(s.alu, 11);
        assert_eq!(s.mul, 2);
        assert_eq!(s.fadd, 5);
    }

    #[test]
    fn display_contains_all_fields() {
        let c = OpCounts::default();
        let s = c.to_string();
        for field in ["alu", "mul", "ld", "st", "br", "call", "fadd", "fmul"] {
            assert!(s.contains(field), "{field} missing from {s}");
        }
    }
}
