//! Fixed-point helpers shared by the accelerator data paths.
//!
//! The paper's accelerators are integer hardware (the Leon3 has no FPU
//! and the Spiral DFT core is generated in fixed point); these helpers
//! define the number formats both the RAC data paths and the software
//! baselines use, so hardware and software produce bit-identical
//! results — exactly the property that made the paper's integration "easy
//! to simulate".

/// Fractional bits of the Q15 sample format used by the DFT path.
pub const Q15_BITS: u32 = 15;

/// One in Q15.
pub const Q15_ONE: i32 = 1 << Q15_BITS;

/// Saturates an `i64` into the `i32` range.
///
/// ```
/// use ouessant_rac::fixed::sat32;
/// assert_eq!(sat32(i64::from(i32::MAX) + 5), i32::MAX);
/// assert_eq!(sat32(-7), -7);
/// ```
#[must_use]
#[allow(clippy::cast_possible_truncation)] // clamped to the `i32` range first
pub fn sat32(v: i64) -> i32 {
    v.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32
}

/// Multiplies two Q15 values, rounding to nearest (ties away from zero
/// avoided: simple add-half rounding as hardware multipliers do).
///
/// ```
/// use ouessant_rac::fixed::{q15_mul, Q15_ONE};
/// assert_eq!(q15_mul(Q15_ONE, Q15_ONE), Q15_ONE);
/// assert_eq!(q15_mul(Q15_ONE / 2, Q15_ONE / 2), Q15_ONE / 4);
/// ```
#[must_use]
pub fn q15_mul(a: i32, b: i32) -> i32 {
    let p = i64::from(a) * i64::from(b);
    sat32((p + (1 << (Q15_BITS - 1))) >> Q15_BITS)
}

/// Converts a float in `[-1, 1)` to Q15 (rounded, saturated).
#[must_use]
#[allow(clippy::cast_possible_truncation)] // a float-to-int `as` saturates, as `sat32` does
pub fn to_q15(v: f64) -> i32 {
    sat32((v * f64::from(Q15_ONE)).round() as i64)
}

/// Converts a Q15 value to float.
#[must_use]
pub fn from_q15(v: i32) -> f64 {
    f64::from(v) / f64::from(Q15_ONE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_bounds() {
        assert_eq!(sat32(i64::MAX), i32::MAX);
        assert_eq!(sat32(i64::MIN), i32::MIN);
    }

    #[test]
    fn q15_mul_identities() {
        assert_eq!(q15_mul(Q15_ONE, 12345), 12345);
        assert_eq!(q15_mul(0, 9999), 0);
        assert_eq!(q15_mul(-Q15_ONE, 100), -100);
    }

    #[test]
    fn q15_float_round_trip() {
        for v in [-0.999, -0.5, 0.0, 0.25, 0.75] {
            let q = to_q15(v);
            assert!((from_q15(q) - v).abs() < 1.0 / f64::from(Q15_ONE));
        }
    }

    #[test]
    fn to_q15_saturates() {
        assert_eq!(to_q15(10.0), 10 * Q15_ONE); // fits in i32, no clamp needed
        assert_eq!(to_q15(100000.0), i32::MAX);
    }
}
