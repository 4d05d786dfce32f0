//! The instrumented, time-optimized software baselines (Table I's *SW*
//! column).
//!
//! Two kernels, mirroring the paper's two accelerators:
//!
//! * [`sw_idct_8x8`] — a fast fixed-point 2-D IDCT using the even/odd
//!   butterfly decomposition (half the multiplies of the direct form).
//!   Because the decomposition only *regroups* the same 64-bit integer
//!   accumulations, its output is **bit-exact** with the hardware data
//!   path [`ouessant_rac::idct::idct_2d_fixed`] — software fallback and
//!   accelerator produce identical pixels.
//! * [`sw_fft_f64`] — a radix-2 decimation-in-time FFT over `f64`.
//!   The Leon3 has no FPU, so every double operation is charged at
//!   soft-float helper cost; this is what makes the paper's software
//!   DFT cost 600·10³ cycles while the hardware core needs 2485.
//!
//! Both kernels thread a [`CostModel`] and charge their dynamic
//! operations explicitly; the counts follow what a compiler would emit
//! for the inner loops (constants in registers, one load per array
//! access, one branch per loop iteration).

use std::f64::consts::PI;
use std::sync::OnceLock;

use crate::cpu::CostModel;

/// Fractional bits of the IDCT cosine table (matches the RAC data path).
const SCALE_BITS: u32 = 14;
/// Extra precision bits between the two 1-D passes (matches the RAC).
const PASS_BITS: u32 = 3;

#[allow(clippy::cast_possible_truncation)] // |v| <= 1/2: at most 2^13
fn cos_table() -> [[i32; 8]; 8] {
    let mut t = [[0i32; 8]; 8];
    for (u, row) in t.iter_mut().enumerate() {
        let cu = if u == 0 { (0.5f64).sqrt() } else { 1.0 };
        for (x, e) in row.iter_mut().enumerate() {
            let v = cu / 2.0 * ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos();
            *e = (v * f64::from(1 << SCALE_BITS)).round() as i32;
        }
    }
    t
}

/// One 8-point 1-D IDCT with even/odd decomposition, charging ops.
///
/// Accumulates `even[x] = Σ_{u even} in[u]·T[u][x]` and
/// `odd[x] = Σ_{u odd} in[u]·T[u][x]` for `x = 0..4`, then
/// `out[x] = even + odd`, `out[7-x] = even − odd` — exactly the direct
/// form's sums regrouped, so the rounding of the final shift is
/// unchanged.
fn idct_1d_fast(
    cpu: &mut CostModel,
    table: &[[i32; 8]; 8],
    input: &[i64; 8],
    shift: u32,
) -> [i64; 8] {
    let mut out = [0i64; 8];
    for x in 0..4 {
        let mut even: i64 = 0;
        let mut odd: i64 = 0;
        for u in (0..8).step_by(2) {
            // load coefficient, multiply-accumulate (table in registers).
            cpu.load(1);
            cpu.mul(1);
            cpu.alu(1);
            even += input[u] * i64::from(table[u][x]);
        }
        for u in (1..8).step_by(2) {
            cpu.load(1);
            cpu.mul(1);
            cpu.alu(1);
            odd += input[u] * i64::from(table[u][x]);
        }
        // Combine, round and shift both mirror outputs.
        cpu.alu(6); // add, sub, two rounding adds, two shifts
        cpu.store(2);
        cpu.branch(1); // loop
        let round = 1i64 << (shift - 1);
        out[x] = (even + odd + round) >> shift;
        out[7 - x] = (even - odd + round) >> shift;
    }
    out
}

/// The time-optimized software 2-D IDCT (bit-exact with the RAC).
///
/// # Panics
///
/// Panics if `coeffs` is not 64 elements long.
///
/// # Examples
///
/// ```
/// use ouessant_soc::cpu::CostModel;
/// use ouessant_soc::sw::sw_idct_8x8;
/// use ouessant_rac::idct::idct_2d_fixed;
///
/// let coeffs: Vec<i32> = (0..64).map(|i| (i * 31 % 800) - 400).collect();
/// let mut cpu = CostModel::leon3();
/// let sw = sw_idct_8x8(&mut cpu, &coeffs);
/// assert_eq!(sw, idct_2d_fixed(&coeffs)); // bit-exact
/// assert!(cpu.cycles() > 1_000); // and it costs real CPU time
/// ```
#[must_use]
pub fn sw_idct_8x8(cpu: &mut CostModel, coeffs: &[i32]) -> Vec<i32> {
    assert_eq!(coeffs.len(), 64, "an 8x8 block has 64 coefficients");
    cpu.call(1);
    let table = cos_table(); // compile-time constant: no charged ops
    let mut tmp = [0i64; 64];
    // Pass 1 over rows.
    for r in 0..8 {
        cpu.branch(1);
        cpu.alu(2); // row index arithmetic
        let mut row = [0i64; 8];
        for u in 0..8 {
            cpu.load(1);
            row[u] = i64::from(coeffs[r * 8 + u]);
        }
        let out = idct_1d_fast(cpu, &table, &row, SCALE_BITS - PASS_BITS);
        tmp[r * 8..r * 8 + 8].copy_from_slice(&out);
    }
    // Pass 2 over columns.
    let mut result = vec![0i32; 64];
    for c in 0..8 {
        cpu.branch(1);
        cpu.alu(2);
        let mut col = [0i64; 8];
        for r in 0..8 {
            cpu.load(1);
            col[r] = tmp[r * 8 + c];
        }
        let out = idct_1d_fast(cpu, &table, &col, SCALE_BITS + PASS_BITS);
        for r in 0..8 {
            cpu.store(1);
            #[allow(clippy::cast_possible_truncation)] // wraps to 32 bits, as the RAC does
            let word = out[r] as i32;
            result[r * 8 + c] = word;
        }
    }
    result
}

/// The time-optimized software DFT: radix-2 DIT FFT over `f64`, scaled
/// by `1/N` like the hardware core, with soft-float costing.
///
/// # Panics
///
/// Panics unless `input.len()` is a power of two ≥ 2.
///
/// # Examples
///
/// ```
/// use ouessant_soc::cpu::CostModel;
/// use ouessant_soc::sw::sw_fft_f64;
///
/// let input = vec![(1.0, 0.0); 256];
/// let mut cpu = CostModel::leon3();
/// let out = sw_fft_f64(&mut cpu, &input);
/// assert!((out[0].0 - 1.0).abs() < 1e-9); // DC bin = mean
/// // The paper's SW figure for N=256: 600·10³ cycles.
/// assert!(cpu.cycles() > 400_000 && cpu.cycles() < 800_000);
/// ```
#[must_use]
pub fn sw_fft_f64(cpu: &mut CostModel, input: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = input.len();
    assert!(
        n.is_power_of_two() && n >= 2,
        "FFT size must be a power of two"
    );
    let stages = n.trailing_zeros();
    cpu.call(1);

    // Bit-reversal copy.
    let mut data: Vec<(f64, f64)> = vec![(0.0, 0.0); n];
    for (i, &x) in input.iter().enumerate() {
        cpu.alu(4); // reversal arithmetic
        cpu.load(2);
        cpu.store(2);
        cpu.branch(1);
        let j = i.reverse_bits() >> (usize::BITS - stages);
        data[j] = x;
    }

    // Twiddle table (precomputed once per program in a real decoder; we
    // charge the loads at use sites, not the trigonometry here).
    let twiddle = twiddles(n);

    let mut half = 1usize;
    for _ in 0..stages {
        cpu.branch(1);
        let step = n / (2 * half);
        for group in 0..step {
            cpu.branch(1);
            cpu.alu(2);
            for pair in 0..half {
                // Complex butterfly: t = W·b; (a, b) = (a+t, a−t).
                cpu.branch(1);
                cpu.alu(6); // index arithmetic
                cpu.load(6); // a, b, W (2 words each)
                cpu.fmul(4);
                cpu.fadd(6);
                cpu.store(4);
                let top = group * 2 * half + pair;
                let bot = top + half;
                let (wr, wi) = twiddle[pair * step];
                let (br, bi) = data[bot];
                let tr = wr * br - wi * bi;
                let ti = wr * bi + wi * br;
                let (ar, ai) = data[top];
                data[top] = (ar + tr, ai + ti);
                data[bot] = (ar - tr, ai - ti);
            }
        }
        half *= 2;
    }

    // Scale by 1/N (multiply by the constant 1/n).
    let inv_n = 1.0 / n as f64;
    for v in &mut data {
        cpu.load(2);
        cpu.fmul(2);
        cpu.store(2);
        cpu.branch(1);
        v.0 *= inv_n;
        v.1 *= inv_n;
    }
    data
}

/// The `n`-point FFT's twiddles `e^{-2πik/n}`, `k < n/2`, built once per
/// size, on first use.
fn twiddles(n: usize) -> &'static [(f64, f64)] {
    static TABLES: [OnceLock<Vec<(f64, f64)>>; usize::BITS as usize] =
        [const { OnceLock::new() }; usize::BITS as usize];
    TABLES[n.trailing_zeros() as usize].get_or_init(|| {
        (0..n / 2)
            .map(|k| {
                let angle = -2.0 * PI * k as f64 / n as f64;
                (angle.cos(), angle.sin())
            })
            .collect()
    })
}

/// A direct (O(N²)) software DFT, charged the same way — the *naive*
/// baseline that a "time-optimized" implementation (the FFT above)
/// improves on. The tests check the FFT against it, and it shows the
/// optimization headroom inside the software column itself.
#[must_use]
pub fn sw_dft_direct_f64(cpu: &mut CostModel, input: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = input.len();
    cpu.call(1);
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        cpu.branch(1);
        let mut re = 0.0;
        let mut im = 0.0;
        for (t, &(xr, xi)) in input.iter().enumerate() {
            cpu.branch(1);
            cpu.alu(4);
            cpu.load(4);
            cpu.fmul(4);
            cpu.fadd(4);
            let angle = -2.0 * PI * ((k * t) % n) as f64 / n as f64;
            let (s, c) = angle.sin_cos();
            re += xr * c - xi * s;
            im += xr * s + xi * c;
        }
        cpu.fmul(2);
        cpu.store(2);
        out.push((re / n as f64, im / n as f64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouessant_rac::dft::dft_f64;
    use ouessant_rac::idct::{idct_2d_f64, idct_2d_fixed};

    fn pseudo_coeffs(seed: u32, len: usize, range: i32) -> Vec<i32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                ((state >> 16) as i32 % range) - range / 2
            })
            .collect()
    }

    #[test]
    fn sw_idct_bit_exact_with_hardware() {
        for seed in [1u32, 99, 0xABCD] {
            let coeffs = pseudo_coeffs(seed, 64, 2048);
            let mut cpu = CostModel::leon3();
            assert_eq!(sw_idct_8x8(&mut cpu, &coeffs), idct_2d_fixed(&coeffs));
        }
    }

    #[test]
    fn sw_idct_close_to_golden() {
        let coeffs = pseudo_coeffs(7, 64, 1024);
        let mut cpu = CostModel::leon3();
        let sw = sw_idct_8x8(&mut cpu, &coeffs);
        let golden = idct_2d_f64(&coeffs.iter().map(|&c| f64::from(c)).collect::<Vec<_>>());
        for (s, g) in sw.iter().zip(&golden) {
            assert!((f64::from(*s) - g).abs() <= 1.0);
        }
    }

    #[test]
    fn sw_idct_cost_matches_paper_order() {
        // Table I: SW IDCT = 5000 cycles on the Leon3.
        let coeffs = pseudo_coeffs(3, 64, 2048);
        let mut cpu = CostModel::leon3();
        let _ = sw_idct_8x8(&mut cpu, &coeffs);
        let cycles = cpu.cycles();
        assert!(
            (3_500..=6_500).contains(&cycles),
            "SW IDCT cost {cycles} should be near the paper's 5000"
        );
    }

    #[test]
    fn sw_fft_matches_reference() {
        let n = 256;
        let input: Vec<(f64, f64)> = (0..n)
            .map(|t| {
                let x = t as f64;
                ((x * 0.1).sin() * 0.4, (x * 0.07).cos() * 0.3)
            })
            .collect();
        let mut cpu = CostModel::leon3();
        let fft = sw_fft_f64(&mut cpu, &input);
        let reference = dft_f64(&input);
        for ((fr, fi), (gr, gi)) in fft.iter().zip(&reference) {
            assert!((fr - gr).abs() < 1e-9 && (fi - gi).abs() < 1e-9);
        }
    }

    #[test]
    fn sw_fft_cost_matches_paper_order() {
        // Table I: SW DFT (256 points) = 600·10³ cycles.
        let input = vec![(0.5, -0.25); 256];
        let mut cpu = CostModel::leon3();
        let _ = sw_fft_f64(&mut cpu, &input);
        let cycles = cpu.cycles();
        assert!(
            (450_000..=750_000).contains(&cycles),
            "SW DFT cost {cycles} should be near the paper's 600k"
        );
    }

    #[test]
    fn direct_dft_slower_than_fft() {
        let input = vec![(0.1, 0.2); 64];
        let mut fft_cpu = CostModel::leon3();
        let mut direct_cpu = CostModel::leon3();
        let a = sw_fft_f64(&mut fft_cpu, &input);
        let b = sw_dft_direct_f64(&mut direct_cpu, &input);
        for ((ar, ai), (br, bi)) in a.iter().zip(&b) {
            assert!((ar - br).abs() < 1e-9 && (ai - bi).abs() < 1e-9);
        }
        assert!(
            direct_cpu.cycles() > 3 * fft_cpu.cycles(),
            "direct {} vs fft {}",
            direct_cpu.cycles(),
            fft_cpu.cycles()
        );
    }

    #[test]
    fn fft_cost_scales_n_log_n() {
        let cost = |n: usize| {
            let input = vec![(0.1, 0.0); n];
            let mut cpu = CostModel::leon3();
            let _ = sw_fft_f64(&mut cpu, &input);
            cpu.cycles() as f64
        };
        let c128 = cost(128);
        let c512 = cost(512);
        // N log N: 512·9 / 128·7 ≈ 5.1×.
        let ratio = c512 / c128;
        assert!((4.0..=6.5).contains(&ratio), "ratio {ratio}");
    }
}
