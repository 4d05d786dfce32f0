//! The iterative DFT RAC, modeled after the Spiral-generated core.
//!
//! The paper's second accelerator is "the Spiral iterative DFT \[which\]
//! can be configured to accept different DFT size, limited to the
//! available FPGA size. In the following experiments, the previously
//! described 256 points DFT was used" (§V-A). Table I reports its
//! processing latency as 2485 cycles.
//!
//! ## Data format
//!
//! One complex sample is two 32-bit words (real, then imaginary), each
//! holding a Q15 fixed-point value — so a 256-point transform moves
//! 512 words in and 512 out, matching the paper's "1024 32-bits words to
//! transfer".
//!
//! ## Latency model
//!
//! The Spiral iterative core processes `log2(N)` stages of `N/2`
//! butterflies through a small number of butterfly units. We model the
//! minimal-area configuration (streaming width 2, two cycles per
//! butterfly, as the paper's area numbers imply) plus a per-transform
//! load/unload and pipeline cost:
//!
//! ```text
//! latency(N) = N·log2(N) + 3N/2 + 53
//! ```
//!
//! calibrated so `latency(256) = 2048 + 384 + 53 = 2485` — exactly the
//! paper's measured figure. The `N·log2 N` term is the butterfly work,
//! `3N/2` the memory load/unload, and `53` the pipeline depth.
//!
//! ## Data path
//!
//! [`dft_fixed`] is an iterative radix-2 decimation-in-time FFT in Q15
//! with a scale-by-½ at every stage (the standard hardware guard against
//! overflow), so the output equals `DFT(x)/N`. [`dft_f64`] is the
//! floating-point golden model with the same `1/N` scaling.

use std::f64::consts::PI;
use std::sync::OnceLock;

use crate::block::{BlockKernel, BlockRac};
use crate::fixed::{q15_mul, sat32, to_q15};

/// Default transform size used in the paper's experiments.
pub const PAPER_DFT_POINTS: usize = 256;

/// The paper's measured latency for the 256-point core.
pub const PAPER_DFT_LATENCY: u64 = 2485;

/// Latency model of the Spiral-style iterative core (see module docs).
///
/// # Panics
///
/// Panics unless `n` is a power of two, `8..=4096`.
#[must_use]
pub fn dft_latency(n: usize) -> u64 {
    assert!(
        n.is_power_of_two() && (8..=4096).contains(&n),
        "DFT size must be a power of two in 8..=4096, got {n}"
    );
    let n64 = n as u64;
    let stages = n.trailing_zeros() as u64;
    n64 * stages + 3 * n64 / 2 + 53
}

/// Golden-model DFT over `f64` complex pairs, scaled by `1/N`.
///
/// # Panics
///
/// Panics unless `input.len()` is a power of two.
#[must_use]
pub fn dft_f64(input: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let n = input.len();
    assert!(n.is_power_of_two(), "DFT size must be a power of two");
    let mut out = Vec::with_capacity(n);
    for k in 0..n {
        let mut re = 0.0;
        let mut im = 0.0;
        for (t, &(xr, xi)) in input.iter().enumerate() {
            let angle = -2.0 * PI * (k * t % n) as f64 / n as f64;
            let (s, c) = angle.sin_cos();
            re += xr * c - xi * s;
            im += xr * s + xi * c;
        }
        out.push((re / n as f64, im / n as f64));
    }
    out
}

/// Bit-exact Q15 radix-2 DIT FFT with per-stage halving (output =
/// `DFT(x)/N`), the data path of the hardware core *and* of the software
/// baseline's fast variant.
///
/// # Panics
///
/// Panics unless `input.len()` is a power of two in `8..=4096`.
#[must_use]
pub fn dft_fixed(input: &[(i32, i32)]) -> Vec<(i32, i32)> {
    let n = input.len();
    assert!(
        n.is_power_of_two() && (8..=4096).contains(&n),
        "DFT size must be a power of two in 8..=4096, got {n}"
    );
    let stages = n.trailing_zeros();

    // Bit-reversal permutation.
    let mut data: Vec<(i32, i32)> = vec![(0, 0); n];
    for (i, &x) in input.iter().enumerate() {
        let j = i.reverse_bits() >> (usize::BITS - stages);
        data[j] = x;
    }

    let twiddle = twiddles(stages);

    let mut half = 1usize;
    for _ in 0..stages {
        let step = n / (2 * half);
        for group in 0..step {
            for pair in 0..half {
                let top = group * 2 * half + pair;
                let bot = top + half;
                let w = twiddle[pair * step];
                let (br, bi) = data[bot];
                // W * b in Q15.
                let tr = sat32(i64::from(q15_mul(w.0, br)) - i64::from(q15_mul(w.1, bi)));
                let ti = sat32(i64::from(q15_mul(w.0, bi)) + i64::from(q15_mul(w.1, br)));
                let (ar, ai) = data[top];
                // Scale by 1/2 each stage (hardware overflow guard).
                data[top] = (
                    sat32((i64::from(ar) + i64::from(tr)) >> 1),
                    sat32((i64::from(ai) + i64::from(ti)) >> 1),
                );
                data[bot] = (
                    sat32((i64::from(ar) - i64::from(tr)) >> 1),
                    sat32((i64::from(ai) - i64::from(ti)) >> 1),
                );
            }
        }
        half *= 2;
    }
    data
}

/// [`dft_fixed`] on the wire format: each complex sample as two
/// two's-complement words, real part first, in and out, as the
/// accelerator's FIFOs carry them.
///
/// # Panics
///
/// Panics unless `words` holds a power of two in `8..=4096` of samples.
#[must_use]
pub fn dft_words(words: &[u32]) -> Vec<u32> {
    let samples: Vec<(i32, i32)> = words
        .chunks_exact(2)
        .map(|w| (w[0] as i32, w[1] as i32))
        .collect();
    dft_fixed(&samples)
        .into_iter()
        .flat_map(|(re, im)| [re as u32, im as u32])
        .collect()
}

/// The Q15 twiddle table `W_N^k = e^{-2πik/N}`, `k < N/2`, of the
/// `N = 2^stages`-point DFT, built on first use.
fn twiddles(stages: u32) -> &'static [(i32, i32)] {
    static TABLES: [OnceLock<Vec<(i32, i32)>>; 10] = [const { OnceLock::new() }; 10];
    TABLES[stages as usize - 3].get_or_init(|| {
        let n = 1usize << stages;
        (0..n / 2)
            .map(|k| {
                let angle = -2.0 * PI * k as f64 / n as f64;
                (to_q15(angle.cos()), to_q15(angle.sin()))
            })
            .collect()
    })
}

/// Kernel description driving [`BlockRac`].
#[derive(Debug)]
pub struct DftKernel {
    points: usize,
}

impl BlockKernel for DftKernel {
    fn name(&self) -> &str {
        "spiral_dft"
    }

    fn input_len(&self, _op: u16) -> usize {
        self.points * 2
    }

    fn latency(&self, _op: u16) -> u64 {
        dft_latency(self.points)
    }

    fn compute(&mut self, _op: u16, input: &[u32]) -> Vec<u32> {
        dft_words(input)
    }
}

/// The iterative DFT accelerator: the paper's second RAC.
///
/// # Examples
///
/// ```
/// use ouessant_rac::dft::{DftRac, PAPER_DFT_LATENCY};
/// use ouessant_rac::rac::RacSocket;
///
/// let rac = DftRac::spiral_256();
/// assert_eq!(rac.latency(), PAPER_DFT_LATENCY); // Table I "Lat."
/// let mut socket = RacSocket::new(Box::new(rac), 1024);
/// for _ in 0..256 {
///     socket.push_input(0, 0)?; // re
///     socket.push_input(0, 0)?; // im
/// }
/// socket.start(0);
/// let cycles = socket.run_until_done(10_000);
/// assert_eq!(cycles, PAPER_DFT_LATENCY + 1);
/// # Ok::<(), ouessant_rac::rac::RacError>(())
/// ```
pub type DftRac = BlockRac<DftKernel>;

impl BlockRac<DftKernel> {
    /// A DFT core for `points` complex points.
    ///
    /// # Panics
    ///
    /// Panics unless `points` is a power of two in `8..=4096` (the
    /// paper's "limited to the available FPGA size").
    #[must_use]
    pub fn new(points: usize) -> Self {
        let _ = dft_latency(points); // validates the size
        Self::from_kernel(DftKernel { points })
    }

    /// The 256-point configuration used in the paper's experiments.
    #[must_use]
    pub fn spiral_256() -> Self {
        Self::new(PAPER_DFT_POINTS)
    }

    /// Transform size in complex points.
    #[must_use]
    pub fn points(&self) -> usize {
        self.kernel().points
    }

    /// Core latency in cycles (the paper's *Lat.* column).
    #[must_use]
    pub fn latency(&self) -> u64 {
        dft_latency(self.points())
    }

    /// Transforms completed since the last reset.
    #[must_use]
    pub fn transforms_done(&self) -> u64 {
        self.ops_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::{from_q15, Q15_ONE};
    use crate::rac::RacSocket;

    #[test]
    fn latency_calibration_matches_paper() {
        assert_eq!(dft_latency(256), PAPER_DFT_LATENCY);
    }

    #[test]
    fn latency_is_monotonic_in_size() {
        let mut prev = 0;
        for log in 3..=12 {
            let lat = dft_latency(1 << log);
            assert!(lat > prev);
            prev = lat;
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn latency_rejects_non_power_of_two() {
        let _ = dft_latency(300);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        // x = delta: DFT/N is 1/N everywhere.
        let n = 64;
        let mut input = vec![(0i32, 0i32); n];
        input[0] = (Q15_ONE - 1, 0); // ~1.0 in Q15
        let out = dft_fixed(&input);
        let expected = f64::from(Q15_ONE - 1) / n as f64;
        for &(re, im) in &out {
            assert!((f64::from(re) - expected).abs() <= 16.0, "re {re}");
            assert!(f64::from(im).abs() <= 16.0, "im {im}");
        }
    }

    #[test]
    fn dc_input_concentrates_in_bin_zero() {
        let n = 64;
        let amp = Q15_ONE / 2;
        let input = vec![(amp, 0i32); n];
        let out = dft_fixed(&input);
        // Bin 0 holds the mean = amp; every other bin ~0.
        assert!((out[0].0 - amp).abs() <= 32, "bin0 {}", out[0].0);
        for &(re, im) in &out[1..] {
            assert!(re.abs() <= 32 && im.abs() <= 32, "leakage {re},{im}");
        }
    }

    #[test]
    fn fixed_matches_golden_model() {
        let n = 256;
        let mut state = 0xDEAD_BEEFu32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 16) as i32 % (Q15_ONE / 2)) - Q15_ONE / 4
        };
        let input: Vec<(i32, i32)> = (0..n).map(|_| (next(), next())).collect();
        let golden = dft_f64(
            &input
                .iter()
                .map(|&(r, i)| (from_q15(r), from_q15(i)))
                .collect::<Vec<_>>(),
        );
        let fixed = dft_fixed(&input);
        for ((fr, fi), (gr, gi)) in fixed.iter().zip(&golden) {
            let err_r = (from_q15(*fr) - gr).abs();
            let err_i = (from_q15(*fi) - gi).abs();
            // Rounding accumulates ~1 LSB per stage; allow a small bound.
            let bound = 32.0 / f64::from(Q15_ONE);
            assert!(err_r < bound && err_i < bound, "err {err_r} {err_i}");
        }
    }

    #[test]
    fn single_tone_lands_in_its_bin() {
        let n = 128usize;
        let k0 = 5usize;
        let input: Vec<(i32, i32)> = (0..n)
            .map(|t| {
                let angle = 2.0 * PI * (k0 * t) as f64 / n as f64;
                (to_q15(0.5 * angle.cos()), to_q15(0.5 * angle.sin()))
            })
            .collect();
        let out = dft_fixed(&input);
        // e^{+j2πk0t/N} concentrates in bin k0 with amplitude 0.5.
        let peak = out[k0].0;
        assert!(
            (from_q15(peak) - 0.5).abs() < 0.01,
            "peak {} in bin {k0}",
            from_q15(peak)
        );
        for (k, &(re, im)) in out.iter().enumerate() {
            if k != k0 {
                assert!(
                    from_q15(re).abs() < 0.02 && from_q15(im).abs() < 0.02,
                    "leakage at bin {k}"
                );
            }
        }
    }

    #[test]
    fn rac_latency_and_output() {
        let n = 16;
        let rac = DftRac::new(n);
        let lat = rac.latency();
        let mut s = RacSocket::new(Box::new(rac), 4 * n);
        let input: Vec<(i32, i32)> = (0..n as i32).map(|i| (i * 100, -i * 50)).collect();
        for &(re, im) in &input {
            s.push_input(0, re as u32).unwrap();
            s.push_input(0, im as u32).unwrap();
        }
        s.start(0);
        let cycles = s.run_until_done(100_000);
        assert_eq!(cycles, lat + 1);
        let expected = dft_fixed(&input);
        for &(er, ei) in &expected {
            assert_eq!(s.pop_output(0).unwrap() as i32, er);
            assert_eq!(s.pop_output(0).unwrap() as i32, ei);
        }
    }

    #[test]
    fn paper_configuration_words() {
        let rac = DftRac::spiral_256();
        assert_eq!(rac.points(), 256);
        // 512 words in + 512 words out = the paper's 1024 words.
        assert_eq!(rac.points() * 2 * 2, 1024);
    }
}
