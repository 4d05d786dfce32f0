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
//!
//! Each butterfly computes `t = w·b` from two saturating [`q15_mul`]s
//! per component, saturates `t`, and writes `(a ± t) >> 1`. The host
//! implementation is laid out so that the compiler vectorises it, and
//! gives the same bits as that definition on every input (a test-only
//! oracle in `tests/dft_oracle.rs` checks this):
//!
//! * **Split layout.** Real and imaginary parts live in two `i32`
//!   planes, filled in bit-reversed order straight from the wire words
//!   and interleaved back once at the end. [`DftKernel`] keeps its
//!   planes across operations.
//! * **Radix-4 load.** The first two stages run as one pass through the
//!   bit-reversal. Their twiddles are `(2^15, 0)`, whose product is `b`
//!   itself, and `(0, -2^15)`, which leaves one `q15_mul` per component.
//! * **Per-stage twiddles.** The stage that joins `h`-point transforms
//!   reads its twiddles `W_N^{k·N/2h}`, `k < h`, as one contiguous run
//!   instead of gathering them from the `N`-point table with a stride.
//!   The runs of one size are built once, on first use.
//! * **Two butterfly loops, chosen per stage.** When every value
//!   entering a stage is in Q15 (`-2^15 ..= 2^15 - 1`), the stage runs
//!   in plain `i32`: `|w| ≤ 2^15` and `|b| ≤ 2^15` give
//!   `|w·b| + 2^14 < 2^31`, so no clamp can fire. Otherwise the exact
//!   saturating loop runs, with `i64` products. There `q15_mul`
//!   saturates in one case only, `w = -2^15` (the `N/4` twiddle's sine)
//!   times `b = i32::MIN`, and `(a ± t) >> 1` needs no clamp since `a`
//!   and `t` are `i32`.

use std::f64::consts::PI;
use std::fmt;
use std::sync::OnceLock;

use crate::block::{BlockKernel, BlockRac};
use crate::fixed::{q15_mul, sat32, to_q15, Q15_BITS, Q15_ONE};

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
    let words: Vec<u32> = input
        .iter()
        .flat_map(|&(re, im)| [re as u32, im as u32])
        .collect();
    let mut planes = Planes::default();
    planes.transform(&words);
    planes.re.into_iter().zip(planes.im).collect()
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
    let mut out = Vec::new();
    Planes::default().words_into(words, &mut out);
    out
}

/// The data path's working layout: real and imaginary parts in two
/// planes, in bit-reversed order while the stages run.
#[derive(Default)]
struct Planes {
    re: Vec<i32>,
    im: Vec<i32>,
}

impl fmt::Debug for Planes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Planes")
            .field("points", &self.re.len())
            .finish_non_exhaustive()
    }
}

impl Planes {
    /// Transforms the samples of `words` and appends the result, in the
    /// same format, to `out`.
    fn words_into(&mut self, words: &[u32], out: &mut Vec<u32>) {
        self.transform(words);
        let start = out.len();
        out.resize(start + 2 * self.re.len(), 0);
        for ((pair, &re), &im) in out[start..].chunks_exact_mut(2).zip(&self.re).zip(&self.im) {
            pair[0] = re as u32;
            pair[1] = im as u32;
        }
    }

    /// Runs the transform of the samples of `words` (real word first;
    /// an odd last word is ignored), leaving the result in the planes
    /// in natural order.
    fn transform(&mut self, words: &[u32]) {
        let n = words.len() / 2;
        assert!(
            n.is_power_of_two() && (8..=4096).contains(&n),
            "DFT size must be a power of two in 8..=4096, got {n}"
        );
        let (re, im) = (&mut self.re, &mut self.im);
        re.clear();
        re.resize(n, 0);
        im.clear();
        im.resize(n, 0);
        // The first two stages run as one radix-4 pass through the
        // bit-reversal permutation. Samples `i`, `i + n/4`, `i + n/2`
        // and `i + 3n/4`, for `i < n/4`, land at `j = rev(i)` and the
        // three slots after it, and form one group of the second stage.
        let shift = usize::BITS - n.trailing_zeros();
        let mut quarters = words
            .chunks_exact(n / 2)
            .map(|q| q.chunks_exact(2).map(sample));
        let mut quarter = || quarters.next().expect("four quarters");
        let (q0, q1, q2, q3) = (quarter(), quarter(), quarter(), quarter());
        for (i, (((x0, x1), x2), x3)) in q0.zip(q1).zip(q2).zip(q3).enumerate() {
            // The first stage's twiddle, `W_2^0 = (2^15, 0)`, makes
            // `t = b` exactly: `q15_mul(2^15, b) = b` and
            // `q15_mul(0, b) = 0` for every `i32` `b`.
            let [s0, d0] = halves(x0, x2);
            let [s1, d1] = halves(x1, x3);
            // The second stage's `W_4^0` is that twiddle again, and
            // `W_4^1 = (0, -2^15)` leaves one `q15_mul` per component.
            let t = (
                sat32(-i64::from(q15_mul(-Q15_ONE, d1.1))),
                q15_mul(-Q15_ONE, d1.0),
            );
            let [y0, y2] = halves(s0, s1);
            let [y1, y3] = halves(d0, t);
            let j = i.reverse_bits() >> shift;
            re[j..j + 4].copy_from_slice(&[y0.0, y1.0, y2.0, y3.0]);
            im[j..j + 4].copy_from_slice(&[y0.1, y1.1, y2.1, y3.1]);
        }
        let mut half = 4;
        while half < n {
            let (wr, wi) = stage_twiddles(n, half);
            if in_q15(re) && in_q15(im) {
                q15_stage(re, im, wr, wi);
            } else {
                wide_stage(re, im, wr, wi);
            }
            half *= 2;
        }
    }
}

/// One complex sample from its two wire words.
fn sample(words: &[u32]) -> (i32, i32) {
    (words[0] as i32, words[1] as i32)
}

/// The butterfly outputs `(a + t) >> 1` and `(a - t) >> 1`, per
/// component.
fn halves(a: (i32, i32), t: (i32, i32)) -> [(i32, i32); 2] {
    [
        (half_sum(a.0, t.0), half_sum(a.1, t.1)),
        (half_diff(a.0, t.0), half_diff(a.1, t.1)),
    ]
}

/// `(a + b) >> 1`, the butterfly's halved sum, without a clamp:
/// `⌊(a + b) / 2⌋` of two `i32`s is an `i32`.
#[allow(clippy::cast_possible_truncation)] // in `i32`, as above
fn half_sum(a: i32, b: i32) -> i32 {
    ((i64::from(a) + i64::from(b)) >> 1) as i32
}

/// `(a - b) >> 1`, the butterfly's halved difference, without a clamp:
/// `⌊(a - b) / 2⌋` of two `i32`s is an `i32`.
#[allow(clippy::cast_possible_truncation)] // in `i32`, as above
fn half_diff(a: i32, b: i32) -> i32 {
    ((i64::from(a) - i64::from(b)) >> 1) as i32
}

/// Whether every value lies in Q15's range `-2^15 ..= 2^15 - 1`.
/// `x ^ (x >> 31)` is `x` for `x ≥ 0` and `-x - 1` below, so no value
/// has a bit above bit 14 set exactly when their OR has none; SSE2
/// vectorises that fold, which it cannot do for a 32-bit `min`/`max`.
fn in_q15(xs: &[i32]) -> bool {
    xs.iter().fold(0, |acc, &x| acc | (x ^ (x >> 31))) >> Q15_BITS == 0
}

/// One stage of butterflies over inputs that are all in Q15, in `i32`:
/// the same values as [`wide_stage`], because none of its clamps can
/// fire. With `|w| ≤ 2^15` and `|b| ≤ 2^15`, `|w·b| + 2^14 < 2^31`, so
/// the product and its rounding fit `i32` and the rounded product
/// `p` has `|p| ≤ 2^15` (no `q15_mul` clamp); then `|t| ≤ 2^16` (no
/// `sat32` on `t`), and `|a ± t| ≤ 2^15 + 2^16` fits before the halving.
fn q15_stage(re: &mut [i32], im: &mut [i32], wr: &[i32], wi: &[i32]) {
    const ROUND: i32 = 1 << (Q15_BITS - 1);
    let half = wr.len();
    let wi = &wi[..half];
    for (re, im) in re
        .chunks_exact_mut(2 * half)
        .zip(im.chunks_exact_mut(2 * half))
    {
        let (ar, br) = re.split_at_mut(half);
        let (ai, bi) = im.split_at_mut(half);
        let (br, ai, bi) = (&mut br[..half], &mut ai[..half], &mut bi[..half]);
        for p in 0..half {
            let (w_r, w_i, b_r, b_i) = (wr[p], wi[p], br[p], bi[p]);
            let tr = ((w_r * b_r + ROUND) >> Q15_BITS) - ((w_i * b_i + ROUND) >> Q15_BITS);
            let ti = ((w_r * b_i + ROUND) >> Q15_BITS) + ((w_i * b_r + ROUND) >> Q15_BITS);
            let (a_r, a_i) = (ar[p], ai[p]);
            (ar[p], br[p]) = ((a_r + tr) >> 1, (a_r - tr) >> 1);
            (ai[p], bi[p]) = ((a_i + ti) >> 1, (a_i - ti) >> 1);
        }
    }
}

/// One stage of butterflies over any `i32` inputs: `t = w·b` from
/// saturating [`q15_mul`]s summed in `i64` and saturated, then
/// `(a ± t) >> 1`, which needs no clamp since `a` and `t` are `i32`.
/// `q15_mul` saturates in one case only: `w = -2^15`, the sine of the
/// `N/4` twiddle, times `b = i32::MIN`.
fn wide_stage(re: &mut [i32], im: &mut [i32], wr: &[i32], wi: &[i32]) {
    let half = wr.len();
    let wi = &wi[..half];
    for (re, im) in re
        .chunks_exact_mut(2 * half)
        .zip(im.chunks_exact_mut(2 * half))
    {
        let (ar, br) = re.split_at_mut(half);
        let (ai, bi) = im.split_at_mut(half);
        let (br, ai, bi) = (&mut br[..half], &mut ai[..half], &mut bi[..half]);
        for p in 0..half {
            let (w_r, w_i, b_r, b_i) = (wr[p], wi[p], br[p], bi[p]);
            let tr = sat32(i64::from(q15_mul(w_r, b_r)) - i64::from(q15_mul(w_i, b_i)));
            let ti = sat32(i64::from(q15_mul(w_r, b_i)) + i64::from(q15_mul(w_i, b_r)));
            let (a_r, a_i) = (ar[p], ai[p]);
            (ar[p], br[p]) = (half_sum(a_r, tr), half_diff(a_r, tr));
            (ai[p], bi[p]) = (half_sum(a_i, ti), half_diff(a_i, ti));
        }
    }
}

/// The `n`-point transform's Q15 twiddles, one contiguous run per
/// stage: the stage that joins `h`-point transforms reads
/// `W_n^{k·n/2h} = e^{-2πi·k(n/2h)/n}`, `k < h`, at `h - 1 .. 2h - 1`.
/// Built once per size, on first use.
fn stage_twiddles(n: usize, half: usize) -> (&'static [i32], &'static [i32]) {
    static TABLES: [OnceLock<(Vec<i32>, Vec<i32>)>; 10] = [const { OnceLock::new() }; 10];
    let stages = n.trailing_zeros();
    let (re, im) = TABLES[stages as usize - 3].get_or_init(|| {
        (0..stages)
            .flat_map(|log_half| {
                let step = n >> (log_half + 1);
                (0..1usize << log_half).map(move |k| {
                    let angle = -2.0 * PI * (k * step) as f64 / n as f64;
                    (to_q15(angle.cos()), to_q15(angle.sin()))
                })
            })
            .unzip()
    });
    (&re[half - 1..2 * half - 1], &im[half - 1..2 * half - 1])
}

/// Kernel description driving [`BlockRac`].
#[derive(Debug)]
pub struct DftKernel {
    points: usize,
    /// Working planes, kept across operations.
    planes: Planes,
}

impl BlockKernel for DftKernel {
    fn name(&self) -> &str {
        "spiral_dft"
    }

    fn input_len(&self, _op: u16) -> usize {
        self.points * 2
    }

    fn output_len(&self, _op: u16) -> Option<usize> {
        Some(self.points * 2)
    }

    fn latency(&self, _op: u16) -> u64 {
        dft_latency(self.points)
    }

    fn compute(&mut self, _op: u16, input: &[u32], output: &mut Vec<u32>) {
        self.planes.words_into(input, output);
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
        Self::from_kernel(DftKernel {
            points,
            planes: Planes::default(),
        })
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
    fn stage_twiddles_start_at_one_and_reach_minus_j() {
        // The first two stages are folded into the load on these values,
        // and the `i32` loop's range proof relies on `|w| ≤ 2^15`.
        for log_n in 3..=12 {
            let n = 1 << log_n;
            let mut half = 1;
            while half < n {
                let (wr, wi) = stage_twiddles(n, half);
                assert_eq!((wr[0], wi[0]), (Q15_ONE, 0), "{n} points, stage {half}");
                if half > 1 {
                    let quarter = (wr[half / 2], wi[half / 2]);
                    assert_eq!(quarter, (0, -Q15_ONE), "{n} points, stage {half}");
                }
                assert!(wr.iter().chain(wi).all(|w| w.abs() <= Q15_ONE));
                half *= 2;
            }
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
