//! The 2-D Inverse Discrete Cosine Transform RAC.
//!
//! The paper's first evaluation accelerator is "a locally developed 2D
//! Inverse Discrete Cosine Transform (IDCT) for JPEG decoding" with a
//! processing latency of 18 cycles per 8×8 block (Table I, *Lat.*). This
//! module provides:
//!
//! * [`idct_2d_f64`] — the real-valued reference (golden model);
//! * [`idct_2d_fixed`] — the bit-exact integer data path used by both
//!   the RAC and the software baseline (so hardware offload and software
//!   fallback produce identical pixels, as a JPEG decoder requires);
//! * [`IdctRac`] — the accelerator: one 64-word block in, 18 cycles of
//!   compute, one 64-word block out.
//!
//! The fixed-point data path is a direct-form separable IDCT with a
//! 14-bit cosine table and 64-bit accumulators; its error versus the
//! golden model is below one LSB for JPEG-range coefficients (verified
//! by property tests).

use std::f64::consts::PI;
use std::sync::OnceLock;

use crate::block::{BlockKernel, BlockRac};

/// Words per 8×8 block (one coefficient per 32-bit word).
pub const BLOCK_LEN: usize = 64;

/// The paper's processing latency for one block, in cycles.
pub const IDCT_LATENCY: u64 = 18;

/// Fractional bits of the cosine table.
const SCALE_BITS: u32 = 14;
/// Extra precision bits carried between the two 1-D passes.
const PASS_BITS: u32 = 3;

/// `table[u][x]` = `c(u)/2 · cos((2x+1)uπ/16)` in `SCALE_BITS` fixed
/// point, with `c(0) = 1/√2` and `c(u>0) = 1`, built on first use.
fn cos_table() -> &'static [[i32; 8]; 8] {
    static TABLE: OnceLock<[[i32; 8]; 8]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0i32; 8]; 8];
        for (u, row) in t.iter_mut().enumerate() {
            let cu = if u == 0 { (0.5f64).sqrt() } else { 1.0 };
            for (x, e) in row.iter_mut().enumerate() {
                let v = cu / 2.0 * ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos();
                #[allow(clippy::cast_possible_truncation)] // |v| ≤ 1/2, so |e| ≤ 2^13
                let scaled = (v * f64::from(1 << SCALE_BITS)).round() as i32;
                *e = scaled;
            }
        }
        t
    })
}

/// Reference 2-D IDCT over `f64`, row-column decomposition.
///
/// `coeffs` and the result are in row-major order.
///
/// # Panics
///
/// Panics if `coeffs` is not 64 elements long.
#[must_use]
pub fn idct_2d_f64(coeffs: &[f64]) -> Vec<f64> {
    assert_eq!(coeffs.len(), BLOCK_LEN, "an 8x8 block has 64 coefficients");
    let idct_1d = |input: &[f64; 8]| -> [f64; 8] {
        let mut out = [0.0f64; 8];
        for (x, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (u, &s) in input.iter().enumerate() {
                let cu = if u == 0 { (0.5f64).sqrt() } else { 1.0 };
                acc += cu / 2.0 * s * ((2 * x + 1) as f64 * u as f64 * PI / 16.0).cos();
            }
            *o = acc;
        }
        out
    };
    // Rows, then columns.
    let mut tmp = [0.0f64; BLOCK_LEN];
    for r in 0..8 {
        let mut row = [0.0f64; 8];
        row.copy_from_slice(&coeffs[r * 8..r * 8 + 8]);
        let out = idct_1d(&row);
        tmp[r * 8..r * 8 + 8].copy_from_slice(&out);
    }
    let mut result = vec![0.0f64; BLOCK_LEN];
    for c in 0..8 {
        let mut col = [0.0f64; 8];
        for r in 0..8 {
            col[r] = tmp[r * 8 + c];
        }
        let out = idct_1d(&col);
        for r in 0..8 {
            result[r * 8 + c] = out[r];
        }
    }
    result
}

/// Bit-exact integer 2-D IDCT (the hardware data path).
///
/// Input coefficients are `i32` in the JPEG dequantized range
/// (±2048·scale); the output is the reconstructed sample block. The
/// identical function is called by the software baseline in
/// `ouessant-soc`, so accelerator and CPU agree bit-for-bit.
///
/// # Panics
///
/// Panics if `coeffs` is not 64 elements long.
#[must_use]
pub fn idct_2d_fixed(coeffs: &[i32]) -> Vec<i32> {
    assert_eq!(coeffs.len(), BLOCK_LEN, "an 8x8 block has 64 coefficients");
    idct_2d(|i| coeffs[i]).to_vec()
}

/// [`idct_2d_fixed`] on the wire format: one two's-complement
/// coefficient per 32-bit word in, one sample per word out, as the
/// accelerator's FIFOs carry them.
///
/// # Panics
///
/// Panics if `words` is not 64 words long.
#[must_use]
pub fn idct_words(words: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(BLOCK_LEN);
    idct_words_into(words, &mut out);
    out
}

/// [`idct_words`], appending the samples to `out`.
fn idct_words_into(words: &[u32], out: &mut Vec<u32>) {
    assert_eq!(words.len(), BLOCK_LEN, "an 8x8 block has 64 coefficients");
    out.extend(idct_2d(|i| words[i] as i32).map(|v| v as u32));
}

/// The data path of [`idct_2d_fixed`] over the coefficients
/// `coeff(0..64)`, in row-major order.
fn idct_2d(coeff: impl Fn(usize) -> i32) -> [i32; BLOCK_LEN] {
    let table = cos_table();
    // Pass 1 (rows): keep PASS_BITS extra fraction bits.
    let mut tmp = [0i64; BLOCK_LEN];
    for r in 0..8 {
        for x in 0..8 {
            let mut acc: i64 = 0;
            for (u, row) in table.iter().enumerate() {
                acc += i64::from(coeff(r * 8 + u)) * i64::from(row[x]);
            }
            let shift = SCALE_BITS - PASS_BITS;
            tmp[r * 8 + x] = (acc + (1 << (shift - 1))) >> shift;
        }
    }
    // Pass 2 (columns): remove table scale plus the extra pass bits.
    let mut out = [0i32; BLOCK_LEN];
    for c in 0..8 {
        for x in 0..8 {
            let mut acc: i64 = 0;
            for u in 0..8 {
                acc += tmp[u * 8 + c] * i64::from(table[u][x]);
            }
            let shift = SCALE_BITS + PASS_BITS;
            // The output word keeps the low 32 bits; JPEG-range
            // coefficients give samples far inside `i32`.
            #[allow(clippy::cast_possible_truncation)]
            let sample = ((acc + (1 << (shift - 1))) >> shift) as i32;
            out[x * 8 + c] = sample;
        }
    }
    out
}

/// Kernel description driving [`BlockRac`].
#[derive(Debug, Default)]
pub struct IdctKernel;

impl BlockKernel for IdctKernel {
    fn name(&self) -> &str {
        "idct2d"
    }

    fn input_len(&self, _op: u16) -> usize {
        BLOCK_LEN
    }

    fn output_len(&self, _op: u16) -> Option<usize> {
        Some(BLOCK_LEN)
    }

    fn latency(&self, _op: u16) -> u64 {
        IDCT_LATENCY
    }

    fn compute(&mut self, _op: u16, input: &[u32], output: &mut Vec<u32>) {
        idct_words_into(input, output);
    }
}

/// The 2-D IDCT accelerator: the paper's first RAC.
///
/// # Examples
///
/// ```
/// use ouessant_rac::idct::{idct_2d_fixed, IdctRac, BLOCK_LEN};
/// use ouessant_rac::rac::RacSocket;
///
/// let block: Vec<i32> = (0..64).map(|i| if i == 0 { 512 } else { 0 }).collect();
/// let mut socket = RacSocket::new(Box::new(IdctRac::new()), 128);
/// for &c in &block {
///     socket.push_input(0, c as u32)?;
/// }
/// socket.start(0);
/// socket.run_until_done(1_000);
/// let hw: Vec<i32> = (0..BLOCK_LEN)
///     .map(|_| socket.pop_output(0).map(|w| w as i32))
///     .collect::<Result<_, _>>()?;
/// assert_eq!(hw, idct_2d_fixed(&block)); // bit-exact vs the data path
/// # Ok::<(), ouessant_rac::rac::RacError>(())
/// ```
pub type IdctRac = BlockRac<IdctKernel>;

impl BlockRac<IdctKernel> {
    /// Creates the IDCT accelerator.
    #[must_use]
    pub fn new() -> Self {
        Self::from_kernel(IdctKernel)
    }
}

impl Default for BlockRac<IdctKernel> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rac::{Rac, RacSocket};

    #[test]
    fn dc_only_block_is_flat() {
        // A DC-only input produces a constant block: out = dc/8.
        let mut coeffs = [0i32; BLOCK_LEN];
        coeffs[0] = 800;
        let out = idct_2d_fixed(&coeffs);
        let expected = 100; // 800 / 8
        for &v in &out {
            assert!((v - expected).abs() <= 1, "got {v}, want ~{expected}");
        }
    }

    #[test]
    fn zero_block_is_zero() {
        let out = idct_2d_fixed(&[0; BLOCK_LEN]);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn fixed_matches_golden_model() {
        // Deterministic pseudo-random JPEG-range coefficients.
        let mut state = 0x1234_5678u32;
        let mut next = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            ((state >> 16) as i32 % 2048) - 1024
        };
        for _ in 0..16 {
            let coeffs: Vec<i32> = (0..BLOCK_LEN).map(|_| next()).collect();
            let golden = idct_2d_f64(&coeffs.iter().map(|&c| f64::from(c)).collect::<Vec<_>>());
            let fixed = idct_2d_fixed(&coeffs);
            for (f, g) in fixed.iter().zip(&golden) {
                assert!((f64::from(*f) - g).abs() <= 1.0, "fixed {f} vs golden {g}");
            }
        }
    }

    #[test]
    fn f64_idct_inverts_known_energy() {
        // Parseval-ish sanity: IDCT of a unit impulse at (0,0) has total
        // energy 1 (orthonormal transform).
        let mut coeffs = vec![0.0; BLOCK_LEN];
        coeffs[0] = 1.0;
        let out = idct_2d_f64(&coeffs);
        let energy: f64 = out.iter().map(|v| v * v).sum();
        assert!((energy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rac_latency_matches_table1() {
        let mut s = RacSocket::new(Box::new(IdctRac::new()), 128);
        for i in 0..BLOCK_LEN {
            s.push_input(0, i as u32).unwrap();
        }
        s.start(0);
        // Lat. = 18 compute cycles (+1 cycle pushing into the output
        // FIFO, which the paper's "data transfer not considered" excludes
        // but our end_op includes).
        let cycles = s.run_until_done(1000);
        assert_eq!(cycles, IDCT_LATENCY + 1);
    }

    #[test]
    fn rac_output_matches_data_path() {
        let coeffs: Vec<i32> = (0..64).map(|i| (i * 37 % 503) - 251).collect();
        let mut s = RacSocket::new(Box::new(IdctRac::new()), 128);
        for &c in &coeffs {
            s.push_input(0, c as u32).unwrap();
        }
        s.start(0);
        s.run_until_done(1000);
        let hw: Vec<i32> = (0..BLOCK_LEN)
            .map(|_| s.pop_output(0).unwrap() as i32)
            .collect();
        assert_eq!(hw, idct_2d_fixed(&coeffs));
    }

    #[test]
    fn rac_processes_blocks_back_to_back() {
        let mut s = RacSocket::new(Box::new(IdctRac::new()), 256);
        for round in 0..3 {
            let coeffs: Vec<i32> = (0..64).map(|i| i + round * 100).collect();
            for &c in &coeffs {
                s.push_input(0, c as u32).unwrap();
            }
            s.start(0);
            s.run_until_done(1000);
            let hw: Vec<i32> = (0..BLOCK_LEN)
                .map(|_| s.pop_output(0).unwrap() as i32)
                .collect();
            assert_eq!(hw, idct_2d_fixed(&coeffs), "round {round}");
        }
    }

    #[test]
    fn rac_metadata() {
        let r = IdctRac::new();
        assert_eq!(r.name(), "idct2d");
        assert_eq!(r.num_input_fifos(), 1);
        assert_eq!(r.num_output_fifos(), 1);
        assert!(!r.busy());
    }

    #[test]
    #[should_panic(expected = "64 coefficients")]
    fn wrong_block_size_panics() {
        let _ = idct_2d_fixed(&[0; 32]);
    }
}
