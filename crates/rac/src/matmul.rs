//! A blocked matrix-multiply RAC.
//!
//! A third accelerator class beyond the paper's two (transform-style
//! IDCT/DFT): dense linear algebra. It demonstrates the `exec`
//! operation tag carrying *configuration* — the paper notes "a
//! dedicated configuration FIFO can be added if the accelerator
//! requires additional configuration"; for a square matrix multiply the
//! single dimension fits in the 16-bit tag, so no extra FIFO is needed.
//!
//! Protocol: `exec n` consumes two row-major `n×n` `i32` matrices from
//! FIFO0 (A then B) and produces `C = A·B` (wrapping arithmetic, as a
//! fixed-width hardware MAC array would).

use crate::block::{BlockKernel, BlockRac};

/// Maximum supported dimension (bounded by the FIFO/BRAM budget).
pub const MAX_DIM: usize = 64;

/// Reference implementation shared by tests and the software baseline:
/// row-major `n×n` multiply with wrapping arithmetic.
///
/// # Panics
///
/// Panics unless `a` and `b` are `n*n` long and `1 <= n <= 64`.
#[must_use]
pub fn matmul_i32(n: usize, a: &[i32], b: &[i32]) -> Vec<i32> {
    assert!((1..=MAX_DIM).contains(&n), "dimension {n} outside 1..=64");
    assert_eq!(a.len(), n * n, "A must be n*n");
    assert_eq!(b.len(), n * n, "B must be n*n");
    let mut c = vec![0i32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0i32;
            for k in 0..n {
                acc = acc.wrapping_add(a[i * n + k].wrapping_mul(b[k * n + j]));
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Latency model: a systolic row of `n` MACs computes one output row
/// per `n` cycles after an `n`-cycle fill, so `n² + n` cycles per
/// product, plus load/unload of `2n²` input and `n²` output words at
/// one word per cycle and a small pipeline constant.
#[must_use]
pub fn matmul_latency(n: usize) -> u64 {
    let n = n as u64;
    n * n + n + 3 * n * n + 8
}

/// Kernel description driving [`BlockRac`].
#[derive(Debug, Default)]
pub struct MatMulKernel;

impl BlockKernel for MatMulKernel {
    fn name(&self) -> &str {
        "matmul"
    }

    fn input_len(&self, op: u16) -> usize {
        let n = usize::from(op).clamp(1, MAX_DIM);
        2 * n * n
    }

    fn output_len(&self, op: u16) -> Option<usize> {
        let n = usize::from(op).clamp(1, MAX_DIM);
        Some(n * n)
    }

    fn latency(&self, op: u16) -> u64 {
        matmul_latency(usize::from(op).clamp(1, MAX_DIM))
    }

    fn compute(&mut self, op: u16, input: &[u32], output: &mut Vec<u32>) {
        let n = usize::from(op).clamp(1, MAX_DIM);
        let a: Vec<i32> = input[..n * n].iter().map(|&w| w as i32).collect();
        let b: Vec<i32> = input[n * n..].iter().map(|&w| w as i32).collect();
        output.extend(matmul_i32(n, &a, &b).into_iter().map(|v| v as u32));
    }
}

/// The matrix-multiply accelerator.
///
/// # Examples
///
/// ```
/// use ouessant_rac::matmul::{matmul_i32, MatMulRac};
/// use ouessant_rac::rac::RacSocket;
///
/// let n = 2;
/// let a = [1, 2, 3, 4];
/// let b = [5, 6, 7, 8];
/// let mut s = RacSocket::new(Box::new(MatMulRac::new()), 64);
/// for &v in a.iter().chain(&b) {
///     s.push_input(0, v as u32)?;
/// }
/// s.start(n as u16);
/// s.run_until_done(10_000);
/// let c: Vec<i32> = (0..4).map(|_| s.pop_output(0).map(|w| w as i32))
///     .collect::<Result<_, _>>()?;
/// assert_eq!(c, matmul_i32(n, &a, &b)); // [19, 22, 43, 50]
/// # Ok::<(), ouessant_rac::rac::RacError>(())
/// ```
pub type MatMulRac = BlockRac<MatMulKernel>;

impl BlockRac<MatMulKernel> {
    /// Creates the accelerator.
    #[must_use]
    pub fn new() -> Self {
        Self::from_kernel(MatMulKernel)
    }
}

impl Default for BlockRac<MatMulKernel> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rac::RacSocket;

    #[test]
    fn identity_matrix_is_neutral() {
        let n = 4;
        let mut ident = vec![0i32; n * n];
        for i in 0..n {
            ident[i * n + i] = 1;
        }
        let m: Vec<i32> = (0..(n * n) as i32).collect();
        assert_eq!(matmul_i32(n, &ident, &m), m);
        assert_eq!(matmul_i32(n, &m, &ident), m);
    }

    #[test]
    fn known_2x2_product() {
        assert_eq!(
            matmul_i32(2, &[1, 2, 3, 4], &[5, 6, 7, 8]),
            vec![19, 22, 43, 50]
        );
    }

    #[test]
    fn associativity_on_small_matrices() {
        let n = 3;
        let a: Vec<i32> = (1..=9).collect();
        let b: Vec<i32> = (2..=10).collect();
        let c: Vec<i32> = (3..=11).collect();
        let left = matmul_i32(n, &matmul_i32(n, &a, &b), &c);
        let right = matmul_i32(n, &a, &matmul_i32(n, &b, &c));
        assert_eq!(left, right);
    }

    #[test]
    fn rac_matches_reference() {
        let n = 8usize;
        let a: Vec<i32> = (0..n * n).map(|i| (i as i32 * 7) % 100 - 50).collect();
        let b: Vec<i32> = (0..n * n).map(|i| (i as i32 * 13) % 90 - 45).collect();
        let mut s = RacSocket::new(Box::new(MatMulRac::new()), 4 * n * n);
        for &v in a.iter().chain(&b) {
            s.push_input(0, v as u32).unwrap();
        }
        s.start(n as u16);
        s.run_until_done(1_000_000);
        let c: Vec<i32> = (0..n * n)
            .map(|_| s.pop_output(0).unwrap() as i32)
            .collect();
        assert_eq!(c, matmul_i32(n, &a, &b));
    }

    #[test]
    fn latency_scales_quadratically() {
        let l8 = matmul_latency(8);
        let l16 = matmul_latency(16);
        let l32 = matmul_latency(32);
        assert!(l16 > 3 * l8 && l16 < 5 * l8);
        assert!(l32 > 3 * l16 && l32 < 5 * l16);
    }

    #[test]
    fn rac_latency_model_respected() {
        let n = 4usize;
        let mut s = RacSocket::new(Box::new(MatMulRac::new()), 4 * n * n);
        for v in 0..(2 * n * n) as u32 {
            s.push_input(0, v).unwrap();
        }
        s.start(n as u16);
        let cycles = s.run_until_done(1_000_000);
        assert_eq!(cycles, matmul_latency(n) + 1);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn oversized_dimension_panics() {
        let _ = matmul_i32(65, &[], &[]);
    }
}
