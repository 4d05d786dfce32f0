//! A small deterministic PRNG for tests and workload generation.
//!
//! The repository builds with **no registry access**, so it cannot pull
//! `rand` or `proptest`. This xorshift64* generator replaces them for
//! every randomized-but-reproducible need: the randomized invariant
//! tests that used to be property tests, and the synthetic job mixes of
//! the serving-layer examples. Seeded runs are bit-for-bit repeatable
//! across platforms, which the simulation's determinism guarantee
//! requires anyway.

/// A xorshift64* pseudo-random generator (Vigna, 2016 variant).
///
/// Not cryptographic; period 2^64 − 1; passes the statistical tests that
/// matter for spreading test inputs around their domains.
///
/// # Examples
///
/// ```
/// use ouessant_sim::rng::XorShift64;
///
/// let mut a = XorShift64::new(42);
/// let mut b = XorShift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// assert!(a.gen_range_u32(10..20) >= 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from `seed` (a zero seed is remapped, since
    /// the all-zero state is a fixed point of the xorshift recurrence).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform draw from `range` (empty ranges panic).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    pub fn gen_range_u32(&mut self, range: std::ops::Range<u32>) -> u32 {
        assert!(range.start < range.end, "empty range");
        let span = u64::from(range.end - range.start);
        #[allow(clippy::cast_possible_truncation)] // below `span`, a `u32` difference
        let off = below(self.next_u64(), span) as u32;
        range.start + off
    }

    /// A uniform draw from `range` over `u64` (empty ranges panic).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    pub fn gen_range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + below(self.next_u64(), range.end - range.start)
    }

    /// A uniform draw from `range` over `i32` (empty ranges panic).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    #[allow(clippy::cast_possible_truncation)] // the draw lies inside `range`, an `i32` range
    pub fn gen_range_i32(&mut self, range: std::ops::Range<i32>) -> i32 {
        assert!(range.start < range.end, "empty range");
        let span = (i64::from(range.end) - i64::from(range.start)) as u64;
        let off = below(self.next_u64(), span) as i64;
        (i64::from(range.start) + off) as i32
    }

    /// One draw with [`OneIn`] odds: exactly the draw of
    /// `gen_range_u32(0..n) == 0` for the `n` the odds were made from,
    /// with the 64-bit `%` replaced by a multiply, a rotate and a
    /// compare.
    pub fn one_in(&mut self, odds: OneIn) -> bool {
        odds.hits(self.next_u64())
    }

    /// A fair coin.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `count` uniform words.
    pub fn vec_u32(&mut self, count: usize) -> Vec<u32> {
        (0..count).map(|_| self.next_u32()).collect()
    }
}

/// `x % span`, taken as a mask when `span` is a power of two (the two
/// are equal there, and the mask needs no division).
fn below(x: u64, span: u64) -> u64 {
    if span.is_power_of_two() {
        x & (span - 1)
    } else {
        x % span
    }
}

/// Odds of one in `n`, precomputed for [`XorShift64::one_in`].
///
/// `x % n == 0` is tested without a division (Hacker's Delight
/// §10-17): with `n = d·2^k`, `d` odd and `inv = d⁻¹ mod 2^64`, `x` is a
/// multiple of `n` exactly when `(x·inv).rotate_right(k)` is at most
/// `u64::MAX / n`. The multiply maps the multiples of `d` onto
/// `0..=u64::MAX / d` and every other `x` above it; the rotate moves a
/// nonzero low bit, left by a missing factor of two, to the top.
///
/// # Examples
///
/// ```
/// use ouessant_sim::rng::{OneIn, XorShift64};
///
/// let odds = OneIn::new(6);
/// let mut a = XorShift64::new(9);
/// let mut b = a.clone();
/// for _ in 0..100 {
///     assert_eq!(a.one_in(odds), b.gen_range_u32(0..6) == 0);
/// }
/// assert_eq!(a, b); // one draw each
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneIn {
    inv: u64,
    shift: u32,
    limit: u64,
}

impl OneIn {
    /// Odds of one in `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (as `gen_range_u32(0..0)` does).
    #[must_use]
    pub const fn new(n: u32) -> Self {
        assert!(n > 0, "empty range");
        let shift = n.trailing_zeros();
        let d = (n >> shift) as u64;
        // Newton's iteration doubles the correct low bits of an inverse;
        // an odd `d` is its own inverse to 3 bits, so five steps reach 96.
        let mut inv = d;
        let mut step = 0;
        while step < 5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(d.wrapping_mul(inv)));
            step += 1;
        }
        Self {
            inv,
            shift,
            limit: u64::MAX / n as u64,
        }
    }

    /// Whether `x` is a multiple of `n`.
    fn hits(self, x: u64) -> bool {
        x.wrapping_mul(self.inv).rotate_right(self.shift) <= self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn ranges_respected() {
        let mut r = XorShift64::new(1);
        for _ in 0..1000 {
            let v = r.gen_range_u32(5..17);
            assert!((5..17).contains(&v));
            let s = r.gen_range_i32(-100..100);
            assert!((-100..100).contains(&s));
        }
    }

    #[test]
    fn covers_its_range() {
        let mut r = XorShift64::new(3);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[r.gen_range_u32(0..8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    /// The divisors the odds are checked at: the small ones, every
    /// power of two a `u32` holds, the chaos seams' rates and the
    /// largest.
    fn boundary_divisors() -> Vec<u32> {
        let mut ns = vec![1, 2, 3, 10_000, 18_000, 25_000, 60_000];
        ns.extend((0..32).map(|k| 1u32 << k));
        ns.extend([u32::MAX - 1, u32::MAX]);
        ns
    }

    #[test]
    fn one_in_is_the_remainder_test() {
        let mut r = XorShift64::new(0x0DD5);
        for n in boundary_divisors() {
            let odds = OneIn::new(n);
            let n64 = u64::from(n);
            let top = u64::MAX - u64::MAX % n64;
            let mut xs = vec![0, n64, 2 * n64, 3 * n64, n64 - 1, n64 + 1, u64::MAX, top];
            xs.extend([top - n64, top - 1, top.wrapping_add(1)]);
            xs.extend((0..2_000).map(|_| r.next_u64()));
            // Drawn multiples, and their neighbours.
            for _ in 0..2_000 {
                let m = r.next_u64() / n64 * n64;
                xs.extend([m, m.wrapping_add(1), m.wrapping_sub(1)]);
            }
            for x in xs {
                assert_eq!(odds.hits(x), x % n64 == 0, "x = {x:#x}, n = {n}");
            }
        }
    }

    #[test]
    fn one_in_draws_like_gen_range() {
        for n in boundary_divisors() {
            let odds = OneIn::new(n);
            let mut a = XorShift64::new(u64::from(n));
            let mut b = a.clone();
            for _ in 0..1_000 {
                assert_eq!(a.one_in(odds), b.gen_range_u32(0..n) == 0, "n = {n}");
                assert_eq!(a, b, "one draw each, n = {n}");
            }
        }
    }

    /// The mask taken at power-of-two spans draws what the remainder
    /// does: each range draw against `x % span` of the same word, at
    /// every power of two its type spans and their neighbours.
    #[test]
    fn gen_range_is_the_remainder_of_one_draw() {
        for seed in 1..=64u64 {
            let mut r = XorShift64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for k in 0..64 {
                for span in [(1u64 << k) - 1, 1 << k, (1 << k) + 1] {
                    if span == 0 {
                        continue;
                    }
                    let x = r.clone().next_u64();
                    let start = seed.min(u64::MAX - span);
                    assert_eq!(r.gen_range_u64(start..start + span), start + x % span);
                    let start = seed.saturating_sub(1);
                    if let Ok(end) = u32::try_from(start + span) {
                        let x = r.clone().next_u64();
                        let want = start + x % span;
                        let got = r.gen_range_u32(u32::try_from(start).unwrap()..end);
                        assert_eq!(u64::from(got), want, "span {span}");
                    }
                    let start = -i128::from(seed * 1000);
                    if let Ok(end) = i32::try_from(start + i128::from(span)) {
                        let x = r.clone().next_u64();
                        let want = start + i128::from(x % span);
                        let got = r.gen_range_i32(i32::try_from(start).unwrap()..end);
                        assert_eq!(i128::from(got), want, "span {span}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn one_in_zero_panics() {
        let _ = OneIn::new(0);
    }
}
