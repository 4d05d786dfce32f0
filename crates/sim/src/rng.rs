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
        let off = (self.next_u64() % span) as u32;
        range.start + off
    }

    /// A uniform draw from `range` over `u64` (empty ranges panic).
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    pub fn gen_range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        range.start + self.next_u64() % (range.end - range.start)
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
        let off = (self.next_u64() % span) as i64;
        (i64::from(range.start) + off) as i32
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
}
