//! Bit-for-bit oracle for the DFT data path.
//!
//! The farm's correctness check compares a job's output with
//! `dft_words` itself, so it cannot catch a kernel bug. This file keeps
//! the straightforward tuple-and-index form of the data path as a
//! reference: one `(re, im)` vector in bit-reversed order, each stage's
//! twiddle gathered from the `N`-point table at `pair * step`, every
//! product through the saturating `q15_mul` and every sum through
//! `sat32`. `dft_fixed`, `dft_words` and the RAC must match it exactly
//! on every size and on inputs that exercise every clamp.

use std::f64::consts::PI;

use ouessant_rac::dft::{dft_fixed, dft_words, DftRac};
use ouessant_rac::fixed::{q15_mul, sat32, to_q15};
use ouessant_rac::rac::RacSocket;
use ouessant_sim::rng::XorShift64;

/// Seeds per input class and size.
const SEEDS: u64 = 12;

/// Transform sizes, every power of two the core accepts.
fn sizes() -> impl Iterator<Item = usize> {
    (3..=12).map(|log_n| 1usize << log_n)
}

/// The `N`-point twiddle table `W_N^k = e^{-2πik/N}`, `k < N/2`, in Q15.
fn reference_twiddles(n: usize) -> Vec<(i32, i32)> {
    (0..n / 2)
        .map(|k| {
            let angle = -2.0 * PI * k as f64 / n as f64;
            (to_q15(angle.cos()), to_q15(angle.sin()))
        })
        .collect()
}

/// Whether every component lies in Q15's range `-2^15 ..= 2^15 - 1`.
fn in_q15(data: &[(i32, i32)]) -> bool {
    let q15 = -(1 << 15)..(1 << 15);
    data.iter()
        .all(|(re, im)| q15.contains(re) && q15.contains(im))
}

/// The reference transform, and for each stage after the first
/// whether its inputs were all in Q15.
fn reference_dft(input: &[(i32, i32)]) -> (Vec<(i32, i32)>, Vec<bool>) {
    let n = input.len();
    let stages = n.trailing_zeros();
    let mut data = vec![(0, 0); n];
    for (i, &x) in input.iter().enumerate() {
        data[i.reverse_bits() >> (usize::BITS - stages)] = x;
    }
    let twiddle = reference_twiddles(n);
    let mut domains = Vec::new();
    let mut half = 1usize;
    for _ in 0..stages {
        if half > 1 {
            domains.push(in_q15(&data));
        }
        let step = n / (2 * half);
        for group in 0..step {
            for pair in 0..half {
                let top = group * 2 * half + pair;
                let bot = top + half;
                let w = twiddle[pair * step];
                let (br, bi) = data[bot];
                let tr = sat32(i64::from(q15_mul(w.0, br)) - i64::from(q15_mul(w.1, bi)));
                let ti = sat32(i64::from(q15_mul(w.0, bi)) + i64::from(q15_mul(w.1, br)));
                let (ar, ai) = data[top];
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
    (data, domains)
}

/// The input classes, each a way to draw one component.
#[derive(Debug, Clone, Copy)]
enum Class {
    /// Any `i32`.
    FullRange,
    /// Mostly `i32::MIN`, `i32::MAX` and their neighbours, which drive
    /// every `q15_mul` and `sat32` clamp.
    Extremes,
    /// Any Q15 value; the edges of the range are drawn often.
    Q15,
    /// Q15 values at the edges of the range, which can grow past Q15
    /// in a middle stage.
    Q15Edges,
    /// Values a few bits above Q15, whose halving brings them into Q15
    /// in a middle stage.
    AboveQ15,
    /// One to three impulses at the edges of Q15 and of the bits just
    /// above it, the rest zeros: whole stages sit at the boundary of
    /// the `i32` loop's domain, and an impulse of `-2^18` meets the
    /// `-2^15` sine of the third stage as `-2^16`, whose product with
    /// it is `2^31`.
    Impulses,
}

const CLASSES: [Class; 6] = [
    Class::FullRange,
    Class::Extremes,
    Class::Q15,
    Class::Q15Edges,
    Class::AboveQ15,
    Class::Impulses,
];

impl Class {
    fn draw(self, rng: &mut XorShift64) -> i32 {
        const Q15_MIN: i32 = -(1 << 15);
        const Q15_MAX: i32 = (1 << 15) - 1;
        let pick = |rng: &mut XorShift64, values: &[i32]| {
            values[rng.gen_range_u32(0..values.len() as u32) as usize]
        };
        match self {
            Class::FullRange => rng.next_u32() as i32,
            Class::Extremes => match rng.gen_range_u32(0..8) {
                0 => rng.next_u32() as i32,
                _ => pick(
                    rng,
                    &[i32::MIN, i32::MIN + 1, i32::MAX, i32::MAX - 1, 0, -1],
                ),
            },
            Class::Q15 => match rng.gen_range_u32(0..4) {
                0 => pick(rng, &[Q15_MIN, Q15_MIN + 1, Q15_MAX, Q15_MAX - 1]),
                _ => rng.gen_range_i32(Q15_MIN..Q15_MAX + 1),
            },
            Class::Q15Edges => pick(rng, &[Q15_MIN, Q15_MIN + 1, Q15_MAX, Q15_MAX - 1]),
            Class::AboveQ15 => rng.gen_range_i32(-(1 << 18)..1 << 18),
            Class::Impulses => pick(
                rng,
                &[
                    Q15_MIN,
                    Q15_MAX,
                    -(1 << 16),
                    (1 << 16) - 1,
                    -(1 << 17),
                    (1 << 17) - 1,
                    -(1 << 18),
                    (1 << 18) - 1,
                    i32::MIN,
                    i32::MAX,
                ],
            ),
        }
    }

    fn samples(self, seed: u64, n: usize) -> Vec<(i32, i32)> {
        let mut rng = XorShift64::new(seed ^ ((n as u64) << 32));
        let Class::Impulses = self else {
            return (0..n)
                .map(|_| (self.draw(&mut rng), self.draw(&mut rng)))
                .collect();
        };
        let mut samples = vec![(0, 0); n];
        for _ in 0..rng.gen_range_u32(1..4) {
            let sample = &mut samples[rng.gen_range_u32(0..n as u32) as usize];
            if rng.gen_bool() {
                sample.0 = self.draw(&mut rng);
            } else {
                sample.1 = self.draw(&mut rng);
            }
        }
        samples
    }
}

fn words_of(samples: &[(i32, i32)]) -> Vec<u32> {
    samples
        .iter()
        .flat_map(|&(re, im)| [re as u32, im as u32])
        .collect()
}

#[test]
fn dft_fixed_and_dft_words_match_the_reference_bit_for_bit() {
    for class in CLASSES {
        for seed in 0..SEEDS {
            for n in sizes() {
                let input = class.samples(seed, n);
                let (expected, _) = reference_dft(&input);
                assert_eq!(
                    dft_fixed(&input),
                    expected,
                    "{class:?} seed {seed}, {n} points"
                );
                assert_eq!(
                    dft_words(&words_of(&input)),
                    words_of(&expected),
                    "{class:?} seed {seed}, {n} points, wire format"
                );
            }
        }
    }
}

/// The classes reach what they are for: within one transform, the
/// stages' inputs leave Q15 and enter it, so both butterfly loops run.
#[test]
fn input_classes_cover_both_domains_within_one_transform() {
    let changes = |class: Class, enters: bool| {
        (0..SEEDS).any(|seed| {
            sizes().any(|n| {
                let (_, domains) = reference_dft(&class.samples(seed, n));
                domains.windows(2).any(|w| w == [!enters, enters])
            })
        })
    };
    assert!(
        changes(Class::Q15Edges, false),
        "Q15 inputs leave Q15 mid-transform"
    );
    assert!(
        changes(Class::AboveQ15, true),
        "wider inputs enter Q15 mid-transform"
    );
}

/// The one case in which `q15_mul` saturates, and the twiddle that
/// reaches it: the `N/4` twiddle's sine is exactly `-2^15`.
#[test]
fn q15_mul_saturates_on_the_quarter_twiddle_sine() {
    assert_eq!(q15_mul(-32768, i32::MIN), i32::MAX);
    assert_eq!(q15_mul(-32768, i32::MIN + 1), i32::MAX);
    assert_eq!(q15_mul(32767, i32::MIN), -2_147_418_112);
    for n in sizes() {
        assert_eq!(reference_twiddles(n)[n / 4], (0, -32768), "{n} points");
        assert_eq!(reference_twiddles(n)[0], (32768, 0), "{n} points");
    }
}

/// One DFT RAC run over several blocks in turn matches the reference on
/// each: the buffers it keeps across operations carry nothing over.
#[test]
fn dft_rac_reusing_its_buffers_matches_the_reference() {
    for n in [8, 64, 512] {
        let mut socket = RacSocket::new(Box::new(DftRac::new(n)), 2 * n);
        for (round, class) in CLASSES.into_iter().enumerate() {
            let input = class.samples(round as u64, n);
            socket
                .push_inputs(0, &words_of(&input))
                .expect("sized to a block");
            socket.start(0);
            socket.run_until_done(1_000_000);
            let mut out = Vec::new();
            socket
                .pop_outputs(0, 2 * n, &mut out)
                .expect("one block out");
            assert_eq!(
                out,
                words_of(&reference_dft(&input).0),
                "{class:?}, {n} points"
            );
        }
    }
}
