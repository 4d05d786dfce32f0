//! Host timing of the block kernels' bit-true data paths: the median
//! wall time per call of `dft_words` at 64, 256 and 4096 points and of
//! `idct_words`, over seeded inputs.
//!
//! Run it with `cargo run --release --offline -p ouessant-rac --example
//! kernel_bench`. Timings are only comparable on one host, between
//! builds run back to back; alternate the builds you compare, since
//! host speed drifts.
//!
//! The DFT inputs are drawn from `-1024..1024`, the range of the
//! benchmark's DFT payloads, so every stage stays in Q15; the
//! `full-range` row draws any `i32` word.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ouessant_rac::dft::dft_words;
use ouessant_rac::idct::{idct_words, BLOCK_LEN};
use ouessant_sim::rng::XorShift64;

/// Distinct seeded inputs per kernel, cycled through while timing.
const INPUTS: usize = 8;
/// Timed samples per kernel; the median is reported.
const SAMPLES: usize = 21;
/// Wall time one sample aims at.
const SAMPLE_TIME: Duration = Duration::from_millis(4);

fn main() {
    let mut rng = XorShift64::new(0x6B65_726E_656C);
    for points in [64, 256, 4096] {
        let inputs = words(&mut rng, 2 * points, |rng| rng.gen_range_i32(-1024..1024));
        report(&format!("dft_words {points}"), &inputs, dft_words);
    }
    let full = words(&mut rng, 2 * 4096, |rng| rng.next_u32() as i32);
    report("dft_words 4096 full-range", &full, dft_words);
    let blocks = words(&mut rng, BLOCK_LEN, |rng| rng.gen_range_i32(-2048..2048));
    report("idct_words", &blocks, idct_words);
}

fn words(
    rng: &mut XorShift64,
    len: usize,
    mut draw: impl FnMut(&mut XorShift64) -> i32,
) -> Vec<Vec<u32>> {
    (0..INPUTS)
        .map(|_| (0..len).map(|_| draw(rng) as u32).collect())
        .collect()
}

/// Times `kernel` over `inputs` and prints the median ns per call.
fn report(name: &str, inputs: &[Vec<u32>], kernel: fn(&[u32]) -> Vec<u32>) {
    let run = |calls: usize| {
        let start = Instant::now();
        for input in inputs.iter().cycle().take(calls) {
            black_box(kernel(black_box(input)));
        }
        start.elapsed()
    };
    // Warm up (the twiddle tables are built on first use), then size a
    // sample to about `SAMPLE_TIME`.
    let once = run(inputs.len()) / u32::try_from(inputs.len()).expect("few inputs");
    let calls = (SAMPLE_TIME.as_nanos() / once.as_nanos().max(1)).max(1);
    let calls = usize::try_from(calls).expect("a sample's call count fits usize");
    let mut per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| run(calls).as_secs_f64() * 1e9 / calls as f64)
        .collect();
    per_call.sort_by(f64::total_cmp);
    let (q1, median, q3) = (
        per_call[SAMPLES / 4],
        per_call[SAMPLES / 2],
        per_call[3 * SAMPLES / 4],
    );
    println!(
        "{name:<28} {median:>12.0} ns/call  (quartiles {q1:.0}..{q3:.0}; \
         {SAMPLES} samples of {calls} calls)"
    );
}
