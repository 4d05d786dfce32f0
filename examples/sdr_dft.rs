//! Software-defined-radio channel scan: repeated 256-point DFTs.
//!
//! The paper's second RAC is the Spiral 256-point DFT. A classic use is
//! spectral scanning in an SDR front end: transform frame after frame
//! of complex baseband samples and look for energy. This example runs
//! a multi-frame scan through the DFT OCP (one offload per frame, as
//! the paper's driver does), finds the occupied bins, and compares
//! against the soft-float software FFT that a Leon3 without FPU would
//! run.
//!
//! ```text
//! cargo run --example sdr_dft
//! ```

use std::f64::consts::PI;

use ouessant_isa::ProgramBuilder;
use ouessant_rac::dft::DftRac;
use ouessant_rac::fixed::{from_q15, to_q15};
use ouessant_sim::{Cycle, Frequency};
use ouessant_soc::cpu::CostModel;
use ouessant_soc::driver::OuessantDevice;
use ouessant_soc::os::OsModel;
use ouessant_soc::sw::sw_fft_f64;

const N: usize = 256;
const FRAMES: usize = 4;
/// The tones hidden in each frame (bin, amplitude).
const TONES: [(usize, f64); 3] = [(20, 0.45), (77, 0.30), (200, 0.20)];

fn frame(seed: usize) -> Vec<(f64, f64)> {
    (0..N)
        .map(|t| {
            let mut re = 0.0;
            let mut im = 0.0;
            for &(bin, amp) in &TONES {
                let phase = 2.0 * PI * (bin * t) as f64 / N as f64 + seed as f64;
                re += amp * phase.cos();
                im += amp * phase.sin();
            }
            (re / 2.0, im / 2.0)
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One microcode program, reused for every frame: Figure 4 exactly.
    let program = ProgramBuilder::new()
        .transfer_to_coprocessor(1, 0, (N * 2) as u32, 64, 0)?
        .execs()
        .transfer_from_coprocessor(2, 0, (N * 2) as u32, 64, 0)?
        .eop()
        .finish()?;
    println!(
        "scanning {FRAMES} frames of {N} complex samples ({}-instruction microcode per frame)",
        program.len()
    );

    let mut dev = OuessantDevice::open(Box::new(DftRac::new(N)), OsModel::linux_mmap());
    dev.load_microcode(&program)?;

    let clock = Frequency::PAPER_SYSTEM_CLOCK;
    let mut hw_total = 0u64;
    let mut sw_total = 0u64;

    for f in 0..FRAMES {
        let samples = frame(f);
        let words: Vec<u32> = samples
            .iter()
            .flat_map(|&(re, im)| [to_q15(re) as u32, to_q15(im) as u32])
            .collect();
        dev.write_input(&words)?;
        hw_total += dev.submit_and_wait()?.total_cycles();

        // Read the spectrum back and pick peaks.
        let out = dev.read_output(N * 2)?;
        let spectrum: Vec<f64> = out
            .chunks_exact(2)
            .map(|w| {
                let re = from_q15(w[0] as i32);
                let im = from_q15(w[1] as i32);
                (re * re + im * im).sqrt()
            })
            .collect();
        let mut peaks: Vec<(usize, f64)> = spectrum
            .iter()
            .enumerate()
            .filter(|(_, &m)| m > 0.05)
            .map(|(k, &m)| (k, m))
            .collect();
        peaks.sort_by(|a, b| b.1.total_cmp(&a.1));
        let bins: Vec<usize> = peaks.iter().map(|&(k, _)| k).collect();
        println!("frame {f}: occupied bins {bins:?}");
        for &(bin, _) in &TONES {
            assert!(bins.contains(&bin), "tone at bin {bin} must be detected");
        }

        // The software radio would have burned:
        let float_in = samples.clone();
        let mut cpu = CostModel::leon3();
        let _ = sw_fft_f64(&mut cpu, &float_in);
        sw_total += cpu.cycles();
    }

    println!();
    println!(
        "hardware: {hw_total} cycles = {:?} at {clock}",
        clock.duration_of(Cycle::new(hw_total))
    );
    println!(
        "software: {sw_total} cycles = {:?} (soft-float FFT on the no-FPU Leon3)",
        clock.duration_of(Cycle::new(sw_total))
    );
    println!(
        "scan speedup: {:.1}x (paper's single-transform gain: 85)",
        sw_total as f64 / hw_total as f64
    );
    Ok(())
}
