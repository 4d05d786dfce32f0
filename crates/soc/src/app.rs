//! The application layer: the paper's §IV usage model and the §V
//! experiments.
//!
//! "In an Ouessant-accelerated application, the program configures the
//! Ouessant, providing its parameters (pointers to arrays), launches the
//! computation and waits for the results." This module is that program,
//! for both of the paper's workloads, plus the software-only variants —
//! which together regenerate **Table I** and the in-text §V-B numbers.
//! Every offload goes through the §IV driver, [`OuessantDevice`], which
//! charges the OS overhead.

use std::error::Error;
use std::fmt;

use ouessant_isa::{Program, ProgramBuilder};
use ouessant_rac::dft::{dft_latency, DftRac};
use ouessant_rac::fixed::to_q15;
use ouessant_rac::idct::{IdctRac, BLOCK_LEN, IDCT_LATENCY};

use crate::cpu::{CostModel, CpuCosts};
use crate::driver::{DriverError, DriverStats, OuessantDevice};
use crate::os::OsModel;
use crate::soc::{CompletionMode, SocConfig};
use crate::sw::{sw_fft_f64, sw_idct_8x8};

/// Error type of the experiment runners.
#[derive(Debug)]
pub enum AppError {
    /// The offload through the driver failed.
    Driver(DriverError),
    /// Building the microcode failed (invalid parameters).
    Microcode(String),
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppError::Driver(e) => write!(f, "{e}"),
            AppError::Microcode(m) => write!(f, "microcode generation failed: {m}"),
        }
    }
}

impl Error for AppError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AppError::Driver(e) => Some(e),
            AppError::Microcode(_) => None,
        }
    }
}

impl From<DriverError> for AppError {
    fn from(e: DriverError) -> Self {
        AppError::Driver(e)
    }
}

/// Experiment parameters shared by every run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// The SoC (bus, SRAM, completion mode).
    pub soc: SocConfig,
    /// The OS/driver overhead model.
    pub os: OsModel,
    /// CPU cost calibration for the software baselines.
    pub cpu: CpuCosts,
    /// DMA burst length for the generated microcode (the paper's
    /// Figure 4 uses `DMA64`).
    pub burst: u16,
    /// DFT size in complex points (the paper uses 256).
    pub dft_points: usize,
}

impl ExperimentConfig {
    /// The configuration of the paper's Table I: Linux with the mmap
    /// driver, interrupt completion, DMA64 microcode, 256-point DFT.
    #[must_use]
    pub fn paper_linux() -> Self {
        Self {
            soc: SocConfig {
                completion: CompletionMode::Interrupt,
                ..SocConfig::default()
            },
            os: OsModel::linux_mmap(),
            cpu: CpuCosts::leon3(),
            burst: 64,
            dft_points: 256,
        }
    }

    /// The §V-B baremetal variant ("without Linux, the DFT took 4000
    /// cycles").
    #[must_use]
    pub fn paper_baremetal() -> Self {
        Self {
            os: OsModel::Baremetal,
            ..Self::paper_linux()
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper_linux()
    }
}

/// One row of the reproduced Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Workload name (`IDCT` or `DFT`).
    pub name: String,
    /// Accelerator processing latency in cycles (*Lat.*).
    pub latency: u64,
    /// Hardware-offload time in cycles (*HW*): machine cycles plus OS
    /// overhead.
    pub hw_cycles: u64,
    /// Software baseline time in cycles (*SW*).
    pub sw_cycles: u64,
    /// Acceleration factor (*Gain* = SW / HW).
    pub gain: f64,
    /// Machine-level breakdown (before OS overhead).
    pub machine_cycles: u64,
    /// OS overhead the driver charged.
    pub os_overhead: u64,
    /// Data words moved.
    pub words: u64,
}

impl Table1Row {
    fn new(name: &str, latency: u64, stats: DriverStats, sw_cycles: u64) -> Self {
        let hw_cycles = stats.total_cycles();
        Self {
            name: name.to_string(),
            latency,
            hw_cycles,
            sw_cycles,
            gain: sw_cycles as f64 / hw_cycles as f64,
            machine_cycles: stats.machine_cycles,
            os_overhead: stats.os_cycles,
            words: stats.words_transferred,
        }
    }
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<6} Lat. {:>6}  HW {:>8}  SW {:>8}  Gain {:>6.2}",
            self.name, self.latency, self.hw_cycles, self.sw_cycles, self.gain
        )
    }
}

/// Generates the offload microcode for a workload moving `words_in`
/// words to the RAC and `words_out` back, in `burst`-word chunks — the
/// generalized Figure 4 program, on the driver's banks: input in bank 1,
/// output in bank 2.
fn offload_microcode(
    words_in: u32,
    words_out: u32,
    burst: u16,
    op: u16,
) -> Result<Program, AppError> {
    ProgramBuilder::new()
        .transfer_to_coprocessor(1, 0, words_in, burst, 0)
        .map_err(|e| AppError::Microcode(e.to_string()))?
        .execs_op(op)
        .transfer_from_coprocessor(2, 0, words_out, burst, 0)
        .map_err(|e| AppError::Microcode(e.to_string()))?
        .eop()
        .finish()
        .map_err(|e| AppError::Microcode(e.to_string()))
}

/// A deterministic pseudo-random generator shared by the experiments
/// (keeps paper-reproduction runs identical between invocations).
fn lcg(seed: u32) -> impl FnMut() -> u32 {
    let mut state = seed;
    move || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        state
    }
}

/// The IDCT row of Table I: one 8×8 block offloaded through the OCP
/// versus the time-optimized software IDCT.
///
/// # Errors
///
/// Propagates system-level failures as [`AppError`].
pub fn idct_experiment(config: &ExperimentConfig) -> Result<Table1Row, AppError> {
    let mut rnd = lcg(0xC0FF_EE01);
    let coeffs: Vec<i32> = (0..BLOCK_LEN)
        .map(|_| ((rnd() >> 16) as i32 % 2048) - 1024)
        .collect();
    let words: Vec<u32> = coeffs.iter().map(|&c| c as u32).collect();

    #[allow(clippy::cast_possible_truncation)] // an 8x8 block: 64 words
    let block = BLOCK_LEN as u16;
    let program = offload_microcode(block.into(), block.into(), config.burst.min(block), 0)?;
    let mut dev = OuessantDevice::open_with_config(Box::new(IdctRac::new()), config.os, config.soc);
    dev.load_microcode(&program)?;
    dev.write_input(&words)?;
    let stats = dev.submit_and_wait()?;
    let hw_out = dev.read_output(BLOCK_LEN)?;

    let mut cpu = CostModel::new(config.cpu);
    let sw_out = sw_idct_8x8(&mut cpu, &coeffs);
    let sw_cycles = cpu.cycles();

    // Functional check: offloaded result is bit-exact with software.
    let hw_out_i32: Vec<i32> = hw_out.iter().map(|&w| w as i32).collect();
    assert_eq!(hw_out_i32, sw_out, "HW/SW IDCT must agree bit-for-bit");

    Ok(Table1Row::new("IDCT", IDCT_LATENCY, stats, sw_cycles))
}

/// The DFT row of Table I: one 256-point transform offloaded through
/// the OCP versus the soft-float software FFT.
///
/// # Errors
///
/// Propagates system-level failures as [`AppError`].
pub fn dft_experiment(config: &ExperimentConfig) -> Result<Table1Row, AppError> {
    let n = config.dft_points;
    let mut rnd = lcg(0xDF7_0002);
    let samples: Vec<(i32, i32)> = (0..n)
        .map(|_| {
            let re = ((rnd() >> 16) as i32 % 16384) - 8192;
            let im = ((rnd() >> 16) as i32 % 16384) - 8192;
            (re, im)
        })
        .collect();
    let words: Vec<u32> = samples
        .iter()
        .flat_map(|&(re, im)| [re as u32, im as u32])
        .collect();

    let words_each_way = u32::try_from(n * 2).map_err(|e| AppError::Microcode(e.to_string()))?;
    let program = offload_microcode(words_each_way, words_each_way, config.burst, 0)?;
    // Size the FIFOs to the workload ("FIFO memory is … strongly
    // dependent on the accelerator"): the whole block must fit before
    // `exec` launches the core.
    let mut soc = config.soc;
    soc.ocp.fifo_depth = soc.ocp.fifo_depth.max(words_each_way as usize);
    let mut dev = OuessantDevice::open_with_config(Box::new(DftRac::new(n)), config.os, soc);
    dev.load_microcode(&program)?;
    dev.write_input(&words)?;
    let stats = dev.submit_and_wait()?;

    let mut cpu = CostModel::new(config.cpu);
    let float_in: Vec<(f64, f64)> = samples
        .iter()
        .map(|&(re, im)| {
            (
                f64::from(re) / f64::from(1 << 15),
                f64::from(im) / f64::from(1 << 15),
            )
        })
        .collect();
    let _ = sw_fft_f64(&mut cpu, &float_in);
    let sw_cycles = cpu.cycles();

    Ok(Table1Row::new("DFT", dft_latency(n), stats, sw_cycles))
}

/// Regenerates the paper's **Table I** (both rows, Linux/mmap,
/// interrupt mode).
///
/// # Errors
///
/// Propagates system-level failures as [`AppError`].
pub fn table1() -> Result<Vec<Table1Row>, AppError> {
    let config = ExperimentConfig::paper_linux();
    Ok(vec![idct_experiment(&config)?, dft_experiment(&config)?])
}

/// Result of a pure-transfer experiment (passthrough RAC): the setup
/// behind §V-B's "around 1.5 cycles per word" analysis.
#[derive(Debug, Clone, Copy)]
pub struct TransferReport {
    /// Machine cycles of the whole offload (config + run).
    pub machine_cycles: u64,
    /// Data words moved (both directions).
    pub words: u64,
    /// Burst length used.
    pub burst: u16,
}

impl TransferReport {
    /// Effective cycles per word, end to end.
    #[must_use]
    pub fn cycles_per_word(&self) -> f64 {
        self.machine_cycles as f64 / self.words as f64
    }
}

/// Moves `words_each_way` words through a zero-latency passthrough RAC
/// and back, measuring pure integration overhead.
///
/// # Errors
///
/// Propagates system-level failures as [`AppError`].
pub fn transfer_experiment(
    config: &ExperimentConfig,
    words_each_way: u32,
) -> Result<TransferReport, AppError> {
    use ouessant_rac::passthrough::PassthroughRac;

    let mut rnd = lcg(words_each_way ^ 0xBEEF);
    let input: Vec<u32> = (0..words_each_way).map(|_| rnd()).collect();
    let program = offload_microcode(
        words_each_way,
        words_each_way,
        config.burst,
        u16::try_from(words_each_way).unwrap_or(0),
    )?;
    let mut dev =
        OuessantDevice::open_with_config(Box::new(PassthroughRac::new(0)), config.os, config.soc);
    dev.load_microcode(&program)?;
    dev.write_input(&input)?;
    let stats = dev.submit_and_wait()?;
    assert_eq!(
        dev.read_output(input.len())?,
        input,
        "passthrough must deliver the data unchanged"
    );
    Ok(TransferReport {
        machine_cycles: stats.machine_cycles,
        words: stats.words_transferred,
        burst: config.burst,
    })
}

/// Convenience: a DFT over raw `f64` samples through the accelerator,
/// demonstrating the "software library" transparency of §II-B (the user
/// never sees registers or microcode).
///
/// # Errors
///
/// Propagates system-level failures as [`AppError`].
pub fn accelerated_dft(
    config: &ExperimentConfig,
    input: &[(f64, f64)],
) -> Result<Vec<(f64, f64)>, AppError> {
    let n = input.len();
    let samples: Vec<u32> = input
        .iter()
        .flat_map(|&(re, im)| [to_q15(re) as u32, to_q15(im) as u32])
        .collect();
    let words_each_way = u32::try_from(n * 2).map_err(|e| AppError::Microcode(e.to_string()))?;
    let program = offload_microcode(words_each_way, words_each_way, config.burst, 0)?;
    let mut dev = OuessantDevice::open_with_config(Box::new(DftRac::new(n)), config.os, config.soc);
    dev.load_microcode(&program)?;
    dev.write_input(&samples)?;
    dev.submit_and_wait()?;
    Ok(dev
        .read_output(samples.len())?
        .chunks_exact(2)
        .map(|w| {
            (
                f64::from(w[0] as i32) / f64::from(1 << 15),
                f64::from(w[1] as i32) / f64::from(1 << 15),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let rows = table1().unwrap();
        assert_eq!(rows.len(), 2);
        let idct = &rows[0];
        let dft = &rows[1];

        // Lat. column is exact.
        assert_eq!(idct.latency, 18);
        assert_eq!(dft.latency, 2485);

        // Paper: IDCT HW 3000, SW 5000, gain 1.67.
        assert!(
            (2_000..=4_500).contains(&idct.hw_cycles),
            "IDCT HW {} should be near 3000",
            idct.hw_cycles
        );
        assert!(
            (3_500..=6_500).contains(&idct.sw_cycles),
            "IDCT SW {} should be near 5000",
            idct.sw_cycles
        );
        assert!(
            idct.gain > 1.0 && idct.gain < 3.0,
            "IDCT gain {} should be modest (paper: 1.67)",
            idct.gain
        );

        // Paper: DFT HW 7000, SW 600k, gain 85.
        assert!(
            (5_500..=8_500).contains(&dft.hw_cycles),
            "DFT HW {} should be near 7000",
            dft.hw_cycles
        );
        assert!(
            (450_000..=750_000).contains(&dft.sw_cycles),
            "DFT SW {} should be near 600k",
            dft.sw_cycles
        );
        assert!(
            dft.gain > 50.0 && dft.gain < 120.0,
            "DFT gain {} should be near 85",
            dft.gain
        );

        // Orderings the paper's story depends on.
        assert!(dft.gain > idct.gain * 10.0, "DFT gain dwarfs IDCT gain");
        assert!(idct.gain > 1.0, "even the IDCT wins under Linux");
    }

    #[test]
    fn dft_words_match_paper_accounting() {
        let row = dft_experiment(&ExperimentConfig::paper_linux()).unwrap();
        assert_eq!(row.words, 1024, "the paper's '1024 32-bits words'");
    }

    #[test]
    fn baremetal_dft_near_4000() {
        let row = dft_experiment(&ExperimentConfig::paper_baremetal()).unwrap();
        assert_eq!(row.os_overhead, 0);
        assert!(
            (3_400..=4_600).contains(&row.machine_cycles),
            "baremetal DFT {} should be near the paper's 4000",
            row.machine_cycles
        );
    }

    #[test]
    fn linux_overhead_near_3000() {
        let bare = dft_experiment(&ExperimentConfig::paper_baremetal()).unwrap();
        let linux = dft_experiment(&ExperimentConfig::paper_linux()).unwrap();
        let overhead = linux.hw_cycles - bare.hw_cycles;
        assert!(
            (2_500..=3_500).contains(&overhead),
            "Linux overhead {overhead} should be near the paper's 3000"
        );
    }

    #[test]
    fn transfer_efficiency_near_paper() {
        // §V-B: "around 1.5 cycles per word were required".
        let row = dft_experiment(&ExperimentConfig::paper_baremetal()).unwrap();
        let compute = dft_latency(256);
        let transfer_cycles = row.machine_cycles.saturating_sub(compute);
        let per_word = transfer_cycles as f64 / row.words as f64;
        assert!(
            (1.0..=2.0).contains(&per_word),
            "{per_word:.2} cycles/word should be near 1.5"
        );
    }

    #[test]
    fn accelerated_dft_is_transparent() {
        let input: Vec<(f64, f64)> = (0..64)
            .map(|t| ((t as f64 * 0.3).sin() * 0.4, 0.0))
            .collect();
        let out = accelerated_dft(&ExperimentConfig::paper_linux(), &input).unwrap();
        let golden = ouessant_rac::dft::dft_f64(&input);
        for ((ar, ai), (gr, gi)) in out.iter().zip(&golden) {
            assert!((ar - gr).abs() < 0.01 && (ai - gi).abs() < 0.01);
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let a = dft_experiment(&ExperimentConfig::paper_linux()).unwrap();
        let b = dft_experiment(&ExperimentConfig::paper_linux()).unwrap();
        assert_eq!(a.hw_cycles, b.hw_cycles);
        assert_eq!(a.sw_cycles, b.sw_cycles);
    }
}
