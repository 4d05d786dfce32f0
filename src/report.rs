//! The complete paper evaluation — every table, figure-derived
//! artifact, in-text number and ablation — as one markdown report.
//!
//! `examples/reproduce_all.rs` prints it (the source of
//! EXPERIMENTS.md's measured column), and `tests/golden_paper.rs` diffs
//! it byte for byte against the committed `tests/golden/paper.txt`, so
//! no change can move a simulated cycle on the paper path unnoticed.
//! Ratios are printed next to the exact cycle counts they derive from.

use std::error::Error;
use std::fmt::Write;

use ouessant_isa::opt::optimize;
use ouessant_isa::{assemble, ProgramBuilder, FIGURE4_SOURCE};
use ouessant_rac::dft::dft_latency;
use ouessant_rac::passthrough::PassthroughRac;
use ouessant_rac::slot::ReconfigurableSlot;
use ouessant_resources::estimate::ocp_overhead;
use ouessant_resources::{
    dpr_region_estimate, estimate_fmax, estimate_ocp, rac_estimate, Device, OcpParams, RacKind,
};
use ouessant_sim::memory::SramConfig;
use ouessant_sim::Frequency;
use ouessant_soc::app::{dft_experiment, idct_experiment, transfer_experiment, ExperimentConfig};
use ouessant_soc::driver::bank_map;
use ouessant_soc::os::OsModel;
use ouessant_soc::soc::{CompletionMode, Soc, SocConfig};

/// Bitstream size of each A6 configuration: an 8192-cycle swap.
const DPR_BITSTREAM_BYTES: u64 = 32 * 1024;
/// Phases in the A6 amortisation sweep, alternating two configurations.
const DPR_PHASES: u16 = 4;

/// Ablation A6's amortisation sweep: [`DPR_PHASES`] alternating phases of
/// `blocks_per_phase` 16-word blocks on one reconfigurable slot, with an
/// `rcfg` at the start of each phase (the first is a one-cycle reload
/// of the active configuration). Returns the run's machine cycles.
fn dpr_phases_cycles(blocks_per_phase: u16) -> Result<u64, Box<dyn Error>> {
    let mut b = ProgramBuilder::new();
    for phase in 0..DPR_PHASES {
        b = b
            .rcfg(phase % 2)
            .ldo(0, 0)?
            .ldo(1, 0)?
            .ldc(0, blocks_per_phase)?;
        let loop_top = b.here();
        b = b
            .mvtcr(1, 0, 16, 0)?
            .execs_op(16)
            .mvfcr(2, 1, 16, 0)?
            .djnz(0, loop_top)?;
    }
    let program = b.eop().finish()?;

    let slot = ReconfigurableSlot::new()
        .with_config(Box::new(PassthroughRac::new(0)), DPR_BITSTREAM_BYTES)
        .with_config(Box::new(PassthroughRac::scaling(3, 0)), DPR_BITSTREAM_BYTES);
    let mut soc = Soc::new(Box::new(slot), SocConfig::default());
    let banks = bank_map(soc.config().ram_base);
    let [(_, program_at), (_, input_at), _] = banks;
    soc.load_words(program_at, &program.to_words())?;
    let input: Vec<u32> = (0..u32::from(blocks_per_phase) * 16).collect();
    soc.load_words(input_at, &input)?;
    soc.configure(&banks, u32::try_from(program.len())?)?;
    Ok(soc.start_and_wait(100_000_000)?.run_cycles)
}

/// Runs every experiment and renders the report.
///
/// # Errors
///
/// Propagates the first failing experiment, microcode assembly or
/// optimisation.
pub fn paper_report() -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    writeln!(out, "# Ouessant reproduction report\n")?;

    // ---- Table I ----
    writeln!(out, "## Table I (Linux, mmap driver, 50 MHz)\n")?;
    writeln!(out, "| Row | Lat. | HW | SW | Gain | paper |")?;
    writeln!(out, "|---|---:|---:|---:|---:|---|")?;
    let config = ExperimentConfig::paper_linux();
    let idct = idct_experiment(&config)?;
    writeln!(
        out,
        "| IDCT | {} | {} | {} | {:.2} | 18 / 3000 / 5000 / 1.67 |",
        idct.latency, idct.hw_cycles, idct.sw_cycles, idct.gain
    )?;
    let dft = dft_experiment(&config)?;
    writeln!(
        out,
        "| DFT | {} | {} | {} | {:.2} | 2485 / 7000 / 600k / 85 |",
        dft.latency, dft.hw_cycles, dft.sw_cycles, dft.gain
    )?;

    // ---- §V-B in-text ----
    writeln!(out, "\n## §V-B in-text numbers\n")?;
    let bare = dft_experiment(&ExperimentConfig::paper_baremetal())?;
    writeln!(
        out,
        "- DFT baremetal: **{}** cycles (paper 4000)",
        bare.machine_cycles
    )?;
    writeln!(
        out,
        "- Linux overhead: **{}** cycles (paper 3000)",
        dft.hw_cycles - bare.hw_cycles
    )?;
    let transfer = bare.machine_cycles - dft_latency(256);
    writeln!(
        out,
        "- transfer: **{} cycles / {} words = {:.2} cy/word** (paper ~1500, ~1.5)",
        transfer,
        bare.words,
        transfer as f64 / bare.words as f64
    )?;

    // ---- §V-A resources ----
    writeln!(out, "\n## §V-A resources (analytical)\n")?;
    let params = OcpParams::default();
    let overhead = ocp_overhead(&estimate_ocp(&params));
    writeln!(
        out,
        "- OCP overhead: **{} LUT / {} FF** (paper < 1000 / < 750) → {}",
        overhead.lut,
        overhead.ff,
        if overhead.lut < 1000 && overhead.ff < 750 {
            "claim HOLDS"
        } else {
            "claim VIOLATED"
        }
    )?;
    let timing = estimate_fmax(&params);
    writeln!(
        out,
        "- timing: fmax {} at 50 MHz system clock → {}",
        timing.fmax(),
        if timing.meets(Frequency::mhz(50)) {
            "no timing errors"
        } else {
            "FAILS"
        }
    )?;
    writeln!(
        out,
        "- utilization on {}: {}",
        Device::artix7_100t().name,
        Device::artix7_100t().utilization(overhead)
    )?;

    // ---- Ablations ----
    writeln!(out, "\n## Ablation A1: burst length (1024 words)\n")?;
    writeln!(out, "| burst | cycles | cy/word |")?;
    writeln!(out, "|---|---:|---:|")?;
    for burst in [8u16, 16, 32, 64, 128, 256] {
        let r = transfer_experiment(
            &ExperimentConfig {
                burst,
                ..ExperimentConfig::paper_baremetal()
            },
            512,
        )?;
        writeln!(
            out,
            "| DMA{burst} | {} | {:.3} |",
            r.machine_cycles,
            r.cycles_per_word()
        )?;
    }

    writeln!(
        out,
        "\n## Ablation A2: completion mode (DFT baremetal machine cycles)\n"
    )?;
    for (name, mode) in [
        ("interrupt", CompletionMode::Interrupt),
        ("poll/16", CompletionMode::Polling { interval: 16 }),
        ("poll/1024", CompletionMode::Polling { interval: 1024 }),
    ] {
        let base = ExperimentConfig::paper_baremetal();
        let row = dft_experiment(&ExperimentConfig {
            soc: SocConfig {
                completion: mode,
                ..base.soc
            },
            ..base
        })?;
        writeln!(out, "- {name}: {} cycles", row.machine_cycles)?;
    }

    writeln!(out, "\n## Ablation A3: driver strategy (DFT HW cycles)\n")?;
    for os in [
        OsModel::Baremetal,
        OsModel::linux_mmap(),
        OsModel::linux_copy(),
    ] {
        let row = dft_experiment(&ExperimentConfig {
            os,
            ..ExperimentConfig::paper_linux()
        })?;
        writeln!(
            out,
            "- {os}: {} cycles (gain {:.1})",
            row.hw_cycles, row.gain
        )?;
    }

    writeln!(
        out,
        "\n## Ablation A4: SRAM wait states (1024 words at DMA64)\n"
    )?;
    for ws in [0u32, 1, 3, 7] {
        let base = ExperimentConfig::paper_baremetal();
        let r = transfer_experiment(
            &ExperimentConfig {
                soc: SocConfig {
                    sram: SramConfig {
                        first_access_wait_states: ws,
                        sequential_wait_states: 0,
                    },
                    ..base.soc
                },
                ..base
            },
            512,
        )?;
        writeln!(
            out,
            "- {ws} wait states: {} cycles, {:.3} cy/word",
            r.machine_cycles,
            r.cycles_per_word()
        )?;
    }

    writeln!(out, "\n## Ablation A5: gain vs DFT size (Linux)\n")?;
    writeln!(out, "| N | HW | SW | gain |")?;
    writeln!(out, "|---:|---:|---:|---:|")?;
    for n in [16usize, 64, 256, 1024] {
        let row = dft_experiment(&ExperimentConfig {
            dft_points: n,
            burst: 64.min(u16::try_from(n * 2)?),
            ..ExperimentConfig::paper_linux()
        })?;
        writeln!(
            out,
            "| {n} | {} | {} | {:.1} |",
            row.hw_cycles, row.sw_cycles, row.gain
        )?;
    }

    writeln!(out, "\n## Ablation A6: DPR area trade-off\n")?;
    let kinds = [RacKind::Idct, RacKind::SpiralDft { points: 256 }];
    let sum = rac_estimate(kinds[0]) + rac_estimate(kinds[1]);
    let region = dpr_region_estimate(&kinds);
    writeln!(out, "- two static regions: {sum}")?;
    writeln!(out, "- one DPR region:     {region}")?;
    writeln!(
        out,
        "\nSwap amortisation: {DPR_PHASES} phases of N 16-word blocks, alternating two \
         configurations ({DPR_BITSTREAM_BYTES}-byte bitstreams, one swap between phases).\n"
    )?;
    writeln!(out, "| blocks/phase | cycles | cy/block |")?;
    writeln!(out, "|---:|---:|---:|")?;
    for blocks in [1u16, 2, 4, 8, 16] {
        let cycles = dpr_phases_cycles(blocks)?;
        writeln!(
            out,
            "| {blocks} | {cycles} | {:.1} |",
            cycles as f64 / f64::from(DPR_PHASES * blocks)
        )?;
    }

    // ---- Microcode optimizer ----
    writeln!(out, "\n## Microcode optimizer on Figure 4\n")?;
    let original = assemble(FIGURE4_SOURCE)?;
    let (optimized, stats) = optimize(&original)?;
    writeln!(
        out,
        "- {} instructions → {} ({} transfers coalesced, {} loops created), same {} words",
        stats.before,
        stats.after,
        stats.coalesced,
        stats.loops_created,
        optimized.static_words_transferred()
    )?;

    writeln!(out, "\ndone: every experiment regenerated.")?;
    Ok(out)
}
