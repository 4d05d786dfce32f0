//! JPEG decode pipeline: the paper's motivating scenario.
//!
//! "Smartphones SoCs integrate hardware video decoders, in order to
//! provide flawless High-Definition video playback, which can not be
//! obtained with low-power GPP cores." The paper's first RAC is a 2-D
//! IDCT for JPEG decoding; this example decodes a synthetic image —
//! many 8×8 coefficient blocks — through the IDCT OCP using the
//! extension ISA's hardware loop, and compares against the
//! time-optimized software IDCT.
//!
//! ```text
//! cargo run --example jpeg_pipeline
//! ```

use ouessant_isa::assemble;
use ouessant_rac::idct::{IdctRac, BLOCK_LEN};
use ouessant_soc::cpu::CostModel;
use ouessant_soc::driver::OuessantDevice;
use ouessant_soc::os::OsModel;
use ouessant_soc::sw::sw_idct_8x8;

/// A 64×64-pixel synthetic image: 8×8 = 64 coefficient blocks.
const BLOCKS: usize = 64;

fn synthetic_blocks() -> Vec<Vec<i32>> {
    let mut state = 0x1D27_3645u32;
    (0..BLOCKS)
        .map(|_block| {
            (0..BLOCK_LEN)
                .map(|i| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    // JPEG-like: strong DC, sparse AC.
                    if i == 0 {
                        ((state >> 20) as i32 % 1024) + 512
                    } else if state.is_multiple_of(5) {
                        ((state >> 18) as i32 % 256) - 128
                    } else {
                        0
                    }
                })
                .collect()
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let blocks = synthetic_blocks();

    // Microcode with the extension ISA: a hardware loop walks all 64
    // blocks without any CPU intervention between them.
    let microcode = format!(
        "
        ldc R0,{BLOCKS}
        ldo O0,0
        ldo O1,0
        block:
            mvtcr BANK1,O0,DMA64,FIFO0
            execs
            mvfcr BANK2,O1,DMA64,FIFO0
            djnz R0,block
        eop
        "
    );
    let program = assemble(&microcode)?;
    println!(
        "decoding {BLOCKS} blocks with a {}-instruction looped microcode",
        program.len()
    );

    // Offload the whole image through the Linux driver.
    let mut dev = OuessantDevice::open(Box::new(IdctRac::new()), OsModel::linux_mmap());
    dev.load_microcode(&program)?;
    let flat: Vec<u32> = blocks.iter().flatten().map(|&c| c as u32).collect();
    dev.write_input(&flat)?;
    let stats = dev.submit_and_wait()?;

    // Software decode of the same image.
    let mut cpu = CostModel::leon3();
    let sw_pixels: Vec<Vec<i32>> = blocks.iter().map(|b| sw_idct_8x8(&mut cpu, b)).collect();
    let sw_cycles = cpu.cycles();

    // Verify: the offloaded pixels are bit-exact with software.
    let hw_flat = dev.read_output(BLOCKS * BLOCK_LEN)?;
    for (bi, sw_block) in sw_pixels.iter().enumerate() {
        for (i, &sw) in sw_block.iter().enumerate() {
            let hw = hw_flat[bi * BLOCK_LEN + i] as i32;
            assert_eq!(hw, sw, "block {bi} pixel {i}");
        }
    }

    let hw_cycles = stats.total_cycles();
    println!("image: {BLOCKS} blocks of {BLOCK_LEN} coefficients");
    println!(
        "hardware: {hw_cycles} cycles total ({} machine + {} Linux), {} words moved",
        stats.machine_cycles, stats.os_cycles, stats.words_transferred
    );
    println!("software: {sw_cycles} cycles");
    println!(
        "whole-image gain: {:.2}x  (single-block Table I gain is 1.67; batching \
         amortizes the Linux overhead over {BLOCKS} blocks)",
        sw_cycles as f64 / hw_cycles as f64
    );
    println!("ok: hardware and software pixels are bit-identical");
    Ok(())
}
