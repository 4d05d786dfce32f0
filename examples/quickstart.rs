//! Quickstart: assemble the paper's Figure 4 style microcode, integrate
//! an accelerator behind an Ouessant coprocessor, and run one offload.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ouessant::ocp::{Ocp, OcpConfig};
use ouessant_isa::{assemble, disassemble};
use ouessant_rac::passthrough::PassthroughRac;
use ouessant_sim::bus::{Bus, BusConfig};
use ouessant_sim::memory::{Sram, SramConfig};
use ouessant_sim::SystemBus;

const RAM: u32 = 0x4000_0000;
const OCP: u32 = 0x8000_0000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Microcode: the textual syntax of the paper's Figure 4.
    let program = assemble(
        "
        // move 32 words from bank 1 into the accelerator,
        // run it, and move the results into bank 2
        mvtc BANK1,0,DMA32,FIFO0
        execs 32
        mvfc BANK2,0,DMA32,FIFO0
        eop
        ",
    )?;
    println!(
        "microcode ({} instructions):\n{}",
        program.len(),
        disassemble(&program)
    );

    // 2. Platform: an AHB-like bus with SRAM, as on the paper's Leon3.
    let mut bus = Bus::new(BusConfig::default());
    let _cpu = bus.register_master();
    bus.add_slave(RAM, Sram::with_words(8192, SramConfig::default()));

    // 3. The OCP: here wrapping a simple passthrough accelerator, so the
    //    coprocessor acts as a microcoded memory-to-memory DMA.
    let mut ocp = Ocp::attach(
        &mut bus,
        OCP,
        Box::new(PassthroughRac::new(0)),
        OcpConfig::default(),
    );

    // 4. Host driver work: place program + data, configure banks, start.
    for (i, w) in program.to_words().iter().enumerate() {
        bus.debug_write(RAM + (i as u32) * 4, *w)?;
    }
    for i in 0..32u32 {
        bus.debug_write(RAM + 0x1000 + i * 4, i * i)?;
    }
    ocp.regs().set_bank(0, RAM)?; // bank 0: microcode
    ocp.regs().set_bank(1, RAM + 0x1000)?; // bank 1: input
    ocp.regs().set_bank(2, RAM + 0x2000)?; // bank 2: output
    ocp.regs().set_prog_size(program.len() as u32)?;
    ocp.regs().start();

    // 5. The coprocessor runs autonomously; the CPU would be free here.
    let mut cycles = 0u64;
    while !ocp.regs().done() {
        ocp.tick(&mut bus);
        bus.tick();
        cycles += 1;
        assert!(cycles < 100_000, "offload should finish quickly");
    }

    println!("offload finished in {cycles} cycles");
    let stats = ocp.stats();
    println!(
        "words transferred: {}   instructions retired: {}",
        stats.words_transferred, stats.instructions_retired
    );
    for i in [0u32, 1, 31] {
        let v = bus.debug_read(RAM + 0x2000 + i * 4)?;
        println!("out[{i:>2}] = {v}");
        assert_eq!(v, i * i);
    }
    println!("ok: results landed in bank 2, untouched by the CPU");
    Ok(())
}
