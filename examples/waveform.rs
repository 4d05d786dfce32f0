//! Dump a VCD waveform of one offload — the behavioural counterpart of
//! the HDL simulation the original project used for bring-up ("once it
//! was functional in simulation, it worked on the board on the first
//! try", §V-B).
//!
//! ```text
//! cargo run --example waveform
//! gtkwave target/ouessant_offload.vcd   # if you have a viewer
//! ```

use ouessant::ocp::{Ocp, OcpConfig};
use ouessant_isa::assemble;
use ouessant_rac::idct::IdctRac;
use ouessant_sim::bus::{Bus, BusConfig};
use ouessant_sim::memory::{Sram, SramConfig};
use ouessant_sim::vcd::VcdWriter;
use ouessant_sim::{Instant, SystemBus};

const RAM: u32 = 0x4000_0000;
const OCP: u32 = 0x8000_0000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut bus = Bus::new(BusConfig::default());
    let _cpu = bus.register_master();
    bus.add_slave(RAM, Sram::with_words(8192, SramConfig::default()));
    let mut ocp = Ocp::attach(
        &mut bus,
        OCP,
        Box::new(IdctRac::new()),
        OcpConfig::default(),
    );

    let program = assemble("mvtc BANK1,0,DMA64,FIFO0\nexecs\nmvfc BANK2,0,DMA64,FIFO0\neop")?;
    for (i, w) in program.to_words().iter().enumerate() {
        bus.debug_write(RAM + (i as u32) * 4, *w)?;
    }
    for i in 0..64u32 {
        bus.debug_write(RAM + 0x1000 + i * 4, (i * 13) % 512)?;
    }
    ocp.regs().set_bank(0, RAM)?;
    ocp.regs().set_bank(1, RAM + 0x1000)?;
    ocp.regs().set_bank(2, RAM + 0x2000)?;
    ocp.regs().set_prog_size(program.len() as u32)?;

    // Declare the signals a hardware engineer would probe.
    let mut vcd = VcdWriter::new("ocp");
    let sig_state = vcd.add_signal("controller_state", 4);
    let sig_pc = vcd.add_signal("pc", 10);
    let sig_busy = vcd.add_signal("rac_busy", 1);
    let sig_done = vcd.add_signal("ctrl_d", 1);
    let sig_in_occ = vcd.add_signal("fifo_in_occupancy", 12);
    let sig_out_occ = vcd.add_signal("fifo_out_occupancy", 12);

    ocp.regs().start();
    let mut cycle = 0u64;
    while !ocp.regs().done() {
        ocp.tick(&mut bus);
        bus.tick();
        let t = Instant::new(cycle);
        vcd.change(t, sig_state, u64::from(ocp.controller().state().id()));
        vcd.change(t, sig_pc, u64::from(ocp.controller().pc()));
        vcd.change(t, sig_busy, u64::from(ocp.socket().busy()));
        vcd.change(t, sig_done, u64::from(ocp.regs().done()));
        vcd.change(
            t,
            sig_in_occ,
            if ocp.socket().num_inputs() > 0 {
                1024 - ocp.socket().input_space(0)
            } else {
                0
            } as u64,
        );
        vcd.change(t, sig_out_occ, ocp.socket().output_available(0) as u64);
        cycle += 1;
        assert!(cycle < 100_000);
    }

    let path = "target/ouessant_offload.vcd";
    std::fs::write(path, vcd.render())?;
    println!("offload finished in {cycle} cycles");
    println!(
        "waveform with {} signals written to {path}",
        vcd.num_signals()
    );
    Ok(())
}
