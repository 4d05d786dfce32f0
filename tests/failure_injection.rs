//! System-level failure injection: every fault path a buggy driver or
//! corrupted microcode can trigger must be reported, never silently
//! mis-executed.

use ouessant::controller::ExecError;
use ouessant::ocp::{Ocp, OcpConfig};
use ouessant_isa::assemble;
use ouessant_rac::passthrough::PassthroughRac;
use ouessant_sim::bus::{Bus, BusConfig};
use ouessant_sim::memory::{Sram, SramConfig};
use ouessant_sim::SystemBus;
use ouessant_soc::soc::{Soc, SocConfig, SocError};

const RAM: u32 = 0x4000_0000;
const OCP_BASE: u32 = 0x8000_0000;

fn fixture() -> (Bus, Ocp) {
    let mut bus = Bus::new(BusConfig::default());
    let _cpu = SystemBus::register_master(&mut bus);
    bus.add_slave(RAM, Sram::with_words(4096, SramConfig::no_wait()));
    let ocp = Ocp::attach(
        &mut bus,
        OCP_BASE,
        Box::new(PassthroughRac::new(0)),
        OcpConfig::default(),
    );
    (bus, ocp)
}

fn run_until_fault(bus: &mut Bus, ocp: &mut Ocp, max: u64) -> ExecError {
    let mut cycles = 0;
    loop {
        ocp.tick(bus);
        SystemBus::tick(bus);
        cycles += 1;
        if let Some(f) = ocp.fault() {
            return f.clone();
        }
        assert!(cycles < max, "expected a fault within {max} cycles");
        assert!(!ocp.regs().done(), "must not report success");
    }
}

#[test]
fn corrupted_instruction_word_faults() {
    let (mut bus, mut ocp) = fixture();
    let program = assemble("nop\neop").unwrap();
    let mut words = program.to_words();
    words[0] = 31u32 << 27; // reserved opcode
    for (i, w) in words.iter().enumerate() {
        bus.debug_write(RAM + (i as u32) * 4, *w).unwrap();
    }
    ocp.regs().set_bank(0, RAM).unwrap();
    ocp.regs().set_prog_size(2).unwrap();
    ocp.regs().start();
    let fault = run_until_fault(&mut bus, &mut ocp, 1_000);
    assert!(matches!(fault, ExecError::BadInstruction { pc: 0, .. }));
}

#[test]
fn transfer_outside_memory_faults() {
    let (mut bus, mut ocp) = fixture();
    let program = assemble("mvtc BANK1,0,DMA8,FIFO0\neop").unwrap();
    for (i, w) in program.to_words().iter().enumerate() {
        bus.debug_write(RAM + (i as u32) * 4, *w).unwrap();
    }
    ocp.regs().set_bank(0, RAM).unwrap();
    ocp.regs().set_bank(1, 0x9000_0000).unwrap(); // unmapped
    ocp.regs().set_prog_size(program.len() as u32).unwrap();
    ocp.regs().start();
    let fault = run_until_fault(&mut bus, &mut ocp, 1_000);
    assert!(matches!(fault, ExecError::Bus(_)));
}

#[test]
fn burst_crossing_memory_end_faults() {
    let (mut bus, mut ocp) = fixture();
    // Bank 1 points at the last words of SRAM; DMA64 crosses the end.
    let program = assemble("mvtc BANK1,0,DMA64,FIFO0\neop").unwrap();
    for (i, w) in program.to_words().iter().enumerate() {
        bus.debug_write(RAM + (i as u32) * 4, *w).unwrap();
    }
    ocp.regs().set_bank(0, RAM).unwrap();
    ocp.regs().set_bank(1, RAM + 4096 * 4 - 16).unwrap();
    ocp.regs().set_prog_size(program.len() as u32).unwrap();
    ocp.regs().start();
    let fault = run_until_fault(&mut bus, &mut ocp, 1_000);
    assert!(matches!(fault, ExecError::Bus(_)));
}

#[test]
fn missing_terminator_overruns_and_faults() {
    let (mut bus, mut ocp) = fixture();
    // Hand-encode a program without eop (the assembler would refuse).
    let words = [ouessant_isa::Instruction::Nop.encode()];
    for (i, w) in words.iter().enumerate() {
        bus.debug_write(RAM + (i as u32) * 4, *w).unwrap();
    }
    ocp.regs().set_bank(0, RAM).unwrap();
    ocp.regs().set_prog_size(1).unwrap();
    ocp.regs().start();
    let fault = run_until_fault(&mut bus, &mut ocp, 1_000);
    assert!(matches!(fault, ExecError::PcOverrun { pc: 1 }));
}

#[test]
fn program_size_beyond_store_faults() {
    let (mut bus, mut ocp) = fixture();
    ocp.regs().set_bank(0, RAM).unwrap();
    ocp.regs().with_mut(|r| {
        r.bus_write(ouessant::regs::REG_PROG_SIZE, 4096);
    });
    ocp.regs().start();
    let fault = run_until_fault(&mut bus, &mut ocp, 100);
    assert!(matches!(fault, ExecError::BadProgSize { size: 4096 }));
}

#[test]
fn unconfigured_program_bank_faults() {
    let (mut bus, mut ocp) = fixture();
    // Bank 0 never set: the program fetch itself cannot translate.
    ocp.regs().set_prog_size(2).unwrap();
    ocp.regs().start();
    let fault = run_until_fault(&mut bus, &mut ocp, 100);
    assert!(matches!(fault, ExecError::Translate(_)));
}

#[test]
fn oversized_burst_for_fifo_deadlock_is_detectable() {
    // A DMA256 into a 64-word FIFO can never be satisfied. The
    // controller waits (hardware would too); the *system* layer reports
    // the hang as a timeout rather than wrong data.
    let config = SocConfig {
        ocp: ouessant::ocp::OcpConfig { fifo_depth: 64 },
        ..SocConfig::default()
    };
    let mut soc = Soc::new(Box::new(PassthroughRac::new(0)), config);
    let ram = soc.config().ram_base;
    let program = assemble("mvtc BANK1,0,DMA256,FIFO0\neop").unwrap();
    soc.load_words(ram, &program.to_words()).unwrap();
    soc.load_words(ram + 0x4000, &vec![7u32; 256]).unwrap();
    soc.configure(&[(0, ram), (1, ram + 0x4000)], program.len() as u32)
        .unwrap();
    assert_eq!(
        soc.start_and_wait(20_000),
        Err(SocError::Timeout { budget: 20_000 })
    );
}

#[test]
fn driver_gate_blocks_microcode_the_bypass_proves_faults() {
    // The driver's static gate and the runtime agree. A 256-word burst
    // from word offset 16256 overruns the 16384-word bank window: the
    // analyzer rejects the load, and running the same program on a
    // `Soc` with the driver's memory map reproduces the exact failure
    // it prevents — the DMA runs off the end of mapped SRAM and the
    // controller faults.
    use ouessant_soc::driver::bank_map;
    use ouessant_soc::{DriverError, OsModel, OuessantDevice};
    let config = SocConfig {
        // SRAM ends where the driver's 16384-word output buffer ends,
        // so the overrunning burst leaves mapped memory instead of
        // silently reading past the buffer.
        sram_words: 3 * 16384,
        ..SocConfig::default()
    };
    let program = assemble("mvtc BANK2,16256,DMA256,FIFO0\neop").unwrap();
    let mut dev = OuessantDevice::open_with_config(
        Box::new(PassthroughRac::new(0)),
        OsModel::Baremetal,
        config,
    );
    let err = dev.load_microcode(&program).unwrap_err();
    assert!(matches!(err, DriverError::RejectedMicrocode(_)), "{err:?}");
    assert!(err.to_string().contains("bank-overflow"), "{err}");

    // The driver's map: program, input and output buffers.
    let mut soc = Soc::new(Box::new(PassthroughRac::new(0)), config);
    let banks = bank_map(soc.config().ram_base);
    soc.load_words(banks[0].1, &program.to_words()).unwrap();
    soc.configure(&banks, program.len() as u32).unwrap();
    match soc.start_and_wait(100_000) {
        Err(SocError::Ocp(fault)) => {
            assert!(matches!(fault, ExecError::Bus(_)), "{fault:?}");
        }
        other => panic!("expected the controller to fault, got {other:?}"),
    }
}

#[test]
fn fault_visible_in_debug_state_register() {
    let (mut bus, mut ocp) = fixture();
    ocp.regs().set_prog_size(2).unwrap();
    ocp.regs().start();
    let _ = run_until_fault(&mut bus, &mut ocp, 100);
    // The host can diagnose the hang by reading the debug state
    // register over the bus: 15 = Faulted.
    let state = bus
        .debug_read(OCP_BASE + ouessant::regs::REG_DBG_STATE)
        .unwrap();
    assert_eq!(state, 15);
}

#[test]
fn recovery_after_fault_by_restart() {
    let (mut bus, mut ocp) = fixture();
    // First run faults (unconfigured bank 0).
    ocp.regs().set_prog_size(1).unwrap();
    ocp.regs().start();
    let _ = run_until_fault(&mut bus, &mut ocp, 100);

    // Host fixes the configuration and restarts: a faulted controller
    // stays faulted (hardware would need a reset line); verify the
    // fault is sticky rather than silently clearing.
    let program = assemble("eop").unwrap();
    for (i, w) in program.to_words().iter().enumerate() {
        bus.debug_write(RAM + (i as u32) * 4, *w).unwrap();
    }
    ocp.regs().set_bank(0, RAM).unwrap();
    ocp.regs().start();
    for _ in 0..1_000 {
        ocp.tick(&mut bus);
        SystemBus::tick(&mut bus);
    }
    assert!(ocp.fault().is_some(), "fault is sticky until reset");
    assert!(!ocp.regs().done());
}
